"""Workload definitions and the correctness gates that score their output.

Each workload is one fixed `qchain` command line.  The gates derive what a
correct run must print from the workload's grid, never from the program:
a verify run must print exactly the expected PASS lines, and a compute run
must reproduce the exact records recorded from the reference build, byte
for byte.  Every gate returns an `Outcome` counting operations attempted
and failed, where an operation is one expected check or one expected
compute record.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Every run, workload or control, uses both construction routes, 256 bits
# and one process.
COMMON = ("--method", "both", "--precision-bits", "256", "--jobs", "1")
ALL_CHECKS = ("structure", "tq", "linearity", "finite-size", "closed-forms", "roots")

# L values with published closed forms; each gets two closed-forms checks.
CLOSED_FORM_L = (7, 9, 11)
ROOT_CHECKS = ("roots", "root-product", "root-inversion", "bae", "root-sum")

EXPECTED_COMPUTE = Path(__file__).with_name("expected_compute.json")
CHECK_LINE = re.compile(r"^(PASS|FAIL) (\S+)((?: \w+=-?\d+)*)(?: \[.*\])?$")


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    L: tuple[int, ...]
    N_max: int
    checks: tuple[str, ...] = ()

    def argv(self) -> list[str]:
        """The CLI arguments of one run, after `python -m qchain.cli`."""
        args = [
            self.subcommand,
            "--L",
            ",".join(map(str, self.L)),
            "--N-max",
            str(self.N_max),
            *COMMON,
        ]
        if self.checks:
            args += ["--checks", ",".join(self.checks)]
        return args

    def selected_checks(self) -> tuple[str, ...]:
        return self.checks or ALL_CHECKS


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-grid", "verify", (3, 5, 7, 9, 11), 4),
        Workload("verify-exact", "verify", tuple(range(3, 22, 2)), 3, ALL_CHECKS[:-1]),
        Workload("compute-wide", "compute", (11, 21, 31), 6),
    )
}


def degree(L: int, N: int) -> int:
    return N * (L - 2) + (L - 3) // 2


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list[str]

    @classmethod
    def all_failed(cls, attempted: int, why: str) -> "Outcome":
        return cls(attempted, attempted, [why])

    def __add__(self, other: "Outcome") -> "Outcome":
        return Outcome(
            self.attempted + other.attempted,
            self.failed + other.failed,
            self.problems + other.problems,
        )


# ---------------------------------------------------------------------------
# verify


def expected_checks(w: Workload) -> Counter:
    """Multiset of (check, L, N) a correct verify run prints, from the grid alone."""
    selected = w.selected_checks()
    expected: Counter = Counter()
    for L in w.L:
        for N in range(1, w.N_max + 1):
            names = ["cross-method"]
            if "structure" in selected:
                names += ["structure", "inverse-sum"]
            if "tq" in selected:
                names.append("tq")
            if "roots" in selected:
                names += ROOT_CHECKS
            expected.update((name, L, N) for name in names)
        for name in ("linearity", "finite-size"):
            if name in selected:
                expected.update((name, L, N) for N in range(1, w.N_max + 1))
        if "closed-forms" in selected and L in CLOSED_FORM_L:
            expected.update(("closed-forms", L, N) for N in (1, 2))
    return expected


def parse_verdicts(stdout: str) -> tuple[Counter, Counter]:
    """PASS and FAIL multisets of (check, L, N) from verify's text output."""
    verdicts = {"PASS": Counter(), "FAIL": Counter()}
    for line in stdout.splitlines():
        match = CHECK_LINE.match(line)
        if not match:
            continue
        status, name, where = match.groups()
        params = dict(item.split("=") for item in where.split())
        key = (name, int(params.get("L", 0)), int(params.get("N", 0)))
        verdicts[status][key] += 1
    return verdicts["PASS"], verdicts["FAIL"]


def gate_verify(w: Workload, exit_code: int, stdout: str) -> Outcome:
    expected = expected_checks(w)
    total = sum(expected.values())
    if exit_code != 0:
        return Outcome.all_failed(total, f"{w.name}: exit code {exit_code}, expected 0")
    passed, failed = parse_verdicts(stdout)
    # A FAIL or absent line leaves its expected check missing; any line the
    # grid does not call for is an extra operation, and a failed one.
    missing = sum((expected - passed).values())
    extra = sum(((passed + failed) - expected).values())
    problems = []
    if missing:
        problems.append(f"{w.name}: {missing} checks missing or not PASS")
    if extra:
        problems.append(f"{w.name}: {extra} unexpected checks")
    return Outcome(total + extra, missing + extra, problems)


# ---------------------------------------------------------------------------
# compute


def gate_compute(w: Workload, exit_code: int, stdout: str) -> Outcome:
    points = [(L, N) for L in w.L for N in range(1, w.N_max + 1)]
    total = len(points)
    if exit_code != 0:
        return Outcome.all_failed(total, f"{w.name}: exit code {exit_code}, expected 0")
    try:
        runs = json.loads(stdout)["runs"]
        by_point = {(r["L"], r["N"]): r for r in runs}
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome.all_failed(total, f"{w.name}: unreadable output: {exc!r}")

    problems = []
    if len(runs) != total or set(by_point) != set(points):
        problems.append(f"{w.name}: {len(runs)} records, expected {total} for {points}")
    good = set()
    for point in points:
        reason = _record_problem(by_point[point], *point) if point in by_point else "missing"
        if reason:
            problems.append(f"{w.name}: L={point[0]} N={point[1]}: {reason}")
        else:
            good.add(point)

    # The headline claim: per-site energy, A and slope do not depend on N.
    for L in w.L:
        rows = [by_point[(L, N)] for N in range(1, w.N_max + 1) if (L, N) in by_point]
        for key in ("energy_per_site", "A", "slope"):
            if len({json.dumps(r.get(key), sort_keys=True) for r in rows}) != 1:
                problems.append(f"{w.name}: {key} differs across N at L={L}")
                good -= {(L, N) for N in range(1, w.N_max + 1)}

    # compute output must stay byte-identical to the reference.
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    if digest != json.loads(EXPECTED_COMPUTE.read_text())["sha256"]:
        problems.append(f"{w.name}: output sha256 {digest} differs from the reference")
        good = set()
    return Outcome(total, total - len(good), problems)


def _record_problem(record: dict, L: int, N: int) -> str:
    p = degree(L, N)
    if record.get("p") != p or record.get("M") != 2 * N + 1:
        return f"p={record.get('p')} M={record.get('M')}, expected p={p} M={2 * N + 1}"
    try:
        e = [Fraction(c) for c in record["e"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"unreadable coefficients: {exc!r}"
    if len(e) != p + 1:
        return f"{len(e)} coefficients, expected p + 1 = {p + 1}"
    if e[0] != 1:
        return f"e_0 = {e[0]}, expected 1"
    sign = (-1) ** p
    if any(e[k] != sign * e[p - k] for k in range(p + 1)):
        return "coefficients are not palindromic"
    return ""


def gate(w: Workload, exit_code: int, stdout: str) -> Outcome:
    if w.subcommand == "verify":
        return gate_verify(w, exit_code, stdout)
    return gate_compute(w, exit_code, stdout)


# ---------------------------------------------------------------------------
# seeded negative control


@dataclass(frozen=True)
class Tamper:
    L: int
    k: int
    delta: Fraction

    @property
    def spec(self) -> str:
        return f"{self.k}:{self.delta.numerator}/{self.delta.denominator}"

    def __str__(self) -> str:
        return f"--tamper {self.spec} at L={self.L}"

    def argv(self) -> list[str]:
        return [
            "verify",
            "--L",
            str(self.L),
            "--N-max",
            "2",
            "--checks",
            "structure,tq",
            "--tamper",
            self.spec,
            *COMMON,
        ]


def pick_tamper(w: Workload, seed: int) -> Tamper:
    """The seed picks L (small ones only, to keep the control cheap), k and delta."""
    rng = random.Random(f"{w.name}:{seed}")
    L = rng.choice([L for L in w.L if L <= 11])
    k = rng.randint(0, degree(L, 1))
    numerator = rng.choice([-1, 1]) * rng.randint(1, 9)
    delta = Fraction(numerator, 2 ** rng.randint(0, 30))
    return Tamper(L, k, delta)


def gate_tamper(t: Tamper, exit_code: int, stdout: str) -> Outcome:
    """tq must FAIL at both tampered points and the run must exit 1."""
    points = [(t.L, N) for N in (1, 2)]
    if exit_code != 1:
        return Outcome.all_failed(len(points), f"tamper {t}: exit code {exit_code}, expected 1")
    _, failed = parse_verdicts(stdout)
    green = [pt for pt in points if failed[("tq", *pt)] != 1]
    problems = [f"tamper {t}: tq did not FAIL at L={L} N={N}" for L, N in green]
    return Outcome(len(points), len(green), problems)
