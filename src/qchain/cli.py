"""Command-line driver: compute, verify, table.

Exit codes: 0 success (all checks passed), 1 at least one check failed,
2 invalid configuration, 3 internal error (for example an exactness
assertion tripping inside a builder).  The default verification grid is
L in {3, 5, 7, 9, 11} with N up to 4.  QCHAIN_PRECISION_BITS overrides the
default numeric precision when --precision-bits is not given.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .energy import (
    CLOSED_FORM_SUMS,
    WSummary,
    crosscheck_closed_forms,
    extract_A,
    groundstate_summary,
    verify_linearity,
    verify_no_finite_size_correction,
)
from .qoperator import (
    ChainParams,
    QPolynomial,
    q_closed_form,
    q_linear_system,
    build_q,
    verify_structure,
    verify_tq_identity,
)
from .rationals import format_rational, parse_rational
from .report import CheckResult, FalsificationError, VerificationReport
from .roots import (
    ConvergenceError,
    bae_residuals_by_form,
    find_roots,
    inversion_closure_gap,
    numeric_cross_check,
    root_product_gap,
)
from .wtransform import verify_inverse_sum

import mpmath

DEFAULT_GRID_L = (3, 5, 7, 9, 11)
DEFAULT_N_MAX = 4
DEFAULT_PRECISION = 256
PRECISION_ENV = "QCHAIN_PRECISION_BITS"

CHECK_TOKENS = ("structure", "tq", "linearity", "finite-size", "closed-forms", "roots")
# Checks of one L read from its gathered summaries, which need N = 1, 2.
PER_L_CHECKS = ("linearity", "finite-size", "closed-forms")
# Checks that need the root sum E1 of a point (structure for inverse-sum).
SUMMARY_CHECKS = ("structure", "roots") + PER_L_CHECKS
CHECK_ALIASES = {"section4": "closed-forms"}
ENTRY_ORDER = {
    name: index
    for index, name in enumerate(
        (
            "cross-method",
            "structure",
            "inverse-sum",
            "tq",
            "roots",
            "root-product",
            "root-inversion",
            "bae",
            "root-sum",
            "linearity",
            "finite-size",
            "closed-forms",
        )
    )
}


@dataclass
class RunConfig:
    L_values: tuple[int, ...]
    N_max: int
    method: str
    precision_bits: int
    checks: tuple[str, ...]
    output_format: str
    output_path: str | None
    jobs: int
    tamper: tuple[int, Fraction] | None = None

    @classmethod
    def from_args(cls, args: argparse.Namespace, default_method: str) -> "RunConfig":
        L_values = _parse_L(args.L)
        if args.N_max < 1:
            raise ValueError(f"N-max must be >= 1, got {args.N_max}")

        if args.precision_bits is not None:
            precision = args.precision_bits
        elif os.environ.get(PRECISION_ENV):
            raw = os.environ[PRECISION_ENV]
            try:
                precision = int(raw)
            except ValueError:
                raise ValueError(f"{PRECISION_ENV} must be an integer, got {raw!r}")
        else:
            precision = DEFAULT_PRECISION
        if precision < 128:
            raise ValueError(f"precision-bits must be >= 128, got {precision}")

        method = args.method or default_method
        if method not in ("closed-form", "linear-system", "both"):
            raise ValueError(f"unknown method {method!r}")

        checks = _parse_checks(getattr(args, "checks", "all"))

        jobs = getattr(args, "jobs", 1)
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")

        tamper = None
        raw_tamper = getattr(args, "tamper", None)
        if raw_tamper:
            try:
                index_text, delta_text = raw_tamper.split(":", 1)
                tamper = (int(index_text), parse_rational(delta_text))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"bad --tamper value {raw_tamper!r}, expected K:NUM/DEN")
            if tamper[1] == 0:
                raise ValueError("--tamper delta must be nonzero")
            # every grid point is bumped, and p is smallest at N = 1 and the smallest L
            L_min = min(L_values)
            p_min = ChainParams(L_min, 1).p
            if not 0 <= tamper[0] <= p_min:
                raise ValueError(
                    f"--tamper index {tamper[0]} out of range 0..{p_min} (p at L={L_min} N=1)"
                )

        return cls(
            L_values=L_values,
            N_max=args.N_max,
            method=method,
            precision_bits=precision,
            checks=checks,
            output_format=getattr(args, "format", "json"),
            output_path=getattr(args, "output", None),
            jobs=jobs,
            tamper=tamper,
        )

    def grid(self, with_pair: bool) -> list[tuple[int, int]]:
        """The (L, N) points; with_pair adds N = 2 (needed to fit A) when N-max is 1."""
        top = max(self.N_max, 2) if with_pair else self.N_max
        return [(L, N) for L in self.L_values for N in range(1, top + 1)]

    def meta(self) -> dict:
        return {
            "version": __version__,
            "precision_bits": self.precision_bits,
            "resolved_sum_range": "p",
            "method": self.method,
            "L": list(self.L_values),
            "N_max": self.N_max,
        }


def _parse_L(raw: str) -> tuple[int, ...]:
    values = []
    for piece in str(raw).split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            L = int(piece)
        except ValueError:
            raise ValueError(f"L must be an integer, got {piece!r}")
        if L < 3 or L % 2 == 0:
            raise ValueError(f"L must be odd >= 3, got {L}")
        values.append(L)
    if not values:
        raise ValueError("no L values given")
    return tuple(dict.fromkeys(values))


def _parse_checks(raw: str) -> tuple[str, ...]:
    tokens = []
    for piece in str(raw).split(","):
        piece = piece.strip()
        if not piece:
            continue
        piece = CHECK_ALIASES.get(piece, piece)
        if piece == "all":
            return CHECK_TOKENS
        if piece not in CHECK_TOKENS:
            raise ValueError(f"unknown check {piece!r}; known: {', '.join(CHECK_TOKENS)}")
        tokens.append(piece)
    if not tokens:
        raise ValueError("no checks selected")
    return tuple(dict.fromkeys(tokens))


# ---------------------------------------------------------------------------
# compute


def _run_tasks(worker, tasks: list, jobs: int) -> list:
    """worker over tasks in order, in a process pool when jobs > 1.

    The pool may start all its workers at once, so it gets no more than tasks.
    """
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, tasks))
    return [worker(t) for t in tasks]


def _summarize_point(task: tuple) -> tuple[QPolynomial, WSummary]:
    """Build Q of one grid point once, by the selected route(s), and summarize it."""
    L, N, method = task
    q = build_q(ChainParams(L, N), method)
    return q, groundstate_summary(q)


def _gather(config: RunConfig) -> dict[int, list[tuple[QPolynomial, WSummary]]]:
    """Q and summary of every grid point, per L ordered by N, N = 2 always included."""
    tasks = [(L, N, config.method) for L, N in config.grid(with_pair=True)]
    points: dict[int, list] = {L: [] for L in config.L_values}
    for q, summary in _run_tasks(_summarize_point, tasks, config.jobs):
        points[q.params.L].append((q, summary))
    return points


def cmd_compute(config: RunConfig) -> int:
    bits = config.precision_bits
    records = []
    for L, points in sorted(_gather(config).items()):
        constant = extract_A([summary for _, summary in points])
        A, slope = constant.A.to_dict(bits), constant.slope.to_dict(bits)
        for q, summary in points[: config.N_max]:
            records.append(
                {
                    "L": L,
                    "N": q.params.N,
                    "M": summary.params.M,
                    "p": summary.params.p,
                    "e": [format_rational(c) for c in q.e],
                    "E1": summary.E1.to_dict(bits),
                    "energy": summary.energy.to_dict(bits),
                    "energy_per_site": summary.energy_per_site.to_dict(bits),
                    "A": A,
                    "slope": slope,
                }
            )

    payload = {"meta": config.meta(), "runs": records}
    if config.output_format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = _records_to_csv(records, config.precision_bits)
    return _write_output(text, config.output_path)


def _records_to_csv(records: list[dict], precision_bits: int) -> str:
    buffer = io.StringIO()
    buffer.write(f"# decimal values derived from exact fields at {precision_bits} bits\n")
    writer = csv.writer(buffer)
    writer.writerow(["L", "N", "M", "p", "E1", "energy", "energy_per_site", "A", "slope"])
    for r in records:
        writer.writerow(
            [
                r["L"],
                r["N"],
                r["M"],
                r["p"],
                r["E1"]["approx"],
                r["energy"]["approx"],
                r["energy_per_site"]["approx"],
                r["A"]["approx"],
                r["slope"]["approx"],
            ]
        )
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# verify

FINDING_ERRORS = (ZeroDivisionError, FalsificationError, ConvergenceError, ValueError)


def _finding(name: str, params: dict, exc: Exception) -> CheckResult:
    return CheckResult(
        name=name,
        params=params,
        passed=False,
        residual="1",
        detail=f"{type(exc).__name__}: {exc}",
    )


def _unwrap(found: WSummary | Exception) -> WSummary:
    """A point's summary, or its w_sum failure raised again for the check that needs it."""
    if isinstance(found, Exception):
        raise found
    return found


def _verify_point(task: tuple) -> tuple[list[CheckResult], WSummary | Exception | None]:
    """Point checks and summary of one grid point from one build of Q; the summary
    is made only if a selected check needs it, and a w_sum failure stands in for it."""
    L, N, method, precision, checks, tamper = task
    where = {"L": L, "N": N}
    entries: list[CheckResult] = []
    params = ChainParams(L, N)

    q = q_linear_system(params) if method == "linear-system" else q_closed_form(params)
    if method == "both":
        other = q_linear_system(params)
        entries.append(
            CheckResult(
                name="cross-method",
                params=where,
                passed=q == other,
                residual="0" if q == other else "1",
                detail="" if q == other else "construction routes disagree",
            )
        )
    if tamper is not None:
        q = q.with_coefficient_bump(tamper[0], tamper[1])

    summary = None
    if any(check in checks for check in SUMMARY_CHECKS):
        try:
            summary = groundstate_summary(q)
        except FINDING_ERRORS as exc:
            summary = exc

    if "structure" in checks:
        entries.append(verify_structure(q))
        try:
            entries.append(verify_inverse_sum(q, _unwrap(summary).E1))
        except FINDING_ERRORS as exc:
            entries.append(_finding("inverse-sum", where, exc))

    if "tq" in checks:
        entries.append(verify_tq_identity(q))

    if "roots" in checks:
        entries.extend(_root_entries(q, precision, summary))

    return entries, summary


def _root_entries(q, precision: int, summary: WSummary | Exception) -> list[CheckResult]:
    where = {"L": q.params.L, "N": q.params.N}
    entries: list[CheckResult] = []
    try:
        rs = find_roots(q, precision)
        top = Fraction(max(abs(c) for c in q.nums), q.den)
        with mpmath.workprec(max(53, top.numerator.bit_length())):
            max_coeff = mpmath.mpf(top.numerator) / top.denominator
        poly_tol = mpmath.mpf(2) ** -(precision - 24) * (1 + max_coeff)
        loose_tol = mpmath.mpf(2) ** -(precision - 40)
        entries.append(
            CheckResult(
                name="roots",
                params=where,
                passed=rs.max_poly_residual < poly_tol,
                residual=mpmath.nstr(rs.max_poly_residual, 8),
                detail=f"{rs.sweeps} sweeps",
            )
        )
        product = root_product_gap(rs)
        entries.append(
            CheckResult(
                name="root-product",
                params=where,
                passed=product < loose_tol,
                residual=mpmath.nstr(product, 8),
            )
        )
        closure = inversion_closure_gap(rs)
        entries.append(
            CheckResult(
                name="root-inversion",
                params=where,
                passed=closure < loose_tol,
                residual=mpmath.nstr(closure, 8),
            )
        )
        forms = bae_residuals_by_form(rs)
        worst = max(forms["z"], forms["w"])
        entries.append(
            CheckResult(
                name="bae",
                params=where,
                passed=worst < loose_tol,
                residual=mpmath.nstr(worst, 8),
                detail=f"z-form {mpmath.nstr(forms['z'], 5)}, w-form {mpmath.nstr(forms['w'], 5)}",
            )
        )
    except FINDING_ERRORS as exc:
        return [*entries, _finding("roots", where, exc)]
    try:
        entries.append(numeric_cross_check(rs, _unwrap(summary).E1))
    except FINDING_ERRORS as exc:
        entries.append(_finding("root-sum", where, exc))
    return entries


def cmd_verify(config: RunConfig) -> int:
    report = VerificationReport()
    per_L = tuple(check for check in PER_L_CHECKS if check in config.checks)
    points = config.grid(with_pair=bool(per_L))
    # A point past N-max is only there to fix A: it runs the per-L needs alone.
    tasks = [
        (
            L,
            N,
            config.method,
            config.precision_bits,
            config.checks if N <= config.N_max else per_L,
            config.tamper,
        )
        for L, N in points
    ]
    summaries: dict[int, list] = {L: [] for L in config.L_values}
    for (L, N), (entries, summary) in zip(points, _run_tasks(_verify_point, tasks, config.jobs)):
        if N <= config.N_max:
            report.extend(entries)
        summaries[L].append(summary)

    for L, found in summaries.items():
        for check in per_L:
            if check == "closed-forms" and L not in CLOSED_FORM_SUMS:
                continue
            needed = found[:2] if check == "closed-forms" else found
            try:
                ready = [_unwrap(s) for s in needed]
                if check == "linearity":
                    report.extend(verify_linearity(ready, config.N_max))
                elif check == "finite-size":
                    report.extend(verify_no_finite_size_correction(ready, config.N_max))
                else:
                    report.extend(crosscheck_closed_forms(ready, config.precision_bits))
            except FINDING_ERRORS as exc:
                report.extend([_finding(check, {"L": L}, exc)])

    report.entries.sort(
        key=lambda e: (
            ENTRY_ORDER.get(e.name, 99),
            e.params.get("L", 0),
            e.params.get("N", 0),
        )
    )

    if not report.entries:
        print("error: no selected check applies to this grid", file=sys.stderr)
        return 2
    for entry in report.entries:
        print(entry.line())
    failures = report.failures()
    if failures:
        print(f"{len(failures)} of {len(report.entries)} checks FAILED")
    else:
        print(f"all {len(report.entries)} checks passed")

    if config.output_path:
        text = json.dumps(report.to_dict(config.meta()), indent=2) + "\n"
        if _write_output(text, config.output_path):
            return 2
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# table


def cmd_table(config: RunConfig) -> int:
    bits = config.precision_bits
    rows = []
    for L, points in _gather(config).items():
        a_text = extract_A([summary for _, summary in points]).A.approx_str(bits)[:16]
        for _, summary in points[: config.N_max]:
            rows.append(
                (
                    L,
                    summary.params.N,
                    summary.params.M,
                    summary.params.p,
                    summary.E1.approx_str(bits)[:16],
                    summary.energy.approx_str(bits)[:16],
                    summary.energy_per_site.approx_str(bits)[:16],
                    a_text,
                )
            )
    header = ("L", "N", "M", "p", "E1", "energy", "energy/site", "A")
    widths = [
        max(len(str(header[i])), max(len(str(r[i])) for r in rows)) for i in range(len(header))
    ]
    lines = [
        "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(header)),
        "  ".join("-" * widths[i] for i in range(len(header))),
    ]
    for r in rows:
        lines.append("  ".join(str(v).ljust(widths[i]) for i, v in enumerate(r)))
    return _write_output("\n".join(lines) + "\n", config.output_path)


def _write_output(text: str, path: str | None) -> int:
    """Write to path (stdout for none or "-"); exit code 2 if the path is unwritable."""
    if path and path != "-":
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write --output {path}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qchain",
        description="Exact Q polynomials and finite-size checks for the odd-L chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_checks: bool) -> None:
        p.add_argument("--L", default="3,5,7,9,11", help="comma-separated odd L values")
        p.add_argument("--N-max", dest="N_max", type=int, default=DEFAULT_N_MAX)
        p.add_argument(
            "--method",
            choices=("closed-form", "linear-system", "both"),
            default=None,
        )
        p.add_argument("--precision-bits", dest="precision_bits", type=int, default=None)
        p.add_argument("--output", default=None, help="output path, default stdout")
        p.add_argument("--jobs", type=int, default=1)
        if with_checks:
            p.add_argument(
                "--checks",
                default="all",
                help="comma list of structure,tq,linearity,finite-size,closed-forms,roots or all",
            )
            p.add_argument(
                "--tamper",
                default=None,
                help="negative control: K:NUM/DEN bumps e_K by the given rational before checking",
            )

    p_compute = sub.add_parser("compute", help="build Q and write exact records")
    common(p_compute, with_checks=False)
    p_compute.add_argument("--format", choices=("json", "csv"), default="json")

    p_verify = sub.add_parser("verify", help="run the verification suite")
    common(p_verify, with_checks=True)

    p_table = sub.add_parser("table", help="print a human-readable summary table")
    common(p_table, with_checks=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2

    default_method = "both" if args.command == "verify" else "closed-form"
    try:
        config = RunConfig.from_args(args, default_method)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "compute":
            return cmd_compute(config)
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "table":
            return cmd_table(config)
        print(f"error: unknown command {args.command!r}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - map anything unexpected to exit 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
