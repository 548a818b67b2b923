"""Command-line driver: compute, verify, table.

All three run one pass over the (L, N) grid: _point builds each point's Q
once (by both routes under --method both), runs the selected point checks
and makes its summary (one w_sum).  compute and table render the same
records, ordered by L then N; verify adds the per-L checks, which read the
points' summaries.  CHECKS names every check verify reports, in report
order, and _check runs each one.

Exit codes: 0 success (all checks passed), 1 at least one check failed,
2 invalid configuration, 3 internal error.  One rule makes a finding: an
error in FINDING_ERRORS raised inside a check is that check's FAIL, and
_finding writes its witness.  A failing primary route (route one, or route two
under --method linear-system) is a failed construction check, the point
runs no other check, and its L's per-L checks fail with the same witness;
under --method both a failing route two is a failed cross-method check,
and the point's other checks run on route one's Q.  compute and table
report no findings: a failing route, or disagreeing routes under
--method both, exits 3 and prints the failed entry's witness with its
point.  The default verification grid is L in {3, 5, 7, 9, 11} with N up
to 4.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from . import __version__
from .energy import (
    CLOSED_FORM_SUMS,
    SpinConstant,
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
    verify_structure,
    verify_tq_identity,
)
from .rationals import format_rational, parse_rational
from .report import (
    LOOSE_BITS,
    MIN_ROOT_BITS,
    CheckResult,
    ConvergenceError,
    FalsificationError,
    gap,
    listed,
    measured,
)
from .wtransform import verify_inverse_sum

if __name__ != "__main__":
    # Imported as a module (a console script, a test, perfbench/tracer.py),
    # cli brings the root validator with it, so that qchain.roots is there to
    # be patched; run with `python -m qchain.cli`, only a root check loads it.
    from . import roots  # noqa: F401

DEFAULT_N_MAX = 4
DEFAULT_PRECISION = 256

# Every check verify reports, in report order, with the --checks token that
# selects it (None: run at every built point).  The last three are per-L
# checks, which read one L's summaries and so need N = 1, 2.
CHECKS = {
    "construction": None,
    "cross-method": None,
    "structure": "structure",
    "inverse-sum": "structure",
    "tq": "tq",
    "roots": "roots",
    "root-product": "roots",
    "root-inversion": "roots",
    "bae": "roots",
    "root-sum": "roots",
    "linearity": "linearity",
    "finite-size": "finite-size",
    "closed-forms": "closed-forms",
}
CHECK_TOKENS = tuple(dict.fromkeys(token for token in CHECKS.values() if token))
CHECK_ALIASES = {"section4": "closed-forms"}


class RunConfig(NamedTuple):
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
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        L_values = _parse_L(args.L)
        if args.N_max < 1:
            raise ValueError(f"N-max must be >= 1, got {args.N_max}")

        precision = args.precision_bits
        if precision < MIN_ROOT_BITS:
            raise ValueError(f"precision-bits must be >= {MIN_ROOT_BITS}, got {precision}")

        checks = _parse_checks(getattr(args, "checks", "all"))

        if args.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {args.jobs}")

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
            method=args.method,
            precision_bits=precision,
            checks=checks,
            output_format=getattr(args, "format", "json"),
            output_path=args.output,
            jobs=args.jobs,
            tamper=tamper,
        )

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
# grid points


# A route's own exactness checks raise AssertionError or ArithmeticError
# (ZeroDivisionError among them); ValueError is an input a check rejects.
FINDING_ERRORS = (ArithmeticError, AssertionError, FalsificationError, ConvergenceError, ValueError)


def _finding(name: str, params: dict, exc: Exception) -> CheckResult:
    """The failed entry for an error raised in check name: a FalsificationError's
    message is the witness, any other error's its type and message."""
    witness = str(exc) if isinstance(exc, FalsificationError) else f"{type(exc).__name__}: {exc}"
    return listed(name, params, [witness])


def _check(name: str, where: dict, check: Callable, *args) -> list[CheckResult]:
    """check(*args)'s entries, or one failed entry named name if it raises a finding error."""
    try:
        found = check(*args)
    except FINDING_ERRORS as exc:
        return [_finding(name, where, exc)]
    return found if isinstance(found, list) else [found]


def _unwrap(found: WSummary | SpinConstant | Exception) -> WSummary | SpinConstant:
    """A stored summary or fit, or the failure stored in its place raised again."""
    if isinstance(found, Exception):
        raise found
    return found


def _summaries(points: list) -> list[WSummary]:
    """The summaries of one L's points, the first stored failure raised again."""
    return [_unwrap(summary) for _, _, summary in points]


def _point(task: tuple) -> tuple[QPolynomial | None, list[CheckResult], WSummary | Exception]:
    """One grid point from one build of Q: Q as checked, its point checks and its
    summary, for which a w_sum failure stands in.

    If the primary route fails, Q is None, the one check is a failed
    construction finding and the route's error stands in for the summary.
    """
    L, N, method, precision, checks, tamper = task
    where = {"L": L, "N": N}
    params = ChainParams(L, N)

    try:
        q = q_linear_system(params) if method == "linear-system" else q_closed_form(params)
    except FINDING_ERRORS as exc:
        return None, [_finding("construction", where, exc)], exc
    entries = _check("cross-method", where, _cross_method, q, where) if method == "both" else []
    if tamper is not None:
        q = q.with_coefficient_bump(tamper[0], tamper[1])

    try:
        summary = groundstate_summary(q)
    except FINDING_ERRORS as exc:
        summary = exc

    if "structure" in checks:
        entries += _check("structure", where, verify_structure, q)
        entries += _check("inverse-sum", where, lambda: verify_inverse_sum(q, _unwrap(summary).E1))

    if "tq" in checks:
        entries += _check("tq", where, verify_tq_identity, q)

    if "roots" in checks:
        entries += _root_entries(q, precision, summary)

    return q, entries, summary


def _cross_method(q: QPolynomial, where: dict) -> CheckResult:
    """Route two built again and compared with the primary route's Q."""
    same = q == q_linear_system(q.params)
    return listed("cross-method", where, [] if same else ["construction routes disagree"])


def _root_entries(q, precision: int, summary: WSummary | Exception) -> list[CheckResult]:
    """The roots check, then each measurement on the roots found, run on its own."""
    import mpmath

    from . import roots  # compiled only where a root check runs

    where = {"L": q.params.L, "N": q.params.N}
    try:
        rs = roots.find_roots(q, precision)
    except FINDING_ERRORS as exc:
        return [_finding("roots", where, exc)]
    top = Fraction(max(abs(c) for c in q.nums), q.den)
    with mpmath.workprec(max(53, top.numerator.bit_length())):
        max_coeff = mpmath.mpf(top.numerator) / top.denominator
    poly_tol = mpmath.mpf(2) ** -(precision - 24) * (1 + max_coeff)
    loose_tol = mpmath.mpf(2) ** -(precision - LOOSE_BITS)
    ladder = "/".join(map(str, rs.ladder))
    sweeps = f"{rs.float_sweeps} float sweeps on {rs.search} and {rs.sweeps} fixed-point sweeps"
    bits = f"search {rs.search_bits} bits, polish {ladder} bits, stored at {rs.bits} bits"
    detail = f"{sweeps}, {bits}"

    def on_roots(name: str, measure: Callable) -> list[CheckResult]:
        return _check(name, where, lambda: measured(name, where, [measure(rs)], loose_tol))

    def bae() -> CheckResult:
        forms = roots.bae_residuals_by_form(rs)
        z_form, w_form = (mpmath.nstr(forms[form].value, 5) for form in "zw")
        detail = f"z-form {z_form}, w-form {w_form}"
        return measured("bae", where, [forms["z"], forms["w"]], loose_tol, detail)

    def root_sum() -> CheckResult:
        found = roots.numeric_cross_check(rs, _unwrap(summary).E1)
        return gap("root-sum", where, found, loose_tol)

    return [
        measured("roots", where, [rs.max_poly_residual], poly_tol, detail),
        *on_roots("root-product", roots.root_product_gap),
        *on_roots("root-inversion", roots.inversion_closure_gap),
        *_check("bae", where, bae),
        *_check("root-sum", where, root_sum),
    ]


def _run_grid(
    config: RunConfig, checks: tuple[str, ...], with_pair: bool
) -> dict[int, list[tuple[QPolynomial, list[CheckResult], WSummary | Exception]]]:
    """_point once per grid point, in a process pool when jobs > 1; per L its
    results ordered by N.

    with_pair adds N = 2 (needed to fit A) when N-max is 1.  A point past
    N-max is only there to fix A, so it runs no point check.
    """
    top = max(config.N_max, 2) if with_pair else config.N_max
    tasks = [
        (
            L,
            N,
            config.method,
            config.precision_bits,
            checks if N <= config.N_max else (),
            config.tamper,
        )
        for L in config.L_values
        for N in range(1, top + 1)
    ]
    # The pool may start all its workers at once, so it gets no more than tasks.
    workers = min(config.jobs, len(tasks))
    if workers > 1:
        # imported here, as it costs every run that does not use it time and memory
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_point, tasks))
    else:
        results = [_point(task) for task in tasks]
    points: dict[int, list] = {L: [] for L in config.L_values}
    for task, found in zip(tasks, results):
        points[task[0]].append(found)
    return points


# ---------------------------------------------------------------------------
# compute


class PointFailed(Exception):
    """A failed entry in compute or table: its witness with its point."""


def _records(config: RunConfig) -> list[dict]:
    """compute's exact records, by L then N; JSON, CSV and table all read these.

    A failed entry raises PointFailed before the summaries are read.
    """
    bits = config.precision_bits
    records = []
    for L, points in sorted(_run_grid(config, (), with_pair=True).items()):
        for _, entries, _ in points:
            for entry in entries:
                if not entry.passed:
                    raise PointFailed(f"{entry.detail} at L={L} N={entry.params['N']}")
        summaries = _summaries(points)
        constant = extract_A(summaries)
        A, slope = constant.A.to_dict(bits), constant.slope.to_dict(bits)
        for (q, _, _), summary in zip(points[: config.N_max], summaries):
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
    return records


def cmd_compute(config: RunConfig) -> int:
    records = _records(config)
    if config.output_format == "json":
        import json

        text = json.dumps({"meta": config.meta(), "runs": records}, indent=2) + "\n"
    else:
        text = _records_to_csv(records, config.precision_bits)
    return _write_output(text, config.output_path)


def _records_to_csv(records: list[dict], precision_bits: int) -> str:
    import csv
    import io

    buffer = io.StringIO()
    buffer.write(f"# decimal values derived from exact fields at {precision_bits} bits\n")
    writer = csv.writer(buffer)
    fields = ("E1", "energy", "energy_per_site", "A", "slope")
    writer.writerow(["L", "N", "M", "p", *fields])
    for r in records:
        writer.writerow([r["L"], r["N"], r["M"], r["p"], *(r[field]["approx"] for field in fields)])
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# verify


def _fit(points: list) -> SpinConstant | Exception:
    """The spin constant fitted once from one L's N = 1, 2 for its per-L
    checks, or the error that stopped the fit.  Each check reads its
    summaries through _summaries first and the fit through _unwrap after,
    so a stored summary failure wins over the fit's."""
    try:
        return extract_A(_summaries(points[:2]))
    except FINDING_ERRORS as exc:
        return exc


def cmd_verify(config: RunConfig) -> int:
    per_L = {
        "linearity": lambda ready, fit: verify_linearity(ready, _unwrap(fit), config.N_max),
        "finite-size": lambda ready, fit: verify_no_finite_size_correction(
            ready, _unwrap(fit), config.N_max
        ),
        "closed-forms": lambda ready, _: crosscheck_closed_forms(ready, config.precision_bits),
    }
    selected = [name for name in per_L if CHECKS[name] in config.checks]
    entries: list[CheckResult] = []
    for L, points in _run_grid(config, config.checks, with_pair=bool(selected)).items():
        for _, found, _ in points[: config.N_max]:
            entries.extend(found)
        fit = _fit(points) if selected else None
        for name in selected:
            if name != "closed-forms" or L in CLOSED_FORM_SUMS:
                needed = points[:2] if name == "closed-forms" else points
                entries += _check(name, {"L": L}, lambda: per_L[name](_summaries(needed), fit))

    entries.sort(
        key=lambda e: (
            list(CHECKS).index(e.name),
            e.params.get("L", 0),
            e.params.get("N", 0),
        )
    )

    if not entries:
        print("error: no selected check applies to this grid", file=sys.stderr)
        return 2
    for entry in entries:
        print(entry.line())
    failed = sum(not entry.passed for entry in entries)
    if failed:
        print(f"{failed} of {len(entries)} checks FAILED")
    else:
        print(f"all {len(entries)} checks passed")

    if config.output_path:
        import json

        report = {
            "meta": config.meta(),
            "summary": {"total": len(entries), "failed": failed, "passed": len(entries) - failed},
            "entries": [entry.to_dict() for entry in entries],
        }
        if _write_output(json.dumps(report, indent=2) + "\n", config.output_path):
            return 2
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# table


def cmd_table(config: RunConfig) -> int:
    rows = [
        (
            r["L"],
            r["N"],
            r["M"],
            r["p"],
            *(r[field]["approx"][:16] for field in ("E1", "energy", "energy_per_site", "A")),
        )
        for r in _records(config)
    ]
    header = ("L", "N", "M", "p", "E1", "energy", "energy/site", "A")
    widths = [max(len(str(v)) for v in column) for column in zip(header, *rows)]
    lines = [header, ["-" * width for width in widths], *rows]
    text = "".join("  ".join(str(v).ljust(w) for v, w in zip(r, widths)) + "\n" for r in lines)
    return _write_output(text, config.output_path)


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
        # verify cross-checks the two routes by default; compute and table build once
        p.add_argument(
            "--method",
            choices=("closed-form", "linear-system", "both"),
            default="both" if with_checks else "closed-form",
        )
        p.add_argument("--precision-bits", type=int, default=DEFAULT_PRECISION)
        p.add_argument("--output", default=None, help="output path, default stdout")
        p.add_argument("--jobs", type=int, default=1)
        if with_checks:
            p.add_argument(
                "--checks",
                default="all",
                help=f"comma list of {','.join(CHECK_TOKENS)} or all",
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

    try:
        config = RunConfig.from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    command = {"compute": cmd_compute, "verify": cmd_verify, "table": cmd_table}[args.command]
    try:
        return command(config)
    except PointFailed as exc:
        print(f"internal error: {exc}", file=sys.stderr)
    except Exception as exc:  # noqa: BLE001 - map anything unexpected to exit 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
