"""Command-line driver: compute, verify, table.

All three run one pass over the (L, N) grid: _point builds each point's Q
once (by both routes under --method both), runs the selected point checks
and makes its summary (one w_sum).  compute and table render the same
records, ordered by L then N; verify adds the per-L checks, which read the
points' summaries.

Exit codes: 0 success (all checks passed), 1 at least one check failed,
2 invalid configuration, 3 internal error (an exactness assertion in a
builder, or disagreeing routes in compute or table).  The default verification grid is
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
    verify_structure,
    verify_tq_identity,
)
from .rationals import format_rational, parse_rational
from .report import CheckResult, FalsificationError
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
# Checks of one L read from its points' summaries, which need N = 1, 2.
PER_L_CHECKS = ("linearity", "finite-size", "closed-forms")
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
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
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


def _point(task: tuple) -> tuple[QPolynomial, list[CheckResult], WSummary | Exception]:
    """One grid point from one build of Q: Q as checked, its point checks and its
    summary, for which a w_sum failure stands in."""
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

    return q, entries, summary


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
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_point, tasks))
    else:
        results = [_point(task) for task in tasks]
    points: dict[int, list] = {L: [] for L in config.L_values}
    for found in results:
        points[found[0].params.L].append(found)
    return points


# ---------------------------------------------------------------------------
# compute


def _records(config: RunConfig) -> list[dict]:
    """compute's exact records, by L then N; JSON, CSV and table all read these.

    Under --method both a point whose routes disagree is an internal error.
    """
    bits = config.precision_bits
    records = []
    for L, points in sorted(_run_grid(config, (), with_pair=True).items()):
        for q, entries, _ in points:
            if not all(entry.passed for entry in entries):
                raise AssertionError(f"construction routes disagree at L={L} N={q.params.N}")
        summaries = [_unwrap(summary) for _, _, summary in points]
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
        text = json.dumps({"meta": config.meta(), "runs": records}, indent=2) + "\n"
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


def cmd_verify(config: RunConfig) -> int:
    per_L = tuple(check for check in PER_L_CHECKS if check in config.checks)
    entries: list[CheckResult] = []
    for L, points in _run_grid(config, config.checks, with_pair=bool(per_L)).items():
        for _, found, _ in points[: config.N_max]:
            entries.extend(found)
        for check in per_L:
            if check == "closed-forms" and L not in CLOSED_FORM_SUMS:
                continue
            needed = points[:2] if check == "closed-forms" else points
            try:
                ready = [_unwrap(summary) for _, _, summary in needed]
                if check == "linearity":
                    entries.extend(verify_linearity(ready, config.N_max))
                elif check == "finite-size":
                    entries.extend(verify_no_finite_size_correction(ready, config.N_max))
                else:
                    entries.extend(crosscheck_closed_forms(ready, config.precision_bits))
            except FINDING_ERRORS as exc:
                entries.append(_finding(check, {"L": L}, exc))

    entries.sort(
        key=lambda e: (
            ENTRY_ORDER.get(e.name, 99),
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
        # verify cross-checks the two routes by default; compute and table build once
        p.add_argument(
            "--method",
            choices=("closed-form", "linear-system", "both"),
            default="both" if with_checks else "closed-form",
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

    try:
        config = RunConfig.from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    command = {"compute": cmd_compute, "verify": cmd_verify, "table": cmd_table}[args.command]
    try:
        return command(config)
    except Exception as exc:  # noqa: BLE001 - map anything unexpected to exit 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
