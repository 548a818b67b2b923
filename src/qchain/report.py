"""Check results, each made by the one builder for its kind of evidence.

Every verification routine returns CheckResult entries rather than booleans,
so a failure carries the exact (or high-precision) residual that witnessed
it.  FalsificationError is reserved for identities whose failure would refute
the finite-size statements this package checks; callers report it as a
finding instead of swallowing it, and since it names the identity that
failed, its message alone is the witness (cli._finding).  ConvergenceError,
the root search's finding, and the root checks' precision constants live
here too, so that a run that checks no root need not load roots.py.

Four builders make every CheckResult, one per kind of evidence:
- listed: fails when it names a problem; residual "1" (else "0"), detail
  the problems joined by "; ".  structure, cross-method, a raised error
  (cli._finding).
- exact: a field-element difference that must vanish; residual its
  "NUM/DEN" coordinates (else "0"), detail what a nonzero one means.
  tq, inverse-sum, linearity, finite-size.
- gap: a numeric gap below a tolerance; residual the gap to 8 digits,
  detail "tolerance T".  closed-forms, root-sum.
- measured: residuals with rounding bounds, each residual + bound below a
  tolerance; residual "R (rounding bound B)", the largest of each, detail
  how they were made.  roots, root-product, root-inversion, bae.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath

from .cyclotomic import CyclotomicNumber
from .fixedpoint import Measured


# The root validator's floor on --precision-bits, and the slack of its loose
# tolerance: every root check but |Q(z_j)| passes on residual + bound below
# 2^-(precision_bits - LOOSE_BITS).
MIN_ROOT_BITS = 128
LOOSE_BITS = 40


class FalsificationError(RuntimeError):
    """An exact identity required by the verified statements failed to hold."""


class ConvergenceError(RuntimeError):
    """Aberth iteration did not settle within the sweep cap."""

    def __init__(self, sweeps: int, worst: str):
        super().__init__(f"no convergence after {sweeps} sweeps, worst correction {worst}")
        self.sweeps = sweeps
        self.worst = worst

    def __reduce__(self):
        # args holds only the message, so unpickling (a process pool) needs the fields
        return type(self), (self.sweeps, self.worst)


@dataclass
class CheckResult:
    name: str
    params: dict
    passed: bool
    residual: str = "0"
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "params": dict(self.params),
            "pass": self.passed,
            "residual": self.residual,
            "detail": self.detail,
        }

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        where = " ".join(f"{k}={v}" for k, v in self.params.items())
        tail = f" [{self.detail}]" if self.detail and not self.passed else ""
        return f"{status} {self.name} {where}{tail}"


def listed(name: str, params: dict, problems: list[str]) -> CheckResult:
    """Passes when no problem is named; the problems are the witness."""
    return CheckResult(name, params, not problems, "1" if problems else "0", "; ".join(problems))


def exact(name: str, params: dict, difference: CyclotomicNumber, detail: str = "") -> CheckResult:
    """Passes when difference is zero; otherwise its coordinates are the witness."""
    if difference.is_zero():
        return CheckResult(name, params, True)
    return CheckResult(name, params, False, str(difference.coeff_strings()), detail)


def gap(name: str, params: dict, found: mpmath.mpf, tolerance: mpmath.mpf) -> CheckResult:
    """Passes when the numeric gap found is below tolerance."""
    detail = f"tolerance {mpmath.nstr(tolerance, 4)}"
    return CheckResult(name, params, found < tolerance, mpmath.nstr(found, 8), detail)


def measured(
    name: str, where: dict, found: list[Measured], tolerance, detail: str = ""
) -> CheckResult:
    """A check on residuals with rounding bounds: it passes when every
    residual + bound is below tolerance, and reports the largest of each."""
    worst = max(m.value for m in found)
    bound = max(m.bound for m in found)
    return CheckResult(
        name=name,
        params=where,
        passed=all(m.below(tolerance) for m in found),
        residual=f"{mpmath.nstr(worst, 8)} (rounding bound {mpmath.nstr(bound, 3)})",
        detail=detail,
    )
