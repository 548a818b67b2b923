"""Ground-state energy and the no-finite-size-correction checks.

At the combinatorial anisotropy point the energy of the (L, N) chain is

    energy = 2 p cos(2 pi / L) - 2 E_1,

an exact element of Q(zeta_2L) (the sum runs over the p Bethe roots).  The
statements verified here are that, at fixed L, the root sum E_1 is exactly
affine in N,

    E_1(N) = A + (2 A + cos(2 pi / L)) N,

with a spin constant A extracted from N = 1, 2 alone, and that consequently
the energy per site is independent of N:

    energy / M = (L - 3) cos(2 pi / L) - 2 A   for every N.

Both are checked as exact field identities, never numerically.  A numeric
cross-check against independently published trigonometric closed forms for
L = 7, 9, 11 runs in fixed point on integers: every cosine and sine comes
from the kernel fixedpoint.expjpi, the exact root sum from fixedpoint.embed,
and the gap and its tolerance are exact Fractions, formatted by mpmath only
if they are printed.

Nothing here builds Q.  groundstate_summary turns one built Q into its
WSummary (one w_sum per grid point).  The per-L functions below (extract_A,
verify_linearity, verify_no_finite_size_correction, crosscheck_closed_forms)
take one L's summaries ordered by N from N = 1, always including N = 2;
N_max limits the N reported.  verify_linearity and
verify_no_finite_size_correction also take the one fit of A that
extract_A made from them, so that the two checks share it; a fit that
raised never reaches them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .cyclotomic import CyclotomicNumber, cyc_cos
from .qoperator import ChainParams, QPolynomial
from .report import CheckResult, FalsificationError, exact, gap
from .wtransform import w_sum


class WSummary(NamedTuple):
    params: ChainParams
    E1: CyclotomicNumber
    energy: CyclotomicNumber
    energy_per_site: CyclotomicNumber


class SpinConstant(NamedTuple):
    """Per-L constant A with the slope 2A + cos(2 pi / L) it implies."""

    L: int
    A: CyclotomicNumber
    slope: CyclotomicNumber


def groundstate_summary(q: QPolynomial) -> WSummary:
    """Root sum (the one w_sum of its grid point), exact energy and per-site
    energy of one built Q."""
    e1 = w_sum(q)
    params = q.params
    cos2 = cyc_cos(2, params.L)
    total = cos2 * (2 * params.p) - e1 * 2
    return WSummary(
        params=params,
        E1=e1,
        energy=total,
        energy_per_site=total / params.M,
    )


def extract_A(summaries: Sequence[WSummary]) -> SpinConstant:
    """Fit A from N = 1, 2 only and assert the slope identity exactly.

    slope = E_1(2) - E_1(1) and A = E_1(1) - slope.  The fit is only
    accepted if slope = 2A + cos(2 pi / L) holds exactly; a violation
    refutes the affine form and raises FalsificationError.
    """
    L = summaries[0].params.L
    first = summaries[0].E1
    second = summaries[1].E1
    slope = second - first
    A = first - slope
    expected_slope = A * 2 + cyc_cos(2, L)
    if slope != expected_slope:
        raise FalsificationError(
            f"slope identity fails at L={L}: {(slope - expected_slope).coeff_strings()}"
        )
    if not A.is_real():
        raise FalsificationError(f"extracted constant is not real at L={L}")
    return SpinConstant(L=L, A=A, slope=slope)


def verify_linearity(
    summaries: Sequence[WSummary], constant: SpinConstant, N_max: int
) -> list[CheckResult]:
    """E_1(N) = A + slope * N exactly for N = 1..N_max; constant is
    extract_A of these summaries."""
    L = summaries[0].params.L
    entries = []
    for summary in summaries[:N_max]:
        N = summary.params.N
        difference = summary.E1 - (constant.A + constant.slope * N)
        entries.append(exact("linearity", {"L": L, "N": N}, difference))
    return entries


def verify_no_finite_size_correction(
    summaries: Sequence[WSummary], constant: SpinConstant, N_max: int
) -> list[CheckResult]:
    """Energy per site equals (L-3) cos(2 pi / L) - 2A exactly for every N;
    constant as for verify_linearity."""
    L = summaries[0].params.L
    density = cyc_cos(2, L) * (L - 3) - constant.A * 2
    entries = []
    for summary in summaries[:N_max]:
        # the stored per-site energy, which compute writes, is the witness if the total agrees
        difference = summary.energy - density * summary.params.M
        if difference.is_zero():
            difference = summary.energy_per_site - density
        where = {"L": L, "N": summary.params.N}
        entries.append(exact("finite-size", where, difference, "per-site energy drifts with N"))
    return entries


# Published closed-form evaluations of the root sum for L = 7, 9, 11, used
# purely as an independent numeric cross-check of the exact pipeline.  Each
# side is a trigonometric fraction; the first enters the root sum with
# weight N-1, the second with weight 2-N.  A term (c, kind, a) means
# c * kind(a * pi / (2 L)), with kind "one" ignoring the angle.
CLOSED_FORM_SUMS: dict[int, tuple] = {
    7: (
        (
            6,
            [(-499, "one", 0), (525, "cos", 2), (694, "sin", 1), (-900, "sin", 3)],
            [(-235, "one", 0), (290, "cos", 2), (350, "sin", 1), (-434, "sin", 3)],
        ),
        (
            1,
            [(-6, "one", 0), (120, "cos", 2), (81, "sin", 1), (-38, "sin", 3)],
            [(-2, "one", 0), (15, "cos", 2), (12, "sin", 1), (-6, "sin", 3)],
        ),
    ),
    9: (
        (
            1,
            [(7695, "one", 0), (43820, "cos", 2), (-26108, "cos", 4), (-32210, "sin", 1)],
            [(351, "one", 0), (2450, "cos", 2), (-1640, "cos", 4), (-1910, "sin", 1)],
        ),
        (
            1,
            [(-459, "one", 0), (250, "cos", 2), (-1360, "cos", 4), (-976, "sin", 1)],
            [(-36, "one", 0), (40, "cos", 2), (-124, "cos", 4), (-100, "sin", 1)],
        ),
    ),
    11: (
        (
            1,
            [
                (-8675, "one", 0),
                (9780, "cos", 2),
                (-16727, "cos", 4),
                (12895, "sin", 1),
                (-15050, "sin", 3),
                (10925, "sin", 5),
            ],
            [
                (-376, "one", 0),
                (480, "cos", 2),
                (-730, "cos", 4),
                (590, "sin", 1),
                (-670, "sin", 3),
                (520, "sin", 5),
            ],
        ),
        (
            1,
            [
                (-75, "one", 0),
                (860, "cos", 2),
                (-207, "cos", 4),
                (575, "sin", 1),
                (-378, "sin", 3),
                (765, "sin", 5),
            ],
            [
                (-9, "one", 0),
                (60, "cos", 2),
                (-21, "cos", 4),
                (45, "sin", 1),
                (-30, "sin", 3),
                (55, "sin", 5),
            ],
        ),
    ),
}


def _trig_sum(terms, L: int, bits: int) -> int:
    """sum of c kind(a pi / (2 L)) over the terms, in fixed point at 2^-bits,
    cos and sin the two parts of expjpi(a, 2 L), each within 2 units."""
    from .fixedpoint import expjpi  # compiled only where a closed form is evaluated

    total = 0
    for coeff, kind, a in terms:
        if kind == "one":
            total += coeff << bits
            continue
        if kind not in ("cos", "sin"):
            raise ValueError(f"unknown term kind {kind!r}")
        cos, sin = expjpi(a, 2 * L, bits)
        total += coeff * (cos if kind == "cos" else sin)
    return total


def closed_form_root_sum(L: int, N: int, precision_bits: int = 256) -> Fraction:
    """Evaluate the published closed form of the root sum at (L, N), its trig
    sums in fixed point at 2^-precision_bits, as an exact Fraction of them."""
    if L not in CLOSED_FORM_SUMS:
        raise ValueError(f"no published closed form for L={L}")
    (scale1, num1, den1), (scale2, num2, den2) = CLOSED_FORM_SUMS[L]
    bits = precision_bits
    first = Fraction(scale1 * _trig_sum(num1, L, bits), _trig_sum(den1, L, bits))
    second = Fraction(scale2 * _trig_sum(num2, L, bits), _trig_sum(den2, L, bits))
    return (N - 1) * first + (2 - N) * second


def crosscheck_closed_forms(
    summaries: Sequence[WSummary], precision_bits: int = 256
) -> list[CheckResult]:
    """Numeric agreement of the exact root sum with the published closed forms.

    Runs at N = 1 and N = 2 (the two points the published forms interpolate)
    and requires agreement within 2^-(precision_bits - 76), i.e. 2^-180 when
    evaluated at 256 bits.  The root sum is embedded in fixed point at
    2^-precision_bits (fixedpoint.embed) and its distance from the closed
    form reported as Measured.from_square reports a value.
    """
    L = summaries[0].params.L
    if L not in CLOSED_FORM_SUMS:
        return []
    from .fixedpoint import Measured, embed  # compiled only where a closed form is evaluated

    bits = precision_bits
    entries = []
    tolerance = Fraction(1, 1 << precision_bits - 76)
    for N, summary in ((1, summaries[0]), (2, summaries[1])):
        reference = closed_form_root_sum(L, N, bits)
        er, ei = embed(summary.E1, bits)
        square = ((er - reference * (1 << bits)) ** 2 + ei * ei) / (1 << 2 * bits)
        distance = Measured.from_square(square.numerator, square.denominator, bits, None).value
        entries.append(gap("closed-forms", {"L": L, "N": N}, distance, tolerance))
    return entries
