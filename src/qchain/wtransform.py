"""Symmetric functions of the transformed Bethe roots, exactly.

The physical variables w_j are the images of the Q roots z_j under the
Moebius map w = (z a - 1)/(z - a) with a = exp(-2 pi i / L).  Expanding the
characteristic polynomial of the w_j against Q's coefficients turns every
elementary symmetric function E_alpha of the w_j into an exact element of
Q(zeta_2L), with a common denominator Q(a); no root is ever computed.

Two independent expressions are kept for the first symmetric function E_1
(the root sum):  the production path uses real cosine sums for numerator and
denominator (the unimodular prefactors cancel in the ratio), and the general
double-sum form (w_elementary) serves as a cross-check path.  The root sum
must come out fixed under conjugation; a complex value would falsify the
statements this package verifies and raises FalsificationError.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .cyclotomic import CyclotomicNumber
from .qoperator import ChainParams, QPolynomial
from .report import CheckResult, FalsificationError


@dataclass(frozen=True)
class WSymmetrics:
    """E_1 of the w variables with its exact cosine-sum numerator/denominator."""

    params: ChainParams
    E1: CyclotomicNumber
    numerator: CyclotomicNumber
    denominator: CyclotomicNumber


def w_sum(q: QPolynomial) -> WSymmetrics:
    """Sum of the w variables as an exact field element.

    numerator   = 2 sum_(k<p) (-1)^k (p-k) cos(pi (2k+2-p)/L) e_k
    denominator =   sum_(k<=p) (-1)^k cos(pi (p-2k)/L) e_k

    With 2 cos(pi m / L) = zeta^m + zeta^-m and the e_k read as integers
    over Q's denominator, each sum is collected in integer buckets by zeta exponent and reduced
    once.  The denominator equals Q(exp(-2 pi i / L)) up to a unimodular
    prefactor, so it vanishing would mean Q has a root at the Moebius pole;
    that is fatal and raises ZeroDivisionError.
    """
    params = q.params
    L, p, order = params.L, params.p, params.field_order
    den, nums = q.den, q.nums

    top, bottom = [0] * order, [0] * order
    for k in range(p + 1):
        weight = (-1) ** k * nums[k]
        for sign in (1, -1):
            bottom[sign * (p - 2 * k) % order] += weight
            top[sign * (2 * k + 2 - p) % order] += (p - k) * weight
    numerator = CyclotomicNumber(order, top, den)
    denominator = CyclotomicNumber(order, bottom, 2 * den)

    if denominator.is_zero():
        raise ZeroDivisionError(
            f"root-sum denominator vanished at L={L} N={params.N}: "
            "Q has a root at the Moebius pole"
        )
    e1 = numerator / denominator
    if not e1.is_real():
        raise FalsificationError(
            f"root sum is not conjugation-fixed at L={L} N={params.N}"
        )
    return WSymmetrics(params=params, E1=e1, numerator=numerator, denominator=denominator)


def w_elementary(q: QPolynomial, alpha: int) -> CyclotomicNumber:
    """E_alpha of the w variables from the general double-sum expansion.

    E_alpha = Q(a)^-1 sum_k sum_j (-1)^k a^(k+p-alpha-2j)
              C(p-k, p-alpha-j) C(k, j) e_k,   a = exp(-2 pi i / L),

    with j running over max(0, k-alpha)..min(k, p-alpha).  Since a^m =
    zeta^(-2m), the double sum and Q(a) are each collected in integer
    buckets by zeta exponent and reduced once.  E_0 comes out as exactly 1,
    which is a built-in consistency check of the expansion.
    """
    params = q.params
    L, p, order = params.L, params.p, params.field_order
    if not 0 <= alpha <= p:
        raise ValueError(f"alpha must be in 0..{p}, got {alpha}")
    den, nums = q.den, q.nums

    acc, at_pole = [0] * order, [0] * order
    for k in range(p + 1):
        # Q(a) = sum_k (-1)^k e_k a^(p-k)
        at_pole[-2 * (p - k) % order] += (-1) ** k * nums[k]
        for j in range(max(0, k - alpha), min(k, p - alpha) + 1):
            weight = comb(p - k, p - alpha - j) * comb(k, j) * nums[k]
            acc[-2 * (k + p - alpha - 2 * j) % order] += (-1) ** k * weight

    denominator = CyclotomicNumber(order, at_pole, den)
    if denominator.is_zero():
        raise ZeroDivisionError(
            f"Q vanishes at the Moebius pole for L={L} N={params.N}"
        )
    return CyclotomicNumber(order, acc, den) / denominator


def verify_inverse_sum(q: QPolynomial, e1: CyclotomicNumber) -> CheckResult:
    """Exact identity E_(p-1) = E_1 * E_p (sum of w equals sum of 1/w).

    e1 is the root sum of this q, as w_sum computed it.
    """
    params = q.params
    e_top = w_elementary(q, params.p)
    e_second = w_elementary(q, params.p - 1)
    difference = e_second - e1 * e_top
    passed = difference.is_zero()
    return CheckResult(
        name="inverse-sum",
        params={"L": params.L, "N": params.N},
        passed=passed,
        residual="0" if passed else str(difference.to_dict()["coeffs"]),
        detail="" if passed else "sum of w and sum of 1/w disagree",
    )
