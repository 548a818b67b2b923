"""Ground-sector Baxter Q polynomials for the odd-L chain, built two ways.

Conventions.  A chain is (L, N) with L odd >= 3 and N >= 1: spin s =
(L-2)/2, M = 2N+1 sites, and p = N(L-2) + (L-3)/2 Bethe roots.  The Q
polynomial is monic of degree p with Q(0) = 1 and is stored through its
signed elementary symmetric coefficients e_0..e_p, kept as integer
numerators over one positive denominator in lowest terms:

    Q(z) = prod_j (z - z_j) = sum_k (-1)^k e_k z^(p-k),  e_0 = 1.

Route one (closed form) assembles an explicit degree L*N + (L-1)/2 numerator
from binomial-weighted rational products, scales it to integers and divides
it by (z-1)^(2N+1) in integer long division; a nonzero remainder doubles as
a transcription check, and the scale is Q's denominator.  Route two (linear
system) imposes the vanishing of a binomial convolution of the e_k at every
admissible index and solves the resulting square integer system exactly;
Bareiss's last pivot is Q's denominator.  The two routes must agree
coefficient by coefficient, which is equality of the reduced forms.

The functional three-term identity satisfied by Q (verify_tq_identity) is
checked as an exact polynomial identity over Q(zeta_2L), never numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb

from .cyclotomic import CyclotomicNumber
from .linalg import solve_linear_system
from .rationals import divide_monic, format_rational, integer_scaled, lowest_terms
from .report import CheckResult

MIN_REPORT_BITS = 64


@dataclass(frozen=True)
class ChainParams:
    """Chain size data: L fixes the spin, N fixes the length M = 2N+1."""

    L: int
    N: int

    def __post_init__(self):
        if self.L < 3 or self.L % 2 == 0:
            raise ValueError(f"L must be odd and >= 3, got {self.L}")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")

    @property
    def M(self) -> int:
        return 2 * self.N + 1

    @property
    def p(self) -> int:
        return self.N * (self.L - 2) + (self.L - 3) // 2

    @property
    def spin(self) -> Fraction:
        return Fraction(self.L - 2, 2)

    @property
    def field_order(self) -> int:
        return 2 * self.L


@dataclass(frozen=True)
class QPolynomial:
    """Q through its signed coefficients e_k = nums[k] / den; see module docstring.

    nums and den are brought to lowest terms with den > 0, so equality and
    hash compare exact values.  Structural properties (e_0 = 1, the
    palindrome, Q(0) = 1) are checked by verify_structure, not enforced
    here: negative controls need to be able to construct broken instances.
    """

    params: ChainParams
    nums: tuple[int, ...]
    den: int = 1

    def __post_init__(self):
        if len(self.nums) != self.params.p + 1:
            raise ValueError(
                f"need {self.params.p + 1} coefficients, got {len(self.nums)}"
            )
        nums, den = lowest_terms(self.nums, self.den)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @property
    def e(self) -> tuple[Fraction, ...]:
        """e_0..e_p as reduced Fractions."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    def coefficients(self) -> list[Fraction]:
        """Plain ascending power-basis coefficients of Q, as reduced Fractions."""
        p = self.params.p
        return [Fraction((-1) ** (p - i) * self.nums[p - i], self.den) for i in range(p + 1)]

    def with_coefficient_bump(self, k: int, delta: Fraction | int) -> "QPolynomial":
        """Copy with e_k shifted by delta; negative-control hook."""
        if not 0 <= k <= self.params.p:
            raise ValueError(f"index {k} out of range 0..{self.params.p}")
        bumped = [c * delta.denominator for c in self.nums]
        bumped[k] += delta.numerator * self.den
        return replace(self, nums=tuple(bumped), den=self.den * delta.denominator)


def q_closed_form(params: ChainParams) -> QPolynomial:
    """Build Q from the explicit numerator divided by (z-1)^(2N+1).

    The numerator couples monomial pairs with rational product weights; each
    weight's denominator factors are nonzero by construction (asserted).
    Scaled to integers over its common denominator, the numerator is divided
    by the binomial coefficients of (z-1)^M in integers.  The division must
    be exact, and the quotient must be monic of degree p with e_0 = 1; any
    violation aborts the build.
    """
    L, N = params.L, params.N
    half = (L - 1) // 2
    if N % 2 == 0:
        first_top, second_top = N // 2, N // 2 - 1
    else:
        first_top = second_top = (N - 1) // 2

    terms: list[tuple[int, Fraction]] = []
    for k in range(first_top + 1):
        weight = Fraction((-1) ** k * comb(N, k))
        for j in range(N + 1):
            den = half - L * k + L * j
            assert den != 0
            weight *= Fraction(half + L * j, den)
        terms.append((L * N + half - L * k, weight))
        terms.append((L * k, -weight))
    for k in range(second_top + 1):
        weight = Fraction((-1) ** k * comb(N, k))
        for j in range(N + 1):
            den = -half - L * k + L * j
            assert den != 0
            weight *= Fraction(half + L * j, den)
        terms.append((L * N - L * k, weight))
        terms.append((L * k + half, -weight))

    top = L * N + half
    numerator_coeffs = [Fraction(0)] * (top + 1)
    for power, coeff in terms:
        numerator_coeffs[power] += coeff
    scale, numerator = integer_scaled(numerator_coeffs)

    M = params.M
    root_factor = [(-1) ** (M - i) * comb(M, i) for i in range(M + 1)]  # (z-1)^M
    quotient = divide_monic(numerator, root_factor)

    p = params.p
    degree = max((i for i, c in enumerate(quotient) if c), default=-1)
    if degree != p:
        raise AssertionError(f"quotient degree {degree}, expected {p}")
    if quotient[p] != scale:
        raise AssertionError("quotient is not monic")
    return QPolynomial(params, tuple((-1) ** k * quotient[p - k] for k in range(p + 1)), scale)


def admissible_indices(params: ChainParams) -> list[int]:
    """Indices where the binomial convolution of the e_k must vanish.

    Runs over 0..L*N+(L-1)/2 minus the 2(N+1) excluded values L*k and
    L*k + (L-1)/2 for k = 0..N.  The count always equals p, which makes the
    linear system square; this is asserted.
    """
    L, N = params.L, params.N
    half = (L - 1) // 2
    excluded = {L * k for k in range(N + 1)} | {L * k + half for k in range(N + 1)}
    ells = [ell for ell in range(L * N + half + 1) if ell not in excluded]
    if len(ells) != params.p:
        raise AssertionError(
            f"admissible index count {len(ells)} != p = {params.p}"
        )
    return ells


def q_linear_system(params: ChainParams) -> QPolynomial:
    """Build Q by solving the vanishing conditions exactly.

    Each admissible index ell gives sum_j C(2N+1, ell-j) e_j = 0 with j
    clamped to max(0, ell-2N-1)..min(p, ell).  With e_0 = 1 moved to the
    right-hand side this is a square integer system for e_1..e_p, solved
    as d and y = d (e_1..e_p) so that d / d is e_0.
    """
    M, p = params.M, params.p
    rows: list[list[int]] = []
    for ell in admissible_indices(params):
        row = [0] * (p + 1)
        lo, hi = max(0, ell - M), min(p, ell)
        for j in range(max(lo, 1), hi + 1):
            row[j - 1] = comb(M, ell - j)
        row[p] = -comb(M, ell) if lo == 0 else 0
        rows.append(row)

    d, y = solve_linear_system(rows)
    return QPolynomial(params, (d, *y), d)


def build_q(params: ChainParams, method: str = "closed-form") -> QPolynomial:
    """Build Q by the requested route; "both" builds twice and must agree."""
    if method == "closed-form":
        return q_closed_form(params)
    if method == "linear-system":
        return q_linear_system(params)
    if method == "both":
        qa = q_closed_form(params)
        qb = q_linear_system(params)
        if qa != qb:
            raise AssertionError(
                f"construction routes disagree at L={params.L} N={params.N}"
            )
        return qa
    raise ValueError(f"unknown method {method!r}")


def verify_structure(q: QPolynomial) -> CheckResult:
    """Exact structural checks: e_0 = 1, the palindrome e_k = (-1)^p e_(p-k), Q(0) = 1.

    Q(0) = (-1)^p e_p, so the last check is also the test of e_p; each fact is
    reported once.  Every comparison is on the integer numerators.
    """
    p, nums, den = q.params.p, q.nums, q.den
    problems = []
    if nums[0] != den:
        problems.append(f"e_0 = {format_rational(Fraction(nums[0], den))}")
    sign = (-1) ** p
    for k in range(p + 1):
        if nums[k] != sign * nums[p - k]:
            problems.append(f"palindrome fails at k={k}")
            break
    if sign * nums[p] != den:
        problems.append(f"Q(0) = {format_rational(Fraction(sign * nums[p], den))}")
    return CheckResult(
        name="structure",
        params={"L": q.params.L, "N": q.params.N},
        passed=not problems,
        residual="0" if not problems else "1",
        detail="; ".join(problems),
    )


def verify_tq_identity(q: QPolynomial) -> CheckResult:
    """Exact three-term functional identity for Q over Q(zeta_2L).

    With omega = exp(2 pi i / L) = zeta^2 and h = (L-1)/2, the combination

        -2 cos(h pi / L) (z-1)^M Q(z)
        + zeta^-h (z - omega)^M Q_omega(z)
        + zeta^h (z - omega^-1)^M Q_(omega^-1)(z)

    must vanish identically, where Q_c(z) = prod_j (z - c z_j) expands as
    sum_k (-1)^k c^k e_k z^(p-k) directly from the coefficients (the roots
    themselves are never needed).  With the e_k read as integers over den and
    -2 cos(h pi / L) = -zeta^h - zeta^-h, each coefficient of z^i is summed
    in integer buckets by zeta exponent and reduced once.  The check is
    coefficient-by-coefficient equality to zero; there is no tolerance.
    """
    params = q.params
    L, M, p = params.L, params.M, params.p
    order, half = params.field_order, (L - 1) // 2
    den, nums = q.den, q.nums
    # (sign, zeta exponent of the prefactor term, zeta exponent of the shift)
    terms = [(-1, half, 0), (-1, -half, 0), (1, -half, 2), (1, half, -2)]

    bad = []
    for i in range(M + p + 1):
        # z^a of (z - c)^M times z^(p-k) of Q_c: C(M, a) (-c)^(M-a+k) e_k
        buckets = [0] * order
        for k in range(max(0, p - i), min(p, M + p - i) + 1):
            a = i - p + k
            power = M - a + k
            weight = (-1) ** power * comb(M, a) * nums[k]
            for sign, exponent, step in terms:
                buckets[(exponent + step * power) % order] += sign * weight
        coefficient = CyclotomicNumber(order, buckets)
        if not coefficient.is_zero():
            bad.append((i, coefficient))

    where = {"L": L, "N": params.N}
    if not bad:
        return CheckResult(name="tq", params=where, passed=True)
    degree, witness = bad[0][0], bad[0][1] / den
    return CheckResult(
        name="tq",
        params=where,
        passed=False,
        residual=str(witness.to_dict(MIN_REPORT_BITS)["coeffs"]),
        detail=f"{len(bad)} nonzero coefficients, first at degree {degree}",
    )
