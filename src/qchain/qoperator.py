"""Ground-sector Baxter Q polynomials for the odd-L chain, built two ways.

Conventions.  A chain is (L, N) with L odd >= 3 and N >= 1: spin s =
(L-2)/2, M = 2N+1 sites, and p = N(L-2) + (L-3)/2 Bethe roots.  The Q
polynomial is monic of degree p with Q(0) = 1 and is stored through its
signed elementary symmetric coefficients e_0..e_p, kept as integer
numerators over one positive denominator in lowest terms:

    Q(z) = prod_j (z - z_j) = sum_k (-1)^k e_k z^(p-k),  e_0 = 1.

Route one (closed form) assembles an explicit degree L*N + (L-1)/2 numerator
from binomial-weighted rational products, scales it to integers and divides
it by (z-1)^(2N+1) in 2N+1 synthetic divisions by z - 1, additions only; a
nonzero remainder doubles as a transcription check, and the scale is Q's
denominator.  Route two (linear system) imposes the vanishing of a binomial
convolution of the e_k at every admissible index.  Those p conditions say
that (1+x)^M sum_k e_k x^k lives on M+1 fixed exponents, where divisibility
by (1+x)^M is a Vandermonde system with a one-dimensional kernel: the
divided-difference weights of those nodes, which read nothing of route
one.  Route two writes them in integers, divides by (1+x)^M in its own
synthetic-division loop and multiplies the result back by (1+x)^M
(_times_one_plus_x, the one routine that forms this product) to test every
admissible condition.  The two routes must agree coefficient by
coefficient, which is equality of reduced forms.

The functional three-term identity satisfied by Q (verify_tq_identity) is
checked as an exact polynomial identity over Q(zeta_2L), never numerically.
Its coefficient of z^(M+p-m) is coefficient m of the same product (1+x)^M
E(x) times a field constant c(m) that vanishes exactly on the excluded
exponents, so tq is a check on the Q under test, equivalent to route two's
admissible conditions, and not an independent derivation of Q.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import accumulate
from math import comb, lcm, prod
from typing import NamedTuple

from .cyclotomic import CyclotomicNumber
from .rationals import format_rational, integer_scaled, lowest_terms
from .report import CheckResult, exact, listed


class _ChainFields(NamedTuple):
    L: int
    N: int


class ChainParams(_ChainFields):
    """Chain size data: L fixes the spin, N fixes the length M = 2N+1."""

    __slots__ = ()

    def __new__(cls, L: int, N: int):
        if L < 3 or L % 2 == 0:
            raise ValueError(f"L must be odd and >= 3, got {L}")
        if N < 1:
            raise ValueError(f"N must be >= 1, got {N}")
        return super().__new__(cls, L, N)

    @classmethod
    def _make(cls, iterable):  # so that _replace validates as the constructor does
        return cls(*iterable)

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


class _QFields(NamedTuple):
    params: ChainParams
    nums: tuple[int, ...]
    den: int


class QPolynomial(_QFields):
    """Q through its signed coefficients e_k = nums[k] / den; see module docstring.

    nums and den are brought to lowest terms with den > 0, so equality and
    hash compare exact values.  Structural properties (e_0 = 1, the
    palindrome, Q(0) = 1) are checked by verify_structure, not enforced
    here: negative controls need to be able to construct broken instances.
    """

    __slots__ = ()

    def __new__(cls, params: ChainParams, nums: tuple[int, ...], den: int = 1):
        if len(nums) != params.p + 1:
            raise ValueError(f"need {params.p + 1} coefficients, got {len(nums)}")
        return super().__new__(cls, params, *lowest_terms(nums, den))

    @classmethod
    def _make(cls, iterable):  # so that _replace normalises as the constructor does
        return cls(*iterable)

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
        return QPolynomial(self.params, tuple(bumped), self.den * delta.denominator)


def q_closed_form(params: ChainParams) -> QPolynomial:
    """Build Q from the explicit numerator divided by (z-1)^(2N+1).

    The numerator couples monomial pairs with rational product weights; each
    weight's denominator factors are nonzero by construction (asserted).
    Scaled to integers over its common denominator, the numerator is divided
    by z - 1 M times, each a synthetic division that only adds: one pass of
    suffix sums, run from the top down like _times_one_plus_x's passes,
    whose last sum a(1) is the remainder.  Each division must be exact
    (ArithmeticError otherwise), and the quotient must be monic of degree p
    with e_0 = 1; any violation aborts the build.
    """
    L, N = params.L, params.N
    half = (L - 1) // 2
    if N % 2 == 0:
        first_top, second_top = N // 2, N // 2 - 1
    else:
        first_top = second_top = (N - 1) // 2

    common = prod(half + L * j for j in range(N + 1))  # every weight's numerator

    def weight(k: int, shift: int) -> Fraction:
        den = 1
        for j in range(N + 1):
            factor = shift - L * k + L * j
            assert factor != 0
            den *= factor
        return Fraction((-1) ** k * comb(N, k) * common, den)

    terms: list[tuple[int, Fraction]] = []
    for k in range(first_top + 1):
        w = weight(k, half)
        terms.append((L * N + half - L * k, w))
        terms.append((L * k, -w))
    for k in range(second_top + 1):
        w = weight(k, -half)
        terms.append((L * N - L * k, w))
        terms.append((L * k + half, -w))

    top = L * N + half
    numerator_coeffs = [Fraction(0)] * (top + 1)
    for power, coeff in terms:
        numerator_coeffs[power] += coeff
    scale, numerator = integer_scaled(numerator_coeffs)

    quotient = numerator
    for _ in range(params.M):
        # a = (z-1) q gives q_(i-1) = a_i + q_i from the top down, the
        # suffix sums of a; the last of them, a(1), is the remainder
        sums = list(accumulate(reversed(quotient)))
        remainder = sums.pop()
        if remainder:
            raise ArithmeticError(f"inexact division: nonzero remainder {[remainder]}")
        quotient = sums[::-1]

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
    L*k + (L-1)/2 for k = 0..N.  The count always equals p, one condition
    per unknown e_1..e_p; this is asserted.
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


@functools.lru_cache(maxsize=1)
def _times_one_plus_x(nums: tuple[int, ...], M: int) -> tuple[int, ...]:
    """Coefficients of (1+x)^M sum_k nums[k] x^k, ascending, len(nums) + M of them.

    M in-place passes a_i += a_(i-1), each a multiplication by (1+x), run
    from the top down; route two's division loop, q_i = a_i - q_(i-1) run
    from the bottom up, is its mirror image.  Entry m is the binomial
    convolution sum_k C(M, m-k) nums[k] that route two's admissible
    conditions and the tq identity both read.

    The last product is kept, keyed on the exact integers: under --method
    both route two forms it on Q's reduced numerators, and tq and the root
    search's multiple read it for a Q whose integers are identical, while a
    bumped Q gets its own.
    """
    out = [*nums] + [0] * M
    for top in range(len(nums), len(out)):
        for i in range(top, 0, -1):
            out[i] += out[i - 1]
    return tuple(out)


def q_linear_system(params: ChainParams) -> QPolynomial:
    """Build Q from the vanishing conditions through their one-dimensional kernel.

    Condition ell says that P(x) = (1+x)^M E(x), with E(x) = sum_j e_j x^j,
    has no x^ell term, so P is supported on the M+1 excluded exponents
    s = L*k and L*k + (L-1)/2, and P_0 = e_0 = 1.  P is a multiple of
    (1+x)^M exactly when it vanishes to order M at x = -1, which on that
    support reads sum_s P_s (-1)^s s^i = 0 for i < M.  With the node
    products w_s = prod_(t != s) (s - t), sum_s s^i / w_s is the divided
    difference of y^i over the M+1 nodes, zero for every i < M, and the
    kernel is one-dimensional: (-1)^s P_s = w_0 / w_s, or over
    d = lcm(|w_s|) the integers d P_s = (-1)^s w_0 (d / w_s), d P_0 = d.
    These weights hold for any Vandermonde kernel and read only the nodes,
    never route one's product weights.  M synthetic divisions of d P by
    (1+x), each remainder checked, leave the numerators d e_0..d e_p over
    d.  The acceptance test is Q's defining system itself: _times_one_plus_x
    multiplies the reduced quotient, Q's own numerators, back by (1+x)^M,
    and the product must vanish at every admissible index (the conditions
    are blind to the scale).  verify_tq_identity reads the same product,
    so on the Q under test the tq identity and these conditions are one
    fact, and where that Q is this one the product is formed once.
    """
    L, N, M = params.L, params.N, params.M
    half = (L - 1) // 2
    nodes = {L * k for k in range(N + 1)} | {L * k + half for k in range(N + 1)}
    products = {s: prod(s - t for t in nodes if t != s) for s in nodes}
    d = lcm(*products.values())

    nums = [0] * (L * N + half + 1)
    for s, w in products.items():
        nums[s] = (-1) ** s * products[0] * (d // w)
    for _ in range(M):
        # a = (1+x) q gives q_i = a_i - q_(i-1); what is left in the top entry is the remainder
        for i in range(1, len(nums)):
            nums[i] -= nums[i - 1]
        if nums.pop():
            raise AssertionError("division by (1+x) leaves a remainder")

    q = QPolynomial(params, tuple(nums), d)
    product = _times_one_plus_x(q.nums, M)
    for ell in admissible_indices(params):
        if product[ell]:
            raise AssertionError(f"condition at index {ell} fails")
    return q


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
    return listed("structure", {"L": q.params.L, "N": q.params.N}, problems)


def verify_tq_identity(q: QPolynomial) -> CheckResult:
    """Exact three-term functional identity for Q over Q(zeta_2L).

    With omega = exp(2 pi i / L) = zeta^2 and h = (L-1)/2, the combination

        -2 cos(h pi / L) (z-1)^M Q(z)
        + zeta^-h (z - omega)^M Q_omega(z)
        + zeta^h (z - omega^-1)^M Q_(omega^-1)(z)

    must vanish identically, where Q_c(z) = prod_j (z - c z_j) expands as
    sum_k (-1)^k c^k e_k z^(p-k) directly from the coefficients (the roots
    themselves are never needed).

    Derivation.  The z^i coefficient of (z - c)^M Q_c(z) sums, over k, the
    z^a term of (z - c)^M times the z^(p-k) term of Q_c, a = i - p + k:
    C(M, a) (-c)^(M-a) (-1)^k c^k e_k = (-1)^m C(M, m-k) c^m e_k with
    m = M + p - i, since M - a + k = m and C(M, a) = C(M, m-k).  The power
    of the shift c depends on m alone, so with -2 cos(h pi / L) = -zeta^h -
    zeta^-h the coefficient of z^(M+p-m) in the combination is

        (-1)^m S_m c(m),  c(m) = zeta^(2m-h) + zeta^(h-2m) - zeta^h - zeta^-h,

    where S_m = sum_k C(M, m-k) e_k is coefficient m of (1+x)^M E(x), read
    from _times_one_plus_x on the integer numerators, over den.  A field
    element is built only where S_m != 0, from the four zeta buckets of
    (-1)^m S_m c(m), and exact field arithmetic decides whether it is zero.
    c(m) vanishes exactly when m = 0 or h (mod L), which are route two's
    excluded exponents, so the identity holds exactly when the Q under test
    satisfies route two's admissible conditions.  This check therefore tests
    the Q it is given, which a tamper bumps; it is equivalent to those
    conditions, not an independent derivation of Q.  The check is
    coefficient-by-coefficient equality to zero; there is no tolerance.
    """
    params = q.params
    L, M, p = params.L, params.M, params.p
    order, half = params.field_order, (L - 1) // 2

    bad = []
    for i, s in enumerate(reversed(_times_one_plus_x(q.nums, M))):
        if s:
            m, buckets = M + p - i, [0] * order
            for exponent, sign in ((2 * m - half, 1), (half - 2 * m, 1), (half, -1), (-half, -1)):
                buckets[exponent % order] += sign * (-1) ** m * s
            coefficient = CyclotomicNumber(order, buckets)
            if not coefficient.is_zero():
                bad.append((i, coefficient))

    degree, witness = bad[0] if bad else (None, CyclotomicNumber(order))
    detail = f"{len(bad)} nonzero coefficients, first at degree {degree}"
    return exact("tq", {"L": L, "N": params.N}, witness / q.den, detail)
