"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is stored as integer coordinates over one positive denominator,
sum_i nums[i] zeta^i / den in the power basis 1, zeta, ..., zeta^(phi(n)-1),
always reduced modulo the n-th cyclotomic polynomial and divided by the gcd
of den and the nums (H. Cohen, A Course in Computational Algebraic Number
Theory, 1993, section 4.2).  The form is canonical, so equality is tuple
equality.  Sums cross-multiply the denominators, products convolve the
integer coordinates; no Fraction is made by the arithmetic.  Because the
cyclotomic polynomial is irreducible over Q, every nonzero element has an
inverse, solved in the real subfield (below) by linalg.solve_linear_system.

Reduction goes through one cached power table per order: zeta^k for k < n as
integer rows (the modulus is monic with integer coefficients).  Field sums
collect multiples of zeta^m in buckets indexed by m mod n and are reduced
once: CyclotomicNumber(n, buckets, denominator) is sum_m buckets[m] zeta^m /
denominator.

Inversion runs in the real subfield Q(zeta + zeta^-1), of degree h = phi/2
for phi = phi(n) > 1 (L. C. Washington, Introduction to Cyclotomic Fields,
2nd ed. 1997, ch. 2), with basis 1, u_1, ..., u_(h-1), u_m = zeta^m +
zeta^-m; u_m is a monic polynomial of degree m in u_1, so these span the
same space as the powers of u_1.  A second cached table per order holds
the coordinates of u_m for every m < n:
- u_m for m < h is a basis vector, and u_0 = 2.
- The modulus Phi_n = sum_k a_k x^k (degree 2h) is palindromic, a_(2h-k) =
  a_k, so zeta^-h Phi_n(zeta) = a_h + sum_(1<=j<=h) a_(h+j) u_j = 0, and
  since a_2h = 1, u_h = -a_h - sum_(1<=j<h) a_(h+j) u_j.
- u_1 u_m = u_(m+1) + u_(m-1), so u_(m+1) = u_1 u_m - u_(m-1) gives the rest.
A real element r = sum_m t_m zeta^m / D, in any representation, equals
(r + conj r)/2 = sum_m t_m u_m / (2D): its real coordinates are sum_m t_m
row_m / (2D).  For n <= 2 the field is Q itself, h = 1, and u_1 = 2 zeta.

The chain modules work in Q(zeta_2L) with zeta = exp(i pi / L) for odd L, so
both cos(pi m / L) = (zeta^m + zeta^-m)/2 and the L-th roots of unity
exp(2 pi i k / L) = zeta^(2k) are exact elements here.

Numeric embeddings go through mpmath at an explicit binary precision; they
are for validation and display only and never feed back into exact values.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable

import mpmath

from .linalg import SingularMatrixError, solve_linear_system
from .rationals import divide_monic, integer_scaled, lowest_terms, parse_rational

MIN_EMBED_BITS = 64


@functools.lru_cache(maxsize=None)
def _zeta(order: int, bits: int) -> mpmath.mpc:
    """zeta = exp(2 pi i / order) at bits of working precision."""
    with mpmath.workprec(bits):
        return mpmath.expjpi(mpmath.mpf(2) / order)


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Ascending integer coefficients of the n-th cyclotomic polynomial.

    x^n - 1 factors as the product of the d-th cyclotomic polynomials over
    all divisors d of n; dividing out the proper divisors' factors leaves
    the n-th.  Each factor is monic, and division is exact by construction.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    quot = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            quot = divide_monic(quot, cyclotomic_polynomial(d))
    return tuple(quot)


@functools.lru_cache(maxsize=None)
def _field_data(order: int) -> tuple[int, tuple]:
    """The modulus degree, and rows zeta^k (k < order) as (index, int) pairs."""
    modulus = cyclotomic_polynomial(order)
    dim = len(modulus) - 1
    low = [-c for c in modulus[:dim]]  # zeta^dim = sum_i low[i] zeta^i
    rows, row = [], [1] + [0] * (dim - 1)
    for _ in range(order):
        rows.append(tuple((j, c) for j, c in enumerate(row) if c))
        top, row = row[-1], [0] + row[:-1]
        row = [r + top * c for r, c in zip(row, low)]
    return dim, tuple(rows)


@functools.lru_cache(maxsize=None)
def _real_data(order: int) -> tuple[int, tuple]:
    """The real subfield's degree h, and rows u_m = zeta^m + zeta^-m (m < order)
    in the basis 1, u_1, ..., u_(h-1), as (index, int) pairs."""
    modulus = cyclotomic_polynomial(order)
    dim = len(modulus) - 1
    h = max(1, dim // 2)
    if dim == 1:  # zeta = -a_0 is rational
        u_h = [-2 * modulus[0]]
    else:  # the palindrome of the modulus
        u_h = [-modulus[h]] + [-modulus[h + j] for j in range(1, h)]
    # u_k for k <= h; the basis vector 1 is half of u_0
    low = [[2] + [0] * (h - 1)] + [[int(i == k) for i in range(h)] for k in range(1, h)] + [u_h]

    def times_u1(row):  # u_1 (c_0 + sum_j c_j u_j) = c_0 u_1 + sum_j c_j (u_(j+1) + u_(j-1))
        out = [row[0] * t for t in low[1]]
        for j in range(1, h):
            if row[j]:
                out = [o + row[j] * (a + b) for o, a, b in zip(out, low[j + 1], low[j - 1])]
        return out

    rows = low[:2]
    while len(rows) < order:
        rows.append([a - b for a, b in zip(times_u1(rows[-1]), rows[-2])])
    return h, tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in rows[:order])


def _real_coordinates(order: int, terms: Iterable[tuple[int, int]]) -> list[int]:
    """sum_m t_m u_m over (m, t_m) pairs, in the basis 1, u_1, ..., u_(h-1)."""
    h, rows = _real_data(order)
    out = [0] * h
    for m, t in terms:
        if t:
            for j, c in rows[m % order]:
                out[j] += t * c
    return out


def _reduce(order: int, coeffs: list[int]) -> list[int]:
    """Power-basis coordinates of sum_m coeffs[m] zeta^m, in integers."""
    dim, table = _field_data(order)
    out = [0] * dim
    for m, c in enumerate(coeffs):
        if c:
            for j, t in table[m % order]:
                out[j] += c * t
    return out


class CyclotomicNumber:
    """sum_i nums[i] zeta^i / den in Q(zeta_order), in lowest terms.

    Built from sum_m coeffs[m] zeta^m / denominator, with coeffs ints or
    Fractions of any length (powers past the basis go through the table).
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs: Iterable[Fraction | int] = (), denominator: int = 1):
        if order < 1:
            raise ValueError("order must be >= 1")
        dim, _ = _field_data(order)
        scale, nums = integer_scaled(coeffs)
        nums = _reduce(order, nums) if len(nums) > dim else nums + [0] * (dim - len(nums))
        nums, den = lowest_terms(nums, scale * denominator)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicNumber is immutable")

    def __reduce__(self):
        # Pickle's default slot restore would go through __setattr__ above.
        return (CyclotomicNumber, (self.order, self.nums, self.den))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as reduced Fractions."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value: Fraction | int, order: int) -> "CyclotomicNumber":
        return cls(order, [value])

    @classmethod
    def zero(cls, order: int) -> "CyclotomicNumber":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "CyclotomicNumber":
        return cls(order, [1])

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.nums[0], self.den)

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation, the field map zeta -> zeta^-1."""
        n = self.order
        raw = [0] * n
        for k, c in enumerate(self.nums):
            raw[(n - k) % n] += c
        return CyclotomicNumber(n, raw, self.den)

    def is_real(self) -> bool:
        return self == self.conjugate()

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.order != self.order:
                raise ValueError(
                    f"order mismatch: {self.order} vs {other.order}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.from_rational(other, self.order)
        return None

    def _combine(self, rhs: "CyclotomicNumber", sign: int) -> "CyclotomicNumber":
        """self + sign * rhs over the product of the denominators."""
        a, b = self.den, sign * rhs.den
        return CyclotomicNumber(
            self.order, [x * b + y * a for x, y in zip(self.nums, rhs.nums)], a * b
        )

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._combine(rhs, 1)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.order, [-c for c in self.nums], self.den)

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._combine(rhs, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        # Scalar products skip the convolution and the reduction entirely.
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber(
                self.order, [c * other.numerator for c in self.nums], self.den * other.denominator
            )
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = self.nums, rhs.nums
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return CyclotomicNumber(self.order, out, self.den * rhs.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """The inverse, from one h x h integer system, h = phi(order)/2.

        beta = alpha if alpha is real, else beta = alpha conj(alpha).  That
        product is real: complex conjugation is a field automorphism of
        order two, so conj(alpha conj(alpha)) = conj(alpha) alpha.  beta is
        nonzero because alpha is, so beta x = 1 has a real solution x, and
        then alpha^-1 = x, or conj(alpha) x.  In the basis b_0 = 1, b_j = u_j
        of the real subfield (module docstring), write beta = sum_i s_i
        zeta^i / D; column j of beta's multiplication matrix is beta b_j,
        that is sum_i s_i (zeta^(i+j) + zeta^(i-j)) / D for j >= 1 and
        beta / 1 for j = 0, each read in real coordinates through the u_m
        table, all over 2D.  So the system is h rows of h integers plus the
        right-hand side 2D e_0, against phi x phi for the full field.
        Bareiss elimination (E. H. Bareiss, Math. Comp. 22, 1968) does
        about h^3/3 updates, 8 times fewer than on the full matrix.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in cyclotomic field")
        conj = self.conjugate()
        beta = self if conj == self else self * conj
        n, s = self.order, list(enumerate(beta.nums))
        h, _ = _real_data(n)
        columns = [_real_coordinates(n, s)] + [
            _real_coordinates(n, [(i + j, t) for i, t in s] + [(i - j, t) for i, t in s])
            for j in range(1, h)
        ]
        rhs = [2 * beta.den] + [0] * (h - 1)
        try:
            d, y = solve_linear_system([[*row, b] for row, b in zip(zip(*columns), rhs)])
        except SingularMatrixError:
            raise AssertionError("modulus not coprime to nonzero element")
        buckets = [0] * n
        for j, c in enumerate(y):  # x = y_0 + sum_j y_j (zeta^j + zeta^-j), over d
            buckets[j] = buckets[-j] = c
        x = CyclotomicNumber(n, buckets, d)
        return x if beta is self else conj * x

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return CyclotomicNumber(
                self.order, [c * other.denominator for c in self.nums], self.den * other.numerator
            )
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.inverse()

    def __rtruediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = CyclotomicNumber.one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CyclotomicNumber):
            return (self.order, self.den, self.nums) == (other.order, other.den, other.nums)
        if isinstance(other, (int, Fraction)):
            return (
                self.is_rational()
                and self.nums[0] == other.numerator
                and self.den == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.order, self.nums, self.den))

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*zeta")
            else:
                terms.append(f"{c}*zeta^{k}")
        body = " + ".join(terms) if terms else "0"
        return f"CyclotomicNumber(order={self.order}: {body})"

    # -- numeric embedding and serialization --------------------------------

    def embed(self, precision_bits: int = 256) -> mpmath.mpc:
        """Numeric value with zeta = exp(2 pi i / order), at the given precision."""
        if precision_bits < MIN_EMBED_BITS:
            raise ValueError(f"precision_bits must be >= {MIN_EMBED_BITS}")
        zeta = _zeta(self.order, precision_bits)
        with mpmath.workprec(precision_bits):
            acc = mpmath.mpc(0)
            for num, den in reversed(self._lowest()):
                acc = acc * zeta + mpmath.mpf(num) / den
            return acc

    def _lowest(self) -> list[tuple[int, int]]:
        """Each coordinate's numerator and denominator in lowest terms, as
        coeffs has them, without making a Fraction."""
        gcds = [math.gcd(c, self.den) for c in self.nums]
        return [(c // g, self.den // g) for c, g in zip(self.nums, gcds)]

    def approx_str(self, precision_bits: int = 256) -> str:
        digits = max(8, int(precision_bits * 0.3010299956639812) - 2)
        value = self.embed(precision_bits)
        with mpmath.workprec(precision_bits):
            if self.is_real():
                return mpmath.nstr(value.real, digits)
            return mpmath.nstr(value, digits)

    def coeff_strings(self) -> list[str]:
        """The power-basis coordinates as "NUM/DEN" strings, the exact part of to_dict."""
        return [f"{num}/{den}" for num, den in self._lowest()]

    def to_dict(self, precision_bits: int = 256) -> dict:
        return {
            "order": self.order,
            "coeffs": self.coeff_strings(),
            "approx": self.approx_str(precision_bits),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CyclotomicNumber":
        return cls(data["order"], [parse_rational(s) for s in data["coeffs"]])


def zeta_power(exponent: int, L: int) -> CyclotomicNumber:
    """exp(i pi exponent / L) as an element of Q(zeta_2L), L odd and >= 3."""
    _require_odd(L)
    n = 2 * L
    e = exponent % n
    return CyclotomicNumber(n, [0] * e + [1])


def cyc_cos(m: int, L: int) -> CyclotomicNumber:
    """cos(pi m / L) as an exact element of Q(zeta_2L)."""
    return (zeta_power(m, L) + zeta_power(-m, L)) / 2


def _require_odd(L: int) -> None:
    if L < 3 or L % 2 == 0:
        raise ValueError(f"L must be odd and >= 3, got {L}")
