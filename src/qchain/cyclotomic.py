"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is stored as integer coordinates over one positive denominator,
sum_i nums[i] zeta^i / den in the power basis 1, zeta, ..., zeta^(phi(n)-1),
always reduced modulo the n-th cyclotomic polynomial and divided by the gcd
of den and the nums (H. Cohen, A Course in Computational Algebraic Number
Theory, 1993, section 4.2).  The form is canonical, so equality is tuple
equality.  Sums cross-multiply the denominators, products convolve the
integer coordinates; no Fraction is made by the arithmetic.  Because the
cyclotomic polynomial is irreducible over Q, every nonzero element has an
inverse, solved from its integer multiplication matrix by
linalg.solve_linear_system.

Reduction goes through one cached power table per order: zeta^k for k < n as
integer rows (the modulus is monic with integer coefficients).  Field sums
collect multiples of zeta^m in buckets indexed by m mod n and are reduced
once: CyclotomicNumber(n, buckets, denominator) is sum_m buckets[m] zeta^m /
denominator.

The chain modules work in Q(zeta_2L) with zeta = exp(i pi / L) for odd L, so
both cos(pi m / L) = (zeta^m + zeta^-m)/2 and the L-th roots of unity
exp(2 pi i k / L) = zeta^(2k) are exact elements here.

Numeric embeddings go through mpmath at an explicit binary precision; they
are for validation and display only and never feed back into exact values.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable

import mpmath

from .linalg import SingularMatrixError, solve_linear_system
from .rationals import divide_monic, format_rational, integer_scaled, lowest_terms, parse_rational

MIN_EMBED_BITS = 64


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
        """Solve (nums) y = den e_0 in integers; column j is nums * zeta^j."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in cyclotomic field")
        dim = len(self.nums)
        columns = [_reduce(self.order, [0] * j + list(self.nums)) for j in range(dim)]
        rhs = [self.den] + [0] * (dim - 1)
        try:
            d, y = solve_linear_system([[*row, b] for row, b in zip(zip(*columns), rhs)])
        except SingularMatrixError:
            raise AssertionError("modulus not coprime to nonzero element")
        return CyclotomicNumber(self.order, y, d)

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
        with mpmath.workprec(precision_bits):
            zeta = mpmath.expjpi(mpmath.mpf(2) / self.order)
            acc = mpmath.mpc(0)
            for c in reversed(self.coeffs):
                acc = acc * zeta + mpmath.mpf(c.numerator) / c.denominator
            return acc

    def approx_str(self, precision_bits: int = 256) -> str:
        digits = max(8, int(precision_bits * 0.3010299956639812) - 2)
        value = self.embed(precision_bits)
        with mpmath.workprec(precision_bits):
            if self.is_real():
                return mpmath.nstr(value.real, digits)
            return mpmath.nstr(value, digits)

    def to_dict(self, precision_bits: int = 256) -> dict:
        return {
            "order": self.order,
            "coeffs": [format_rational(c) for c in self.coeffs],
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
