"""Dense univariate polynomials with exact rational coefficients.

Coefficients are stored ascending by power with trailing zeros trimmed, so
equal polynomials have identical coefficient tuples.  Division is exact long
division: callers that require a zero remainder use
:meth:`RationalPolynomial.divide_exact`, which raises
``InexactDivisionError`` otherwise.  That error doubles as a transcription
check wherever a quotient is known on structural grounds to be a polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable


class InexactDivisionError(ArithmeticError):
    """Polynomial division left a nonzero remainder where none was allowed."""

    def __init__(self, remainder: "RationalPolynomial"):
        super().__init__(f"nonzero remainder {remainder!r}")
        self.remainder = remainder


class RationalPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def monomial(cls, degree: int, coeff: Fraction | int = 1) -> "RationalPolynomial":
        return cls([Fraction(0)] * degree + [Fraction(coeff)])

    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "RationalPolynomial":
        return cls([1])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == RationalPolynomial([other])
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"RationalPolynomial({list(self.coeffs)!r})"

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial([-c for c in self.coeffs])

    def __add__(self, other) -> "RationalPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return RationalPolynomial(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    __radd__ = __add__

    def __sub__(self, other) -> "RationalPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "RationalPolynomial":
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial([c * other for c in self.coeffs])
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RationalPolynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RationalPolynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = RationalPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x):
        """Evaluate by Horner's rule; x may be rational or cyclotomic.

        This is the one exact evaluation routine (Q(0) in the structure check).
        """
        if not self.coeffs:
            return Fraction(0)
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def __divmod__(self, other: "RationalPolynomial"):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = other.degree
        lead = other.coeffs[-1]
        if len(rem) <= dn:
            return RationalPolynomial(), self
        quot = [Fraction(0)] * (len(rem) - dn)
        for i in range(len(rem) - dn - 1, -1, -1):
            q = rem[i + dn] / lead
            quot[i] = q
            if q:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= q * b
        return RationalPolynomial(quot), RationalPolynomial(rem)

    def divide_exact(self, other: "RationalPolynomial") -> "RationalPolynomial":
        """Exact quotient; raises InexactDivisionError on a nonzero remainder."""
        quot, rem = divmod(self, other)
        if not rem.is_zero():
            raise InexactDivisionError(rem)
        return quot

    @staticmethod
    def _coerce(value):
        if isinstance(value, RationalPolynomial):
            return value
        if isinstance(value, (int, Fraction)):
            return RationalPolynomial([value])
        return NotImplemented

