"""Fixed-point complex arithmetic on Python integers, for the root validator.

A complex number in fixed point at 2^-bits is a pair of ints (xr, xi)
worth (xr + i xi) 2^-bits; a unit is 2^-bits.  Each stored part is within
one unit of the value it stands for: products (_mul) and divisions
(_divide) round each part down, and conversions truncate (_to_fixed from
mpmath and _rescale from a finer scale, both toward zero, so they read the
same integers from the same value; _fixed from a Fraction or a float
down).  A complex value is thus off by less than 1.5 units, and a
multiple of 2^-bits converts exactly.

_scaled_mul multiplies numbers (r + i i) 2^e that carry an exponent and
shifts the exact product so that its larger part is keep bits long.
Shifting right rounds each part down, by less than a unit of the last kept
bit, a relative error below 1.5 * 2^(1-keep) whatever the size of the
factors; shifting left is exact.  _product multiplies
fixed-point factors in order, keeping bits + 1 bits, so each of its steps
adds a relative error below 1.5 * 2^-bits.

A residual is computed squared, as an exact quotient of integers, and
reported as a Measured by Measured.from_square: its square root rounded
down to a multiple of 2^-s, s >= bits, so low by less than 2^(1-bits) and
never high, and a bound on the rounding error, which adds that 2^(1-bits)
to the caller's bound derived where the residual is computed.

mpmath is imported inside the functions that make or read an mpmath number
(_to_fixed, _dyadic, Measured.from_square, Measured.below), not with the
module: roots.py and bethe.py import this module, and a process that checks
no root, or only parses its arguments, then never loads mpmath.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import mpmath


def _fixed(x: Fraction | float, bits: int) -> int:
    """x scaled by 2^bits and rounded down to an integer, exactly."""
    numerator, denominator = x.as_integer_ratio()
    return (numerator << bits) // denominator


def _to_fixed(x, bits: int) -> tuple[int, int]:
    """An mpmath number scaled by 2^bits, each part truncated toward zero."""
    import mpmath

    return int(mpmath.ldexp(x.real, bits)), int(mpmath.ldexp(x.imag, bits))


def _rescale(x: tuple[int, int], shift: int) -> tuple[int, int]:
    """x divided by 2^shift, shift >= 0, each part truncated toward zero."""
    return tuple(v >> shift if v >= 0 else -(-v >> shift) for v in x)


def _float(xr: int, xi: int, one: int) -> complex:
    """(xr + i xi) / one as a Python complex; nan when out of float range."""
    try:
        return complex(xr / one, xi / one)
    except OverflowError:
        return complex(math.nan, math.nan)


def _mul(xr: int, xi: int, yr: int, yi: int, bits: int) -> tuple[int, int]:
    """x y in fixed point at 2^-bits, each part rounded down (Gauss's three products)."""
    t1, t2 = xr * yr, xi * yi
    return (t1 - t2) >> bits, ((xr + xi) * (yr + yi) - t1 - t2) >> bits


def _divide(xr: int, xi: int, yr: int, yi: int, bits: int) -> tuple[int, int]:
    """x / y in fixed point at 2^-bits, each part rounded down; y must be nonzero."""
    norm = yr * yr + yi * yi
    return ((xr * yr + xi * yi) << bits) // norm, ((xi * yr - xr * yi) << bits) // norm


def _horner(
    coeffs: list[int], zr: int, zi: int, bits: int, slope: bool = True
) -> tuple[int, int, int, int]:
    """Q(z) and Q'(z) in fixed point at 2^-bits: (Re Q, Im Q, Re Q', Im Q'),
    Q' left at 0 unless slope; Q comes out the same either way.

    The coefficients are real, ascending, and scaled like z = zr + i zi.
    Each complex product takes three integer products (Gauss's trick); the
    imaginary part (a + b)(c + d) - ac - bd is exact, so the result is the
    same as with four.
    """
    zs = zr + zi
    ar, ai = coeffs[-1], 0
    dr = di = 0
    for c in reversed(coeffs[:-1]):
        if slope:
            t1, t2 = dr * zr, di * zi
            dr, di = ((t1 - t2) >> bits) + ar, (((dr + di) * zs - t1 - t2) >> bits) + ai
        t1, t2 = ar * zr, ai * zi
        ar, ai = ((t1 - t2) >> bits) + c, ((ar + ai) * zs - t1 - t2) >> bits
    return ar, ai, dr, di


def _scaled_mul(xr: int, xi: int, xe: int, yr: int, yi: int, ye: int, keep: int):
    """(x 2^xe)(y 2^ye) as (r, i, e), worth (r + i i) 2^e, shifted so that the
    larger exact part is keep bits long; see the module docstring for its error."""
    t1, t2 = xr * yr, xi * yi
    r, i = t1 - t2, (xr + xi) * (yr + yi) - t1 - t2
    s = (abs(r) | abs(i)).bit_length() - keep
    if s >= 0:
        return r >> s, i >> s, xe + ye + s
    return r << -s, i << -s, xe + ye + s


def _product(factors, bits: int) -> tuple[int, int, int, int]:
    """The product of factors in fixed point at 2^-bits, multiplied in order
    by _scaled_mul keeping bits + 1 significant bits, the first taken
    exactly: (r, i, e) as there, and the smallest bit length of a factor.

    The loop is _scaled_mul written out, each factor's exponent being
    -bits, and returns exactly what the calls would."""
    it = iter(factors)
    pr, pi = next(it)
    pe = -bits
    keep = bits + 1
    small = abs(pr) | abs(pi)
    for fr, fi in it:
        size = abs(fr) | abs(fi)
        if size < small:
            small = size
        t1, t2 = pr * fr, pi * fi
        pr, pi = t1 - t2, (pr + pi) * (fr + fi) - t1 - t2
        s = (abs(pr) | abs(pi)).bit_length() - keep
        if s >= 0:
            pr, pi = pr >> s, pi >> s
        else:
            pr, pi = pr << -s, pi << -s
        pe += s - bits
    return pr, pi, pe, small.bit_length()


def _dyadic(n: int, e: int) -> mpmath.mpf:
    """n * 2^e as an exact mpf."""
    import mpmath

    with mpmath.workprec(max(53, n.bit_length())):
        return mpmath.ldexp(n, e)


class Measured(NamedTuple):
    """A residual computed in fixed point and a bound on its rounding error.

    The exact residual lies within value +- bound.  A check passes on
    below(tolerance); value alone is what gets reported.
    """

    value: mpmath.mpf
    bound: mpmath.mpf

    @classmethod
    def from_square(cls, num: int, den: int, bits: int, error: tuple[int, int] | None) -> Measured:
        """sqrt(num / den) rounded down to a multiple of 2^-s, with s >= bits
        large enough for at least 64 significant bits, so low by less than
        2^(1-bits) and never high.

        error = (n, e) says that sqrt(num / den) is within n 2^e of the
        exact residual; the bound adds the 2^(1-bits) by which the reported
        value may be low.  error None makes the bound infinite.
        """
        import mpmath

        s = max(bits, (130 + den.bit_length() - num.bit_length()) // 2)
        value = _dyadic(math.isqrt((num << 2 * s) // den), -s)
        if error is None:
            return cls(value, mpmath.inf)
        return cls(value, mpmath.fadd(_dyadic(*error), _dyadic(1, 1 - bits), exact=True))

    def below(self, tolerance) -> bool:
        """Whether value + bound, summed exactly, is below tolerance."""
        import mpmath

        return mpmath.fadd(self.value, self.bound, exact=True) < tolerance
