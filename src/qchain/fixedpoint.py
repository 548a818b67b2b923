"""Fixed-point complex arithmetic on Python integers, for the root validator.

A complex number in fixed point at 2^-bits is a pair of ints (xr, xi)
worth (xr + i xi) 2^-bits; a unit is 2^-bits.  Each stored part is within
one unit of the value it stands for: products (_mul) and divisions
(_divide) round each part down, and conversions truncate (_rescale from a
finer scale toward zero; _fixed from a Fraction or a float down).  A
complex value is thus off by less than 1.5 units, and a multiple of
2^-bits converts exactly.

The numbers that are not rational come from one kernel, expjpi: exp(i pi
num/den) with pi by Machin's formula and exp by its Taylor series, both in
integers with guard bits (R. P. Brent, J. ACM 23, 1976), each part then
truncated toward zero and within 2 units (its docstring derives it).  The
Moebius pole, the Bethe constants, the closed-form trigonometric sums and
embed, a cyclotomic number at zeta = exp(2 pi i / order), all read it.

_horner is the one evaluation of a polynomial: Horner's rule over a list of
(exponent, coefficient) terms by descending exponent, giving P(z) and,
with its slope on, z P'(z).  Q's multiple P = (z-1)^M Q and Q's own monic
terms (multiple.py) read it for their Newton corrections, the |Q(z_j)|
pass of roots.find_roots on Q's dense coefficients, and embed; on a dense
list each step is one product, as in the textbook loop.

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
to the caller's bound derived where the residual is computed.  Both are
exact Fractions (the bound may be math.inf), so a check decides exactly;
rounding in the sense of Higham (Accuracy and Stability of Numerical
Algorithms, 2002) enters only where a number is made here, never where one
is compared.  Nothing in this module imports mpmath: report.py formats a
number only where one is printed.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .cyclotomic import CyclotomicNumber


def _fixed(x: Fraction | float, bits: int) -> int:
    """x scaled by 2^bits and rounded down to an integer, exactly."""
    numerator, denominator = x.as_integer_ratio()
    return (numerator << bits) // denominator


def _rescale(x: tuple[int, int], shift: int) -> tuple[int, int]:
    """x divided by 2^shift, shift >= 0, each part truncated toward zero."""
    return tuple(v >> shift if v >= 0 else -(-v >> shift) for v in x)


@functools.lru_cache(maxsize=None)
def _pi(bits: int) -> int:
    """pi at 2^-bits by Machin's formula, pi = 16 atan(1/5) - 4 atan(1/239),
    low or high by less than 5 bits + 75 units (expjpi derives it)."""

    def atan_inv(k: int) -> int:  # atan(1/k) = sum_n (-1)^n / ((2n+1) k^(2n+1))
        power = (1 << bits) // k
        total, n = power, 0
        while power:
            power //= k * k
            n += 1
            total += (-1) ** n * (power // (2 * n + 1))
        return total

    return 16 * atan_inv(5) - 4 * atan_inv(239)


@functools.lru_cache(maxsize=None)
def expjpi(num: int, den: int, bits: int) -> tuple[int, int]:
    """exp(i pi num/den), den > 0, in fixed point at 2^-bits: each part the
    exact one truncated toward zero, unless that lies within 2^-64 units of
    a multiple of 2^-bits, and within 2 units always.

    Reduction, exact: k is the integer nearest 2 num/den and r = 2 num -
    k den, so pi num/den = k pi/2 + x with x = pi r/(2 den), |x| <= pi/4,
    and exp(i pi num/den) = i^k exp(i x), exp(-i|x|) the conjugate of
    exp(i|x|).  Both maps are exact on the integers.

    The work runs at W = bits + g, g = bits.bit_length() + 74 guard bits;
    errors below are in units u = 2^-W.  _pi(W): each term of atan(1/k) is
    floored twice, off by less than 1.35, and the series stops at the
    first zero power, below 1.05 u, which bounds its alternating tail; it
    has at most W/(2 log2 k) + 2 terms, so pi is off by less than
    16 (0.291 W + 3.75) + 4 (0.086 W + 3.75) < 5W + 75.  X = floor(_pi(W)
    |r| / (2 den)) is then off from |x| 2^W by less than (5W + 75)/4 + 1 <
    1.25W + 20, and X < 2^W.  Taylor: T_0 = 2^W and T_n = floor(floor(T_(n-1)
    X / 2^W) / n) lie below tau_n = 2^W (X/2^W)^n / n! by d_n < d_(n-1)/n +
    1/n + 1, so d_n < 4; T_n reaches 0 by n = W, where tau_n < 4, and the
    tail beyond is below 2 tau_n < 8.  Each part of the sum, terms of sign
    i^n, is thus within 4W + 8 of that of exp(i X/2^W), and cos and sin
    move by at most |X/2^W - |x||: the error E is below 6W + 28 < 8W.
    Truncating g bits toward zero (_rescale) leaves each part within 1 +
    E/2^g units of 2^-bits, and 8W < 2^(g - 64) for every bits >= 1.
    """
    k = (4 * num + den) // (2 * den)
    r = 2 * num - k * den
    guard = bits.bit_length() + 74
    W = bits + guard
    x = _pi(W) * abs(r) // (2 * den)
    parts = [0, 0, 0, 0]  # the terms of sign 1, i, -1, -i
    term, n = 1 << W, 0
    while term:
        parts[n % 4] += term
        n += 1
        term = (term * x >> W) // n
    re, im = parts[0] - parts[2], parts[1] - parts[3]
    if r < 0:
        im = -im
    for _ in range(k % 4):  # times i
        re, im = -im, re
    return _rescale((re, im), guard)


def embed(x: CyclotomicNumber, bits: int) -> tuple[int, int]:
    """x at zeta = exp(2 pi i / x.order) in fixed point at 2^-bits: each part
    the exact one truncated toward zero unless that lies within 2^-64 units
    of a multiple of 2^-bits, and within 2 units always.

    Horner's rule (_horner, the slope off) on x's integer coordinates c_j,
    sum_j c_j zeta^j, runs at W = bits + g, then divides by x.den.  zeta is
    expjpi(2, order) made at W rounded up to a multiple of 64, which every
    embedding of one order near that scale shares, and truncated to W, so
    each part is off by less than 1 + 2 units 2^-W and zeta by less than
    3 sqrt 2 < 4.25.  In those units, with C = sum_j |c_j| bounding every
    partial sum, a step multiplies the error so far by |zeta + its error|
    <= 1 + 4.25 2^-W and adds less than 4.25 C for zeta's error and sqrt 2
    for the product's rounding down.  Over the n = len(c) steps, n < 2^(W-8),
    that is within n (5C + 2) e^(4.25/256) <= E = n (6C + 3) of the exact
    sum, and the quotient by den within E/den + 1.  g = bits(E//den + 2) + 64
    makes that less than 2^(g - 64), and truncating g bits leaves each part
    within 1 + 2^-64 units of 2^-bits.
    """
    nums, den = x.nums, x.den
    error = len(nums) * (6 * sum(map(abs, nums)) + 3)
    guard = (error // den + 2).bit_length() + 64
    W = bits + guard
    zr, zi = _rescale(expjpi(2, x.order, W + -W % 64), -W % 64)
    terms = [(j, c << W) for j, c in reversed(list(enumerate(nums)))]
    ar, ai, _, _ = _horner(terms, zr, zi, W, slope=False)
    return _rescale((ar // den, ai // den), guard)


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


def _horner(terms, zr: int, zi: int, bits: int, slope: bool = True) -> tuple[int, int, int, int]:
    """P(z) and z P'(z) in fixed point at 2^-bits for P = sum_j c_j z^(e_j):
    (Re P, Im P, Re zP', Im zP'), zP' left at 0 unless slope; P comes out
    the same either way.

    terms holds the pairs (e_j, c_j) by descending e_j, the coefficients
    real and scaled like z = zr + i zi.  Horner's rule runs over the terms
    only, for P and for z P' = sum_j e_j c_j z^(e_j) together: each step
    multiplies by z^g, g the gap to the next exponent (the last one to 0).
    The distinct gaps' powers are made first, the smallest by repeated
    squaring and each next one from the one before times z^(the
    difference), so gaps h and h + 1 cost about 2 log2(h) + 1 products, and
    a pass 2 per term more; on a dense list every gap is 1, z itself, and a
    step is one product.  Every product rounds each part down (_mul, whose
    Gauss trick leaves the imaginary part as exact as four products would).
    """
    gaps = {a - b for (a, _), (b, _) in zip(terms, terms[1:])}
    gaps.add(terms[-1][0])
    gaps.discard(0)
    powers = {}
    done = 0
    for g in sorted(gaps):
        xr, xi = zr, zi
        for bit in bin(g - done)[3:]:
            xr, xi = _mul(xr, xi, xr, xi, bits)
            if bit == "1":
                xr, xi = _mul(xr, xi, zr, zi, bits)
        powers[g] = _mul(*powers[done], xr, xi, bits) if done else (xr, xi)
        done = g
    e, vr = terms[0]
    dr = e * vr if slope else 0
    vi = di = 0
    for below, c in terms[1:]:
        wr, wi = powers[e - below]
        ws = wr + wi
        t1, t2 = vr * wr, vi * wi
        vr, vi = ((t1 - t2) >> bits) + c, ((vr + vi) * ws - t1 - t2) >> bits
        if slope:
            t1, t2 = dr * wr, di * wi
            dr, di = ((t1 - t2) >> bits) + below * c, ((dr + di) * ws - t1 - t2) >> bits
        e = below
    if e:
        vr, vi = _mul(vr, vi, *powers[e], bits)
        if slope:
            dr, di = _mul(dr, di, *powers[e], bits)
    return vr, vi, dr, di


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


class Measured(NamedTuple):
    """A residual computed in fixed point and a bound on its rounding error,
    both exact: value a Fraction, bound a Fraction or math.inf.

    The exact residual lies within value +- bound.  A check passes on
    below(tolerance); value alone is what gets reported.
    """

    value: Fraction
    bound: Fraction | float

    @classmethod
    def from_square(cls, num: int, den: int, bits: int, error: tuple[int, int] | None) -> Measured:
        """sqrt(num / den) rounded down to a multiple of 2^-s, with s >= bits
        large enough for at least 64 significant bits, so low by less than
        2^(1-bits) and never high.

        error = (n, e) says that sqrt(num / den) is within n 2^e of the
        exact residual; the bound adds the 2^(1-bits) by which the reported
        value may be low.  error None makes the bound infinite.
        """
        s = max(bits, (130 + den.bit_length() - num.bit_length()) // 2)
        value = Fraction(math.isqrt((num << 2 * s) // den), 1 << s)
        if error is None:
            return cls(value, math.inf)
        n, e = error
        return cls(value, n * Fraction(2) ** e + Fraction(2, 1 << bits))

    def below(self, tolerance: Fraction) -> bool:
        """Whether value + bound is below tolerance, decided exactly."""
        return self.bound != math.inf and self.value + self.bound < tolerance
