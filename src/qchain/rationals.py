"""Exact rational and integer helpers shared across the package.

Exact values are stored as integers over one positive denominator in lowest
terms (Q's coefficients and field coordinates alike); plain
``fractions.Fraction`` values appear only at the edges (parsed input, read-only
views, reported strings).  The helpers here pin down the one lowest-terms
rule, the one serialization format used by reports and the CLI, the base-10
string "numerator/denominator", the scaling of rationals to integers, and the
one exact division of integer polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable


def format_rational(value: Fraction | int) -> str:
    """Render a rational as "numerator/denominator" in base 10."""
    q = Fraction(value)
    return f"{q.numerator}/{q.denominator}"


def lowest_terms(nums: Iterable[int], den: int) -> tuple[tuple[int, ...], int]:
    """nums / den with a positive denominator and no common factor left."""
    nums = tuple(nums)
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
    return tuple(c // g for c in nums), den // g


def integer_scaled(values: Iterable[Fraction | int]) -> tuple[int, list[int]]:
    """The least common denominator D of the values, and the integers D * v."""
    values = list(values)
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def divide_monic(num: Iterable[int], divisor: Iterable[int]) -> list[int]:
    """Exact quotient of integer polynomials, coefficients ascending by power.

    The divisor must be monic, so every step stays in the integers.  A
    nonzero remainder raises ArithmeticError: callers divide where the
    quotient is known on structural grounds to be a polynomial, and the
    remainder check doubles as a transcription check.
    """
    rem, divisor = list(num), list(divisor)
    if not divisor or divisor[-1] != 1:
        raise ValueError(f"divisor {divisor} is not monic")
    dn = len(divisor) - 1
    quot = [0] * max(0, len(rem) - dn)
    for i in range(len(quot) - 1, -1, -1):
        q = quot[i] = rem[i + dn]
        if q:
            for j in range(dn):
                rem[i + j] -= q * divisor[j]
    if any(rem[:dn]):
        raise ArithmeticError(f"inexact division: nonzero remainder {rem[:dn]}")
    return quot


def parse_rational(text: str) -> Fraction:
    """Inverse of :func:`format_rational`; also accepts bare integers."""
    return Fraction(text.strip())
