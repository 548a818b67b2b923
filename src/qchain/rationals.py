"""Exact rational helpers shared across the package.

Rationals are plain ``fractions.Fraction`` values everywhere: they are always
in lowest terms with a positive denominator, and all arithmetic is exact.
The helpers here pin down the one serialization format used by reports and
the CLI: the base-10 string "numerator/denominator".
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable


def format_rational(value: Fraction | int) -> str:
    """Render a rational as "numerator/denominator" in base 10."""
    q = Fraction(value)
    return f"{q.numerator}/{q.denominator}"


def integer_scaled(values: Iterable[Fraction | int]) -> tuple[int, list[int]]:
    """The least common denominator D of the values, and the integers D * v."""
    fracs = [Fraction(v) for v in values]
    scale = lcm(*(f.denominator for f in fracs))
    return scale, [f.numerator * (scale // f.denominator) for f in fracs]


def parse_rational(text: str) -> Fraction:
    """Inverse of :func:`format_rational`; also accepts bare integers."""
    return Fraction(text.strip())
