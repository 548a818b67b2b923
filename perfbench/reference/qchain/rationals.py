"""Exact rational helpers shared across the package.

Rationals are plain ``fractions.Fraction`` values everywhere: they are always
in lowest terms with a positive denominator, and all arithmetic is exact.
The helpers here pin down the one serialization format used by reports and
the CLI: the base-10 string "numerator/denominator".
"""

from __future__ import annotations

from fractions import Fraction


def format_rational(value: Fraction | int) -> str:
    """Render a rational as "numerator/denominator" in base 10."""
    q = Fraction(value)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Inverse of :func:`format_rational`; also accepts bare integers."""
    return Fraction(text.strip())
