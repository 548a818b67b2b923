"""Exact polynomial layer: division must be exact or loud."""

from fractions import Fraction

import pytest

from qchain.polynomials import InexactDivisionError, RationalPolynomial

P = RationalPolynomial


def test_trailing_zeros_trimmed():
    assert P([1, 2, 0, 0]).coeffs == (1, 2)
    assert P([0, 0]).is_zero()
    assert P().degree == -1


def test_arithmetic_basics():
    a = P([1, 1])  # 1 + z
    b = P([-1, 1])  # z - 1
    assert a * b == P([-1, 0, 1])
    assert a + b == P([0, 2])
    assert (a - a).is_zero()
    assert b ** 3 == P([-1, 3, -3, 1])
    assert 2 * a == P([2, 2])


def test_divide_exact_simple():
    # (z^2 - 1) / (z - 1) = z + 1, worked by hand
    num = P([-1, 0, 1])
    assert num.divide_exact(P([-1, 1])) == P([1, 1])


def test_divide_exact_cubic_factor():
    # (z^4 - 2 z^3 + 2 z - 1) = (z - 1)^3 (z + 1), expanded by hand
    num = P([-1, 2, 0, -2, 1])
    assert num.divide_exact(P([-1, 1]) ** 3) == P([1, 1])


def test_divide_exact_quintic_factor():
    # z^7 - 14/5 z^6 + 7 z^4 - 7 z^3 + 14/5 z - 1 over (z-1)^5, by hand:
    # quotient z^2 + 11/5 z + 1
    num = P([-1, Fraction(14, 5), 0, -7, 7, 0, Fraction(-14, 5), 1])
    quotient = num.divide_exact(P([-1, 1]) ** 5)
    assert quotient == P([1, Fraction(11, 5), 1])


def test_divide_inexact_raises_with_remainder():
    with pytest.raises(InexactDivisionError) as err:
        P([1, 0, 1]).divide_exact(P([-1, 1]))
    assert err.value.remainder == P([2])


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(P([1, 1]), P())


def test_evaluation_horner():
    poly = P([-1, 0, 1])
    assert poly(Fraction(3)) == 8
    assert poly(Fraction(1, 2)) == Fraction(-3, 4)
