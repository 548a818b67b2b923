"""Exact integer polynomial division: the quotient is exact or the call is loud."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchain.rationals import divide_monic


def _multiply(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_divide_exact_simple():
    # (z^2 - 1) / (z - 1) = z + 1, worked by hand
    assert divide_monic([-1, 0, 1], [-1, 1]) == [1, 1]


def test_divide_exact_cubic_factor():
    # (z^4 - 2 z^3 + 2 z - 1) = (z - 1)^3 (z + 1), expanded by hand
    assert divide_monic([-1, 2, 0, -2, 1], [-1, 3, -3, 1]) == [1, 1]


def test_divide_exact_quintic_factor():
    # z^7 - 14/5 z^6 + 7 z^4 - 7 z^3 + 14/5 z - 1 over (z-1)^5, by hand:
    # quotient z^2 + 11/5 z + 1; both scaled by 5 to integers
    num = [-5, 14, 0, -35, 35, 0, -14, 5]
    assert divide_monic(num, [-1, 5, -10, 10, -5, 1]) == [5, 11, 5]


def test_divide_inexact_raises_with_remainder():
    # (1 + z^2) = (z - 1)(z + 1) + 2
    with pytest.raises(ArithmeticError, match=r"nonzero remainder \[2\]"):
        divide_monic([1, 0, 1], [-1, 1])


def test_divide_by_zero():
    # the zero polynomial, like any divisor that is not monic, is refused
    for divisor in ([], [0], [1, 2]):
        with pytest.raises(ValueError):
            divide_monic([1, 1], divisor)


POLY = st.lists(st.integers(-50, 50), min_size=1, max_size=8)


@settings(max_examples=80, deadline=None)
@given(a=POLY, low=st.lists(st.integers(-50, 50), max_size=6), data=st.data())
def test_divide_monic_inverts_multiplication(a, low, data):
    b = low + [1]
    product = _multiply(a, b)
    assert divide_monic(product, b) == a
    if low:
        r = data.draw(st.lists(st.integers(-50, 50), min_size=len(low), max_size=len(low)))
        if any(r):
            bumped = [c + (r[i] if i < len(r) else 0) for i, c in enumerate(product)]
            with pytest.raises(ArithmeticError):
                divide_monic(bumped, b)
