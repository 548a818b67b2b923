"""The fixed-point kernel against exact Fraction values: the rounding
convention its module docstring states, which every rounding bound of the
root validator builds on."""

from fractions import Fraction

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from qchain.fixedpoint import Measured, _divide, _fixed, _mul, _product, _scaled_mul, _to_fixed

parts = st.integers(-(2**300), 2**300)
nonzero = parts.filter(bool)
bits = st.integers(1, 400)
keeps = st.integers(1, 200)


def _exact(x: mpmath.mpf) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _rounded_down(got: int, exact: Fraction) -> bool:
    return got <= exact < got + 1


def _truncated(got: int, exact: Fraction) -> bool:
    """got is exact rounded toward zero: less than one unit off, never larger in size."""
    return abs(got) <= abs(exact) < abs(got) + 1 and got * exact >= 0


@settings(max_examples=300, deadline=None)
@given(parts, parts, parts, parts, bits)
def test_mul_rounds_each_part_down(xr, xi, yr, yi, bits):
    r, i = _mul(xr, xi, yr, yi, bits)
    assert _rounded_down(r, Fraction(xr * yr - xi * yi, 2**bits))
    assert _rounded_down(i, Fraction(xr * yi + xi * yr, 2**bits))


@settings(max_examples=300, deadline=None)
@given(parts, parts, nonzero, parts, bits)
def test_divide_rounds_each_part_down(xr, xi, yr, yi, bits):
    r, i = _divide(xr, xi, yr, yi, bits)
    norm = yr * yr + yi * yi
    assert _rounded_down(r, Fraction((xr * yr + xi * yi) << bits, norm))
    assert _rounded_down(i, Fraction((xi * yr - xr * yi) << bits, norm))


@settings(max_examples=300, deadline=None)
@given(parts, st.integers(1, 2**200), bits)
def test_fixed_rounds_a_fraction_down(num, den, bits):
    x = Fraction(num, den)
    assert _rounded_down(_fixed(x, bits), x * 2**bits)


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False), bits)
def test_fixed_rounds_a_float_down(x, bits):
    # the float search hands its points over through the same routine
    assert _rounded_down(_fixed(x, bits), Fraction(x) * 2**bits)


@settings(max_examples=300, deadline=None)
@given(parts, parts, st.integers(-500, 100), st.integers(-500, 100), bits)
def test_to_fixed_truncates_within_one_unit(re_man, im_man, re_exp, im_exp, bits):
    with mpmath.workprec(320):
        x = mpmath.mpc(mpmath.ldexp(re_man, re_exp), mpmath.ldexp(im_man, im_exp))
    r, i = _to_fixed(x, bits)
    assert _truncated(r, _exact(x.real) * 2**bits)
    assert _truncated(i, _exact(x.imag) * 2**bits)
    # a multiple of 2^-bits converts exactly
    with mpmath.workprec(max(53, abs(r).bit_length(), abs(i).bit_length())):
        y = mpmath.mpc(mpmath.ldexp(r, -bits), mpmath.ldexp(i, -bits))
    assert _to_fixed(y, bits) == (r, i)


def _relative_error_below(got, exact, limit: Fraction) -> bool:
    """|got - exact| < limit |exact| for complex values given as Fraction pairs."""
    dr, di = got[0] - exact[0], got[1] - exact[1]
    return dr * dr + di * di < limit * limit * (exact[0] ** 2 + exact[1] ** 2)


@settings(max_examples=300, deadline=None)
@given(nonzero, parts, st.integers(-300, 300), nonzero, parts, st.integers(-300, 300), keeps)
def test_product_step_has_relative_error_below_its_bound(xr, xi, xe, yr, yi, ye, keep):
    r, i, e = _scaled_mul(xr, xi, xe, yr, yi, ye, keep)
    scale = Fraction(2) ** (xe + ye)
    exact = ((xr * yr - xi * yi) * scale, (xr * yi + xi * yr) * scale)
    # the shift leaves the exact larger part keep bits long
    larger = max(abs(exact[0]), abs(exact[1])) / Fraction(2) ** e
    assert 2 ** (keep - 1) <= larger < 2**keep
    got = (r * Fraction(2) ** e, i * Fraction(2) ** e)
    assert _relative_error_below(got, exact, Fraction(3, 2) * Fraction(2) ** (1 - keep))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(nonzero, parts), min_size=1, max_size=12), st.integers(8, 200))
def test_product_compounds_one_step_error_per_factor(factors, bits):
    r, i, e, low = _product(factors, bits)
    assert low == min((abs(fr) | abs(fi)).bit_length() for fr, fi in factors)
    exact = (Fraction(1), Fraction(0))
    for fr, fi in factors:
        fr, fi = Fraction(fr, 2**bits), Fraction(fi, 2**bits)
        exact = (exact[0] * fr - exact[1] * fi, exact[0] * fi + exact[1] * fr)
    got = (r * Fraction(2) ** e, i * Fraction(2) ** e)
    # the first factor is taken exactly; each later one adds one step's error
    step = Fraction(3, 2) * Fraction(2) ** -bits
    limit = (1 + step) ** (len(factors) - 1) - 1
    if len(factors) == 1:
        assert got == exact
    else:
        assert _relative_error_below(got, exact, limit)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**600),
    st.integers(1, 2**600),
    bits,
    st.integers(0, 2**80),
    st.integers(-700, 9),
)
def test_measured_value_is_low_by_less_than_its_term_and_never_high(num, den, bits, n, e):
    measured = Measured.from_square(num, den, bits, (n, e))
    value = _exact(measured.value)
    square = Fraction(num, den)
    assert value * value <= square < (value + Fraction(2) ** (1 - bits)) ** 2
    # the bound is the caller's error plus that term, exactly
    assert _exact(measured.bound) == n * Fraction(2) ** e + Fraction(2) ** (1 - bits)
    assert Measured.from_square(num, den, bits, None).bound == mpmath.inf


def _product_by_steps(factors, bits):
    """_product as a loop of _scaled_mul calls, the reference for its fused loop."""
    pr, pi = factors[0]
    pe = -bits
    for fr, fi in factors[1:]:
        pr, pi, pe = _scaled_mul(pr, pi, pe, fr, fi, -bits, bits + 1)
    return pr, pi, pe, min((abs(fr) | abs(fi)).bit_length() for fr, fi in factors)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(parts, parts), min_size=1, max_size=12), st.integers(1, 200))
def test_fused_product_equals_the_scaled_mul_steps(factors, bits):
    # the Bethe forms and the root product read _product; fusing its loop
    # must not change a bit of what they measure
    assert _product(factors, bits) == _product_by_steps(factors, bits)
