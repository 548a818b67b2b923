"""Cyclotomic field layer.

The modulus table below is the standard list of cyclotomic polynomials for
small n, written out independently of the recursion that builds them, so a
bug in the divisor recursion cannot hide behind itself.
"""

import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_fractions, field_inverse_oracle
from qchain import cyclotomic
from qchain.cyclotomic import CyclotomicNumber, _real_data, cyc_cos, cyclotomic_polynomial, zeta_power
from qchain.rationals import divide_monic, format_rational, parse_rational

# n -> ascending coefficients, frozen from the standard table
KNOWN_CYCLOTOMICS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    7: (1, 1, 1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    11: (1,) * 11,
    12: (1, 0, -1, 0, 1),
    22: (1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1),
}


def _totient(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_polynomials_match_table():
    for n, coeffs in KNOWN_CYCLOTOMICS.items():
        assert cyclotomic_polynomial(n) == coeffs, n


def test_cyclotomic_divides_xn_minus_one():
    for n in range(1, 41):
        xn = [-1] + [0] * (n - 1) + [1]
        quotient = divide_monic(xn, cyclotomic_polynomial(n))
        assert _convolve(quotient, cyclotomic_polynomial(n)) == xn, n


def test_cyclotomic_degree_is_totient():
    for n in range(1, 41):
        assert len(cyclotomic_polynomial(n)) - 1 == _totient(n)


def test_divisor_product_reassembles():
    # x^n - 1 is the product of the d-th cyclotomic polynomials over d | n
    for n in range(1, 41):
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                product = _convolve(product, cyclotomic_polynomial(d))
        assert product == [-1] + [0] * (n - 1) + [1], n


# -- field elements ---------------------------------------------------------


def _random_element(rng, order):
    dim = _totient(order)
    return CyclotomicNumber(
        order, [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim)]
    )


def test_field_axioms_on_random_triples():
    rng = random.Random(7)
    for order in (6, 10, 14):
        for _ in range(8):
            a, b, c = (_random_element(rng, order) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + CyclotomicNumber.zero(order) == a
            assert a * CyclotomicNumber.one(order) == a


def test_inverse_round_trip():
    rng = random.Random(11)
    for order in (2 * L for L in range(3, 32, 2)):  # 6, 10, ..., 22, ..., 62
        for _ in range(6):
            a = _random_element(rng, order)
            if a.is_zero():
                continue
            assert a * a.inverse() == CyclotomicNumber.one(order)
            assert (a / a) == 1


def test_field_arithmetic_makes_no_fraction(monkeypatch):
    # the arithmetic runs on integer coordinates; Fractions appear only on demand
    rng = random.Random(23)
    a, b = _random_element(rng, 22), _random_element(rng, 22)
    third = Fraction(1, 3)
    made = count_fractions(monkeypatch)
    results = [a + b, a - b, -a, a * b, a * 3, a * third, a / 7, a / third, a / b]
    results += [a.inverse(), a.conjugate(), a == b, a == third, a.is_real(), a ** -2]
    assert not made
    monkeypatch.undo()
    assert a * a.inverse() == 1


# -- inversion in the real subfield --------------------------------------------

INVERSE_L = (3, 5, 7, 9, 15, 21, 25, 27, 33, 45, 51)


def _from_real_row(row, L):
    """c_0 + sum_k c_k (zeta^k + zeta^-k) for a row of (k, c_k) pairs."""
    value = CyclotomicNumber.zero(2 * L)
    for k, c in row:
        value = value + (CyclotomicNumber.one(2 * L) if k == 0 else zeta_power(k, L) + zeta_power(-k, L)) * c
    return value


@pytest.mark.parametrize("L", INVERSE_L)
def test_real_rows_reproduce_zeta_m_plus_zeta_minus_m(L):
    # every m < order, order 6 (h = 1, where real elements are rational) included
    order = 2 * L
    h, rows = _real_data(order)
    assert h == _totient(order) // 2
    assert len(rows) == order
    for m, row in enumerate(rows):
        assert all(0 <= k < h for k, _ in row)
        assert _from_real_row(row, L) == zeta_power(m, L) + zeta_power(-m, L), m


def test_real_rows_in_the_rational_fields():
    # phi = 1: zeta = 1 or -1, so zeta^m + zeta^-m = 2 zeta^m
    assert _real_data(1) == (1, (((0, 2),),))
    assert _real_data(2) == (1, (((0, 2),), ((0, -2),)))
    for order in (1, 2):
        x = CyclotomicNumber.from_rational(Fraction(-3, 7), order)
        assert x.inverse() == Fraction(-7, 3)


HUGE = st.integers(-(2**200), 2**200)
DENOMINATORS = st.sampled_from((1, 2, 3, 7, 12, 2**31 - 1, 3**40, 2**64 + 13))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_inverse_matches_the_full_field_oracle(data):
    L = data.draw(st.sampled_from(INVERSE_L))
    order = 2 * L
    dim = _totient(order)
    nums = data.draw(st.lists(HUGE, min_size=dim, max_size=dim))
    dens = data.draw(st.lists(DENOMINATORS, min_size=dim, max_size=dim))
    x = CyclotomicNumber(order, [Fraction(c, d) for c, d in zip(nums, dens)])
    if data.draw(st.booleans()):
        x = x + x.conjugate()  # a real element
    if x.is_zero():
        return
    inv = x.inverse()
    assert inv == field_inverse_oracle(x)
    assert x * inv == 1
    _assert_canonical(inv)


@pytest.mark.parametrize("L", (3, 5, 21, 51))
def test_inverse_solves_one_h_by_h_system(monkeypatch, L):
    order = 2 * L
    h = _totient(order) // 2
    shapes, solve = [], cyclotomic.solve_linear_system

    def recording(rows):
        shapes.append((len(rows), {len(row) for row in rows}))
        return solve(rows)

    monkeypatch.setattr(cyclotomic, "solve_linear_system", recording)
    non_real = _random_element(random.Random(L), order) + zeta_power(1, L)
    real = non_real + non_real.conjugate()
    assert not non_real.is_real() and real.is_real()
    for x in (real, non_real):
        shapes.clear()
        assert x * x.inverse() == 1
        assert shapes == [(h, {h + 1})]


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.zero(10).inverse()


def test_order_mismatch_raises():
    with pytest.raises(ValueError):
        CyclotomicNumber.one(6) + CyclotomicNumber.one(10)


def test_conjugation_is_an_involution_and_multiplicative():
    rng = random.Random(13)
    for order in (6, 10, 14):
        for _ in range(6):
            a, b = _random_element(rng, order), _random_element(rng, order)
            assert a.conjugate().conjugate() == a
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
            assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_rational_coercion_and_equality():
    a = CyclotomicNumber.from_rational(Fraction(3, 4), 10)
    assert a == Fraction(3, 4)
    assert a + Fraction(1, 4) == 1
    assert a * 4 == 3
    assert a.as_rational() == Fraction(3, 4)
    with pytest.raises(ValueError):
        zeta_power(2, 5).as_rational()


# -- the trigonometric constructors -----------------------------------------


def test_cos_at_rational_angles():
    assert cyc_cos(0, 5) == 1
    assert cyc_cos(1, 3) == Fraction(1, 2)  # cos(pi/3)
    assert cyc_cos(3, 3) == -1  # cos(pi)
    assert cyc_cos(2, 3) == Fraction(-1, 2)


def test_cos_two_fifths_minimal_polynomial():
    # c = cos(2 pi / 5) satisfies 4 c^2 + 2 c - 1 = 0 with c > 0
    c = cyc_cos(2, 5)
    assert c * c * 4 + c * 2 - 1 == 0
    assert c.is_real()
    assert c.embed(192).real > 0


def test_cos_is_real_and_conjugation_fixed():
    for L in (3, 5, 7, 11):
        for m in range(0, 2 * L):
            assert cyc_cos(m, L).is_real()


def test_roots_of_unity():
    # exp(2 pi i k / L) is zeta^(2k) in Q(zeta_2L)
    assert zeta_power(0, 7) == 1
    u = zeta_power(2, 3)
    assert u * u + u + 1 == 0  # primitive cube root
    assert zeta_power(-2, 5) == zeta_power(2, 5).conjugate()
    for L in (3, 5, 7):
        assert zeta_power(2, L) ** L == 1
    assert zeta_power(1, 5) ** 10 == 1
    assert zeta_power(5, 5) == -1


def test_period_and_parity_reductions():
    for L in (3, 5, 7):
        for m in (-3, 1, 4):
            assert cyc_cos(m, L) == cyc_cos(-m, L)
            assert cyc_cos(m + 2 * L, L) == cyc_cos(m, L)


# -- reduction through the power table -----------------------------------------

ODD_L = st.integers(1, 15).map(lambda h: 2 * h + 1)  # 3..31
RATIONALS = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_table_reduction_matches_division_remainder(data):
    # the oracle is the long-division reduction the table replaced
    L = data.draw(ODD_L)
    size = data.draw(st.integers(0, 2 * L))
    coeffs = data.draw(st.lists(RATIONALS, min_size=size, max_size=size))
    modulus = cyclotomic_polynomial(2 * L)
    dim = len(modulus) - 1
    rem = list(coeffs) + [Fraction(0)] * max(0, dim - len(coeffs))
    for top in range(len(rem) - 1, dim - 1, -1):  # the modulus is monic
        lead = rem[top]
        for j, m in enumerate(modulus):
            rem[top - dim + j] -= lead * m
    assert CyclotomicNumber(2 * L, coeffs).coeffs == tuple(rem[:dim])


def _assert_canonical(x):
    assert x.den > 0
    assert gcd(x.den, *x.nums) == 1
    assert len(x.nums) == _totient(x.order)


NONZERO = st.integers(-(10**6), 10**6).filter(bool)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bucket_constructor_matches_field_sums(data):
    L = data.draw(ODD_L)
    buckets = data.draw(
        st.lists(st.integers(-(10**9), 10**9), min_size=2 * L, max_size=2 * L)
    )
    denominator = data.draw(NONZERO)
    expected = CyclotomicNumber.zero(2 * L)
    for k, c in enumerate(buckets):
        expected = expected + zeta_power(k, L) * c
    got = CyclotomicNumber(2 * L, buckets, denominator)
    assert got == expected / denominator
    _assert_canonical(got)
    # a common factor of the input is divided out: same coordinates and hash
    k = data.draw(NONZERO)
    scaled = CyclotomicNumber(2 * L, [k * c for c in buckets], k * denominator)
    assert (scaled.nums, scaled.den, hash(scaled)) == (got.nums, got.den, hash(got))


def test_invalid_L_rejected():
    for bad in (1, 2, 4, -3):
        with pytest.raises(ValueError):
            cyc_cos(1, bad)


# -- numeric embedding -------------------------------------------------------


def test_embed_rational_is_exact():
    v = CyclotomicNumber.from_rational(Fraction(1, 2), 6).embed(128)
    assert v.real == mpmath.mpf(1) / 2
    assert v.imag == 0


def test_embed_matches_mpmath_cos():
    with mpmath.workprec(256):
        expected = (mpmath.sqrt(5) - 1) / 4  # cos(2 pi / 5)
        got = cyc_cos(2, 5).embed(256)
        assert abs(got - expected) < mpmath.mpf(2) ** -230


def test_embed_root_of_unity():
    with mpmath.workprec(256):
        got = zeta_power(2, 3).embed(256)
        expected = mpmath.expjpi(mpmath.mpf(2) / 3)
        assert abs(got - expected) < mpmath.mpf(2) ** -230


def test_embed_is_multiplicative_numerically():
    rng = random.Random(17)
    bits = 192
    for order in (6, 10):
        for _ in range(5):
            a, b = _random_element(rng, order), _random_element(rng, order)
            with mpmath.workprec(bits):
                gap = abs((a * b).embed(bits) - a.embed(bits) * b.embed(bits))
                assert gap < mpmath.mpf(2) ** -(bits - 20)


def test_embed_and_to_dict_read_the_coordinates_as_fractions_do(monkeypatch):
    # zeta made once per (order, bits), each coordinate read in lowest terms by
    # gcd: the same mpc and the same strings as the Fraction coordinates give,
    # and no Fraction made
    rng = random.Random(29)
    for order in (6, 10, 22):
        for _ in range(4):
            x = _random_element(rng, order) / rng.randint(1, 12)
            for bits in (64, 256):
                with mpmath.workprec(bits):
                    zeta = mpmath.expjpi(mpmath.mpf(2) / order)
                    expected = mpmath.mpc(0)
                    for c in reversed(x.coeffs):
                        expected = expected * zeta + mpmath.mpf(c.numerator) / c.denominator
                strings = [format_rational(c) for c in x.coeffs]
                made = count_fractions(monkeypatch)
                value, written = x.embed(bits), x.coeff_strings()
                monkeypatch.undo()
                assert (value, written, made) == (expected, strings, [])
    assert cyclotomic._zeta.cache_info().hits > 0


def test_embed_precision_floor():
    with pytest.raises(ValueError):
        cyc_cos(1, 5).embed(32)


# -- serialization -----------------------------------------------------------


def test_rational_format_round_trip():
    for q in (Fraction(0), Fraction(-11, 5), Fraction(7), Fraction(1, 3)):
        assert parse_rational(format_rational(q)) == q
    assert format_rational(Fraction(-11, 5)) == "-11/5"
    assert format_rational(3) == "3/1"


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cyclotomic_dict_round_trip(data):
    L = data.draw(ODD_L)
    order = 2 * L
    coeffs = data.draw(st.lists(RATIONALS, max_size=_totient(order)))
    k = data.draw(NONZERO)
    a = CyclotomicNumber(order, coeffs)
    # the same element from a scaled input, rational coefficients included
    scaled = CyclotomicNumber(order, [k * c for c in coeffs], k)
    assert (scaled.nums, scaled.den, hash(scaled)) == (a.nums, a.den, hash(a))
    _assert_canonical(a)
    assert a.coeffs == tuple(coeffs) + (0,) * (_totient(order) - len(coeffs))
    text = a.to_dict(128)
    assert text["order"] == order
    assert text["coeffs"] == [format_rational(c) for c in a.coeffs]
    back = CyclotomicNumber.from_dict(text)
    assert (back.nums, back.den) == (a.nums, a.den)
