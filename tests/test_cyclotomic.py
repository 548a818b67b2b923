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

from qchain.cyclotomic import (
    CyclotomicNumber,
    cyc_cos,
    cyc_root_of_unity,
    cyclotomic_polynomial,
    euler_phi,
    zeta_power,
)
from qchain.polynomials import RationalPolynomial
from qchain.rationals import format_rational, parse_rational

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


def test_cyclotomic_polynomials_match_table():
    for n, coeffs in KNOWN_CYCLOTOMICS.items():
        assert cyclotomic_polynomial(n).coeffs == tuple(Fraction(c) for c in coeffs), n


def test_cyclotomic_divides_xn_minus_one():
    for n in range(1, 41):
        xn = RationalPolynomial([-1] + [0] * (n - 1) + [1])
        quotient = xn.divide_exact(cyclotomic_polynomial(n))
        assert quotient * cyclotomic_polynomial(n) == xn


def test_cyclotomic_degree_is_totient():
    for n in range(1, 41):
        degree_expected = sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        assert cyclotomic_polynomial(n).degree == degree_expected
        assert euler_phi(n) == degree_expected


def test_divisor_product_reassembles():
    for n in (6, 10, 12, 30):
        product = RationalPolynomial.one()
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic_polynomial(d)
        assert product == RationalPolynomial([-1] + [0] * (n - 1) + [1])


# -- field elements ---------------------------------------------------------


def _random_element(rng, order):
    dim = euler_phi(order)
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
        cyc_root_of_unity(1, 5).as_rational()


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
    assert cyc_root_of_unity(0, 7) == 1
    u = cyc_root_of_unity(1, 3)
    assert u * u + u + 1 == 0  # primitive cube root
    assert cyc_root_of_unity(-1, 5) == cyc_root_of_unity(1, 5).conjugate()
    for L in (3, 5, 7):
        assert cyc_root_of_unity(1, L) ** L == 1
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
    _, rem = divmod(RationalPolynomial(coeffs), modulus)
    expected = list(rem.coeffs) + [0] * (modulus.degree - len(rem.coeffs))
    assert CyclotomicNumber(2 * L, coeffs).coeffs == tuple(expected)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bucket_constructor_matches_field_sums(data):
    L = data.draw(ODD_L)
    buckets = data.draw(
        st.lists(st.integers(-(10**9), 10**9), min_size=2 * L, max_size=2 * L)
    )
    denominator = data.draw(st.integers(1, 10**6))
    expected = CyclotomicNumber.zero(2 * L)
    for k, c in enumerate(buckets):
        expected = expected + zeta_power(k, L) * c
    assert CyclotomicNumber.from_buckets(2 * L, buckets, denominator) == (
        expected / denominator
    )


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
        got = cyc_root_of_unity(1, 3).embed(256)
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


def test_embed_precision_floor():
    with pytest.raises(ValueError):
        cyc_cos(1, 5).embed(32)


# -- serialization -----------------------------------------------------------


def test_rational_format_round_trip():
    for q in (Fraction(0), Fraction(-11, 5), Fraction(7), Fraction(1, 3)):
        assert parse_rational(format_rational(q)) == q
    assert format_rational(Fraction(-11, 5)) == "-11/5"
    assert format_rational(3) == "3/1"


def test_cyclotomic_dict_round_trip():
    rng = random.Random(19)
    for order in (6, 10, 22):
        a = _random_element(rng, order)
        data = a.to_dict(128)
        assert data["order"] == order
        assert CyclotomicNumber.from_dict(data) == a
