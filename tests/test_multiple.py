"""The one Horner routine, fixedpoint._horner, over term lists: on Q's
sparse multiple P = (z-1)^M Q against exact Fraction values, since the
rounding bound that decides where its Newton corrections are trusted rests
on it, and on a dense list against the dense loop it replaced."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_horner_oracle
from qchain.fixedpoint import _horner


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 40), st.integers(-(2**40), 2**40)), min_size=0, max_size=7),
    st.integers(0, 6),
    st.integers(-(2**41), 2**41),
    st.integers(-(2**41), 2**41),
    st.integers(40, 160),
)
def test_sparse_horner_within_its_rounding_bound(gaps, low, zr, zi, bits):
    # P = sum_j c_j z^(e_j), monic, exponents descending by the drawn gaps to
    # the lowest, low; coefficients and z drawn at 2^-40 and scaled to
    # 2^-bits.  P(z) is within 2 (deg + 2T) sum_j |c_j| max(1, |z|)^(e_j)
    # units of its exact value, and z P'(z) within deg times that
    # (multiple._Multiple reads this bound, on P's terms and on Q's own)
    exps = [low]
    for g, _ in gaps:
        exps.append(exps[-1] + g)
    exps.reverse()
    coeffs = [1 << bits] + [c << bits - 40 for _, c in gaps]
    zr, zi = zr << bits - 40, zi << bits - 40
    vr, vi, dr, di = _horner(list(zip(exps, coeffs)), zr, zi, bits)
    z = (Fraction(zr, 2**bits), Fraction(zi, 2**bits))

    def power(n):
        x = (Fraction(1), Fraction(0))
        for _ in range(n):
            x = (x[0] * z[0] - x[1] * z[1], x[0] * z[1] + x[1] * z[0])
        return x

    value, slope = [Fraction(0)] * 2, [Fraction(0)] * 2
    for e, c in zip(exps, coeffs):
        x = power(e)
        for k in range(2):
            value[k] += Fraction(c, 2**bits) * x[k]
            slope[k] += Fraction(e * c, 2**bits) * x[k]
    deg, count = exps[0], len(exps)
    reach = max(Fraction(1), Fraction(math.isqrt(zr * zr + zi * zi) + 1, 2**bits))
    size = sum(Fraction(abs(c), 2**bits) * reach**e for e, c in zip(exps, coeffs))
    bound = 2 * (deg + 2 * count) * size / 2**bits
    for got, exact, limit in ((vr, value[0], bound), (vi, value[1], bound),
                              (dr, slope[0], deg * bound), (di, slope[1], deg * bound)):
        assert abs(Fraction(got, 2**bits) - exact) <= limit


DENSE = (
    st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=12),
    st.integers(-(2**41), 2**41),
    st.integers(-(2**41), 2**41),
    st.integers(40, 160),
)


def _dense(coeffs, zr, zi, bits):
    """The drawn coefficients, ascending, and z, at 2^-40, scaled to
    2^-bits, with the dense term list of the coefficients, zeros kept."""
    coeffs = [c << bits - 40 for c in coeffs]
    terms = [(k, c) for k, c in reversed(list(enumerate(coeffs)))]
    return coeffs, terms, zr << bits - 40, zi << bits - 40


@settings(max_examples=300, deadline=None)
@given(*DENSE)
def test_horner_on_a_dense_list_is_the_dense_loop(coeffs, zr, zi, bits):
    # every gap is 1, so each step is the dense loop's one product: the
    # value comes out bit for bit, with the slope off (the |Q(z_j)| pass and
    # embed) and on
    coeffs, terms, zr, zi = _dense(coeffs, zr, zi, bits)
    oracle = dense_horner_oracle(coeffs, zr, zi, bits, slope=False)
    assert _horner(terms, zr, zi, bits, slope=False) == oracle
    assert _horner(terms, zr, zi, bits)[:2] == oracle[:2]


@settings(max_examples=300, deadline=None)
@given(*DENSE)
def test_horner_slope_is_z_times_the_dense_slope_within_both_bounds(coeffs, zr, zi, bits):
    # _horner's z Q' is within deg kappa s units of its value (kappa = 2 (deg
    # + 2T), s = sum_k |c_k| max(1, |z|)^k, test above); the dense loop's Q'
    # within 1.5 p^2 max(1, |z|)^p units: each of its products truncates by
    # under sqrt 2, and a value step's error reaches the slope through every
    # later step.  z times the loop's Q', taken exactly, is thus within
    # the sum of the two, times max(1, |z|) for the second
    coeffs, terms, zr, zi = _dense(coeffs, zr, zi, bits)
    _, _, dr, di = _horner(terms, zr, zi, bits)
    _, _, qr, qi = dense_horner_oracle(coeffs, zr, zi, bits)
    p, count = len(coeffs) - 1, len(terms)
    reach = max(Fraction(1), Fraction(math.isqrt(zr * zr + zi * zi) + 1, 2**bits))
    size = sum(Fraction(abs(c), 2**bits) * reach**k for k, c in enumerate(coeffs))
    limit = p * 2 * (p + 2 * count) * size + Fraction(3, 2) * p * p * reach ** (p + 1)
    assert abs(dr - Fraction(qr * zr - qi * zi, 2**bits)) <= limit
    assert abs(di - Fraction(qr * zi + qi * zr, 2**bits)) <= limit
