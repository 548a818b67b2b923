"""The evaluation of Q's sparse multiple P = (z-1)^M Q against exact
Fraction values: the rounding bound that decides where its Newton
corrections are trusted rests on it."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qchain.multiple import _sparse_horner


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
    # (multiple._Multiple reads this bound)
    exps = [low]
    for g, _ in gaps:
        exps.append(exps[-1] + g)
    exps.reverse()
    coeffs = [1 << bits] + [c << bits - 40 for _, c in gaps]
    zr, zi = zr << bits - 40, zi << bits - 40
    vr, vi, dr, di = _sparse_horner(list(zip(exps, coeffs)), zr, zi, bits)
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
