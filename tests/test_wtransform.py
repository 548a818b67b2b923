"""Root-sum transform into the rotated variable.

Anchors: the (3,1) chain has the single root z = -1, whose image under
w = (z a - 1)/(z - a) with a = exp(-2 pi i / 3) is exactly 1, and the (3,2)
sums were evaluated by hand from the two roots (-11 +- sqrt 21)/10.
"""

from fractions import Fraction

import pytest

from qchain.cyclotomic import CyclotomicNumber, cyc_cos
from qchain.qoperator import ChainParams, build_q
from qchain.report import FalsificationError, exact
from qchain.wtransform import verify_inverse_sum, w_elementary, w_sum

F = Fraction


def _sqrt5(order=10):
    # 4 cos(pi/5) - 1 squares to 5
    return cyc_cos(1, 5) * 4 - 1


def test_sqrt5_helper():
    s = _sqrt5()
    assert s * s == 5
    assert s.embed(128).real > 0


def test_single_root_chain():
    assert w_sum(build_q(ChainParams(3, 1))) == 1


def test_two_root_chain_rationals():
    # roots z = (-11 +- sqrt 21)/10 map to w with w_1 + w_2 = 3/2
    assert w_sum(build_q(ChainParams(3, 2))) == F(3, 2)


def test_golden_ratio_chain():
    assert w_sum(build_q(ChainParams(5, 1))) * 4 == _sqrt5() * 7 + 5


def test_sum_is_real_on_grid():
    for L in (3, 5, 7, 9):
        for N in (1, 2):
            assert w_sum(build_q(ChainParams(L, N))).is_real()


def test_elementary_zeroth_is_one():
    for L, N in ((3, 1), (3, 2), (5, 1), (7, 1)):
        assert w_elementary(build_q(ChainParams(L, N)), 0) == 1


def test_elementary_first_agrees_with_cosine_sums():
    for L, N in ((3, 2), (5, 1), (7, 1), (21, 1), (21, 2)):
        q = build_q(ChainParams(L, N))
        assert w_elementary(q, 1) == w_sum(q)


def test_elementary_top_is_root_product():
    # one root at w = 1: the product is 1
    assert w_elementary(build_q(ChainParams(3, 1)), 1) == 1
    # (3,2): both w roots multiply to 1, and E_2 is their product
    assert w_elementary(build_q(ChainParams(3, 2)), 2) == 1


def test_elementary_alpha_range_checked():
    q = build_q(ChainParams(3, 2))
    with pytest.raises(ValueError):
        w_elementary(q, -1)
    with pytest.raises(ValueError):
        w_elementary(q, 3)


@pytest.mark.parametrize("key", [(3, 2), (3, 3), (5, 1), (5, 2), (7, 1)])
def test_inverse_sum_identity(key):
    q = build_q(ChainParams(*key))
    result = verify_inverse_sum(q, w_sum(q))
    assert result.passed, result.detail
    assert result.residual == "0"


def test_broken_coefficients_are_caught():
    # bumping e_1 breaks either realness of the sum or the inverse-sum
    # identity; both escalate rather than pass silently
    q = build_q(ChainParams(5, 1)).with_coefficient_bump(1, F(1, 3))
    try:
        result = verify_inverse_sum(q, w_sum(q))
    except FalsificationError:
        return
    assert not result.passed


def test_real_sum_after_symmetric_bump():
    # a palindrome-preserving bump keeps E1 real but moves its value
    q = build_q(ChainParams(3, 2)).with_coefficient_bump(1, F(1, 5))
    e1 = w_sum(q)
    assert e1.is_real()
    assert e1 != F(3, 2)


def test_inverse_sum_divides_only_a_nonzero_difference(monkeypatch):
    # a passing point tests the numerators and makes no field inversion
    q = build_q(ChainParams(21, 2))
    e1 = w_sum(q)

    def no_inverse(self):
        raise AssertionError("inverse called")

    monkeypatch.setattr(CyclotomicNumber, "inverse", no_inverse)
    assert verify_inverse_sum(q, e1).passed


@pytest.mark.parametrize("key", [(3, 2), (5, 2), (7, 1)])
def test_inverse_sum_witness_is_the_divided_difference(key):
    # under a tamper the witness is E_(p-1) - E_1 E_p, built from w_elementary
    params = ChainParams(*key)
    q = build_q(params).with_coefficient_bump(1, F(1, 3))
    e1 = w_sum(build_q(params))
    expected = w_elementary(q, params.p - 1) - e1 * w_elementary(q, params.p)
    got = verify_inverse_sum(q, e1)
    assert not got.passed
    assert got == exact("inverse-sum", {"L": params.L, "N": params.N}, expected, "sum of w and sum of 1/w disagree")
