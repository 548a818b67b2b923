"""Construction of the ground-state polynomial by both routes.

Anchor coefficient vectors for the smallest chains were worked out by hand
(long division for the closed form, 2x2 / 4x4 elimination for the recurrence
route) and are frozen here as the primary oracle.
"""

import pickle
from fractions import Fraction
from math import comb, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_fractions, linear_system_oracle, q_at, support_system_oracle, tq_oracle
from qchain.cyclotomic import CyclotomicNumber, zeta_power
from qchain.qoperator import (
    ChainParams,
    QPolynomial,
    _times_one_plus_x,
    admissible_indices,
    build_q,
    q_closed_form,
    q_linear_system,
    verify_structure,
    verify_tq_identity,
)
from qchain.wtransform import w_elementary, w_sum

F = Fraction

# (L, N) -> e_0..e_p, leading-power-first sign convention baked into e_k
KNOWN_E = {
    (3, 1): (F(1), F(-1)),
    (3, 2): (F(1), F(-11, 5), F(1)),
    (3, 3): (F(1), F(-7, 2), F(7, 2), F(-1)),
    (5, 1): (F(1), F(-3), F(11, 3), F(-3), F(1)),
}


def test_chain_size_arithmetic():
    q31 = ChainParams(3, 1)
    assert (q31.M, q31.p, q31.spin) == (3, 1, F(1, 2))
    q72 = ChainParams(7, 2)
    assert (q72.M, q72.p) == (5, 12)
    assert ChainParams(5, 1).p == 4
    assert ChainParams(3, 2).p == 2
    assert ChainParams(9, 3).spin == F(7, 2)
    assert ChainParams(5, 2).field_order == 10


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        ChainParams(4, 1)
    with pytest.raises(ValueError):
        ChainParams(1, 1)
    with pytest.raises(ValueError):
        ChainParams(3, 0)


@pytest.mark.parametrize("key", sorted(KNOWN_E))
def test_closed_form_matches_hand_anchors(key):
    assert q_closed_form(ChainParams(*key)).e == KNOWN_E[key]


@pytest.mark.parametrize("key", sorted(KNOWN_E))
def test_linear_system_matches_hand_anchors(key):
    assert q_linear_system(ChainParams(*key)).e == KNOWN_E[key]


@pytest.mark.parametrize("L", [3, 5, 7])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_routes_agree(L, N):
    params = ChainParams(L, N)
    assert q_closed_form(params).e == q_linear_system(params).e


def test_build_q_dispatch():
    params = ChainParams(3, 2)
    for method in ("closed-form", "linear-system", "both"):
        assert build_q(params, method).e == KNOWN_E[(3, 2)]
    with pytest.raises(ValueError):
        build_q(params, "newton")


@pytest.mark.parametrize(
    "key", [(L, N) for L in (3, 5, 7, 9, 11) for N in range(1, 7)] + [(31, 6), (51, 12)]
)
def test_routes_agree_with_the_support_system_oracle(key):
    # route two's closed-form kernel against Bareiss on the M x (M+1) power rows
    params = ChainParams(*key)
    assert q_closed_form(params) == q_linear_system(params) == support_system_oracle(params)


@pytest.mark.parametrize("key", [(5, 48), (11, 48), (21, 32)])
def test_routes_agree_at_large_n(key):
    params = ChainParams(*key)
    assert q_closed_form(params) == q_linear_system(params)


@pytest.mark.parametrize("key", [(31, 6), (51, 12)])
def test_linear_system_makes_no_linear_solve(key, monkeypatch):
    def no_elimination(rows, ncols):
        raise AssertionError("route two eliminated a system")

    monkeypatch.setattr("qchain.linalg._eliminate", no_elimination)
    params = ChainParams(*key)
    assert q_linear_system(params) == q_closed_form(params)


def test_linear_system_rejects_a_bumped_solution(monkeypatch):
    # node products off by one put P off the kernel
    monkeypatch.setattr("qchain.qoperator.prod", lambda factors: prod(factors) + 1)
    for key in ((3, 1), (5, 2), (11, 3)):
        with pytest.raises(AssertionError):
            q_linear_system(ChainParams(*key))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=40), st.integers(0, 30))
def test_times_one_plus_x_is_the_binomial_convolution(nums, M):
    product = _times_one_plus_x(tuple(nums), M)
    plain = [0] * (len(nums) + M)
    for k, c in enumerate(nums):
        for i in range(M + 1):
            plain[k + i] += comb(M, i) * c
    assert product == tuple(plain)
    # route two's division loop undoes it, every remainder zero
    product = list(product)
    for _ in range(M):
        for i in range(1, len(product)):
            product[i] -= product[i - 1]
        assert product.pop() == 0
    assert product == nums


def test_linear_system_rejects_a_bumped_product(monkeypatch):
    # the acceptance test reads the admissible coefficients from _times_one_plus_x
    original = _times_one_plus_x
    for key in ((3, 1), (5, 2), (11, 3)):
        params = ChainParams(*key)
        ells = admissible_indices(params)
        ell = ells[len(ells) // 2]

        def bumped(nums, M, ell=ell):
            product = list(original(nums, M))
            product[ell] += 1
            return product

        monkeypatch.setattr("qchain.qoperator._times_one_plus_x", bumped)
        with pytest.raises(AssertionError, match=f"^condition at index {ell} fails$"):
            q_linear_system(params)


def test_admissible_count_identity():
    # full index range minus the two excluded arithmetic progressions
    for L in (3, 5, 7, 9, 11):
        for N in (1, 2, 3, 4):
            params = ChainParams(L, N)
            top = L * N + (L - 1) // 2
            indices = admissible_indices(params)
            assert len(indices) == params.p
            assert len(indices) == top + 1 - 2 * (N + 1)
            banned = set()
            for k in range(N + 1):
                banned.add(L * k)
                banned.add(L * k + (L - 1) // 2)
            assert set(indices) == set(range(top + 1)) - banned


def test_coefficients_are_palindromic_up_to_sign():
    for L, N in ((3, 4), (5, 3), (7, 2), (9, 1), (11, 1)):
        q = q_closed_form(ChainParams(L, N))
        p = q.params.p
        for k in range(p + 1):
            assert q.e[k] == (-1) ** p * q.e[p - k]


def test_eval_at_plain_points():
    q31 = build_q(ChainParams(3, 1))
    assert q_at(q31, F(0)) == 1
    assert q_at(q31, F(-1)) == 0  # z = -1 is the lone root
    q32 = build_q(ChainParams(3, 2))
    assert q_at(q32, F(0)) == 1
    assert q_at(q32, F(1)) == F(21, 5)
    assert q_at(q32, F(-1)) == F(-1, 5)


def test_eval_at_root_of_unity_prefactor():
    # Q evaluated at the conjugate shift point equals zeta^-p times the
    # cosine-weighted coefficient sum; checked against the (3,2) chain where
    # that sum is 6/5.
    q32 = build_q(ChainParams(3, 2))
    value = q_at(q32, zeta_power(-2, 3))
    assert value == zeta_power(-2, 3) * F(6, 5)


def test_structure_check_passes_on_grid():
    for L, N in ((3, 1), (5, 2), (7, 1), (9, 1)):
        result = verify_structure(build_q(ChainParams(L, N)))
        assert result.passed, result.detail
        assert result.residual == "0"


def test_structure_check_fails_on_broken_palindrome():
    q = build_q(ChainParams(5, 1)).with_coefficient_bump(1, F(1, 7))
    result = verify_structure(q)
    assert not result.passed
    assert "palindrome" in result.detail


def test_structure_check_reports_q0_once():
    # Q(0) = (-1)^p e_p, so a wrong e_p is one fact, reported as Q(0)
    q = build_q(ChainParams(3, 1)).with_coefficient_bump(1, F(1, 2))
    result = verify_structure(q)
    assert not result.passed
    assert result.detail == "palindrome fails at k=0; Q(0) = 1/2"
    assert "e_p =" not in result.detail
    assert result.detail.count("Q(0)") == 1


def test_constant_term_is_one():
    for L, N in ((3, 3), (5, 2), (11, 1)):
        q = build_q(ChainParams(L, N))
        assert q_at(q, F(0)) == 1


@pytest.mark.parametrize("key", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_tq_identity_holds_exactly(key):
    result = verify_tq_identity(build_q(ChainParams(*key)))
    assert result.passed, result.detail
    assert result.residual == "0"


@pytest.mark.parametrize("delta", [F(1), F(-1, 7), F(1, 2**20)])
def test_tq_identity_rejects_any_bump(delta):
    q = build_q(ChainParams(5, 1))
    for k in range(1, q.params.p + 1):
        result = verify_tq_identity(q.with_coefficient_bump(k, delta))
        assert not result.passed
        assert result.residual != "0"


@pytest.mark.parametrize("L", [3, 5, 7, 9, 11, 21, 31, 51])
def test_tq_matches_field_arithmetic_oracle(L):
    # the default grid and one point each at L = 21, 31, 51: untouched Q, and
    # bumps at both ends and at an interior k that moves with N; passed,
    # residual and detail must match the oracle's
    for N in {21: [2], 31: [1], 51: [1]}.get(L, range(1, 5)):
        q = build_q(ChainParams(L, N))
        p = q.params.p
        bumps = [q.with_coefficient_bump(k, F(1, 3)) for k in (0, 1 + (L * N) % p, p)]
        for candidate in (q, *bumps):
            fast, slow = verify_tq_identity(candidate), tq_oracle(candidate)
            assert (fast.passed, fast.residual, fast.detail) == (
                slow.passed,
                slow.residual,
                slow.detail,
            )
            assert fast.passed is (candidate is q)


@pytest.mark.parametrize("L", range(3, 52, 2))
def test_tq_constant_vanishes_on_the_excluded_exponents(L):
    # c(m) = zeta^(2m-h) + zeta^(h-2m) - zeta^h - zeta^-h in exact field
    # arithmetic is zero exactly at m = 0 or h (mod L), route two's excluded
    # exponents, so the tq coefficients vanish exactly on Q's support
    h = (L - 1) // 2
    for m in range(2 * L):
        c = zeta_power(2 * m - h, L) + zeta_power(h - 2 * m, L) - zeta_power(h, L) - zeta_power(-h, L)
        assert c.is_zero() is (m % L in (0, h)), m


@pytest.mark.parametrize("key", [(5, 2), (11, 3), (21, 2), (51, 4)])
def test_tq_builds_field_elements_only_on_the_support(key, monkeypatch):
    # one field element per nonzero coefficient of (1+x)^M E(x), which an
    # untampered Q has only on the 2(N+1) excluded exponents, plus the
    # zero witness and its quotient by den that form the result
    q = build_q(ChainParams(*key))
    made = []
    original = CyclotomicNumber.__init__

    def counting(self, *args, **kwargs):
        made.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(CyclotomicNumber, "__init__", counting)
    result = verify_tq_identity(q)
    monkeypatch.undo()
    assert result.passed
    assert len(made) <= 2 * (q.params.N + 1) + 2


def test_bump_helper_is_pure():
    q = build_q(ChainParams(3, 2))
    bumped = q.with_coefficient_bump(1, F(1, 3))
    assert q.e == KNOWN_E[(3, 2)]
    assert bumped.e[1] == F(-11, 5) + F(1, 3)
    assert isinstance(bumped, QPolynomial)


def random_q():
    """A QPolynomial with arbitrary integer numerators over an arbitrary nonzero denominator."""
    params = st.builds(ChainParams, st.sampled_from([3, 5, 7]), st.integers(1, 2))
    return params.flatmap(
        lambda pr: st.builds(
            QPolynomial,
            st.just(pr),
            st.lists(st.integers(-(10**6), 10**6), min_size=pr.p + 1, max_size=pr.p + 1).map(tuple),
            st.integers(-(10**6), 10**6).filter(bool),
        )
    )


@settings(max_examples=50, deadline=None)
@given(random_q(), st.integers(-1000, 1000).filter(bool))
def test_scaled_numerators_give_an_equal_q(q, k):
    assert q.den > 0 and gcd(q.den, *q.nums) == 1
    scaled = QPolynomial(q.params, tuple(k * c for c in q.nums), k * q.den)
    assert scaled == q
    assert hash(scaled) == hash(q)


@settings(max_examples=30, deadline=None)
@given(random_q())
def test_q_pickle_round_trip(q):
    assert pickle.loads(pickle.dumps(q)) == q


@settings(max_examples=50, deadline=None)
@given(random_q(), st.integers(0, 100), st.fractions(max_denominator=10**4).filter(bool))
def test_bump_then_unbump_returns_an_equal_q(q, k, delta):
    k %= q.params.p + 1
    bumped = q.with_coefficient_bump(k, delta)
    assert bumped.e[k] == q.e[k] + delta
    assert bumped != q
    assert bumped.with_coefficient_bump(k, -delta) == q


def test_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        QPolynomial(ChainParams(3, 1), (1, -1), 0)


def test_exact_q_layers_make_no_fraction(monkeypatch):
    # Q is integer numerators over one denominator: route two and the exact
    # checks read them directly; Fractions appear only in views and reports
    made = count_fractions(monkeypatch)
    q = q_linear_system(ChainParams(7, 2))
    checks = [verify_structure(q), verify_tq_identity(q)]
    w_sum(q), w_elementary(q, 3)
    assert not made
    monkeypatch.undo()
    assert all(check.passed for check in checks)


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 7).map(lambda i: 2 * i + 1), st.integers(1, 4), st.data())
def test_random_chains_agree_and_catch_a_bump(L, N, data):
    params = ChainParams(L, N)
    q = q_closed_form(params)
    assert q == q_linear_system(params) == linear_system_oracle(params)
    assert verify_structure(q).passed
    assert verify_tq_identity(q).passed
    k = data.draw(st.integers(0, params.p), label="k")
    delta = data.draw(st.fractions(max_denominator=1000).filter(bool), label="delta")
    assert not verify_tq_identity(q.with_coefficient_bump(k, delta)).passed
