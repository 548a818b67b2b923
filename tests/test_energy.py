"""Energy extraction and the size-independence of the per-site value."""

import pickle
import sys
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    closed_form_gap_oracle,
    closed_form_oracle,
    exact_value,
    summaries_for,
    summary_at,
)
from qchain.cyclotomic import CyclotomicNumber, cyc_cos
from qchain.energy import (
    closed_form_root_sum,
    crosscheck_closed_forms,
    extract_A,
    groundstate_summary,
    verify_linearity,
    verify_no_finite_size_correction,
)
from qchain.cli import _check, _unwrap
from qchain.qoperator import ChainParams, build_q
from qchain.report import FalsificationError
from qchain.wtransform import w_sum

F = Fraction


def _sqrt5():
    return cyc_cos(1, 5) * 4 - 1


def _with_fit(check, summaries, N_max):
    """A per-L check on summaries with A fitted from them, as verify runs it."""
    return check(summaries, extract_A(summaries), N_max)


@pytest.mark.parametrize("check", [verify_linearity, verify_no_finite_size_correction])
def test_failed_fit_is_the_one_failed_entry(check):
    # verify stores the fit's error in place of the fit and raises it again
    # inside the per-L check, which then yields one failed entry for that L
    first, second = summaries_for(5)
    bumped = [first, second._replace(E1=second.E1 + F(1, 3))]
    with pytest.raises(FalsificationError) as caught:
        extract_A(bumped)
    fit = caught.value
    (entry,) = _check(check.__name__, {"L": 5}, lambda: check(bumped, _unwrap(fit), 2))
    assert not entry.passed and entry.params == {"L": 5}
    assert entry.detail == str(caught.value)


def test_energy_anchors_small_chains():
    # L = 3: energy is exactly -M for every N
    assert summary_at(3, 1).energy == -3
    assert summary_at(3, 2).energy == -5
    assert summary_at(3, 4).energy == -9
    assert summary_at(3, 2).energy_per_site == -1


def test_energy_anchor_golden_chain():
    total = summary_at(5, 1).energy
    assert total * 2 == (_sqrt5() + 3) * -3
    per_site = summary_at(5, 1).energy_per_site
    assert per_site * 2 == -(_sqrt5() + 3)


def test_root_sum_anchor_L3_affine():
    # E_1(3, N) = 1/2 + N/2 exactly
    for N in range(1, 7):
        assert summary_at(3, N).E1 == F(1, 2) + F(N, 2)


def test_energy_is_real_or_falsified():
    summary = groundstate_summary(build_q(ChainParams(7, 2)))
    assert summary.energy.is_real()
    assert summary.energy_per_site * summary.params.M == summary.energy


def test_energy_submodule_is_the_module():
    # the package re-exports no name that shadows the submodule
    import qchain.energy as module

    assert module is sys.modules["qchain.energy"]


def test_extract_A_small_cases():
    c3 = extract_A(summaries_for(3))
    assert c3.A == F(1, 2)
    assert c3.slope == F(1, 2)
    c5 = extract_A(summaries_for(5))
    assert c5.A * 2 == _sqrt5() + 1
    assert c5.slope == c5.A * 2 + cyc_cos(2, 5)


@pytest.mark.parametrize(
    "L, expected",
    [(7, "2.87046940558"), (9, "4.06417777248"), (11, "5.20626766416")],
)
def test_extract_A_numeric_values(L, expected):
    got = extract_A(summaries_for(L)).A.embed(192).real
    with mpmath.workprec(192):
        assert abs(got - mpmath.mpf(expected)) < mpmath.mpf("1e-10")


def test_A_agrees_with_published_N0_limit():
    # extrapolating the closed-form root sum back to N = 0 must land on A
    with mpmath.workprec(256):
        for L in (7, 9, 11):
            a_exact = extract_A(summaries_for(L)).A.embed(256).real
            a_closed = closed_form_root_sum(L, 0, 256)
            assert abs(a_exact - a_closed) < mpmath.mpf(2) ** -180


@pytest.mark.parametrize("L, N_max", [(3, 6), (5, 5), (7, 4), (9, 3)])
def test_linearity_of_root_sum(L, N_max):
    entries = _with_fit(verify_linearity, summaries_for(L, N_max), N_max)
    assert len(entries) == N_max
    for entry in entries:
        assert entry.passed, entry.line()
        assert entry.residual == "0"


def test_failure_witnesses_are_the_exact_differences():
    # L = 5: Q(zeta_10) has four coordinates; the third summary is N = 3, M = 7
    first, second, third = summaries_for(5, 3)
    bump = F(1, 7)
    e1_bumped = third._replace(E1=third.E1 + bump)
    entries = _with_fit(verify_linearity, [first, second, e1_bumped], 3)
    assert [entry.residual for entry in entries] == ["0", "0", "['1/7', '0/1', '0/1', '0/1']"]
    # the energies follow E1 (energy = 2 p cos(2 pi / L) - 2 E1): the total is the witness
    energy = third.energy - 2 * bump
    follows = e1_bumped._replace(energy=energy, energy_per_site=energy / third.params.M)
    entries = _with_fit(verify_no_finite_size_correction, [first, second, follows], 3)
    assert [entry.passed for entry in entries] == [True, True, False]
    assert entries[2].residual == "['-2/7', '0/1', '0/1', '0/1']"
    assert entries[2].detail == "per-site energy drifts with N"
    # only the stored per-site energy is wrong: its difference is the witness
    site_bumped = third._replace(energy_per_site=third.energy_per_site + bump)
    entries = _with_fit(verify_no_finite_size_correction, [first, second, site_bumped], 3)
    assert [entry.passed for entry in entries] == [True, True, False]
    assert entries[2].residual == "['1/7', '0/1', '0/1', '0/1']"


@pytest.mark.parametrize("L, N_max", [(3, 6), (5, 5), (7, 4), (9, 3), (11, 2)])
def test_per_site_energy_is_size_independent(L, N_max):
    entries = _with_fit(verify_no_finite_size_correction, summaries_for(L, N_max), N_max)
    assert len(entries) == N_max
    for entry in entries:
        assert entry.passed, entry.line()


def test_per_site_density_values():
    # (L - 3) cos(2 pi / L) - 2 A, spot values
    assert _with_fit(verify_no_finite_size_correction, summaries_for(3, 2), 2)[0].passed
    assert summary_at(3, 5).energy_per_site == -1
    per_site5 = summary_at(5, 3).energy_per_site
    assert per_site5 * 2 == -(_sqrt5() + 3)
    density7 = cyc_cos(2, 7) * 4 - extract_A(summaries_for(7)).A * 2
    assert summary_at(7, 3).energy_per_site == density7


SUMMARY_5_2 = summary_at(5, 2)


@settings(max_examples=30, deadline=None)
@given(
    L=st.integers(1, 15).map(lambda h: 2 * h + 1),
    coeffs=st.lists(st.fractions(max_denominator=1000), max_size=12),
    k=st.integers(-(10**6), 10**6).filter(bool),
)
def test_summary_pickle_round_trip(L, coeffs, k):
    # worker processes send summaries back to the parent by pickle
    assert pickle.loads(pickle.dumps(SUMMARY_5_2)) == SUMMARY_5_2
    # an element made from a scaled input comes back in the same lowest terms
    x = CyclotomicNumber(2 * L, [k * c for c in coeffs], k)
    back = pickle.loads(pickle.dumps(x))
    assert (back.order, back.nums, back.den, hash(back)) == (x.order, x.nums, x.den, hash(x))
    assert x == CyclotomicNumber(2 * L, coeffs)
    assert x.den > 0 and gcd(x.den, *x.nums) == 1


def test_first_differences_are_constant():
    for L in (3, 5, 7):
        values = [summary_at(L, N).E1 for N in range(1, 5)]
        diffs = [values[i + 1] - values[i] for i in range(3)]
        assert diffs[0] == diffs[1] == diffs[2]


@pytest.mark.parametrize("L", [7, 9, 11])
def test_published_closed_forms_match(L):
    entries = crosscheck_closed_forms(summaries_for(L), precision_bits=256)
    assert entries, "no comparisons ran"
    for entry in entries:
        assert entry.passed, entry.line()


def test_closed_form_tolerance_is_strict():
    # the comparison must fail if the table is off by ~1e-50
    good = closed_form_root_sum(7, 1, 256)
    exact = exact_value(summary_at(7, 1).E1.embed(256).real)
    assert abs(good - exact) < F(1, 2**180)
    assert abs((good + F(1, 10**50)) - exact) > F(1, 2**180)


@pytest.mark.parametrize("L", [7, 9, 11])
def test_closed_forms_match_their_mpmath_versions(L):
    # the trig sums in fixed point against mpmath's cospi and sinpi at the
    # same precision, and the reported gap against mpmath's: both gaps are
    # rounding noise far under the tolerance 2^-180
    for N in (0, 1, 2):
        found = closed_form_root_sum(L, N, 256)
        assert type(found) is F
        assert abs(found - exact_value(closed_form_oracle(L, N, 256))) < F(1, 2**236)
    summaries = summaries_for(L)
    entries = crosscheck_closed_forms(summaries, precision_bits=256)
    for entry, summary in zip(entries, summaries):
        found = entry.residual.numbers[0][0]
        before = exact_value(closed_form_gap_oracle(summary, 256))
        assert entry.passed and found < F(1, 2**236) and before < F(1, 2**236)


def test_pole_collision_is_fatal():
    # pushing e_1 of the one-root chain to +1 makes the cosine-weighted
    # denominator vanish, i.e. Q acquires a root at the Moebius pole
    q = build_q(ChainParams(3, 1)).with_coefficient_bump(1, 2)
    with pytest.raises(ZeroDivisionError):
        w_sum(q)
