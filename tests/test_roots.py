"""Arbitrary-precision root localisation and the nonlinear residuals.

The quadratic (3,2) chain is the main oracle: its roots are
(-11 +- sqrt 21)/10, small enough to verify against mpmath.sqrt directly.
"""

import cmath
import functools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qchain.bethe
import qchain.cli
import qchain.cyclotomic
import qchain.multiple
import qchain.roots
import qchain.symmetry
from conftest import (
    as_mpc,
    bae_all_roots_oracle,
    bae_oracle,
    coincidence_oracle,
    constants_oracle,
    dense_horner_oracle,
    exact_value,
    float_corrector_oracle,
    handover_scan_oracle,
    inversion_oracle,
    inversion_scan_oracle,
    moebius_oracle,
    poly_residual_oracle,
    pole_oracle,
    polish_every_root_oracle,
    product_oracle,
    root_sum_oracle,
)
from qchain.cli import main
from qchain.energy import groundstate_summary
from qchain.fixedpoint import _divide, _fixed
from qchain.qoperator import ChainParams, _times_one_plus_x, build_q
from qchain.report import gap as _gap_entry
from qchain.report import measured as _measured_entry
from qchain.roots import (
    ConvergenceError,
    Measured,
    RootSet,
    bae_residuals_by_form,
    find_roots,
    inversion_closure_gap,
    numeric_cross_check,
    _pole,
    root_product_gap,
    z_to_w,
)
from qchain.wtransform import w_sum

F = Fraction


def test_single_root_is_minus_one():
    rs = find_roots(build_q(ChainParams(3, 1)), precision_bits=256)
    assert len(rs.z) == 1
    with mpmath.workprec(300):
        assert abs(as_mpc(rs.z, rs.bits)[0] + 1) < mpmath.mpf(2) ** -200


def test_quadratic_roots_match_radicals():
    rs = find_roots(build_q(ChainParams(3, 2)), precision_bits=256)
    with mpmath.workprec(320):
        expected = sorted(
            [(-11 + mpmath.sqrt(21)) / 10, (-11 - mpmath.sqrt(21)) / 10],
            key=lambda v: v.real if hasattr(v, "real") else v,
        )
        got = sorted(as_mpc(rs.z, rs.bits), key=lambda v: v.real)
        for g, e in zip(got, expected):
            assert abs(g - e) < mpmath.mpf(2) ** -200


def test_poly_residual_bound_on_grid():
    for L, N in ((3, 3), (5, 2), (7, 1), (9, 1)):
        rs = find_roots(build_q(ChainParams(L, N)), precision_bits=256)
        assert rs.max_poly_residual.below(F(1, 2**232))
        assert len(rs.z) == rs.params.p
        assert len(rs.w) == rs.params.p


def test_seed_determinism_and_independence():
    q = build_q(ChainParams(5, 2))
    a = find_roots(q, precision_bits=192, seed=0)
    b = find_roots(q, precision_bits=192, seed=1)
    c = find_roots(q, precision_bits=192, seed=0)

    # same seed: bitwise repeatable
    assert sorted(a.z) == sorted(c.z)
    with mpmath.workprec(256):
        # different starting phases: same root multiset after polishing
        remaining = as_mpc(b.z, b.bits)
        for x in as_mpc(a.z, a.bits):
            nearest = min(remaining, key=lambda y: abs(x - y))
            assert abs(x - nearest) < mpmath.mpf(2) ** -150
            remaining.remove(nearest)


def _units_from(w, exact, bits):
    """The larger part of w - exact, w at 2^-bits, in units 2^-bits."""
    return max(
        abs(w[0] - mpmath.ldexp(exact.real, bits)), abs(w[1] - mpmath.ldexp(exact.imag, bits))
    )


BITS = 256


def test_moebius_map_anchors():
    # z a - 1 and z - a are equal or opposite integers here, so the map is exact
    one = 1 << BITS
    for L in (3, 5, 7):
        assert z_to_w((one, 0), _pole(L, BITS), BITS) == (-one, 0)
    assert z_to_w((-one, 0), _pole(3, BITS), BITS) == (one, 0)


def test_moebius_map_is_an_involution():
    points = [(2, 1), (-1, 3), (Fraction(3, 10), Fraction(-7, 10))]
    for L in (3, 5, 7, 11):
        a = _pole(L, BITS)
        for re, im in points:
            z = (int(re * 2**BITS), int(im * 2**BITS))
            w = z_to_w(z, a, BITS)
            with mpmath.workprec(BITS + 64):
                # against the mpmath map on the same point, to within the truncation of w
                assert _units_from(w, moebius_oracle(as_mpc([z], BITS)[0], L), BITS) < 2
            back = z_to_w(w, a, BITS)
            # w is within 1.5 units; the second map multiplies that by
            # |z - a|^2 / |a^2 - 1| < 16 at these points and truncates once more
            assert max(abs(back[0] - z[0]), abs(back[1] - z[1])) <= 32, (L, re, im)


def test_integer_constants_match_the_mpmath_ones_they_replace():
    # mpmath made the pole at F + 64 = 448 bits, rounded to nearest there, and
    # the Bethe constants at F + 64 read at F = 384; the kernel truncates the
    # exact value, so the pole may differ in its last unit or two, and the
    # constants only where a part lies at a multiple of 2^-384: at L = 3, where
    # B = exp(-4 pi i / 3) has real part exactly -1/2, one unit apart
    F = 256 + 128
    for L in range(3, 102, 2):
        pole, before = _pole(L, F), pole_oracle(L, F)
        assert max(abs(pole[0] - before[0]), abs(pole[1] - before[1])) <= 2, L
        made, before = qchain.bethe._constants(L, F), constants_oracle(L, F)
        if L != 3:
            assert made == before, L
            continue
        half = 1 << F - 1
        assert made[0] == before[0] and made[2:] == before[2:] and made[1][1] == before[1][1]
        assert {made[1][0], before[1][0]} == {-half, 1 - half}


def test_moebius_pole_rejected():
    a = _pole(5, BITS)
    pole = (a[0] >> 64, a[1] >> 64)
    with pytest.raises(ValueError):
        z_to_w(pole, a, BITS)
    # the rejection radius is 2^-(BITS//2): half as far is rejected, twice as far maps
    with pytest.raises(ValueError):
        z_to_w((pole[0] + (1 << BITS // 2 - 1), pole[1]), a, BITS)
    z_to_w((pole[0] + (1 << BITS // 2 + 1), pole[1]), a, BITS)


def test_bae_residuals_on_grid():
    for L, N in ((3, 2), (5, 1), (5, 2), (7, 1)):
        rs = find_roots(build_q(ChainParams(L, N)), precision_bits=256)
        by_form = bae_residuals_by_form(rs)
        assert by_form["z"].below(F(1, 2**216))
        assert by_form["w"].below(F(1, 2**216))


def test_bae_rejects_perturbed_roots():
    rs = find_roots(build_q(ChainParams(3, 2)), precision_bits=256)
    bad = _hand_built(rs, [(zr + (1 << rs.bits - 20), zi) for zr, zi in rs.z])
    assert max(m.value for m in bae_residuals_by_form(bad).values()) > F(1, 2**64)


def test_bae_rejects_wrong_polynomial():
    q = build_q(ChainParams(5, 1)).with_coefficient_bump(1, F(1, 1024))
    rs = find_roots(q, precision_bits=256)
    # roots of the bumped polynomial satisfy it, but not the pair equations
    assert rs.max_poly_residual.below(F(1, 2**232))
    assert max(m.value for m in bae_residuals_by_form(rs).values()) > F(1, 2**64)


CONJUGATE_POINTS = [(L, N) for L in (3, 5, 7, 9, 11) for N in (1, 2, 3, 4)] + [(21, 4), (31, 6)]


@pytest.mark.parametrize("L,N", CONJUGATE_POINTS)
def test_partner_residuals_match_their_direct_measurement(L, N, monkeypatch):
    # the stored roots are closed under conjugation and, to a few units, under
    # inversion, so one root is visited per orbit {z, conj z, 1/z, 1/conj z}:
    # its own residual |X| / |Y| stands for z and 1/conj z, and |X| / |a^M num|,
    # read from the same numbers, for conj z and 1/z.  Per member and per form
    # that agrees with the member measured on its own factors (the all-roots
    # loop) within both bounds, and the result agrees with the all-roots
    # mpmath oracles
    q = build_q(ChainParams(L, N))
    rs = find_roots(q, precision_bits=256)
    visits, conj, inv = qchain.symmetry._orbits(rs)
    assert conj is not None and inv is not None
    assert rs.inverses.involution and math.isqrt(max(rs.inverses.gaps)) <= 8
    orbits = [{j, conj[j], inv[j], conj[inv[j]]} for j, _ in visits]
    assert sorted(k for orbit in orbits for k in orbit) == list(range(q.params.p))
    calls = []
    bethe_form = qchain.bethe._bethe_form

    def recording(roots, *args):
        roots = list(roots)
        calls.append((roots, args))
        return bethe_form(roots, *args)

    monkeypatch.setattr(qchain.bethe, "_bethe_form", recording)
    forms = bae_residuals_by_form(rs)
    direct = [bae_all_roots_oracle(rs, only=[k]) for k in range(q.params.p)]
    one = (1 << rs.bits, 0)
    for name, (items, args) in zip(("z", "w"), calls):
        assert len(items) == len(visits)
        measured = []
        for (j, mirrored), orbit, (a, b, nums, dens, flag) in zip(visits, orbits, items):
            assert flag == mirrored == (len(orbit) > 1) and rs.z[j][1] >= 0
            own = bethe_form([(a, b, nums, dens, False)], *args)
            # a/b and num/den swapped: X changes sign and Y becomes a^M num
            partner = bethe_form([(b or one, a, dens, nums, False)], *args)
            measured.append(own)
            if mirrored:
                both = bethe_form([(a, b, nums, dens, True)], *args)
                assert both.value == max(own.value, partner.value)
                measured.append(partner)
            for k, found in ((j, own), (conj[inv[j]], own), (conj[j], partner), (inv[j], partner)):
                exact = direct[k][name]
                assert abs(found.value - exact.value) <= found.bound + exact.bound, (j, k, name)
        assert forms[name].value == max(m.value for m in measured)
        assert forms[name].bound >= max(m.bound for m in measured)
    work = rs.bits + 64
    exact = bae_oracle(rs, work)
    for name in ("z", "w"):
        assert abs(forms[name].value - exact_value(exact[name])) <= forms[name].bound, name
    # |Q| is evaluated at the roots with im >= 0 only
    residual = rs.max_poly_residual
    assert abs(residual.value - exact_value(poly_residual_oracle(q, rs, work))) <= residual.bound


def test_a_set_not_closed_under_conjugation_is_measured_root_by_root():
    # one partner moved by one unit: the precondition fails, and every root
    # is measured on its own numbers, exactly as the all-roots loop measures it
    rs = find_roots(build_q(ChainParams(7, 2)), precision_bits=256)
    roots = list(rs.z)
    j = next(j for j, (_, zi) in enumerate(roots) if zi < 0)
    roots[j] = (roots[j][0], roots[j][1] + 1)
    bad = _hand_built(rs, roots)
    assert not qchain.symmetry._conjugate_closed(bad.z)
    assert bae_residuals_by_form(bad) == bae_all_roots_oracle(bad)


def test_an_inversion_partner_moved_by_2_40_units_is_measured_root_by_root():
    # the partner of a root with im > 0 moved: the set is no longer closed
    # under conjugation, and every root is measured on its own numbers
    rs = find_roots(build_q(ChainParams(7, 2)), precision_bits=256)
    roots = list(rs.z)
    j = next(j for j, (_, zi) in enumerate(roots) if zi > 0)
    k = rs.inverses.partner[j]
    roots[k] = (roots[k][0] + (1 << 40), roots[k][1])
    bad = _hand_built(rs, roots)
    assert qchain.symmetry._orbits(bad)[1:] == (None, None)
    assert bae_residuals_by_form(bad) == bae_all_roots_oracle(bad)


def test_a_pair_moved_by_2_40_units_widens_the_orbit_bound_by_its_gap():
    # a conjugate pair moved together: the set stays closed under conjugation,
    # the inversion partners sit 2^40 units off the inverses, and the orbit
    # residuals, with that gap in their bound, agree with the all-roots loop
    rs = find_roots(build_q(ChainParams(7, 2)), precision_bits=256)
    roots = list(rs.z)
    j = next(j for j, (_, zi) in enumerate(roots) if zi > 0)
    k = roots.index((roots[j][0], -roots[j][1]))
    for i in (j, k):
        roots[i] = (roots[i][0] + (1 << 40), roots[i][1])
    bad = _hand_built(rs, roots)
    assert qchain.symmetry._orbits(bad)[2] is not None
    assert math.isqrt(max(bad.inverses.gaps)) >= 1 << 39
    forms, direct, before = bae_residuals_by_form(bad), bae_all_roots_oracle(bad), bae_residuals_by_form(rs)
    for name in ("z", "w"):
        assert abs(forms[name].value - direct[name].value) <= forms[name].bound + direct[name].bound
        assert forms[name].bound > before[name].bound * 2**30


def test_inversion_partners_beyond_root_inversion_tolerance_are_not_read():
    # (3, 2) has two real roots, r and 1/r; one moved by 2^200 units, beyond
    # root-inversion's tolerance 2^-(256 - 40) = 2^168 units: the partner map
    # is still an involution, but each root is measured on its own numbers
    rs = find_roots(build_q(ChainParams(3, 2)), precision_bits=256)
    assert all(zi == 0 for _, zi in rs.z)
    assert qchain.symmetry._orbits(rs)[0] == [(0, True)]
    bad = _hand_built(rs, [(rs.z[0][0] + (1 << 200), 0), rs.z[1]])
    assert bad.inverses.involution
    assert not inversion_closure_gap(bad).below(F(1, 2**216))
    visits, conj, inv = qchain.symmetry._orbits(bad)
    assert visits == [(0, False), (1, False)] and conj == [0, 1] and inv is None
    assert bae_residuals_by_form(bad) == bae_all_roots_oracle(bad)


@pytest.mark.parametrize("L,N", [(3, 2), (5, 2), (7, 2), (11, 4), (21, 4), (31, 6)])
def test_inversion_partner_map_reads_what_the_full_scan_reads(L, N):
    # the gap is read at each root's nearest root from the partner map; it is
    # the full scan's, with its bound, on the chain's Q and on a bumped one
    q = build_q(ChainParams(L, N))
    for checked in (q, q.with_coefficient_bump(1, F(1, 3))):
        rs = find_roots(checked, precision_bits=256)
        assert inversion_closure_gap(rs) == inversion_scan_oracle(rs)


def test_inversion_partners_the_doubles_cannot_tell_apart_are_scanned():
    # 1/2 is 2^-60 from one root and 2^-61 from another, both 1/2 in doubles;
    # a root of 2^1100 leaves no float copies at all: either way the exact
    # scan decides
    rs = find_roots(build_q(ChainParams(3, 2)), precision_bits=256)
    one = 1 << rs.bits
    close = _hand_built(rs, [(2 * one, 0), (one // 2 + (one >> 60), 0), (one // 2 - (one >> 61), 0)])
    assert close.inverses.partner[0] == 2
    assert inversion_closure_gap(close) == inversion_scan_oracle(close)
    far = _hand_built(rs, [(one << 1100, 0), (one, one), (3 * one, -one), (1, 0)])
    assert far.inverses.partner == (3, 3, 3, 2)
    assert inversion_closure_gap(far) == inversion_scan_oracle(far)


def test_inversion_partner_maps_that_are_no_commuting_involution_are_not_read():
    # pi o conj = conj o pi keeps each orbit at four members; a partner map
    # that is an involution but breaks it is not read
    rs = find_roots(build_q(ChainParams(9, 2)), precision_bits=256)
    visits, conj, inv = qchain.symmetry._orbits(rs)
    a, x = [j for j, _ in visits if len({j, conj[j], inv[j]}) == 3][:2]
    b, y = inv[a], inv[x]  # a <-> x and b <-> y instead of a <-> b and x <-> y
    partner = list(inv)
    partner[a], partner[x], partner[b], partner[y] = x, a, y, b
    bad = _hand_built(rs, rs.z)
    bad.inverses = qchain.symmetry._Inverses(tuple(partner), rs.inverses.gaps, rs.inverses.gap)
    assert bad.inverses.involution
    assert qchain.symmetry._orbits(bad)[2] is None
    # nor is one that commutes with conjugation but is no involution:
    # a -> b -> x -> a, and the same on their conjugates
    a, x = [j for j, _ in visits if len({j, conj[j], inv[j], conj[inv[j]]}) == 4][:2]
    b = inv[a]
    partner = list(inv)
    for u, v in ((a, b), (b, x), (x, a)):
        partner[u], partner[conj[u]] = v, conj[v]
    bad.inverses = qchain.symmetry._Inverses(tuple(partner), rs.inverses.gaps, rs.inverses.gap)
    assert not bad.inverses.involution
    assert qchain.symmetry._orbits(bad)[2] is None


def test_merged_roots_raise_as_the_all_pairs_scan_does():
    # the near-pair pass in doubles flags the pairs the exact all-pairs scan
    # finds, and names the same first pair; a pair just outside 2^-(F//2) passes
    rs = find_roots(build_q(ChainParams(11, 4)), precision_bits=256)
    F = rs.bits
    roots = list(rs.z)
    roots[9] = roots[3]
    roots[7] = (roots[5][0] + (1 << F // 2 - 2), roots[5][1])
    bad = _hand_built(rs, roots)
    assert coincidence_oracle(bad.z, F) == (3, 9)
    with pytest.raises(ValueError, match=r"^roots 3 and 9 coincide$"):
        bae_residuals_by_form(bad)
    roots[9] = (roots[3][0], roots[3][1] + (1 << F // 2 + 1))
    apart = _hand_built(rs, roots)
    assert coincidence_oracle(apart.z, F) == (5, 7)
    with pytest.raises(ValueError, match=r"^roots 5 and 7 coincide$"):
        bae_residuals_by_form(apart)
    roots[7] = rs.z[7]
    assert coincidence_oracle(roots, F) is None
    qchain.symmetry._reject_coincident(roots, F)
    # a root beyond float range: every pair is compared exactly
    one = 1 << F
    far = [(one << 1100, 0), (one, one), (3 * one, 0), (one, one)]
    assert coincidence_oracle(far, F) == (1, 3)
    with pytest.raises(ValueError, match=r"^roots 1 and 3 coincide$"):
        qchain.symmetry._reject_coincident(far, F)


@pytest.mark.parametrize("L,N", [(5, 2), (9, 4), (11, 4), (21, 4), (31, 6)])
def test_mirrored_roots_match_the_polish_every_root_ladder(L, N):
    # one root of each conjugate pair is polished and the other stored as its
    # mirror image, each real root polished with im 0: every stored root is
    # within two units of the root that its own ladder reaches
    q = build_q(ChainParams(L, N))
    rs = find_roots(q, precision_bits=256)
    old = polish_every_root_oracle(q, precision_bits=256)
    assert (rs.ladder, rs.sweeps, rs.float_sweeps) == (old.ladder, old.sweeps, old.float_sweeps)
    _assert_same_stored_roots(rs, old, 2)
    assert qchain.symmetry._conjugate_closed(rs.z)
    assert sum(1 for _, zi in rs.z if zi == 0) == sum(1 for _, zi in old.z if zi == 0)


def test_mirroring_needs_an_involution_and_real_points_near_the_axis():
    pair = [complex(0.5, 0.2), complex(0.5, -0.2)]
    assert qchain.symmetry._mirror_pairs(pair + [complex(-2.0, 2.0**-42)], 40) == [1, 0, 2]
    # a lone point farther from the axis than the hand-over's reach
    assert qchain.symmetry._mirror_pairs(pair + [complex(-2.0, 2.0**-38)], 40) is None
    # conj of (0, 1.1) is nearest (0, 1), whose conj is nearest (0, 0.95)
    assert qchain.symmetry._mirror_pairs([1j, -1.1j, -0.95j], 40) is None
    # (0.5, 1e-3) is its own partner, and the partner of (0.5, 2e-3)
    assert qchain.symmetry._mirror_pairs([complex(0.5, 1e-3), complex(0.5, 2e-3)], 4) is None


def test_lone_points_are_polished_on_the_real_axis(monkeypatch):
    # the double phase's points on real roots moved 2^-50 off the axis: each
    # is still its own conjugate partner, and its ladder runs with im 0 from
    # the first step, so its root is stored with im exactly 0
    q = build_q(ChainParams(5, 2))
    search = qchain.roots._float_search

    def lifted(monic, points, *multiple):
        sweeps, reached = search(monic, points, *multiple)
        return sweeps, [z + complex(0, 2.0**-50) if abs(z.imag) < 1e-9 else z for z in reached]

    monkeypatch.setattr(qchain.roots, "_float_search", lifted)
    real_calls = []
    fraction = qchain.multiple._Multiple.fraction

    def recording(self, zr, zi, bits, check=True):
        real_calls.append(zi == 0)
        return fraction(self, zr, zi, bits, check)

    monkeypatch.setattr(qchain.multiple._Multiple, "fraction", recording)
    rs = find_roots(q, precision_bits=256)
    real = sum(1 for _, zi in rs.z if zi == 0)
    assert rs.sweeps == 0 and real > 0 and qchain.symmetry._conjugate_closed(rs.z)
    assert sum(real_calls) == real * len(rs.ladder)
    assert len(real_calls) == _visited(rs) * len(rs.ladder)


def test_product_and_inversion_closure():
    for L, N in ((3, 2), (5, 2), (7, 1)):
        rs = find_roots(build_q(ChainParams(L, N)), precision_bits=256)
        assert root_product_gap(rs).below(F(1, 2**216))
        assert inversion_closure_gap(rs).below(F(1, 2**216))


def test_numeric_cross_check_against_exact_sum():
    for L, N in ((3, 2), (5, 1), (7, 1)):
        q = build_q(ChainParams(L, N))
        rs = find_roots(q, precision_bits=256)
        found = numeric_cross_check(rs, w_sum(q))
        assert type(found) is F and found < F(1, 2**216)
        # against the mpmath embedding it replaced: each embeds E1 within
        # 1.5 units of 2^-F, so the distances differ by at most 3 units
        assert abs(found - root_sum_oracle(rs, w_sum(q))) <= F(3, 2**rs.bits)


def test_precision_floor_enforced():
    with pytest.raises(ValueError):
        find_roots(build_q(ChainParams(3, 1)), precision_bits=64)


def test_large_grid_point_converges():
    # deepest point of the acceptance grid; p = 40 coefficients up to ~2^37
    q = build_q(ChainParams(11, 4))
    rs = find_roots(q, precision_bits=192)
    assert len(rs.z) == 40
    assert rs.max_poly_residual.below(F(1, 2**168))


def test_roots_match_independent_polyroots():
    # mpmath.polyroots is a separate Durand-Kerner code on the same exact
    # coefficients; the two root multisets must agree far below 2^-150.
    for L, N in ((3, 4), (5, 3), (7, 2), (9, 2), (11, 1)):
        q = build_q(ChainParams(L, N))
        rs = find_roots(q, precision_bits=256)
        with mpmath.workprec(256):
            coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(q.coefficients())]
            oracle = mpmath.polyroots(coeffs, maxsteps=200, extraprec=400)
            assert len(oracle) == len(rs.z) == q.params.p
            remaining = list(oracle)
            for z in as_mpc(rs.z, rs.bits):
                nearest = min(remaining, key=lambda y: abs(z - y))
                assert abs(z - nearest) < mpmath.mpf(2) ** -150, (L, N)
                remaining.remove(nearest)


def test_sweep_cap_raises_convergence_error(monkeypatch, capsys):
    monkeypatch.setattr(qchain.roots, "MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError) as caught:
        find_roots(build_q(ChainParams(11, 4)), precision_bits=256)
    assert caught.value.sweeps == 1

    # the CLI reports it as a failed check with a witness, not a crash
    code = main(["verify", "--L", "11", "--N-max", "4", "--checks", "roots"])
    out = capsys.readouterr().out
    assert code == 1
    failures = [line for line in out.splitlines() if line.startswith("FAIL roots ")]
    assert failures and all("ConvergenceError" in line for line in failures)


# Sweep counts of the search, (float on u = z + 1/z, fixed point at
# search_bits); the measurements must not change the roots they measure.  At
# L = 3, P = (z-1)^M Q has more terms than Q, so the double phase runs on Q's
# dense coefficients; there as on P from L = 5 on, it hands its roots straight
# to the ladder.
SWEEPS = {(3, 2): (2, 0), (5, 3): (7, 0), (7, 2): (7, 0), (9, 2): (6, 0), (11, 4): (8, 0)}


@pytest.mark.parametrize("L,N", sorted(SWEEPS))
def test_fixed_point_measurements_match_mpmath_oracles(L, N):
    # the oracles evaluate the same quantities in mpmath 64 bits above the
    # kernel's scale, so their own rounding is far below the kernel's bound
    q = build_q(ChainParams(L, N))
    rs = find_roots(q, precision_bits=256)
    assert (rs.float_sweeps, rs.sweeps) == SWEEPS[L, N]
    work = rs.bits + 64
    forms = bae_residuals_by_form(rs)
    oracle = bae_oracle(rs, work)
    pairs = [
        (forms["z"], oracle["z"]),
        (forms["w"], oracle["w"]),
        (root_product_gap(rs), product_oracle(rs, work)),
        (inversion_closure_gap(rs), inversion_oracle(rs, work)),
        (rs.max_poly_residual, poly_residual_oracle(q, rs, work)),
    ]
    for measured, exact in pairs:
        assert 0 < measured.bound < F(1, 2**300)
        assert abs(measured.value - exact_value(exact)) <= measured.bound, (L, N)


@pytest.mark.parametrize("L,N", [(21, 4), (11, 8)])
def test_root_measurements_keep_64_bits_under_their_tolerances(L, N, monkeypatch):
    # each root residual plus its rounding bound, at the scale the roots are
    # stored at, sits at least 2^64 below the tolerance verify gives it, so a
    # scale lowered too far fails here before it fails a user's check
    seen = []

    def recording(builder):
        def record(name, where, found, tolerance, *rest):
            values = found if isinstance(found, list) else [Measured(found, F(0))]
            seen.extend((name, m, tolerance) for m in values)
            return builder(name, where, found, tolerance, *rest)

        return record

    monkeypatch.setattr(qchain.cli, "measured", recording(qchain.cli.measured))
    monkeypatch.setattr(qchain.cli, "gap", recording(qchain.cli.gap))
    q = build_q(ChainParams(L, N))
    entries = qchain.cli._root_entries(q, 256, groundstate_summary(q))
    assert all(entry.passed for entry in entries)
    names = ["roots", "root-product", "root-inversion", "bae", "bae", "root-sum"]
    assert [name for name, _, _ in seen] == names
    for name, m, tolerance in seen:
        assert m.value + m.bound < tolerance / 2**64, name


def _hand_built(rs, z):
    """rs with its roots replaced by the fixed-point points z, at rs.bits."""
    pole = _pole(rs.params.L, rs.bits)
    return RootSet(
        params=rs.params,
        precision_bits=rs.precision_bits,
        bits=rs.bits,
        z=tuple(z),
        w=tuple(z_to_w(x, pole, rs.bits) for x in z),
        max_poly_residual=rs.max_poly_residual,
    )


@pytest.mark.parametrize("change", ["moved by 2^-20", "negated"])
def test_product_and_inversion_reject_a_wrong_root(change):
    rs = find_roots(build_q(ChainParams(5, 2)), precision_bits=256)
    tolerance = F(1, 2**216)
    assert root_product_gap(rs).below(tolerance)
    assert inversion_closure_gap(rs).below(tolerance)
    roots = list(rs.z)
    zr, zi = roots[0]
    roots[0] = (zr + (1 << rs.bits - 20), zi) if change != "negated" else (-zr, -zi)
    bad = _hand_built(rs, roots)
    for measured in (root_product_gap(bad), inversion_closure_gap(bad)):
        # red even at the lower end of the rounding interval
        assert not measured.below(tolerance)
        assert measured.value - measured.bound > tolerance


def test_checks_decide_on_residual_plus_bound():
    tolerance = F(1, 2**216)
    small = F(1, 2**220)
    assert Measured(small, F(1, 2**230)).below(tolerance)
    assert not Measured(small, F(1, 2**216)).below(tolerance)
    assert not Measured(small, math.inf).below(tolerance)
    # exactly at the boundary: residual + bound equal to the tolerance fails,
    # and one part in 2^1000 less passes
    assert not Measured(small, tolerance - small).below(tolerance)
    assert Measured(small, tolerance - small - F(1, 2**1000)).below(tolerance)
    # the CLI entry reads the same decision, and reports value and bound
    entry = _measured_entry("bae", {"L": 3, "N": 2}, [Measured(small, tolerance)], tolerance)
    assert not entry.passed
    assert str(entry.residual) == "5.9347298e-67 (rounding bound 9.5e-66)"
    assert entry.to_dict()["residual"] == "5.9347298e-67 (rounding bound 9.5e-66)"
    # a gap decides exactly too
    assert not _gap_entry("root-sum", {}, tolerance, tolerance).passed
    assert _gap_entry("root-sum", {}, tolerance - F(1, 2**1000), tolerance).passed
    assert str(_gap_entry("root-sum", {}, small, tolerance).detail) == "tolerance 9.496e-66"


def test_measurements_do_no_mpmath_arithmetic_per_root(monkeypatch):
    # the constants of the Bethe forms and the embedding of the root sum come
    # from the integer kernel, so no measurement makes an mpf or mpc at all
    calls = []
    for cls in (mpmath.mpf, mpmath.mpc):
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__pow__", "__abs__", "__neg__"):
            original = getattr(cls, name, None)
            if original is not None:
                def counted(*args, _original=original):
                    calls.append(1)
                    return _original(*args)
                monkeypatch.setattr(cls, name, counted)

    def count(fn, *args):
        # the constants are cached per (L, bits) and zeta per (order, bits):
        # cleared, every count includes making them
        qchain.bethe._constants.cache_clear()
        qchain.cyclotomic._zeta.cache_clear()
        calls.clear()
        fn(*args)
        return len(calls)

    qs = [build_q(ChainParams(11, N)) for N in (1, 4)]
    small, large = (find_roots(q, precision_bits=256) for q in qs)
    assert count(root_product_gap, large) == 0
    assert count(inversion_closure_gap, large) == 0
    assert count(bae_residuals_by_form, small) == count(bae_residuals_by_form, large) == 0
    e1_small, e1_large = (w_sum(q) for q in qs)
    assert count(numeric_cross_check, small, e1_small) == 0
    assert count(numeric_cross_check, large, e1_large) == 0


def _recording(monkeypatch, module=qchain.roots, degree=None):
    """Patch the one Horner routine where module calls it, to record the
    precision of every call, or of every call on terms of that degree:
    qchain.roots calls it for |Q(z_j)|, qchain.multiple for the Newton
    corrections, on P's terms (degree p + M) and on Q's own (degree p)."""
    calls = []
    horner = module._horner

    def recording(terms, zr, zi, bits, **slope):
        if degree is None or terms[0][0] == degree:
            calls.append(bits)
        return horner(terms, zr, zi, bits, **slope)

    monkeypatch.setattr(module, "_horner", recording)
    return calls


def _noise_bits(deg, coeffs):
    """bits(1 + max |c|) over the lower terms + bits(T (deg + 2T)), for T
    nonzero monic coefficients coeffs, the leading one first: a term
    list's margin but its 24 bits."""
    count = len(coeffs)
    top = 1 + max((abs(c) for c in coeffs[1:]), default=0)
    return math.floor(top).bit_length() + (count * (deg + 2 * count)).bit_length()


def _own_noise_bits(q):
    """_noise_bits of Q's own monic terms."""
    coeffs = q.coefficients()
    return _noise_bits(q.params.p, [c / coeffs[-1] for c in reversed(coeffs) if c])


def test_search_runs_at_the_noise_derived_precision(monkeypatch):
    # the search precision comes from the coefficient bound of P = (z-1)^M Q,
    # read from Q's own integers; with the hand-over refused, the fixed-point
    # search runs on P's terms at that precision
    q = build_q(ChainParams(21, 4))
    p, M = q.params.p, q.params.M
    product = _times_one_plus_x(q.nums, M)
    terms = [Fraction(c, product[0]) for c in product if c]
    count = len(terms)
    noise_bits = _noise_bits(p + M, terms)
    monkeypatch.setattr(qchain.roots, "_handover_bits", lambda correction, points: 0)
    sparse = _recording(monkeypatch, qchain.multiple, p + M)
    own = _recording(monkeypatch, qchain.multiple, p)
    dense = _recording(monkeypatch)
    rs = find_roots(q, precision_bits=256)
    assert count == 2 * (q.params.N + 1)
    assert rs.search_bits == noise_bits + 96 < _own_noise_bits(q) + 96
    assert rs.sweeps > 0
    assert sparse[: rs.sweeps * p] == [rs.search_bits] * (rs.sweeps * p)
    # Q's own terms are never read: P vouches for every point; Q's dense
    # coefficients are read only by the residual pass, at F, once per
    # conjugate pair and per real root
    assert own == []
    assert dense == [256 + 128] * _visited(rs)
    assert rs.max_poly_residual.below(F(1, 2**232))


def test_newton_ladder_ends_at_exactly_polish_bits(monkeypatch):
    q = build_q(ChainParams(11, 4))
    p = q.params.p
    F = 256 + 128
    sparse = _recording(monkeypatch, qchain.multiple, p + q.params.M)
    own = _recording(monkeypatch, qchain.multiple, p)
    dense = _recording(monkeypatch)
    rs = find_roots(q, precision_bits=256)
    # the double phase hands over: one root per conjugate pair and per real
    # root each ladder step on P, then the residual pass on Q's dense
    # coefficients at F on the same stored roots, those with im >= 0
    assert rs.sweeps == 0
    visited = _visited(rs)
    assert visited < p
    runs = sparse[::visited]
    assert sparse == [bits for bits in runs for _ in range(visited)]
    assert runs == list(rs.ladder)
    assert own == []
    assert dense == [F] * _visited(rs)
    # the ladder ends at F + margin
    margin = rs.search_bits - 72
    assert rs.ladder[-1] == F + margin
    # the good bits (precision less the margin) start from the hand-over's
    # certified bits and at most double per step
    good = [bits - margin for bits in rs.ladder]
    assert len(good) > 1 and qchain.roots.HANDOVER_BITS < good[0] <= 2 * 52
    assert all(a < b <= 2 * a for a, b in zip(good, good[1:]))
    # the stored roots are the last step's fixed-point values truncated to F
    assert rs.bits == F
    assert all(type(part) is int for point in rs.z + rs.w for part in point)


def test_float_copies_are_nan_out_of_float_range():
    one = 1 << 200
    assert qchain.roots._float(3 * one, -one // 2, one) == complex(3, -0.5)
    value = qchain.roots._float(10**400 * one, 0, one)
    assert math.isnan(value.real) and math.isnan(value.imag)


def _assert_same_roots(a, b):
    """The root sets a and b hold the same multiset of roots to within 2^-200."""
    with mpmath.workprec(600):
        remaining = as_mpc(b.z, b.bits)
        for z in as_mpc(a.z, a.bits):
            nearest = min(remaining, key=lambda y: abs(z - y))
            assert abs(z - nearest) < mpmath.mpf(2) ** -200
            remaining.remove(nearest)


def _assert_same_stored_roots(a, b, units):
    """Each stored root of a, matched to the nearest one left in b, is within
    units of 2^-bits in each part."""
    remaining = list(b.z)
    for zr, zi in a.z:
        nearest = min(remaining, key=lambda y: (y[0] - zr) ** 2 + (y[1] - zi) ** 2)
        assert max(abs(nearest[0] - zr), abs(nearest[1] - zi)) <= units
        remaining.remove(nearest)


@pytest.mark.parametrize(
    "copy,float_sweeps", [(0j, 1), (complex(math.nan, math.nan), 0)], ids=["coincident", "nan"]
)
def test_unusable_float_pair_sums_fall_back_to_the_exact_loop(copy, float_sweeps, monkeypatch):
    q = build_q(ChainParams(7, 2))
    rs = find_roots(q, precision_bits=256)
    # every float copy the same point (the float search meets a zero pair
    # difference in its first sweep, and each float pair sum divides by zero)
    # or out of float range (the float search never starts): the fixed-point
    # search starts from the seeds and takes every pair sum on the integers
    monkeypatch.setattr(qchain.roots, "_float", lambda xr, xi, one: copy)
    exact = find_roots(q, precision_bits=256)
    assert exact.float_sweeps == float_sweeps
    assert exact.search_bits == rs.search_bits
    _assert_same_roots(rs, exact)


def _visited(rs):
    """How many stored roots have im >= 0: one per conjugate pair and per real root."""
    return sum(1 for _, zi in rs.z if zi >= 0)


def _own(q):
    """Q's own monic terms, as find_roots makes them."""
    return qchain.multiple._own([c / q.coefficients()[-1] for c in q.coefficients()])


def test_float_search_gives_up_without_raising():
    q = build_q(ChainParams(7, 2))
    p = q.params.p
    points = [cmath.rect(2, 2 * math.pi * k / p) for k in range(p)]
    search = qchain.roots._float_search
    assert search(_own(q), points)[1] is not None
    # a zero pair difference: two points the same
    assert search(_own(q), [points[0], *points[:-1]]) == (1, None)
    # a point that is not finite
    assert search(_own(q), [complex(math.inf, 0), *points[1:]]) == (0, None)


def test_coefficients_beyond_float_range_keep_the_seeds(monkeypatch):
    # the bump of verify --tamper 1:1<400 zeros> at (3, 2); see test_cli: no
    # double phase, so the fixed-point search runs on Q's own terms
    q = build_q(ChainParams(3, 2)).with_coefficient_bump(1, F(10**400))
    assert qchain.roots._float_search(_own(q), [1j, -1j]) == (0, None)
    dense = _recording(monkeypatch, qchain.multiple)
    rs = find_roots(q, precision_bits=256)
    assert rs.float_sweeps == 0 and rs.sweeps > 0
    assert dense[: rs.sweeps * 2] == [rs.search_bits] * (rs.sweeps * 2)


def test_seed_radius_beyond_float_range():
    # e_0 = 1 -> 10^-401 makes Q = 1 + 10^-401 z: its root, and the seed radius, is -10^401
    q = build_q(ChainParams(3, 1)).with_coefficient_bump(0, F(1, 10**401) - 1)
    rs = find_roots(q, precision_bits=256)
    assert rs.float_sweeps == 0
    with mpmath.workprec(1600):
        (z,) = as_mpc(rs.z, rs.bits)
        assert abs(z / mpmath.mpf(10) ** 401 + 1) < mpmath.mpf(2) ** -200


def test_fixed_point_search_recovers_from_a_bad_float_handover(monkeypatch):
    q = build_q(ChainParams(9, 2))
    rs = find_roots(q, precision_bits=256)
    search = qchain.roots._float_search

    def perturbed(monic, points, *multiple):
        sweeps, reached = search(monic, points, *multiple)
        return sweeps, [z * complex(1.2, 0.2) + 0.1 for z in reached]

    monkeypatch.setattr(qchain.roots, "_float_search", perturbed)
    bad = find_roots(q, precision_bits=256)
    assert bad.float_sweeps == rs.float_sweeps and bad.sweeps > rs.sweeps
    _assert_same_roots(rs, bad)


def _corrections(q, zr, zi, bits):
    """Q/Q' at z = (zr + i zi) 2^-bits as (from P's terms or None, from the
    dense Horner oracle), each at 2^-bits, and the bound 2^(margin - bits)
    (max(1, |z|) + |Q/Q'|) that find_roots takes the sparse correction to,
    margin P's.  The oracle runs at the precision its Cauchy bound needs, as
    find_roots' dense path ran it."""
    multiple = qchain.multiple._multiple(q)
    coeffs = q.coefficients()
    cauchy = 1 + max(abs(c / coeffs[-1]) for c in coeffs[:-1])
    up = max(0, math.floor(cauchy).bit_length() + q.params.p.bit_length() + 24 - multiple.margin)
    plain = [_fixed(c / coeffs[-1], bits + up) for c in coeffs]
    vr, vi, dr, di = dense_horner_oracle(plain, zr << up, zi << up, bits + up)
    dense = _divide(vr, vi, dr, di, bits)
    fraction = multiple.fraction(zr, zi, bits)
    sparse = None if fraction is None else _divide(*fraction, bits)
    size = max(1 << bits, math.isqrt(zr * zr + zi * zi)) + math.isqrt(dense[0] ** 2 + dense[1] ** 2)
    return sparse, dense, size >> (bits - multiple.margin)


DEFAULT_SPARSE = [(L, N) for L in (5, 7, 9, 11) for N in (1, 2, 3, 4)]


@pytest.mark.parametrize("L,N", DEFAULT_SPARSE)
def test_sparse_correction_matches_dense_horner_within_its_bound(L, N):
    # at every root of the default grid, and 2^-10 away from it, the Newton
    # correction from P's terms is trusted and agrees with dense Horner on Q
    # (run at the larger margin's precision, as find_roots' fallback runs it)
    # to within the two corrections' stated bounds
    q = build_q(ChainParams(L, N))
    rs = find_roots(q, precision_bits=256)
    bits = 256
    for zr, zi in rs.z:
        zr, zi = zr >> rs.bits - bits, zi >> rs.bits - bits
        for dr in (0, 1 << bits - 10):
            sparse, dense, bound = _corrections(q, zr + dr, zi, bits)
            assert sparse is not None, (L, N)
            assert max(abs(sparse[0] - dense[0]), abs(sparse[1] - dense[1])) <= 2 * bound


@pytest.mark.parametrize("L,N", [(5, 1), (7, 2), (11, 4), (21, 4)])
def test_sparse_correction_falls_back_near_its_zero_at_one(L, N):
    # P has an M-fold zero at z = 1, where its evaluation cancels: walking in
    # toward 1, the sparse correction is trusted only while its rounding bound
    # allows, and is never off dense Horner's by more than the bounds while it is
    q = build_q(ChainParams(L, N))
    multiple = qchain.multiple._multiple(q)
    bits = 256
    trusted = []
    for k in range(1, 41):
        for angle in (0.5, 2.0):
            z = 1 + 2.0**-k * cmath.exp(1j * angle)
            zr, zi = _fixed(z.real, bits), _fixed(z.imag, bits)
            sparse, dense, bound = _corrections(q, zr, zi, bits)
            trusted.append(sparse is not None)
            if sparse is not None:
                assert max(abs(sparse[0] - dense[0]), abs(sparse[1] - dense[1])) <= 2 * bound
            assert (multiple.float_correction(z, qchain.roots.HANDOVER_BITS) is not None) <= (k < 30)
    # far out it is trusted, close in it falls back, and it switches once
    assert trusted[0] and not trusted[-1]
    assert trusted == sorted(trusted, reverse=True)


@pytest.mark.parametrize("L,N", [(L, N) for L in (3, 5, 7, 9, 11) for N in (1, 2, 3, 4)])
def test_own_terms_correct_in_doubles_as_the_dense_loop_did(L, N):
    # at every root of the default grid, and 2^-10 away from it, Q's own
    # terms give a correction in doubles with a finite bound, and it agrees
    # with Horner's rule on the dense monic Q in doubles, as the double phase
    # read Q before, to within the two corrections' bounds
    q = build_q(ChainParams(L, N))
    rs = find_roots(q, precision_bits=256)
    monic = [c / q.coefficients()[-1] for c in q.coefficients()]
    own = qchain.multiple._own(monic)
    oracle = float_corrector_oracle(monic)
    for zr, zi in rs.z:
        z = qchain.roots._float(zr, zi, 1 << rs.bits)
        for x in (z, z + 2.0**-10):
            n, bound = own.float_correction(x, qchain.roots.HANDOVER_BITS)
            m, limit = oracle(x)
            assert bound < math.inf
            assert abs(n - m) <= bound + limit, (L, N, x)


def test_bumped_q_is_read_for_its_own_multiple(monkeypatch):
    # P is formed from the Q under test.  At (5, 2) a bump spreads over M + 1
    # more terms of P, leaving it no sparser than Q: Q's own terms alone run,
    # at their own margin, the double phase hands over, and the whole ladder
    # reads Q's own coefficients
    q = build_q(ChainParams(5, 2)).with_coefficient_bump(1, F(1, 3))
    assert qchain.multiple._multiple(q) is None
    own = _recording(monkeypatch, qchain.multiple)
    dense = _recording(monkeypatch)
    rs = find_roots(q, precision_bits=256)
    assert rs.search_bits == _own_noise_bits(q) + 96
    assert rs.sweeps == 0
    assert own == [bits for bits in rs.ladder for _ in range(_visited(rs))]
    assert dense == [256 + 128] * _visited(rs)
    # at (11, 4) P stays sparser than Q, and carries the bump's terms: the
    # roots found are those of the bumped Q, not of the chain's
    q = build_q(ChainParams(11, 4))
    bumped = q.with_coefficient_bump(1, F(1, 3))
    count = 2 * (q.params.N + 1)
    assert len(qchain.multiple._multiple(q).terms) == count
    assert count < len(qchain.multiple._multiple(bumped).terms) <= count + q.params.M + 1
    rs = find_roots(bumped, precision_bits=256)
    assert rs.max_poly_residual.below(F(1, 2**232))
    assert max(m.value for m in bae_residuals_by_form(rs).values()) > F(1, 2**64)


@pytest.mark.parametrize("L,N", [(5, 2), (7, 1), (9, 4), (11, 3)])
def test_minus_one_at_odd_p_is_a_converged_root(L, N):
    # Q is palindromic, so at odd p Q(-1) = 0, and z = -1 is exact in doubles
    # and in fixed point: the correction there is within its own bound, the
    # double phase keeps a point placed on it, and a stored root sits there
    q = build_q(ChainParams(L, N))
    assert q.params.p % 2 == 1
    assert sum(q.nums) == 0  # Q(-1) = (-1)^p sum_k e_k
    multiple = qchain.multiple._multiple(q)
    n, bound = multiple.float_correction(-1 + 0j, qchain.roots.HANDOVER_BITS)
    assert abs(n) <= bound
    p = q.params.p
    points = [-1 + 0j] + [cmath.rect(1.5, 2 * math.pi * (k + 0.5) / p) for k in range(p - 1)]
    _, reached = qchain.roots._float_search(_own(q), points, multiple)
    assert reached[0] == -1
    bits = 256
    sparse, dense, bound = _corrections(q, -1 << bits, 0, bits)
    assert sparse is not None and max(map(abs, sparse)) <= bound
    rs = find_roots(q, precision_bits=256)
    assert min(abs(zr + (1 << rs.bits)) + abs(zi) for zr, zi in rs.z) <= 2


def test_handover_certifies_only_separated_points_near_roots():
    # the hand-over reads one more correction per point: at a converged
    # double phase it certifies HANDOVER_BITS or more; a point moved off its
    # root by 2^-20 caps the bits near 20; two points on one root certify none
    q = build_q(ChainParams(11, 3))
    multiple = qchain.multiple._multiple(q)
    p = q.params.p
    seeds = [cmath.rect(1.1, 2 * math.pi * (k + 0.3) / p) for k in range(p)]
    _, reached = qchain.roots._float_search(_own(q), seeds, multiple)
    correction = functools.partial(qchain.roots._correction, _own(q), multiple)
    good = qchain.roots._handover_bits(correction, reached)
    assert qchain.roots.HANDOVER_BITS <= good <= 52
    moved = [reached[0] + 2.0**-20, *reached[1:]]
    assert 17 <= qchain.roots._handover_bits(correction, moved) <= 21
    merged = [reached[1], *reached[1:]]
    assert qchain.roots._handover_bits(correction, merged) == 0


@pytest.mark.parametrize(
    "grid",
    [[(L, N) for L in (3, 5, 7, 9, 11) for N in (1, 2, 3, 4)], [(21, 4)], [(31, 6)], [(51, 8)]],
    ids=["default grid", "21-4", "31-6", "51-8"],
)
def test_handover_reads_the_nearest_other_point_from_the_sweep(grid, monkeypatch):
    # the nearest other point comes from symmetry._nearest's sweep by real
    # part, the same abs(x - y) doubles as a scan over all the others, so
    # every hand-over certifies exactly the bits the scan did
    handover = qchain.roots._handover_bits
    seen = []

    def compared(correction, points):
        good = handover(correction, points)
        seen.append((good, handover_scan_oracle(correction, points)))
        return good

    monkeypatch.setattr(qchain.roots, "_handover_bits", compared)
    for L, N in grid:
        find_roots(build_q(ChainParams(L, N)), precision_bits=256)
    assert len(seen) == len(grid)
    assert all(good == scanned for good, scanned in seen)


def test_ladder_takes_q_for_the_roots_whose_first_step_p_refuses(monkeypatch):
    # a root whose first ladder step finds P's correction refused by its
    # rounding bound takes every step on Q's own terms, at Q's margin; here
    # every root is refused, and the roots come out the same
    q = build_q(ChainParams(9, 2))
    rs = find_roots(q, precision_bits=256)
    fraction = qchain.multiple._Multiple.fraction

    def refusing(self, zr, zi, bits, check=True):
        return None if check and self.M else fraction(self, zr, zi, bits, check)

    monkeypatch.setattr(qchain.multiple._Multiple, "fraction", refusing)
    own = _recording(monkeypatch, qchain.multiple)
    dense = _recording(monkeypatch)
    refused = find_roots(q, precision_bits=256)
    up = max(0, _own_noise_bits(q) + 96 - refused.search_bits)
    assert up > 0
    assert refused.sweeps == 0 and refused.ladder == rs.ladder
    visited = _visited(rs)
    assert own == [bits + up for bits in rs.ladder for _ in range(visited)]
    assert dense == [256 + 128] * visited
    _assert_same_roots(rs, refused)


def _force_the_search_on_z(monkeypatch):
    """Patch the palindrome test to fail, so that the double phase searches on
    z as it does for a Q that is not palindromic."""
    monkeypatch.setattr(qchain.roots, "_palindromic", lambda coeffs: False)


@pytest.mark.parametrize("L,N", CONJUGATE_POINTS)
def test_search_on_u_matches_the_search_on_z(L, N, monkeypatch):
    # a chain's Q is palindromic, so the double phase searches on u = z + 1/z;
    # the search on z, forced by the palindrome test, is its oracle: the
    # stored roots agree to a few units of 2^-F and every check agrees
    q = build_q(ChainParams(L, N))
    summary = groundstate_summary(q)
    rs = find_roots(q, precision_bits=256)
    on_u = qchain.cli._root_entries(q, 256, summary)
    _force_the_search_on_z(monkeypatch)
    oracle = find_roots(q, precision_bits=256)
    on_z = qchain.cli._root_entries(q, 256, summary)
    assert (rs.search, oracle.search) == ("u = z + 1/z", "z")
    assert rs.sweeps == oracle.sweeps == 0
    _assert_same_stored_roots(rs, oracle, 4)
    assert [(c.name, c.passed) for c in on_u] == [(c.name, c.passed) for c in on_z]
    assert all(c.passed for c in on_u)
    assert "sweeps on u = z + 1/z and" in on_u[0].detail and "sweeps on z and" in on_z[0].detail


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.lists(st.integers(-20, 20), min_size=9, max_size=9), st.floats(0, 6))
def test_search_on_u_finds_every_root_of_a_palindromic_polynomial(p, half, phase):
    # Q = sum c_k z^k with c_k = c_(p-k) integers; the search on u hands over
    # p points, each within twice its hand-over reach |N| + eps of a distinct
    # root that numpy finds, for roots numpy can tell apart
    numpy = pytest.importorskip("numpy")
    half = half[: p // 2 + 1]
    assume(half[0] != 0)
    coeffs = half + half[: p + 1 - len(half)][::-1]
    assert len(coeffs) == p + 1 and qchain.roots._palindromic(coeffs)
    oracle = numpy.roots(coeffs[::-1])
    assume(all(abs(a - b) > 0.05 for i, a in enumerate(oracle) for b in oracle[i + 1 :]))
    own = qchain.multiple._own([F(c, coeffs[-1]) for c in coeffs])
    seeds = [cmath.rect(1.5, 2 * math.pi * k / p + phase) for k in range(p)]
    _, points = qchain.roots._float_search(own, seeds, None, True)
    assert points is not None and len(points) == p
    correction = functools.partial(qchain.roots._correction, own, None)
    matched = set()
    for x in points:
        n, bound = correction(x)
        distances = [abs(x - r) for r in oracle]
        nearest = min(range(p), key=distances.__getitem__)
        assert distances[nearest] <= 2 * (abs(n) + bound) + 1e-9 * max(1, abs(x))
        matched.add(nearest)
    assert len(matched) == p


def test_a_bumped_q_is_not_palindromic_and_searches_on_z():
    q = build_q(ChainParams(7, 2))
    assert qchain.roots._palindromic(q.coefficients())
    bumped = q.with_coefficient_bump(1, F(1, 3))
    assert not qchain.roots._palindromic(bumped.coefficients())
    rs = find_roots(bumped, precision_bits=256)
    assert rs.search == "z" and rs.float_sweeps > 0
    assert rs.max_poly_residual.below(F(1, 2**232))


def test_search_on_u_at_p_1_returns_minus_one_in_no_sweep():
    q = build_q(ChainParams(3, 1))
    assert qchain.roots._float_search(_own(q), [2 + 0j], None, True) == (0, [-1 + 0j])
    rs = find_roots(q, precision_bits=256)
    assert (rs.search, rs.float_sweeps, rs.sweeps) == ("u = z + 1/z", 0, 0)
    assert rs.z == ((-1 << rs.bits, 0),)


def test_a_search_on_u_that_gives_up_falls_back_to_the_search_on_z(monkeypatch):
    # a correction on u that is not finite ends the search on u in its first
    # sweep; the search on z then runs from the same seeds, as it would for a
    # Q that is not palindromic, and finds the same roots
    q = build_q(ChainParams(9, 2))
    not_finite = lambda u: (complex(math.nan), 0.0)  # noqa: E731
    monkeypatch.setattr(qchain.roots, "_on_u", lambda correction, p: not_finite)
    rs = find_roots(q, precision_bits=256)
    _force_the_search_on_z(monkeypatch)
    oracle = find_roots(q, precision_bits=256)
    assert rs.search == "z"
    assert rs.float_sweeps == 1 + oracle.float_sweeps
    assert rs.z == oracle.z
