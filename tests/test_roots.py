"""Arbitrary-precision root localisation and the nonlinear residuals.

The quadratic (3,2) chain is the main oracle: its roots are
(-11 +- sqrt 21)/10, small enough to verify against mpmath.sqrt directly.
"""

import cmath
import math
from fractions import Fraction

import mpmath
import pytest

import qchain.cli
import qchain.roots
from conftest import (
    as_mpc,
    bae_oracle,
    inversion_oracle,
    moebius_oracle,
    poly_residual_oracle,
    product_oracle,
)
from qchain.cli import main
from qchain.energy import groundstate_summary
from qchain.fixedpoint import _to_fixed
from qchain.qoperator import ChainParams, build_q
from qchain.report import measured as _measured_entry
from qchain.roots import (
    ConvergenceError,
    Measured,
    RootSet,
    bae_residuals_by_form,
    find_roots,
    inversion_closure_gap,
    numeric_cross_check,
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
        assert rs.max_poly_residual.below(mpmath.mpf(2) ** -232)
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


def _pole(L, bits):
    """a = exp(-2 pi i / L) at 2^-(bits + 64), as find_roots makes it."""
    with mpmath.workprec(bits + 64):
        return _to_fixed(mpmath.expjpi(mpmath.mpf(-2) / L), bits + 64)


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
        assert by_form["z"].below(mpmath.mpf(2) ** -216)
        assert by_form["w"].below(mpmath.mpf(2) ** -216)


def test_bae_rejects_perturbed_roots():
    rs = find_roots(build_q(ChainParams(3, 2)), precision_bits=256)
    bad = _hand_built(rs, [(zr + (1 << rs.bits - 20), zi) for zr, zi in rs.z])
    assert max(m.value for m in bae_residuals_by_form(bad).values()) > mpmath.mpf(2) ** -64


def test_bae_rejects_wrong_polynomial():
    q = build_q(ChainParams(5, 1)).with_coefficient_bump(1, F(1, 1024))
    rs = find_roots(q, precision_bits=256)
    # roots of the bumped polynomial satisfy it, but not the pair equations
    assert rs.max_poly_residual.below(mpmath.mpf(2) ** -232)
    assert max(m.value for m in bae_residuals_by_form(rs).values()) > mpmath.mpf(2) ** -64


def test_product_and_inversion_closure():
    for L, N in ((3, 2), (5, 2), (7, 1)):
        rs = find_roots(build_q(ChainParams(L, N)), precision_bits=256)
        assert root_product_gap(rs).below(mpmath.mpf(2) ** -216)
        assert inversion_closure_gap(rs).below(mpmath.mpf(2) ** -216)


def test_numeric_cross_check_against_exact_sum():
    for L, N in ((3, 2), (5, 1), (7, 1)):
        q = build_q(ChainParams(L, N))
        rs = find_roots(q, precision_bits=256)
        assert numeric_cross_check(rs, w_sum(q)) < mpmath.mpf(2) ** -(256 - 40)


def test_precision_floor_enforced():
    with pytest.raises(ValueError):
        find_roots(build_q(ChainParams(3, 1)), precision_bits=64)


def test_large_grid_point_converges():
    # deepest point of the acceptance grid; p = 40 coefficients up to ~2^37
    q = build_q(ChainParams(11, 4))
    rs = find_roots(q, precision_bits=192)
    assert len(rs.z) == 40
    assert rs.max_poly_residual.below(mpmath.mpf(2) ** -168)


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


# Sweep counts of the search, (float, fixed point at noise_bits + bitlen(p) + 96
# bits); the measurements must not change the roots they measure.
SWEEPS = {(3, 2): (5, 2), (5, 3): (7, 2), (7, 2): (9, 2), (9, 2): (8, 2), (11, 4): (13, 2)}


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
    with mpmath.workprec(work):
        for measured, exact in pairs:
            assert 0 < measured.bound < mpmath.mpf(2) ** -300
            assert abs(measured.value - exact) <= measured.bound, (L, N)


@pytest.mark.parametrize("L,N", [(21, 4), (11, 8)])
def test_root_measurements_keep_64_bits_under_their_tolerances(L, N, monkeypatch):
    # each root residual plus its rounding bound, at the scale the roots are
    # stored at, sits at least 2^64 below the tolerance verify gives it, so a
    # scale lowered too far fails here before it fails a user's check
    seen = []

    def recording(builder):
        def record(name, where, found, tolerance, *rest):
            values = found if isinstance(found, list) else [Measured(found, mpmath.mpf(0))]
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
        assert m.value + m.bound < tolerance * mpmath.mpf(2) ** -64, name


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
    tolerance = mpmath.mpf(2) ** -(256 - 40)
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
    tolerance = mpmath.mpf(2) ** -216
    small = mpmath.mpf(2) ** -220
    assert Measured(small, mpmath.mpf(2) ** -230).below(tolerance)
    assert not Measured(small, mpmath.mpf(2) ** -216).below(tolerance)
    assert not Measured(small, mpmath.inf).below(tolerance)
    # the CLI entry reads the same decision, and reports value and bound
    entry = _measured_entry("bae", {"L": 3, "N": 2}, [Measured(small, tolerance)], tolerance)
    assert not entry.passed
    assert entry.residual == "5.9347298e-67 (rounding bound 9.5e-66)"


def test_measurements_do_no_mpmath_arithmetic_per_root(monkeypatch):
    # mpmath may compute the constants of the Bethe forms, never per root:
    # the number of mpf/mpc operator calls must not grow with p
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
        calls.clear()
        fn(*args)
        return len(calls)

    qs = [build_q(ChainParams(11, N)) for N in (1, 4)]
    small, large = (find_roots(q, precision_bits=256) for q in qs)
    assert count(root_product_gap, large) == 0
    assert count(inversion_closure_gap, large) == 0
    assert count(bae_residuals_by_form, small) == count(bae_residuals_by_form, large)
    # the root sum embeds E1, whose length does not depend on p
    e1_small, e1_large = (w_sum(q) for q in qs)
    on_small = count(numeric_cross_check, small, e1_small)
    assert on_small == count(numeric_cross_check, large, e1_large)


def _recording_horner(monkeypatch):
    """Patch the Horner routine to record the precision of every call."""
    calls = []
    horner = qchain.roots._horner

    def recording(coeffs, zr, zi, bits):
        calls.append(bits)
        return horner(coeffs, zr, zi, bits)

    monkeypatch.setattr(qchain.roots, "_horner", recording)
    return calls


def test_search_runs_at_the_noise_derived_precision(monkeypatch):
    q = build_q(ChainParams(21, 4))
    p = q.params.p
    coeffs = q.coefficients()
    cauchy = 1 + max(abs(c / coeffs[-1]) for c in coeffs[:-1])
    noise_bits = math.floor(math.log2(cauchy)) + 1
    calls = _recording_horner(monkeypatch)
    rs = find_roots(q, precision_bits=256)
    assert rs.search_bits == noise_bits + p.bit_length() + 96 < 128 + 2 * p
    assert calls[: rs.sweeps * p] == [rs.search_bits] * (rs.sweeps * p)
    assert rs.max_poly_residual.below(mpmath.mpf(2) ** -232)


def test_newton_ladder_ends_at_exactly_polish_bits(monkeypatch):
    q = build_q(ChainParams(11, 4))
    p = q.params.p
    F = 256 + 128
    calls = _recording_horner(monkeypatch)
    rs = find_roots(q, precision_bits=256)
    # p roots per search sweep, per ladder step and in the residual pass
    runs = calls[::p]
    assert calls == [bits for bits in runs for _ in range(p)]
    # the ladder ends at F + margin; the residual pass runs at F on the stored roots
    margin = rs.search_bits - 72
    assert runs == [rs.search_bits] * rs.sweeps + list(rs.ladder) + [F]
    assert rs.ladder[-1] == F + margin
    # the good bits (precision less the search's margin) at most double per step
    good = [bits - margin for bits in rs.ladder]
    assert len(good) > 1 and 72 < good[0] <= 2 * 72
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


def _monic(q):
    return [c / q.coefficients()[-1] for c in q.coefficients()]


def test_float_search_gives_up_without_raising():
    q = build_q(ChainParams(7, 2))
    p = q.params.p
    points = [cmath.rect(2, 2 * math.pi * k / p) for k in range(p)]
    search = qchain.roots._float_search
    assert search(_monic(q), points)[1] is not None
    # a zero pair difference: two points the same
    assert search(_monic(q), [points[0], *points[:-1]]) == (1, None)
    # a point that is not finite
    assert search(_monic(q), [complex(math.inf, 0), *points[1:]]) == (0, None)


def test_coefficients_beyond_float_range_keep_the_seeds():
    # the bump of verify --tamper 1:1<400 zeros> at (3, 2); see test_cli
    q = build_q(ChainParams(3, 2)).with_coefficient_bump(1, F(10**400))
    assert qchain.roots._float_search(_monic(q), [1j, -1j]) == (0, None)
    rs = find_roots(q, precision_bits=256)
    assert rs.float_sweeps == 0 and rs.sweeps > 0


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

    def perturbed(monic, points):
        sweeps, reached = search(monic, points)
        return sweeps, [z * complex(1.2, 0.2) + 0.1 for z in reached]

    monkeypatch.setattr(qchain.roots, "_float_search", perturbed)
    bad = find_roots(q, precision_bits=256)
    assert bad.float_sweeps == rs.float_sweeps and bad.sweeps > rs.sweeps
    _assert_same_roots(rs, bad)
