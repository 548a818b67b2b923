"""Acceptance gate: one test per shipping criterion, each printing a
single PASS/FAIL line with its runtime.

The grid everywhere is L in {3, 5, 7, 9, 11} with N = 1..4 unless a
criterion narrows it.  All identity checks are exact (zero residual in the
cyclotomic field); only the root validator and the trigonometric
cross-check carry numeric tolerances, stated inline.
"""

import time
from fractions import Fraction

import mpmath
import pytest

from conftest import as_mpc
from qchain.cyclotomic import cyc_cos
from qchain.energy import (
    crosscheck_closed_forms,
    extract_A,
    groundstate_summary,
    verify_no_finite_size_correction,
)
from qchain.qoperator import (
    ChainParams,
    build_q,
    q_closed_form,
    q_linear_system,
    verify_structure,
    verify_tq_identity,
)
from qchain.roots import bae_residuals_by_form, find_roots, root_product_gap
from qchain.wtransform import verify_inverse_sum, w_sum

F = Fraction

GRID_L = (3, 5, 7, 9, 11)
GRID_N = (1, 2, 3, 4)

_Q_CACHE: dict = {}


def cached_q(L, N, method="closed-form"):
    key = (L, N, method)
    if key not in _Q_CACHE:
        builder = q_closed_form if method == "closed-form" else q_linear_system
        _Q_CACHE[key] = builder(ChainParams(L, N))
    return _Q_CACHE[key]


def announce(capsys, number, passed, text, elapsed):
    status = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"criterion {number}: {status} - {text} ({elapsed:.2f}s)", flush=True)


def _sqrt5():
    return cyc_cos(1, 5) * 4 - 1


def test_criterion_1_spin_half_exact_values(capsys):
    start = time.perf_counter()
    failures = []
    for N in range(1, 7):
        summary = groundstate_summary(cached_q(3, N))
        if summary.E1 != F(1, 2) + F(N, 2):
            failures.append(f"root sum off at N={N}")
        if summary.energy != -(2 * N + 1):
            failures.append(f"energy off at N={N}")
    elapsed = time.perf_counter() - start
    passed = not failures and elapsed < 1.0
    announce(capsys, 1, passed, "spin-1/2 chain: root sum (1+N)/2, energy -M, exact", elapsed)
    assert not failures, failures
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_criterion_2_spin_three_half_exact_values(capsys):
    start = time.perf_counter()
    sqrt5 = _sqrt5()
    intercept = (sqrt5 + 1) / 2
    slope = (sqrt5 * 5 + 3) / 4
    density = (sqrt5 + 3) / -2
    failures = []
    for N in range(1, 6):
        summary = groundstate_summary(cached_q(5, N))
        if summary.E1 != intercept + slope * N:
            failures.append(f"root sum off at N={N}")
        if summary.energy != density * (2 * N + 1):
            failures.append(f"energy off at N={N}")
    elapsed = time.perf_counter() - start
    passed = not failures and elapsed < 5.0
    announce(
        capsys, 2, passed, "spin-3/2 chain: golden-ratio root sum and energy, exact", elapsed
    )
    assert not failures, failures
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_criterion_3_construction_routes_agree(capsys):
    start = time.perf_counter()
    failures = []
    for L in GRID_L:
        for N in GRID_N:
            if cached_q(L, N, "closed-form").e != cached_q(L, N, "linear-system").e:
                failures.append(f"L={L} N={N}")
    elapsed = time.perf_counter() - start
    passed = not failures and elapsed < 60.0
    announce(
        capsys, 3, passed, "product formula and recurrence rows build identical Q", elapsed
    )
    assert not failures, failures
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"


def test_criterion_4_three_term_identity(capsys):
    start = time.perf_counter()
    failures = []
    for L in GRID_L:
        for N in GRID_N:
            result = verify_tq_identity(cached_q(L, N))
            if not result.passed:
                failures.append(result.line())
    elapsed = time.perf_counter() - start
    announce(
        capsys,
        4,
        not failures,
        "three-term functional identity vanishes exactly on the grid",
        elapsed,
    )
    assert not failures, failures


def test_criterion_5_structural_identities(capsys):
    start = time.perf_counter()
    failures = []
    for L in GRID_L:
        for N in GRID_N:
            q = cached_q(L, N)
            structure = verify_structure(q)
            if not structure.passed:
                failures.append(structure.line())
            e1 = w_sum(q)
            if not e1.is_real():
                failures.append(f"root sum not real at L={L} N={N}")
            inverse = verify_inverse_sum(q, e1)
            if not inverse.passed:
                failures.append(inverse.line())
    elapsed = time.perf_counter() - start
    announce(
        capsys,
        5,
        not failures,
        "normalization, palindrome, real root sum, inverse-sum identity",
        elapsed,
    )
    assert not failures, failures


def test_criterion_6_no_finite_size_correction(capsys):
    start = time.perf_counter()
    failures = []
    for L in GRID_L:
        summaries = [groundstate_summary(cached_q(L, N)) for N in GRID_N]
        constant = extract_A(summaries)  # raises if the N=1,2 fit violates the slope law
        for N, summary in zip(GRID_N, summaries):
            if summary.E1 != constant.A + constant.slope * N:
                failures.append(f"extrapolation misses at L={L} N={N}")
        entries = verify_no_finite_size_correction(summaries, constant, max(GRID_N))
        failures.extend(e.line() for e in entries if not e.passed)
        e1_values = [summary.E1 for summary in summaries]
        diffs = {tuple((e1_values[i + 1] - e1_values[i]).coeffs) for i in range(3)}
        if len(diffs) != 1:
            failures.append(f"first differences not constant at L={L}")
    elapsed = time.perf_counter() - start
    announce(
        capsys,
        6,
        not failures,
        "two smallest chains determine every larger N; energy density size-free",
        elapsed,
    )
    assert not failures, failures


def test_criterion_7_published_trig_forms(capsys):
    start = time.perf_counter()
    failures = []
    for L in (7, 9, 11):
        summaries = [groundstate_summary(cached_q(L, N)) for N in (1, 2)]
        for entry in crosscheck_closed_forms(summaries, precision_bits=256):
            if not entry.passed:
                failures.append(entry.line())
    elapsed = time.perf_counter() - start
    passed = not failures and elapsed < 30.0
    announce(
        capsys,
        7,
        passed,
        "root sums match printed trigonometric forms within 2^-180 at 256 bits",
        elapsed,
    )
    assert not failures, failures
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"


def test_criterion_8_numeric_root_validator(capsys):
    start = time.perf_counter()
    bits = 256
    poly_bound = mpmath.mpf(2) ** -232
    pair_bound = mpmath.mpf(2) ** -216
    failures = []
    for L in GRID_L:
        for N in GRID_N:
            q = cached_q(L, N)
            rs = find_roots(q, precision_bits=bits)
            if len(rs.z) != q.params.p:
                failures.append(f"missing roots at L={L} N={N}")
            if not rs.max_poly_residual.below(poly_bound):
                failures.append(
                    f"|Q(z_j)| = {mpmath.nstr(rs.max_poly_residual.value, 5)} at L={L} N={N}"
                )
            forms = bae_residuals_by_form(rs)
            if not (forms["z"].below(pair_bound) and forms["w"].below(pair_bound)):
                failures.append(f"pair equations at L={L} N={N}: {forms}")
            with mpmath.workprec(bits + 64):
                gap = abs(mpmath.fsum(as_mpc(rs.w, rs.bits)) - w_sum(q).embed(bits + 64))
            if not gap < pair_bound:
                failures.append(f"root sum gap {mpmath.nstr(gap, 5)} at L={L} N={N}")
            if not root_product_gap(rs).below(pair_bound):
                failures.append(f"root product at L={L} N={N}")
    elapsed = time.perf_counter() - start
    passed = not failures and elapsed < 120.0
    announce(
        capsys,
        8,
        passed,
        "roots at 256 bits: |Q| < 2^-232, pair equations and sums < 2^-216",
        elapsed,
    )
    assert not failures, failures
    assert elapsed < 120.0, f"took {elapsed:.2f}s, budget 2min"


def test_criterion_9_falsification_sensitivity(capsys):
    start = time.perf_counter()
    failures = []
    q51 = cached_q(5, 1)
    for k in range(q51.params.p + 1):
        for delta in (F(1), F(-1, 7), F(1, 2**20)):
            bumped = q51.with_coefficient_bump(k, delta)
            if verify_tq_identity(bumped).passed:
                failures.append(f"identity survived bump e_{k} += {delta}")
    floor = mpmath.mpf(2) ** -64
    for L, N in ((3, 2), (5, 1)):
        bumped = cached_q(L, N).with_coefficient_bump(1, F(1, 1024))
        rs = find_roots(bumped, precision_bits=256)
        if not max(m.value for m in bae_residuals_by_form(rs).values()) > floor:
            failures.append(f"pair equations accepted bumped Q at L={L} N={N}")
    elapsed = time.perf_counter() - start
    announce(
        capsys,
        9,
        not failures,
        "every single-coefficient bump is caught, exactly and numerically",
        elapsed,
    )
    assert not failures, failures
