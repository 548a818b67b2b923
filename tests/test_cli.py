"""Command-line interface, exercised in process through main(argv)."""

import json
import os
import pickle
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from qchain import cli
from qchain.cli import main
from qchain.linalg import SingularMatrixError
from qchain.qoperator import (
    ChainParams,
    QPolynomial,
    _times_one_plus_x,
    q_closed_form,
    q_linear_system,
)
from qchain.energy import extract_A, groundstate_summary
from qchain.report import FalsificationError
from qchain.wtransform import w_sum
from qchain.cyclotomic import CyclotomicNumber
from qchain.rationals import integer_scaled, parse_rational
from qchain.roots import ConvergenceError

SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- compute -----------------------------------------------------------------


def test_compute_json_smallest_chain(capsys):
    code, out, err = run(["compute", "--L", "3", "--N-max", "1"], capsys)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["meta"]["resolved_sum_range"] == "p"
    assert payload["meta"]["precision_bits"] == 256
    (record,) = payload["runs"]
    assert record["L"] == 3 and record["N"] == 1
    assert record["M"] == 3 and record["p"] == 1
    assert record["e"] == ["1/1", "-1/1"]
    assert CyclotomicNumber.from_dict(record["energy"]) == -3
    assert CyclotomicNumber.from_dict(record["E1"]) == 1
    assert CyclotomicNumber.from_dict(record["A"]) == Fraction(1, 2)


def test_compute_json_exact_fields_reproduce_approx(tmp_path, capsys):
    out_file = tmp_path / "runs.json"
    code, _, err = run(
        ["compute", "--L", "5", "--N-max", "2", "--output", str(out_file)], capsys
    )
    assert code == 0, err
    payload = json.loads(out_file.read_text())
    bits = payload["meta"]["precision_bits"]
    for record in payload["runs"]:
        for field in ("E1", "energy", "energy_per_site", "A", "slope"):
            stored = record[field]
            rebuilt = CyclotomicNumber.from_dict(stored)
            assert rebuilt.to_dict(bits)["approx"] == stored["approx"]


def test_compute_json_e_rebuilds_q(capsys):
    # the e strings are Q in lowest terms: over their common denominator they
    # are the stored numerators, and they rebuild a Q equal to both routes
    code, out, err = run(["compute", "--L", "3,5,11", "--N-max", "3", "--method", "both"], capsys)
    assert code == 0, err
    records = json.loads(out)["runs"]
    assert len(records) == 9
    for record in records:
        params = ChainParams(record["L"], record["N"])
        den, nums = integer_scaled(parse_rational(text) for text in record["e"])
        rebuilt = QPolynomial(params, tuple(nums), den)
        assert rebuilt == q_closed_form(params) == q_linear_system(params)
        assert (rebuilt.nums, rebuilt.den) == (tuple(nums), den)


def test_compute_csv(capsys):
    code, out, err = run(
        ["compute", "--L", "3", "--N-max", "2", "--format", "csv"], capsys
    )
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0].startswith("# decimal values derived from exact fields at 256")
    assert lines[1] == "L,N,M,p,E1,energy,energy_per_site,A,slope"
    assert len(lines) == 4
    first = lines[2].split(",")
    assert first[:4] == ["3", "1", "3", "1"]
    assert float(first[5]) == -3.0


def test_compute_rejects_even_L(capsys):
    code, _, err = run(["compute", "--L", "4"], capsys)
    assert code == 2
    assert "odd" in err


def test_compute_rejects_bad_N(capsys):
    code, _, err = run(["compute", "--L", "3", "--N-max", "0"], capsys)
    assert code == 2
    assert "N-max" in err


def test_precision_floor(monkeypatch, capsys):
    code, _, err = run(
        ["compute", "--L", "3", "--N-max", "1", "--precision-bits", "64"], capsys
    )
    assert code == 2
    assert "128" in err


def test_jobs_capped_at_task_count(monkeypatch, capsys):
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    argv = ["--L", "3", "--N-max", "2", "--jobs", "64"]
    assert run(["verify", *argv, "--checks", "structure"], capsys)[0] == 0
    assert run(["compute", *argv], capsys)[0] == 0
    assert started == [2, 2]


def test_process_pool_is_imported_only_when_used():
    code = "import sys, qchain.cli; sys.exit('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_compute_never_loads_the_root_validator():
    # run as `python -m qchain.cli`, compute imports neither the root
    # validator nor csv (JSON output); verify loads the validator for its
    # root checks.  -X importtime lists every module a process imports.
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def imported(*argv):
        command = [sys.executable, "-X", "importtime", "-m", "qchain.cli", *argv, "--L", "3"]
        done = subprocess.run(command, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}

    compute = imported("compute", "--N-max", "2")
    assert "qchain.cyclotomic" in compute and "json" in compute
    assert not {"qchain.roots", "qchain.multiple", "csv"} & compute
    assert "qchain.roots" in imported("verify", "--N-max", "1", "--checks", "roots")


def test_jobs_do_not_change_output(tmp_path, capsys):
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    args = ["compute", "--L", "3,5", "--N-max", "2"]
    assert run(args + ["--output", str(serial)], capsys)[0] == 0
    assert run(args + ["--jobs", "2", "--output", str(parallel)], capsys)[0] == 0
    assert serial.read_text() == parallel.read_text()


# -- verify ------------------------------------------------------------------


def test_verify_small_grid_passes(capsys):
    code, out, _ = run(
        ["verify", "--L", "3,5", "--N-max", "2", "--precision-bits", "192"], capsys
    )
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out
    for token in ("cross-method", "structure", "tq", "bae", "finite-size"):
        assert f"PASS {token}" in out


def test_verify_report_file(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, _, _ = run(
        [
            "verify",
            "--L",
            "3",
            "--N-max",
            "2",
            "--precision-bits",
            "192",
            "--checks",
            "structure,tq",
            "--output",
            str(report_path),
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["meta"]["method"] == "both"
    assert report["summary"]["failed"] == 0
    names = {entry["check"] for entry in report["entries"]}
    assert {"cross-method", "structure", "inverse-sum", "tq"} <= names
    assert "roots" not in names


def test_verify_with_no_applicable_check_is_an_error(tmp_path, capsys):
    # closed forms exist only for L = 7, 9, 11, so nothing would be checked
    report_path = tmp_path / "report.json"
    argv = ["verify", "--L", "3,5", "--N-max", "2", "--method", "closed-form"]
    code, out, err = run(argv + ["--checks", "closed-forms", "--output", str(report_path)], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: no selected check applies to this grid\n"
    assert not report_path.exists()


def test_verify_tamper_is_detected(capsys):
    code, out, _ = run(
        [
            "verify",
            "--L",
            "5",
            "--N-max",
            "1",
            "--precision-bits",
            "192",
            "--tamper",
            "1:1/3",
            "--checks",
            "structure,tq",
        ],
        capsys,
    )
    assert code == 1
    assert "FAIL tq" in out
    assert "FAIL structure" in out
    assert "FAILED" in out


def test_verify_tamper_breaks_bae(capsys):
    code, out, _ = run(
        [
            "verify",
            "--L",
            "5",
            "--N-max",
            "1",
            "--precision-bits",
            "192",
            "--tamper",
            "1:1/1024",
            "--checks",
            "roots",
        ],
        capsys,
    )
    assert code == 1
    assert "FAIL bae" in out


def test_root_sum_failure_is_reported_as_root_sum(capsys):
    # e_1 -> e_1 + 2 puts the (3,1) root on the Moebius pole: w_sum fails,
    # while the root search itself succeeds
    code, out, _ = run(
        ["verify", "--L", "3", "--N-max", "1", "--tamper", "1:2", "--checks", "roots"],
        capsys,
    )
    assert code == 1
    lines = out.splitlines()
    assert [line for line in lines if line.split()[1] == "roots"] == [
        "PASS roots L=3 N=1"
    ]
    (root_sum,) = [line for line in lines if " root-sum " in line]
    assert root_sum.startswith("FAIL root-sum L=3 N=1 [ZeroDivisionError: ")


def test_huge_tamper_delta_is_a_finding(capsys):
    # a 400-digit bump overflows a float; the roots checks must still report
    delta = "1" + "0" * 400
    code, out, err = run(
        ["verify", "--L", "3", "--N-max", "2", "--tamper", f"1:{delta}", "--checks", "roots"],
        capsys,
    )
    assert code == 1, err
    assert "internal error" not in err
    lines = out.splitlines()
    failed = {line.split()[1] for line in lines if line.startswith("FAIL ")}
    assert {"root-product", "root-inversion", "root-sum"} <= failed
    # at N = 2 the two roots coincide at the working scale: the Bethe check
    # raises, and the finding carries its name, not a second roots line
    assert "FAIL bae L=3 N=2 [ValueError: roots 0 and 1 coincide]" in lines
    # every root measurement reports on its own, so root-sum survives the raise
    for check in ("roots", "root-product", "root-inversion", "bae", "root-sum"):
        for N in (1, 2):
            assert sum(line.split()[1:4] == [check, "L=3", f"N={N}"] for line in lines) == 1
    assert any(line.startswith("FAIL root-sum L=3 N=2 ") for line in lines)
    # at N = 2 find_roots stores both roots of the bumped Q as exactly 0,
    # after 37 fixed-point sweeps; the roots check passes only because its
    # tolerance 2^-232 (1 + max |c_k|), about 10^330 here, admits |Q(0)| = 1,
    # a false PASS; every other root check fails at both points
    assert "PASS roots L=3 N=2" in lines
    assert lines[-1] == "8 of 12 checks FAILED"


def _failing_linear_system(params):
    raise SingularMatrixError(2, 3)


@pytest.mark.parametrize(
    "argv, patched",
    [
        ([], False),
        (["--tamper", "1:1/3"], False),
        (["--L", "3,5", "--N-max", "2"], True),
    ],
)
def test_verify_reports_checks_in_table_order(argv, patched, monkeypatch, capsys):
    if patched:
        monkeypatch.setattr("qchain.cli.q_linear_system", _failing_linear_system)
    code, out, err = run(["verify", *argv], capsys)
    assert code in (0, 1), err
    names = [line.split()[1] for line in out.splitlines()[:-1]]
    assert set(names) <= set(cli.CHECKS)
    order = list(cli.CHECKS)
    assert [order.index(name) for name in names] == sorted(order.index(name) for name in names)


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--L", "3", "--N-max", "1"],
        ["verify", "--L", "3", "--N-max", "1", "--checks", "structure"],
    ],
)
def test_unwritable_output_is_a_configuration_error(argv, tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run([*argv, "--output", str(target)], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot write --output {target}: ")
    assert "internal error" not in err
    if argv[0] == "verify":
        assert "PASS structure L=3 N=1" in out  # the check lines still come first
    assert not target.parent.exists()


def test_verify_check_selection_and_alias(capsys):
    code, out, _ = run(
        ["verify", "--L", "7", "--N-max", "2", "--checks", "section4"], capsys
    )
    assert code == 0
    assert "closed-forms" in out
    assert "PASS tq" not in out


def test_verify_unknown_check(capsys):
    code, _, err = run(["verify", "--L", "3", "--checks", "vibes"], capsys)
    assert code == 2
    assert "unknown check" in err


def test_verify_bad_tamper_argument(capsys):
    code, _, err = run(["verify", "--L", "3", "--tamper", "nonsense"], capsys)
    assert code == 2
    assert "tamper" in err
    # an index outside 0..p of the smallest point (p = 1 at L = 3, N = 1)
    # is a bad configuration, not an internal error
    for bad in ("99:1", "-1:1", "2:1/3"):
        argv = ["verify", "--L", "3,5", "--N-max", "2", f"--tamper={bad}"]
        code, _, err = run(argv, capsys)
        assert code == 2, err
        assert err.startswith("error: --tamper index") and "0..1" in err


def test_verify_jobs_match_serial(capsys):
    # all checks, so the per-L ones read summaries pickled back from workers
    args = ["verify", "--L", "3,7", "--N-max", "2", "--precision-bits", "192"]
    code_a, out_a, _ = run(args, capsys)
    code_b, out_b, _ = run(args + ["--jobs", "2"], capsys)
    assert (code_a, out_a) == (code_b, out_b)
    assert "PASS closed-forms L=7 N=2" in out_a


def _count_calls(monkeypatch, functions):
    """Count calls per (function, L, N), wrapping every qchain reference to each."""
    counts = Counter()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "qchain"]
    for original in functions:

        def counted(first, *args, _fn=original, **kwargs):
            params = getattr(first, "params", first)
            counts[_fn.__name__, params.L, params.N] += 1
            return _fn(first, *args, **kwargs)

        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--L", "3,5", "--N-max", "2", "--precision-bits", "192"],
        ["compute", "--L", "3,5", "--N-max", "2", "--method", "both"],
    ],
)
def test_each_point_built_and_summed_once(argv, monkeypatch, capsys):
    functions = (q_closed_form, q_linear_system, w_sum)
    counts = _count_calls(monkeypatch, functions)
    code, _, err = run(argv, capsys)
    assert code == 0, err
    expected = {
        (fn.__name__, L, N): 1 for fn in functions for L in (3, 5) for N in (1, 2)
    }
    assert dict(counts) == expected


@pytest.mark.parametrize("tamper, products", [([], 1), (["--tamper", "1:1/3"], 2)])
def test_one_plus_x_product_formed_once_per_untampered_point(tamper, products, capsys):
    # route two's acceptance test forms (1+x)^M E(x) on Q's reduced numerators;
    # tq and the root search's multiple read it back when Q's integers are the
    # same, and a bumped Q gets a product of its own
    _times_one_plus_x.cache_clear()
    argv = ["verify", "--L", "3,5,7", "--N-max", "2", "--checks", "tq,roots", *tamper]
    code, _, err = run(argv, capsys)
    assert code == (1 if tamper else 0), err
    info = _times_one_plus_x.cache_info()
    assert (info.misses, info.hits) == (6 * products, 6 * (3 - products))


def test_per_L_checks_need_N2_even_at_N_max_1(capsys):
    code, out, _ = run(
        ["verify", "--L", "7", "--N-max", "1", "--checks", "linearity,finite-size,closed-forms"],
        capsys,
    )
    assert code == 0
    assert out.splitlines() == [
        "PASS cross-method L=7 N=1",
        "PASS linearity L=7 N=1",
        "PASS finite-size L=7 N=1",
        "PASS closed-forms L=7 N=1",
        "PASS closed-forms L=7 N=2",
        "all 5 checks passed",
    ]
    code, out, _ = run(["compute", "--L", "3", "--N-max", "1"], capsys)
    assert code == 0
    (record,) = json.loads(out)["runs"]
    assert CyclotomicNumber.from_dict(record["A"]) == Fraction(1, 2)
    assert CyclotomicNumber.from_dict(record["slope"]) == Fraction(1, 2)


def test_disagreeing_routes_fail_verify_and_stop_compute(monkeypatch, capsys):
    def bumped_linear_system(params):
        return q_linear_system(params).with_coefficient_bump(1, Fraction(1, 3))

    monkeypatch.setattr("qchain.qoperator.q_linear_system", bumped_linear_system)
    monkeypatch.setattr("qchain.cli.q_linear_system", bumped_linear_system)
    grid = ["--L", "3", "--N-max", "1"]
    code, out, _ = run(["verify", *grid], capsys)
    assert code == 1
    assert out.splitlines()[0] == "FAIL cross-method L=3 N=1 [construction routes disagree]"
    for command in ("compute", "table"):
        code, out, err = run([command, *grid, "--method", "both"], capsys)
        assert code == 3
        assert out == ""
        assert err == "internal error: construction routes disagree at L=3 N=1\n"


@pytest.mark.parametrize(
    "error",
    [
        AssertionError("division by (1+x) leaves a remainder"),
        ArithmeticError("inexact division"),
        SingularMatrixError(2, 3),
    ],
)
def test_failing_route_two_is_a_cross_method_finding(error, monkeypatch, capsys):
    def failing_linear_system(params):
        raise error

    monkeypatch.setattr("qchain.cli.q_linear_system", failing_linear_system)
    code, out, _ = run(["verify", "--L", "3,5", "--N-max", "2"], capsys)
    assert code == 1
    lines = out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    witness = f"[{type(error).__name__}: {error}]"
    assert failed == [f"FAIL cross-method L={L} N={N} {witness}" for L in (3, 5) for N in (1, 2)]
    passed = [line for line in lines if line.startswith("PASS")]
    assert passed and len(passed) + len(failed) == len(lines) - 1
    assert lines[-1] == f"{len(failed)} of {len(lines) - 1} checks FAILED"
    # compute and table still stop on a route failure, and print its witness,
    # the error's type named once, with its point
    for command in ("compute", "table"):
        code, out, err = run([command, "--L", "3", "--N-max", "1", "--method", "both"], capsys)
        assert code == 3
        assert out == ""
        assert err == f"internal error: {witness[1:-1]} at L=3 N=1\n"


@pytest.mark.parametrize("error", [SingularMatrixError(2, 3), ConvergenceError(200, "0.125")])
def test_route_errors_round_trip_through_pickle(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error) and copy.args == error.args
    assert vars(copy) == vars(error)


def test_failing_route_point_round_trips_through_pickle(monkeypatch):
    # a worker's result is pickled back, the failing route's error included
    monkeypatch.setattr("qchain.cli.q_linear_system", _failing_linear_system)
    found = cli._point((3, 1, "linear-system", 256, ("structure",), None))
    q, entries, summary = pickle.loads(pickle.dumps(found))
    assert q is None
    assert entries == found[1] == [
        cli._finding("construction", {"L": 3, "N": 1}, SingularMatrixError(2, 3))
    ]
    assert entries[0].detail == "SingularMatrixError: singular system: rank 2 < size 3"
    assert type(summary) is SingularMatrixError and vars(summary) == {"rank": 2, "size": 3}


def test_inexact_closed_form_division_is_a_construction_finding(monkeypatch, capsys):
    # route one's synthetic divisions by z - 1 check each remainder: a numerator
    # whose constant term is off by one leaves a(1) = 1 at the first division
    def off_by_one(values):
        scale, numerator = integer_scaled(values)
        return scale, [numerator[0] + 1, *numerator[1:]]

    monkeypatch.setattr("qchain.qoperator.integer_scaled", off_by_one)
    with pytest.raises(ArithmeticError, match=r"^inexact division: nonzero remainder \[1\]$"):
        q_closed_form(ChainParams(5, 2))
    code, out, err = run(["verify", "--L", "3", "--N-max", "1", "--method", "closed-form"], capsys)
    assert code == 1, err
    witness = "[ArithmeticError: inexact division: nonzero remainder [1]]"
    assert out.splitlines()[0] == f"FAIL construction L=3 N=1 {witness}"


@pytest.mark.parametrize(
    "method,route",
    [
        ("both", "q_closed_form"),
        ("closed-form", "q_closed_form"),
        ("linear-system", "q_linear_system"),
    ],
)
def test_failing_primary_route_is_a_construction_finding(method, route, monkeypatch, capsys):
    built = {"q_closed_form": q_closed_form, "q_linear_system": q_linear_system}[route]

    def failing_at_L5(params):
        if params.L == 5:
            raise AssertionError("quotient is not monic")
        return built(params)

    monkeypatch.setattr(f"qchain.cli.{route}", failing_at_L5)
    grid = ["--L", "3,5", "--N-max", "2", "--method", method]
    code, out, err = run(["verify", *grid], capsys)
    assert code == 1, err
    assert "internal error" not in err
    lines = out.splitlines()
    witness = "[AssertionError: quotient is not monic]"
    # the failed points run no other check; their L's checks fail with the witness
    assert [line for line in lines if "L=5" in line] == [
        f"FAIL construction L=5 N=1 {witness}",
        f"FAIL construction L=5 N=2 {witness}",
        f"FAIL linearity L=5 {witness}",
        f"FAIL finite-size L=5 {witness}",
    ]
    assert all(line.startswith("PASS ") for line in lines[:-1] if "L=3" in line)
    assert lines[-1] == f"4 of {len(lines) - 1} checks FAILED"
    # compute and table still stop on a route failure
    for command in ("compute", "table"):
        code, out, err = run([command, *grid], capsys)
        assert code == 3
        assert out == ""
        # the route's own error, named once and with its point
        assert err == f"internal error: {witness[1:-1]} at L=5 N=1\n"


def test_roots_detail_reports_search_and_ladder_bits(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    argv = ["verify", "--L", "3", "--N-max", "2", "--checks", "roots"]
    code, out, _ = run([*argv, "--output", str(report_path)], capsys)
    assert code == 0
    assert "PASS roots L=3 N=2\n" in out
    (entry,) = [e for e in json.loads(report_path.read_text())["entries"]
                if e["check"] == "roots" and e["params"] == {"L": 3, "N": 2}]
    # p = 2: the double phase, on u = z + 1/z, hands over on Q's own terms,
    # the ladder ends at F + margin = 384 + 31 bits, the roots are stored at F
    assert entry["detail"] == (
        "2 float sweeps on u = z + 1/z and 0 fixed-point sweeps, search 103 bits, "
        "polish 79/127/223/415 bits, stored at 384 bits"
    )


def test_stored_w_sum_failure_stays_out_of_unselected_checks(capsys):
    # e_1 -> e_1 + 2 puts the (3,1) root on the Moebius pole, so its summary
    # is a stored ZeroDivisionError that only checks reading E1 may report
    argv = ["verify", "--L", "3", "--tamper", "1:2"]
    code, out, _ = run([*argv, "--N-max", "1", "--checks", "tq"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "PASS cross-method L=3 N=1"
    assert lines[1].startswith("FAIL tq L=3 N=1 [")
    assert lines[2:] == ["1 of 2 checks FAILED"]
    code, out, _ = run([*argv, "--N-max", "2", "--checks", "tq,linearity"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert {line.split()[1] for line in lines[:-1]} == {"cross-method", "tq", "linearity"}
    (linearity,) = [line for line in lines if " linearity " in line]
    assert linearity.startswith("FAIL linearity L=3 [ZeroDivisionError: ")


@pytest.mark.parametrize(
    "error, witness",
    [(FalsificationError("x"), "[x]"), (ValueError("y"), "[ValueError: y]")],
)
def test_one_witness_rule_for_a_raised_error(error, witness, monkeypatch, capsys):
    # a FalsificationError names the identity that failed; any other error its type
    def raising(q):
        raise error

    monkeypatch.setattr("qchain.cli.verify_tq_identity", raising)
    code, out, _ = run(["verify", "--L", "3", "--N-max", "1", "--checks", "tq"], capsys)
    assert code == 1
    assert out.splitlines() == [
        "PASS cross-method L=3 N=1",
        f"FAIL tq L=3 N=1 {witness}",
        "1 of 2 checks FAILED",
    ]


def test_failed_fit_is_the_one_failed_entry(monkeypatch, capsys):
    argv = ["verify", "--L", "5", "--N-max", "3", "--tamper", "1:1/3"]
    argv += ["--checks", "linearity,finite-size"]
    bump = Fraction(1, 3)
    bumped = [q_closed_form(ChainParams(5, N)).with_coefficient_bump(1, bump) for N in (1, 2)]
    with pytest.raises(FalsificationError) as caught:
        extract_A([groundstate_summary(q) for q in bumped])
    code, out, _ = run(argv, capsys)
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
    # the slope identity names itself, once for each per-L check
    assert failed == [
        f"FAIL linearity L=5 [{caught.value}]",
        f"FAIL finite-size L=5 [{caught.value}]",
    ]
    # a stored summary failure in that L still wins over the failed fit
    def failing_at_N3(q):
        if q.params.N == 3:
            raise ZeroDivisionError("pole at N=3")
        return groundstate_summary(q)

    monkeypatch.setattr("qchain.cli.groundstate_summary", failing_at_N3)
    code, out, _ = run(argv, capsys)
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert failed == [
        "FAIL linearity L=5 [ZeroDivisionError: pole at N=3]",
        "FAIL finite-size L=5 [ZeroDivisionError: pole at N=3]",
    ]


def test_verify_tamper_reaches_per_L_checks(capsys):
    code, out, _ = run(
        ["verify", "--L", "5", "--N-max", "2", "--precision-bits", "192", "--tamper", "1:1/3"],
        capsys,
    )
    assert code == 1
    assert "FAIL linearity L=5" in out
    assert "PASS linearity" not in out


def test_exact_witnesses_render_no_decimal(monkeypatch, capsys):
    # exact checks write NUM/DEN coordinates; none of them embeds a field element
    embedded = []
    embed = CyclotomicNumber.embed

    def counting(self, *args, **kwargs):
        embedded.append(self)
        return embed(self, *args, **kwargs)

    monkeypatch.setattr(CyclotomicNumber, "embed", counting)
    checks = "structure,tq,linearity,finite-size"
    argv = ["verify", "--L", "3,5", "--N-max", "2", "--tamper", "1:1/3", "--checks", checks]
    code, out, _ = run(argv, capsys)
    assert code == 1
    for failed in ("inverse-sum L=5 N=2", "tq L=5 N=2", "linearity L=5", "finite-size L=5"):
        assert f"FAIL {failed} [" in out
    assert embedded == []


# -- table -------------------------------------------------------------------


def test_table_layout(capsys):
    code, out, _ = run(["table", "--L", "3", "--N-max", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["L", "N", "M", "p", "E1", "energy", "energy/site", "A"]
    assert lines[2].split()[:4] == ["3", "1", "3", "1"]
    assert lines[3].split()[:4] == ["3", "2", "5", "2"]
    # per-site energy column is exactly -1 for L = 3
    assert lines[2].split()[6].startswith("-1.0")
    assert lines[3].split()[6].startswith("-1.0")


def test_table_golden_ratio_value(capsys):
    code, out, _ = run(["table", "--L", "5", "--N-max", "1"], capsys)
    assert code == 0
    row = out.strip().splitlines()[2].split()
    with mpmath.workprec(64):
        expected = (5 + 7 * mpmath.sqrt(5)) / 4
        assert abs(mpmath.mpf(row[4]) - expected) < 1e-10


def test_table_rows_follow_compute_order(capsys):
    argv = ["--L", "7,3", "--N-max", "2"]
    code, out, _ = run(["table", *argv], capsys)
    assert code == 0
    table_points = [tuple(line.split()[:2]) for line in out.strip().splitlines()[2:]]
    assert table_points == [("3", "1"), ("3", "2"), ("7", "1"), ("7", "2")]
    code, out, _ = run(["compute", *argv], capsys)
    assert code == 0
    runs = json.loads(out)["runs"]
    assert [(str(r["L"]), str(r["N"])) for r in runs] == table_points


def test_missing_subcommand(capsys):
    code, _, _ = run([], capsys)
    assert code == 2


def test_rational_parser_used_by_tamper():
    assert parse_rational("-3/7") == Fraction(-3, 7)
    with pytest.raises(ValueError):
        parse_rational("one third")
