"""What a process loads before it prints a number, and the records' value semantics.

Every verify number is made on integers and decided exactly; mpmath is
imported only where a number is printed or a decimal approximation made, and
no module imports dataclasses (nor, through it, inspect), so help, argument
errors, every verify run that passes and writes no report, and the
library's exact layer start without them.  The records are named tuples:
they keep the equality, hash, repr and pickling that the process pool and
the tests read, and the two that validate their fields raise and normalise
as before.
"""

import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qchain.cli import RunConfig, build_parser
from qchain.energy import extract_A, groundstate_summary
from qchain.fixedpoint import Measured
from qchain.qoperator import ChainParams, QPolynomial, build_q
from qchain.report import CheckResult, Shown
from qchain.roots import find_roots

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"
HEAVY = ("mpmath", "dataclasses", "inspect")

# Runs its arguments as `python -m qchain.cli` does (runpy, run as __main__),
# or, with "import" first, imports qchain.cli and calls main as the console
# script does, or runs the rest as code; then prints the modules that the
# run loaded to stderr, after anything the command printed.
PROBE = """
import sys
before = set(sys.modules)
mode, *args = sys.argv[1:]
code = 0
try:
    if mode == "run":
        import runpy
        sys.argv = ["qchain", *args]
        runpy.run_module("qchain.cli", run_name="__main__", alter_sys=True)
    elif mode == "import":
        import qchain.cli
        code = qchain.cli.main(args) if args else 0
    else:
        exec(mode)
except SystemExit as exc:
    code = exc.code
loaded = sorted(set(sys.modules) - before)
sys.stderr.write("\\nLOADED " + " ".join(loaded) + "\\n")
sys.exit(code)
"""


def _loaded(*argv, code=0):
    """The modules one fresh process loads for argv (see PROBE), and what
    it printed."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], env=env, capture_output=True, text=True
    )
    assert done.returncode == code, done.stderr
    last = done.stderr.rstrip("\n").rsplit("\n", 1)[-1]
    assert last.startswith("LOADED"), done.stderr
    return set(last.split()[1:]), done.stdout


def _heavy_loaded(*argv, code=0):
    """The heavy modules one fresh process loads for argv, and what it printed."""
    loaded, out = _loaded(*argv, code=code)
    return loaded & set(HEAVY), out


@pytest.mark.parametrize("command", ["verify", "compute", "table"])
def test_help_loads_neither_mpmath_nor_dataclasses(command):
    loaded, out = _heavy_loaded("run", command, "--help")
    assert not loaded
    assert out.startswith("usage: qchain " + command)


@pytest.mark.parametrize(
    "argv",
    [
        ["import"],
        ["import", "verify", "--help"],
        ["import qchain"],
        ["import qchain; qchain.build_q(qchain.ChainParams(5, 2), 'both')"],
    ],
    ids=["import qchain.cli", "console script --help", "import qchain", "build_q"],
)
def test_library_and_console_script_start_without_mpmath(argv):
    loaded, _ = _heavy_loaded(*argv)
    assert not loaded


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["compute", "--help"], ["compute", "--L", "3", "--N-max", "2"], ["table"]],
    ids=["help", "compute --help", "compute", "table"],
)
def test_runs_that_check_no_root_compile_no_fixed_point(argv):
    # Measured is a lazy re-export and energy imports fixedpoint inside its
    # closed-form functions, so only a root check or a closed form loads it
    loaded, out = _loaded("run", *argv)
    assert not {"qchain.fixedpoint", "qchain.roots", "qchain.multiple"} & loaded
    assert "qchain.energy" in loaded and out


def test_argument_errors_load_no_mpmath():
    loaded, _ = _heavy_loaded("run", "verify", "--L", "4", code=2)
    assert not loaded


def test_passing_verify_loads_no_mpmath_and_a_printed_number_does(tmp_path):
    # every check, closed-forms and the root checks included, decides on
    # exact numbers, so a run that passes and writes no report never loads it
    loaded, out = _heavy_loaded("run", "verify", "--L", "3,7", "--N-max", "2")
    assert not loaded
    assert "PASS closed-forms L=7 N=2" in out and "PASS bae L=7 N=2" in out
    assert out.splitlines()[-1] == "all 46 checks passed"
    # a report prints every residual, and a tamper run the FAIL lines' numbers:
    # each loads mpmath, and prints the bytes its golden holds
    report = tmp_path / "roots.json"
    argv = ["--L", "3,5,7", "--N-max", "2", "--checks", "roots", "--output", str(report)]
    loaded, out = _heavy_loaded("run", "verify", *argv)
    assert loaded == {"mpmath"}
    assert report.read_text() == (GOLDEN / "verify-roots.json").read_text()
    loaded, out = _heavy_loaded("run", "verify", "--tamper", "1:1/3", code=1)
    assert loaded == {"mpmath"}
    assert out == (GOLDEN / "verify-default-tamper.txt").read_text()


def _records():
    """One of each record, built as the program builds it, with the parent
    commit's dataclass repr where the test pins it."""
    summaries = [groundstate_summary(build_q(ChainParams(3, N))) for N in (1, 2)]
    args = ["verify", "--L", "3", "--N-max", "1", "--tamper", "1:1/3"]
    rs = find_roots(build_q(ChainParams(5, 1)), 128)
    return {
        "ChainParams": (ChainParams(5, 2), "ChainParams(L=5, N=2)"),
        "QPolynomial": (
            QPolynomial(ChainParams(3, 2), (4, -2, 4), -2),
            "QPolynomial(params=ChainParams(L=3, N=2), nums=(-2, 1, -2), den=1)",
        ),
        "WSummary": (
            summaries[0],
            "WSummary(params=ChainParams(L=3, N=1), E1=CyclotomicNumber(order=6: 1), "
            "energy=CyclotomicNumber(order=6: -3), energy_per_site=CyclotomicNumber(order=6: -1))",
        ),
        "SpinConstant": (
            extract_A(summaries),
            "SpinConstant(L=3, A=CyclotomicNumber(order=6: 1/2), "
            "slope=CyclotomicNumber(order=6: 1/2))",
        ),
        "CheckResult": (
            CheckResult("tq", {"L": 3, "N": 1}, False, "1", "x"),
            "CheckResult(name='tq', params={'L': 3, 'N': 1}, passed=False, residual='1', detail='x')",
        ),
        "Measured": (
            Measured(Fraction(1, 2), math.inf),
            "Measured(value=Fraction(1, 2), bound=inf)",
        ),
        "Shown": (
            Shown("z-form {}, w-form {}", ((Fraction(1, 2), 5), (math.inf, 3))),
            "Shown(template='z-form {}, w-form {}', numbers=((Fraction(1, 2), 5), (inf, 3)))",
        ),
        "RunConfig": (
            RunConfig.from_args(build_parser().parse_args(args)),
            "RunConfig(L_values=(3,), N_max=1, method='both', precision_bits=256, "
            "checks=('structure', 'tq', 'roots', 'linearity', 'finite-size', 'closed-forms'), "
            "output_format='json', output_path=None, jobs=1, tamper=(1, Fraction(1, 3)))",
        ),
        "_Inverses": (rs.inverses, None),
        "RootSet": (rs, None),
    }


@pytest.mark.parametrize("name", list(_records()))
def test_records_keep_equality_hash_repr_and_pickle(name):
    record, text = _records()[name]
    rebuilt = _records()[name][0]
    assert type(record).__name__ == name
    assert rebuilt == record and not rebuilt != record
    assert pickle.loads(pickle.dumps(record)) == record
    assert repr(record).startswith(f"{name}({record._fields[0]}=")
    if text is not None:
        assert repr(record) == text
    if name == "CheckResult":  # its params are a dict, unhashable as before
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(rebuilt) == hash(record) == hash(tuple(record))


def test_a_number_is_formatted_the_same_after_a_process_pool_pickles_it():
    # a pool worker returns its check results pickled; the numbers they show
    # are formatted in the parent, from the same exact values
    shown = Shown("{} (rounding bound {})", ((Fraction(1, 2**220), 8), (Fraction(1, 2**216), 3)))
    detail = Shown("tolerance {}", ((math.inf, 4),))
    entry = CheckResult("bae", {"L": 3, "N": 2}, False, shown, detail)
    back = pickle.loads(pickle.dumps(entry))
    assert back == entry
    assert back.line() == entry.line() == "FAIL bae L=3 N=2 [tolerance +inf]"
    assert back.to_dict()["residual"] == "5.9347298e-67 (rounding bound 9.5e-66)"


def test_root_set_caches_its_partner_map():
    rs = find_roots(build_q(ChainParams(7, 2)), 128)
    assert rs.inverses is rs.inverses
    back = pickle.loads(pickle.dumps(rs))
    assert back == rs and back.inverses == rs.inverses


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ChainParams(4, 1), "L must be odd and >= 3, got 4"),
        (lambda: ChainParams(1, 1), "L must be odd and >= 3, got 1"),
        (lambda: ChainParams(3, 0), "N must be >= 1, got 0"),
        (lambda: ChainParams(4, 0), "L must be odd and >= 3, got 4"),
        (lambda: ChainParams(3, 1)._replace(N=0), "N must be >= 1, got 0"),
        (lambda: QPolynomial(ChainParams(3, 1), (1, 2, 3)), "need 2 coefficients, got 3"),
        (lambda: QPolynomial(ChainParams(3, 2), [1]), "need 3 coefficients, got 1"),
    ],
)
def test_validation_messages_are_unchanged(make, message):
    with pytest.raises(ValueError) as caught:
        make()
    assert str(caught.value) == message


def test_q_normalises_to_lowest_terms_with_a_positive_denominator():
    params = ChainParams(3, 2)
    q = QPolynomial(params, [6, -3, 6], -9)
    assert (q.nums, q.den) == ((-2, 1, -2), 3)
    assert type(q.nums) is tuple
    assert q == QPolynomial(params, (-2, 1, -2), 3)
    assert q.e == (Fraction(-2, 3), Fraction(1, 3), Fraction(-2, 3))
    assert QPolynomial(params, (1, 0, 1)).den == 1
    # copies and _replace go through the same normalisation
    assert q._replace(den=-6) == QPolynomial(params, (2, -1, 2), 6)
    assert pickle.loads(pickle.dumps(q)) == q
    with pytest.raises(ZeroDivisionError):
        q._replace(den=0)
