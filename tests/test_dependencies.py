"""The runtime imports only the standard library and mpmath, anywhere in a module,
and makes its check results in report.py only."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "qchain").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"mpmath", "qchain"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_stdlib_or_mpmath(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    outside = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if node.level == 0 else []  # relative: qchain
        else:
            continue
        outside += [name for name in names if name.split(".")[0] not in ALLOWED]
    assert not outside, f"{path.name} imports {outside}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_check_results_are_made_in_report_only(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    made = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "CheckResult" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert path.name == "report.py" or not made, f"{path.name} makes a CheckResult at {made}"
