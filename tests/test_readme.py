"""The README's library example runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_snippet_runs(capsys):
    (snippet,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    exec(compile(snippet, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[1] == "True"
