"""The README's library example runs and its command lines parse as documented."""

import re
import shlex
from pathlib import Path

from qchain.cli import RunConfig, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_snippet_runs(capsys):
    (snippet,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    exec(compile(snippet, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[1] == "True"


def test_readme_command_lines_parse():
    # every `qchain ...` line of a fenced block, without running it
    blocks = re.findall(r"^```\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("qchain ")]
    assert len(lines) >= 6
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        config = RunConfig.from_args(build_parser().parse_args(argv))
        if "--method" not in argv:
            assert config.method == ("both" if argv[0] == "verify" else "closed-form"), line
