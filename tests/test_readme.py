import contextlib
import io
import pathlib
import re
import shlex

import pytest

from doubleflow import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
LEGENDRE_LINES = [line.split("#")[0].strip()
                  for block in re.findall(r"```sh\n(.*?)```", TEXT, re.S)
                  for line in block.splitlines() if line.startswith("doubleflow legendre ")]


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", TEXT, re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[-2:] == ["0.0", "True"]


@pytest.mark.parametrize("line", LEGENDRE_LINES)
def test_readme_legendre_lines_run(line, capsys):
    assert cli.main(shlex.split(line)[1:]) == 0, capsys.readouterr().err
