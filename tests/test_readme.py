import contextlib
import io
import json
import pathlib
import re
import shlex
import sys

import pytest

from doubleflow import cli
from doubleflow import dynamics as dyn

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


def test_readme_simulate_example_runs(monkeypatch, capsys):
    # the printf ... | doubleflow simulate --oracle example, its config on stdin
    (config, line), = re.findall(r"printf '(.*?)' \|\n(doubleflow simulate [^\n]*)", TEXT, re.S)
    monkeypatch.setattr(sys, "stdin", io.StringIO(config))
    assert cli.main(shlex.split(line)[1:]) == 0
    out = capsys.readouterr().out.splitlines()
    # the documented columns of the system, then the oracle's
    columns = re.search(r"\| `casimir_sl2c` \| .* \| `(.*)` \|", TEXT).group(1)
    zs = ",".join(f"z{i}_{part}" for i in range(1, 5) for part in ("re", "im"))
    assert out[0] == columns.replace("z1_re..z4_im", zs) + ",oracle_dev"
    assert len(out) == 22  # t = 0, 0.1, ..., 2.0


def expand_columns(documented, columns):
    """The README's column list read against columns: a..b is the contiguous
    run of columns from a to b, and a.. the run from a of the names that share
    a's prefix (a without its trailing digits)."""
    out = []
    for item in documented.split(","):
        first, dots, last = item.partition("..")
        if not dots:
            out.append(item)
            continue
        i = j = columns.index(first)
        if last:
            j = columns.index(last, i)
        else:
            prefix = first.rstrip("0123456789")
            while j + 1 < len(columns) and columns[j + 1].startswith(prefix):
                j += 1
        out += columns[i:j + 1]
    return out


@pytest.mark.parametrize("system, params", [
    *((system, {}) for system in dyn.SYSTEMS if system != "action_angle"),
    ("action_angle", {"I0": [1.0, 2.0], "phi0": [0.5, 0.25], "freq": [1.0, 0.5]}),
    ("action_angle", {"I0": [1.0], "phi0": [0.5, 0.25, 0.0], "matrix": [[0.0, 1.0, 0.0]] * 3}),
], ids=[*(s for s in dyn.SYSTEMS if s != "action_angle"), "action_angle-freq",
        "action_angle-matrix"])
def test_readme_column_lists_match_the_systems(system, params):
    # the systems table's CSV columns are the ones simulate writes
    documented = re.search(rf"\| `{system}` \| .* \| `(.*)` \|", TEXT).group(1)
    flat, invariants = dyn.SYSTEMS[system].columns(cli._parse_params(system, params, 7))
    columns = ["t", *flat, *invariants]
    assert expand_columns(documented, columns) == columns


def test_readme_verify_line_runs(capsys):
    # the doubleflow verify example: every suite, exit 0 and all_pass
    line, = re.findall(r"^doubleflow verify [^\n]*", TEXT, re.M)
    assert line == "doubleflow verify --suite all --seed 0 --samples 100"
    assert cli.main(shlex.split(line)[1:]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"] is True


def test_readme_exit_3_figures_are_what_the_run_prints(monkeypatch, capsys):
    # the simulate section's exit-3 example: the step-doubling estimate
    # against the deviation, at the README's rounding
    figures = re.search(r"`casimir_sl2c` run at F = 10 from u0 = \{r 3, gamma \[2, 1\]\} to "
                        r"t1 = 1 \((\S+)\s+against (\S+)\)", TEXT).groups()
    config = {"system": "casimir_sl2c", "t1": 1,
              "params": {"F": 10, "u0": {"r": 3, "gamma": [2, 1]}}}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(config)))
    assert cli.main(["simulate", "--oracle"]) == 3
    deviation, estimate = re.fullmatch(r"oracle deviation (\S+) .* about (\S+) by step doubling\n",
                                       capsys.readouterr().err).groups()
    assert [float(x) for x in figures] == [float(f"{float(v):.3e}") for v in (estimate, deviation)]
