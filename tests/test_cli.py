import io
import json
import math
import os

import numpy as np
import pytest

from doubleflow import dynamics as dyn
from doubleflow.cli import MAX_ROWS, main


def run_config(tmp_path, doc, name="run.csv", extra=()):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / name
    code = main(["simulate", "--config", str(cfg), "--out", str(out), *extra])
    return code, out


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    return header, rows


def test_simulate_casimir_csv_shape(tmp_path):
    doc = {
        "system": "casimir_sl2c",
        "params": {"g0": {"alpha": [1, 0], "nu": [0, 0]},
                   "u0": {"r": 2.0, "gamma": [0.5, -0.25]}},
        "t1": 1.0, "dt": 0.1,
    }
    code, out = run_config(tmp_path, doc)
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["t", "z1_re", "z1_im", "z2_re", "z2_im", "z3_re", "z3_im",
                      "z4_re", "z4_im", "H0", "det_re", "det_im"]
    assert len(rows) == 11
    assert rows[0][0] == 0.0 and rows[-1][0] == pytest.approx(1.0)
    # initial state is g0*u0 itself
    assert rows[0][1] == pytest.approx(2.0)
    assert rows[0][3] == pytest.approx(0.5)
    assert rows[0][4] == pytest.approx(-0.25)
    for row in rows:
        assert row[10] == pytest.approx(1.0, abs=1e-12)  # det_re
        assert abs(row[11]) < 1e-12                      # det_im


def test_simulate_oracle_column_and_threshold(tmp_path):
    doc = {"system": "noncasimir_h", "t1": 1.0, "dt": 0.05, "seed": 3}
    code, out = run_config(tmp_path, doc, extra=["--oracle"])
    assert code == 0
    header, rows = read_csv(out)
    assert header[-1] == "oracle_dev"
    assert max(r[-1] for r in rows) < 1e-8
    code, out = run_config(tmp_path, doc, name="tight.csv",
                           extra=["--oracle", "--max-dev", "1e-18"])
    assert code == 3
    assert out.exists()  # trajectory is still written before the failure exit


def test_simulate_reproducible_bytes(tmp_path):
    doc = {"system": "perturbed", "t1": 1.0, "dt": 0.02, "seed": 42, "oracle": True}
    _, out1 = run_config(tmp_path, doc, name="a.csv")
    _, out2 = run_config(tmp_path, doc, name="b.csv")
    assert out1.read_bytes() == out2.read_bytes()
    assert b"\r" not in out1.read_bytes()


def test_simulate_different_seeds_differ(tmp_path):
    doc = {"system": "perturbed", "t1": 0.5, "dt": 0.1}
    _, out1 = run_config(tmp_path, {**doc, "seed": 1}, name="a.csv")
    _, out2 = run_config(tmp_path, {**doc, "seed": 2}, name="b.csv")
    assert out1.read_bytes() != out2.read_bytes()


def test_simulate_stdin_and_stdout(tmp_path, monkeypatch, capsys):
    doc = {"system": "rotator", "params": {"p": [0.0, 0.0, 1.0]}, "t1": 0.2, "dt": 0.1}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["simulate"]) == 0
    text = capsys.readouterr().out
    lines = text.strip().split("\n")
    assert lines[0].startswith("t,g11,")
    assert len(lines) == 4


def test_simulate_flag_overrides_config_out(tmp_path):
    doc = {"system": "rotator", "t1": 0.2, "dt": 0.1, "out": str(tmp_path / "cfg_out.csv")}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert (tmp_path / "cfg_out.csv").exists()
    out2 = tmp_path / "flag_out.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out2.exists()


def test_simulate_no_temp_files_left(tmp_path):
    doc = {"system": "rotator", "t1": 0.2, "dt": 0.1}
    run_config(tmp_path, doc)
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".doubleflow_")]
    assert leftovers == []


@pytest.mark.parametrize("doc", [
    {"system": "nosuch"},
    {"system": "rotator", "t1": -1.0},
    {"system": "rotator", "dt": 0.0},
    {"system": "rotator", "t1": 1.0, "dt": 2.0},
    {"system": "rotator", "seed": -1},
    {"system": "rotator", "bogus": True},
    {"system": "rotator", "params": {"q": 1}},
    {"system": "rotator", "params": {"g0": [[1, 0], [0, 1]]}},
    {"system": "casimir_sl2c", "params": {"u0": {"r": -2.0, "gamma": 0}}},
    {"system": "casimir_sl2c", "params": {"u0": {"r": 1.0}}},
    {"system": "momenta_su2", "params": {"alpha": [1, 0], "nu": [1, 0]}},
    {"system": "momenta_su2", "params": {"alpha": [1, 0]}},
    {"system": "action_angle", "params": {"I0": [1.0]}},
    {"system": "action_angle", "params": {"I0": [1.0], "phi0": [0.0]}},
    {"system": "action_angle", "params": {"I0": [1.0], "phi0": [0.0],
                                          "freq": [1.0], "matrix": [[0.0]]}},
    {"system": "action_angle", "params": {"I0": [1.0], "phi0": [0.0, 1.0],
                                          "freq": [1.0]}},
    {"system": "action_angle", "params": {"I0": [1.0], "phi0": [0.0],
                                          "matrix": [[0.0, 1.0]]}},
])
def test_simulate_config_errors(tmp_path, doc, capsys):
    code, _ = run_config(tmp_path, doc, name="never.csv")
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("doc, extra, field", [
    ({"system": "rotator", "t1": math.inf}, (), "t1"),
    ({"system": "rotator", "t1": -math.inf}, (), "t1"),
    ({"system": "rotator", "dt": math.nan}, (), "dt"),
    ({"system": "rotator", "max_dev": math.nan}, (), "max_dev"),
    ({"system": "rotator", "max_dev": math.inf}, (), "max_dev"),
    ({"system": "rotator", "t1": 0.1}, ("--oracle", "--max-dev", "nan"), "max_dev"),
    ({"system": "rotator", "params": {"F": math.nan}}, (), "params.F"),
    ({"system": "perturbed", "params": {"F": -math.inf}}, (), "params.F"),
    ({"system": "perturbed", "params": {"u0": {"r": 1.0, "gamma": [math.nan, 0.0]}}},
     (), "params.u0.gamma"),
    ({"system": "rotator", "params": {"p": [0.0, math.inf, 1.0]}}, (), "params.p"),
    ({"system": "rotator", "params": {"g0": [[1, 0, 0], [0, 1, 0], [0, 0, math.nan]]}},
     (), "params.g0"),
    ({"system": "action_angle", "params": {"I0": [1.0], "phi0": [0.0],
                                           "matrix": [[math.inf]]}}, (), "params.matrix"),
])
def test_simulate_rejects_non_finite_numbers(tmp_path, doc, extra, field, capsys):
    code, _ = run_config(tmp_path, doc, name="never.csv", extra=extra)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and "finite" in err
    assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("doc, extra, field", [
    ({"system": "rotator", "t1": 1e300, "dt": 1e-300}, (), "dt"),
    ({"system": "rotator", "t1": 1.0, "dt": 1.0 / (MAX_ROWS + 1)}, (), "dt"),
    ({"system": "momenta_su2", "t1": 0.1, "dt": 0.05, "params": {"F": 1e10}}, (), "params"),
    ({"system": "action_angle", "t1": 0.1, "dt": 0.05,
      "params": {"I0": [1.0], "phi0": [0.0], "matrix": [[1e300]]}}, (), "t = "),
    ({"system": "action_angle", "t1": 0.1, "dt": 0.05,
      "params": {"I0": [1.0], "phi0": [1.0], "matrix": [[1e300]]}}, ("--oracle",), "params"),
    ({"system": "rotator", "t1": 0.1, "dt": 0.01, "params": {"F": 1e6}}, ("--oracle",), "t = "),
])
def test_simulate_rejects_overflowing_configs(tmp_path, doc, extra, field, capsys):
    code, _ = run_config(tmp_path, doc, name="never.csv", extra=extra)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and "Traceback" not in err
    assert not (tmp_path / "never.csv").exists()


# every registered system, action_angle in both of its variants
REGISTRY_CASES = [(name, {}) for name in dyn.SYSTEMS if name != "action_angle"] + [
    ("action_angle", {"I0": [0.5, 1.5], "phi0": [0.1, 6.0], "freq": [1.0, -0.75]}),
    ("action_angle", {"I0": [1.0], "phi0": [1.0, 0.5], "matrix": [[0.1, -1.0], [1.3, 0.2]]}),
]


@pytest.mark.parametrize("system, params", REGISTRY_CASES)
def test_registry_system_simulates_with_oracle(tmp_path, system, params, capsys):
    doc = {"system": system, "params": params, "t1": 0.2, "dt": 0.05, "seed": 4}
    code, out = run_config(tmp_path, doc, extra=["--oracle"])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["t", *dyn.SYSTEMS[system].columns(params), "oracle_dev"]
    assert len(rows) == 5 and all(math.isfinite(v) for row in rows for v in row)
    assert max(row[-1] for row in rows) < 1e-8
    _, again = run_config(tmp_path, doc, name="again.csv", extra=["--oracle"])
    assert again.read_bytes() == out.read_bytes()
    code, _ = run_config(tmp_path, {**doc, "params": {**params, "bogus": 1}}, name="never.csv")
    assert code == 2
    assert system in capsys.readouterr().err


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [True]])
def test_simulate_oracle_must_be_json_boolean(tmp_path, value, capsys):
    code, _ = run_config(tmp_path, {"system": "rotator", "t1": 0.1, "oracle": value},
                         name="never.csv")
    assert code == 2
    assert "oracle" in capsys.readouterr().err
    assert not (tmp_path / "never.csv").exists()
    code, out = run_config(tmp_path, {"system": "rotator", "t1": 0.1, "oracle": False})
    assert code == 0 and "oracle_dev" not in out.read_text().splitlines()[0]


def test_simulate_invalid_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "JSON" in capsys.readouterr().err
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2


def test_csv_rows_pass_membership_on_reingestion(tmp_path):
    # every written row must still satisfy its group invariants when parsed back
    doc = {"system": "casimir_sl2c", "t1": 2.0, "dt": 0.05, "seed": 5}
    _, out = run_config(tmp_path, doc, name="cas.csv")
    header, rows = read_csv(out)
    for row in rows:
        z = [complex(row[1], row[2]), complex(row[3], row[4]),
             complex(row[5], row[6]), complex(row[7], row[8])]
        assert abs(z[0] * z[3] - z[1] * z[2] - 1.0) < 1e-10

    doc = {"system": "rotator", "t1": 2.0, "dt": 0.05, "seed": 5}
    _, out = run_config(tmp_path, doc, name="rot.csv")
    header, rows = read_csv(out)
    for row in rows:
        g = np.array(row[1:10]).reshape(3, 3)
        assert np.max(np.abs(g.T @ g - np.eye(3))) < 1e-10
        assert row[13] == pytest.approx(np.linalg.norm(row[10:13]))

    doc = {"system": "momenta_su2", "t1": 2.0, "dt": 0.05, "seed": 5}
    _, out = run_config(tmp_path, doc, name="mom.csv")
    header, rows = read_csv(out)
    for row in rows:
        assert row[1] > 0  # r stays positive
        assert row[4] == pytest.approx(1.0, abs=1e-12)

    doc = {"system": "perturbed", "t1": 2.0, "dt": 0.05, "seed": 5}
    _, out = run_config(tmp_path, doc, name="per.csv")
    header, rows = read_csv(out)
    for row in rows:
        assert abs(complex(row[1], row[2])) ** 2 + abs(complex(row[3], row[4])) ** 2 \
            == pytest.approx(1.0, abs=1e-10)
        assert row[5] > 0
        assert row[8] == pytest.approx(abs(complex(row[6], row[7])), abs=1e-12)


def test_action_angle_csv(tmp_path):
    doc = {"system": "action_angle",
           "params": {"I0": [0.5, 1.5], "phi0": [0.1, 0.2], "freq": [1.0, 0.75]},
           "t1": 10.0, "dt": 0.5}
    code, out = run_config(tmp_path, doc, extra=["--oracle"])
    assert code == 0
    header, rows = read_csv(out)
    assert header[:7] == ["t", "I_1", "I_2", "phi_1", "phi_2", "phimod_1", "phimod_2"]
    for row in rows:
        assert row[1] == 0.5 and row[2] == 1.5
        assert row[3] == pytest.approx(0.1 + row[0] * 1.0)
        assert 0.0 <= row[5] < 2.0 * math.pi
    doc["params"] = {"I0": [1.0], "phi0": [1.0, 0.0],
                     "matrix": [[0.0, -1.0], [1.0, 0.0]]}
    code, out = run_config(tmp_path, doc, name="aam.csv", extra=["--oracle"])
    assert code == 0
    header, rows = read_csv(out)
    for row in rows:
        assert math.hypot(row[2], row[3]) == pytest.approx(1.0, abs=1e-9)


def test_verify_subcommand(capsys):
    assert main(["verify", "--suite", "decompositions", "--seed", "1",
                 "--samples", "25"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_pass"] is True
    assert doc["suite"] == "decompositions"
    assert doc["seed"] == 1 and doc["samples"] == 25
    names = [c["name"] for c in doc["checks"]]
    assert "iwasawa_gu_recompose" in names
    for c in doc["checks"]:
        assert c["passed"] == (c["residual"] <= c["tolerance"])


def test_verify_reproducible(capsys):
    main(["verify", "--suite", "legendre", "--seed", "9", "--samples", "10"])
    first = capsys.readouterr().out
    main(["verify", "--suite", "legendre", "--seed", "9", "--samples", "10"])
    assert capsys.readouterr().out == first


def test_verify_bad_arguments(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2
    assert main(["verify", "--suite", "legendre", "--samples", "0"]) == 2


def test_legendre_map_subcommand(capsys):
    assert main(["legendre", "map", "--r", "2", "--gamma", "0"]) == 0
    out = dict(line.split(" = ") for line in capsys.readouterr().out.strip().split("\n"))
    assert float(out["v11_im"]) == pytest.approx(-15 / 16)
    assert float(out["v12_re"]) == 0.0
    assert float(out["roundtrip_residual"]) < 1e-12
    assert main(["legendre", "map", "--r", "-1"]) == 2
    assert "error" in capsys.readouterr().err


def test_legendre_invert_subcommand(capsys):
    assert main(["legendre", "invert", "--s", "1.875", "--w", "0,0"]) == 0
    out = dict(line.split(" = ") for line in capsys.readouterr().out.strip().split("\n"))
    assert float(out["r"]) == pytest.approx(2.0)
    assert float(out["roundtrip_residual"]) < 1e-12
    assert main(["legendre", "invert", "--s", "1.875", "--unreduced"]) == 0
    out = dict(line.split(" = ") for line in capsys.readouterr().out.strip().split("\n"))
    assert float(out["r"]) == pytest.approx(4.0)
    assert float(out["roundtrip_residual"]) > 1e-2


@pytest.mark.parametrize("argv, flag", [
    (["map", "--r", "nan"], "--r"),
    (["map", "--r", "inf"], "--r"),
    (["map", "--r", "2", "--f", "nan"], "--f"),
    (["map", "--r", "2", "--f=-inf"], "--f"),
    (["invert", "--s", "nan"], "--s"),
    (["invert", "--s", "inf"], "--s"),
])
def test_legendre_rejects_non_finite_flags(argv, flag, capsys):
    assert main(["legendre", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and flag in captured.err
    assert captured.out == ""


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
