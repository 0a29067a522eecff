import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import doubleflow
from doubleflow import cli
from doubleflow import dynamics as dyn
from doubleflow import verify as ver
from doubleflow.cli import MAX_ROWS, _write_csv, main


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


# sha256 of the CSV bytes of three systems whose rows and oracle call no BLAS
# routine, so their bytes do not depend on the CPU's OpenBLAS kernel (the same
# under OPENBLAS_CORETYPE Haswell, Sandybridge and SkylakeX).  Every initial
# value is given, since drawing an SU(2) element takes a BLAS norm.  casimir_sl2c
# and rotator are left out: their rows go through numpy's 2x2 and 3x3 matmuls.
PINNED_CSV = [
    ({"system": "momenta_su2", "params": {"u0": {"r": 1.3, "gamma": [0.25, -0.4]},
                                          "alpha": [0.36, 0.48], "nu": [0.64, -0.48],
                                          "F": 0.7}, "t1": 2.0, "dt": 0.01},
     "1176a99cc8cc5f3fe7e01c8bc060ffc84d36fc6188b9a7db03222d23706c2885",
     "47044ff33884bdf2e38ac04e0c1c94b604c104ed3af9059b3ec0056149ca2a90"),
    ({"system": "noncasimir_h", "params": {"u0": {"r": 0.8, "gamma": [-0.5, 0.1]},
                                           "alpha0": [0.6, 0.0], "nu0": [0.0, 0.8]},
      "t1": 2.0, "dt": 0.01},
     "fc0f77e9d1b2470c2cf1e333c69187b0e86168ae01e0533ab4ef071480508da6",
     "30e6a246094a63c8d6d66afdb7be788ae655b6f0f7eafb4eb2a397989457b588"),
    ({"system": "perturbed", "params": {"g0": {"alpha": [0.6, 0.0], "nu": [0.0, 0.8]},
                                        "u0": {"r": 1.7, "gamma": [0.3, 0.9]}, "lam": 0.3},
      "t1": 2.0, "dt": 0.01},
     "618d6a6c2316b68f9205c9aa7e307d95d25786853bb66a3914ee5fb18af085a4",
     "3245b72937a688301763eb456b84344653b96d6c33e089748704e86b708aef1c"),
]


@pytest.mark.parametrize("doc, plain, with_oracle", PINNED_CSV,
                         ids=[doc["system"] for doc, _, _ in PINNED_CSV])
def test_simulate_csv_bytes_are_pinned(tmp_path, doc, plain, with_oracle):
    _, out = run_config(tmp_path, doc)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == plain
    _, out = run_config(tmp_path, doc, name="oracle.csv", extra=["--oracle"])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == with_oracle


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


def test_csv_values_format_as_17_significant_digits(capsys):
    row = [-0.0, 5e-324, 1.7976931348623157e308, np.float64(0.1), 3, 2**60 + 1, math.pi]
    _write_csv(None, [f"c{i}" for i in range(len(row))], [row, row[::-1]])
    lines = capsys.readouterr().out.split("\n")
    assert lines[1] == ",".join(format(float(x), ".17g") for x in row)
    assert lines[2] == ",".join(format(float(x), ".17g") for x in row[::-1])
    assert lines[1].split(",")[:5] == ["-0", "4.9406564584124654e-324",
                                       "1.7976931348623157e+308", "0.10000000000000001", "3"]


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


# (config, the field its error message names, or the whole message)
CONFIG_ERRORS = [
    ({"system": "nosuch"}, "system"),
    ({"system": "rotator", "t1": -1.0}, "t1"),
    ({"system": "rotator", "dt": 0.0}, "dt"),
    ({"system": "rotator", "t1": 1.0, "dt": 2.0}, "dt"),
    ({"system": "rotator", "seed": -1}, "seed"),
    ({"system": "rotator", "bogus": True}, "bogus"),
    ({"system": "rotator", "params": {"q": 1}}, "q"),
    ({"system": "rotator", "params": {"g0": [[1, 0], [0, 1]]}}, "g0"),
    ({"system": "casimir_sl2c", "params": {"u0": {"r": -2.0, "gamma": 0}}}, "params.u0.r"),
    ({"system": "casimir_sl2c", "params": {"u0": {"r": 1.0}}}, "params.u0"),
    ({"system": "momenta_su2", "params": {"alpha": [1, 0], "nu": [1, 0]}}, "params.alpha"),
    ({"system": "momenta_su2", "params": {"alpha": [1, 0]}}, "params.nu"),
    ({"system": "action_angle", "params": {"I0": [1.0]}}, "params.phi0"),
    ({"system": "action_angle", "params": {"I0": [1.0], "phi0": [0.0]}},
     "params: action_angle_flow needs exactly one of freq, matrix"),
    ({"system": "action_angle", "params": {"I0": [1.0], "phi0": [0.0],
                                           "freq": [1.0], "matrix": [[0.0]]}},
     "params: action_angle_flow needs exactly one of freq, matrix"),
    ({"system": "action_angle", "params": {"I0": [1.0], "phi0": [0.0, 1.0],
                                           "freq": [1.0]}},
     "params: freq must be finite and of shape (2,)"),
    ({"system": "action_angle", "params": {"I0": [1.0], "phi0": [0.0],
                                           "matrix": [[0.0, 1.0]]}},
     "params: matrix must be finite and of shape (1, 1)"),
    # numeric fields take JSON numbers only: no strings, no booleans
    ({"system": "action_angle", "params": {"I0": [1.0], "phi0": [0.0],
                                           "matrix": [["0.5"]]}}, "params.matrix"),
    ({"system": "rotator", "params": {"g0": [[1, 0, 0], [0, 1, 0], [0, 0, "1"]]}},
     "params.g0"),
    ({"system": "action_angle", "params": {"I0": [True], "phi0": [0.0], "freq": [1.0]}},
     "params.I0"),
    ({"system": "momenta_su2", "params": {"alpha": True, "nu": 0}}, "params.alpha"),
    ({"system": "perturbed", "params": {"u0": {"r": 1.0, "gamma": [True, 0.0]}}},
     "params.u0.gamma"),
]


@pytest.mark.parametrize("doc, field", CONFIG_ERRORS,
                         ids=[f"doc{i}" for i in range(len(CONFIG_ERRORS))])
def test_simulate_config_errors(tmp_path, doc, field, capsys):
    code, _ = run_config(tmp_path, doc, name="never.csv")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    if " " in field:  # a whole message
        assert err == f"error: {field}\n"
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
    # JSON integers beyond the floats
    ({"system": "rotator", "params": {"F": 10**400}}, (), "params.F"),
    ({"system": "rotator", "params": {"p": [0.0, -10**400, 1.0]}}, (), "params.p"),
    ({"system": "action_angle", "params": {"I0": [1.0], "phi0": [0.0],
                                           "matrix": [[10**400]]}}, (), "params.matrix"),
    ({"system": "momenta_su2", "params": {"alpha": [10**400, 0], "nu": 0}}, (), "params.alpha"),
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


def test_simulate_caps_oracle_steps_before_building_anything(tmp_path, monkeypatch, capsys):
    # 1e6 rows of 1000 RK4 steps each would ask for a 1e9-row state array: the
    # cap must fire before a row or an oracle state exists, so neither may run
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(cli, "rk4_integrate", reached)
    rotator = dyn.SYSTEMS["rotator"]
    monkeypatch.setitem(dyn.SYSTEMS, "rotator", dataclasses.replace(rotator, flow=reached))
    doc = {"system": "rotator", "t1": 1e6, "dt": 1, "oracle": True}
    # dt / 1e-3 overflows the floats in the second config
    for huge in ({}, {"t1": 1e307, "dt": 1e306}):
        code, _ = run_config(tmp_path, {**doc, **huge}, name="never.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: t1 ") and "dt" in err and f"MAX_ROWS = {MAX_ROWS}" in err
        assert err.count("\n") == 1 and not (tmp_path / "never.csv").exists()
    # exactly MAX_ROWS steps (1000 rows of 1000) pass the cap and reach the oracle
    monkeypatch.setitem(dyn.SYSTEMS, "rotator", rotator)
    with pytest.raises(Reached):
        run_config(tmp_path, {**doc, "t1": MAX_ROWS * 1e-3}, name="never.csv")


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


# sha256 of the `verify --suite legendre` JSON at (seed, samples); the suite
# calls no BLAS routine, so the bytes are the same under OPENBLAS_CORETYPE
# Haswell, Sandybridge and SkylakeX
PINNED_VERIFY_LEGENDRE = [
    (0, 20, "e7ee6da3c312fc6528a614f2e845d1fef8d0ceef326fba49885c1933a1b03b94"),
    (7, 100, "4ea786f958484d62ca132294b9f9b65924c4b4daf85d616ee8140281c4729169"),
    (12345, 50, "0b199af44a6077484915db60d128080ebea67f79cc709819f6f9b9b86f1a31c2"),
]


@pytest.mark.parametrize("seed, samples, digest", PINNED_VERIFY_LEGENDRE)
def test_verify_legendre_json_bytes_are_pinned(seed, samples, digest, capsys):
    assert main(["verify", "--suite", "legendre", "--seed", str(seed),
                 "--samples", str(samples)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_verify_h0_invariant_does_not_depend_on_sum(monkeypatch):
    # Python 3.12's sum() adds floats with compensation, 3.10's and 3.11's in
    # order; H0 is the casimir row's explicit four-term sum under either
    class Captured(Exception):
        pass

    captured = {}

    def capture(traj, names, invariants):
        captured.update(names=names, invariants=invariants)
        raise Captured

    monkeypatch.setattr(ver, "drift_report", capture)
    monkeypatch.setattr(ver, "sum", math.fsum, raising=False)
    with pytest.raises(Captured):
        ver.suite_flows(0, 20)
    # 1 + 1e-16 + 1e-16 is 1.0 added in order and 1.0000000000000002 by fsum
    y = [1.0, 0.0, 1e-8, 0.0, 1e-8, 0.0, 0.0, 0.0]
    row = dict(zip(captured["names"], captured["invariants"](y)))
    assert row["H0"] == dyn._casimir_extras(y)[0] == 0.5


def test_verify_bad_arguments(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2
    assert main(["verify", "--suite", "legendre", "--samples", "0"]) == 2


def test_verify_caps_samples_before_any_work(monkeypatch, capsys):
    # the brackets suite holds about 2.5 KB per sample: the cap fires before
    # report_doc, so the large case never runs
    reached = []

    def report_doc(suite, seed, samples):
        reached.append(samples)
        return {"all_pass": True}

    monkeypatch.setattr(ver, "report_doc", report_doc)
    argv = ["verify", "--suite", "brackets", "--samples"]
    assert main([*argv, str(cli.MAX_SAMPLES + 1)]) == 2
    assert capsys.readouterr().err == (f"error: samples must not exceed "
                                       f"MAX_SAMPLES = {cli.MAX_SAMPLES}\n")
    assert main([*argv, str(cli.MAX_SAMPLES)]) == 0
    assert reached == [cli.MAX_SAMPLES]


def test_run_suite_dispatches_through_the_module_names(monkeypatch):
    # suites patched on the module (as a tracer does) are the ones run
    names = ("brackets", "decompositions", "legendre", "flows")
    for name in names:
        monkeypatch.setattr(ver, f"suite_{name}", lambda seed, samples, name=name: [name])
    assert ver.SUITES == (*names, "all")
    assert ver.run_suite("legendre", 3, 4) == ["legendre"]
    assert ver.run_suite("all", 3, 4) == list(names)
    with pytest.raises(KeyError, match="unknown suite 'nope'; valid: brackets, "
                                       "decompositions, legendre, flows, all"):
        ver.run_suite("nope", 3, 4)


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
    (["map", "--r", "2", "--f", "-inf"], "--f"),
])
def test_legendre_rejects_non_finite_flags(argv, flag, capsys):
    assert main(["legendre", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and flag in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, flag", [
    (["map", "--r", "1e200"], "--r"),
    (["map", "--r", "1e-200"], "--r"),
    (["map", "--r", "2", "--f", "1e308", "--gamma", "1e300"], "--gamma"),
    (["map", "--r", "20", "--f", "1e308"], "--f"),
    (["invert", "--s", "1e300"], "--s"),
    (["invert", "--s=-1e10"], "--s"),
    (["invert", "--s", "1", "--w", "1e200"], "--w"),
    (["invert", "--s", "-1e10"], "--s"),
])
def test_legendre_rejects_extreme_flags(argv, flag, capsys):
    assert main(["legendre", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: " + flag) and captured.err.count("\n") == 1
    assert captured.out == ""


# argparse took a value in exponent form, or an RE,IM pair starting with "-",
# for a flag and exited with "expected one argument"
@pytest.mark.parametrize("argv, flag, code", [
    (["legendre", "invert"], ["--s", "-1e10"], 2),
    (["legendre", "invert", "--s", "1"], ["--w", "-0.5,0.25"], 0),
    (["legendre", "map", "--r", "2"], ["--gamma", "-1e-3,0.5"], 0),
    (["legendre", "map", "--r", "2"], ["--f", "-1e3"], 0),
    (["simulate", "--config", "{cfg}"], ["--max-dev", "-1e-5"], 2),
])
def test_negative_flag_values_read_as_their_equals_form(tmp_path, argv, flag, code, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "rotator", "t1": 0.1}))
    argv = [str(cfg) if a == "{cfg}" else a for a in argv]
    assert main([*argv, "=".join(flag)]) == code
    joined = capsys.readouterr()
    assert main([*argv, *flag]) == code
    assert capsys.readouterr() == joined


# inputs a closed form rejects, when its sampler is built or at a row: exit 2
# with one exact message, with and without the oracle
@pytest.mark.parametrize("doc, message", [
    ({"system": "rotator", "params": {"g0": [[1, 1, 0], [0, 1, 0], [0, 0, 1]]}},
     "params: g0 fails the rotation check by 1.000e+00"),
    ({"system": "momenta_su2", "params": {"alpha": [0.6, 0], "nu": [0.6, 0]}},
     "params.alpha, params.nu must satisfy |alpha|^2 + |nu|^2 = 1"),
    ({"system": "noncasimir_h", "params": {"alpha0": 1.0, "nu0": 1.0}},
     "params.alpha0, params.nu0 must satisfy |alpha|^2 + |nu|^2 = 1"),
    ({"system": "momenta_su2", "t1": 0.1, "dt": 0.05, "params": {"F": 1e10}},
     "params: non-finite matrix entry at t = 0.050000000000000003"),
    ({"system": "action_angle", "t1": 0.1, "dt": 0.05,
      "params": {"I0": [1.0], "phi0": [0.0], "matrix": [[1e300]]}},
     "params: the flow leaves the finite floats at t = 0.050000000000000003"),
    ({"system": "casimir_sl2c", "t1": 10.0, "dt": 0.5, "params": {"F": 1e300}},
     "params: non-finite matrix entry at t = 0.5"),
    ({"system": "perturbed", "t1": 10.0, "dt": 0.5, "params": {"F": 1e306}},
     "params: non-finite matrix entry at t = 0.5"),
    ({"system": "rotator", "t1": 10.0, "dt": 0.5, "params": {"F": 1e307}},
     "params: F must be finite and keep |F p|^2 finite"),
    # rotator_flow's 3-vector rule
    ({"system": "rotator", "params": {"p": [1.0, 2.0]}},
     "params: p must be finite and of shape (3,)"),
    ({"system": "rotator", "params": {"p": [1.0, 2.0, 3.0, 4.0]}},
     "params: p must be finite and of shape (3,)"),
    # |p|^2 past the normal floats: p_norm read 0 (exit 0), or inf
    ({"system": "rotator", "params": {"p": [1e-200, 0, 0], "F": 1e300}},
     "params: p must be 0 or have |p|^2 in the normal floats"),
    ({"system": "rotator", "params": {"p": [1e200, 1e200, 1e200]}},
     "params: p must be 0 or have |p|^2 in the normal floats"),
    # an entry of the Legendre map past the floats: "float division by zero"
    # or "(34, 'Numerical result out of range')" before
    ({"system": "casimir_sl2c", "params": {"u0": {"r": 1e-200, "gamma": [0, 0]}}},
     "params: non-finite matrix entry"),
    ({"system": "perturbed", "params": {"u0": {"r": 1.0, "gamma": [1e200, 0]}}},
     "params: non-finite matrix entry"),
    # r0 |nu0|^2 past the normal floats: "complex division by zero" before
    ({"system": "noncasimir_h", "params": {"u0": {"r": 1e-200, "gamma": [0, 0]},
                                           "alpha0": [1, 0], "nu0": [1e-100, 0]}},
     "params: nu0 must be 0 or have r0 |nu0|^2 in the normal floats"),
    # |z|^2 of the H0 column past the floats at a finite row: "(34, 'Numerical
    # result out of range')" before
    ({"system": "casimir_sl2c", "t1": 0.1, "dt": 0.05,
      "params": {"g0": {"alpha": math.cos(math.atan2(1.25, 0.7)),
                        "nu": -math.sin(math.atan2(1.25, 0.7))},
                 "u0": {"r": 8e-155, "gamma": 7e153}}},
     "params: the flow leaves the finite floats at t = 0"),
    # a phase lam r0 t / 2 past the floats: "math domain error" from cmath.exp before
    ({"system": "perturbed", "t1": 1000, "dt": 1000,
      "params": {"u0": {"r": 1.0, "gamma": [0.5, 0]}, "lam": 1e308}},
     "params: non-finite matrix entry at t = 1000"),
    # exp(t L) is finite but r0 e^d underflows in exp(t L) u0: "r = 0.0 must be
    # finite and positive" before, which read as a bad input
    ({"system": "momenta_su2", "t1": 1000, "dt": 1000,
      "params": {"u0": {"r": 1e-300, "gamma": [0.5, 0]}, "alpha": [0.6, 0], "nu": [0, 0.8]}},
     "params: the flow leaves the finite floats at t = 1000"),
])
def test_simulate_rejected_params_give_one_exact_error(tmp_path, doc, message, capsys):
    for extra in ((), ("--oracle",)):
        code, _ = run_config(tmp_path, doc, name="never.csv", extra=extra)
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("system", ["casimir_sl2c", "perturbed"])
def test_simulate_su2_exponent_past_the_floats_is_a_config_error(tmp_path, system, capsys):
    # t·L with a det past the floats at the first row after t = 0: "math
    # domain error" before, from cmath.cosh of an infinite delta
    doc = {"system": system, "t1": 1e160, "dt": 1e159,
           "params": {"u0": {"r": 1.0, "gamma": [0.5, 0]}}}
    code, out = run_config(tmp_path, doc)
    assert code == 2
    assert capsys.readouterr().err == ("error: params: non-finite matrix entry "
                                       "at t = 9.9999999999999993e+158\n")
    assert not out.exists()


def test_simulate_names_the_first_non_finite_row(tmp_path, monkeypatch, capsys):
    # a flow whose row at t = 0 is NaN and whose next row raises: the NaN row
    # is the one named, as each row is checked when it is built
    def at(t):
        if t > 0:
            raise ValueError("a later row")
        return dyn.FlowState(t, g=np.full((3, 3), math.nan), p=np.zeros(3), p_norm=0.0)

    rotator = dataclasses.replace(dyn.SYSTEMS["rotator"], flow=lambda p: at)
    monkeypatch.setitem(dyn.SYSTEMS, "rotator", rotator)
    code, _ = run_config(tmp_path, {"system": "rotator", "t1": 1.0, "dt": 0.5}, name="never.csv")
    assert code == 2
    assert capsys.readouterr().err == "error: params: the flow leaves the finite floats at t = 0\n"


@pytest.mark.parametrize("F", [1e3, 1e5, 1e6, 1e8])
def test_simulate_oracle_failure_names_its_t(tmp_path, F, capsys):
    # the field's arithmetic overflows (an OverflowError in Python floats) at
    # F = 1e5 and 1e8, and the state leaves the floats at F = 1e3 and 1e6:
    # either way in the second RK4 step
    doc = {"system": "casimir_sl2c", "t1": 0.01, "dt": 0.01,
           "params": {"u0": {"r": 3.0, "gamma": [2.0, 1.0]}, "F": F}}
    assert run_config(tmp_path, doc, name="plain.csv")[0] == 0
    code, _ = run_config(tmp_path, doc, name="never.csv", extra=("--oracle",))
    assert code == 2
    assert capsys.readouterr().err == ("error: params: the oracle leaves the finite floats "
                                       "at t = 0.002\n")
    assert not (tmp_path / "never.csv").exists()


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# inputs that once ended in a traceback: exit 2 with one error line naming the field
@pytest.mark.parametrize("argv, doc, field", [
    (None, {"system": "casimir_sl2c", "params": {"u0": {"r": 1e-200, "gamma": 0}}}, "params"),
    (None, {"system": "perturbed", "params": {"u0": {"r": 1e-200, "gamma": 0}}}, "params"),
    (None, {"system": "casimir_sl2c", "params": {"g0": {"alpha": 1e200, "nu": 0}}},
     "params.g0"),
    (None, {"system": "momenta_su2", "params": {"alpha": 1e200, "nu": 0}}, "params.alpha"),
    (None, {"system": "noncasimir_h", "params": {"alpha0": [1e200, 1e200], "nu0": 0}},
     "params.alpha0"),
    (None, {"system": "rotator", "t1": 0.1, "out": "{tmp}/missing/run.csv"}, "out"),
    (None, {"system": "rotator", "t1": 0.1, "out": "{tmp}"}, "out"),
    (["verify", "--suite", "legendre", "--seed", "-1"], None, "seed"),
], ids=["casimir_tiny_r", "perturbed_tiny_r", "g0_huge", "momenta_huge", "noncasimir_huge",
        "out_missing_dir", "out_is_dir", "verify_negative_seed"])
def test_former_traceback_paths_exit_two(tmp_path, argv, doc, field, capsys):
    if argv is None:
        doc = {**doc, "t1": doc.get("t1", 1.0)}
        if "out" in doc:
            doc["out"] = doc["out"].format(tmp=tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = ["simulate", "--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}") and err.count("\n") == 1
    assert [p for p in os.listdir(tmp_path) if p.startswith(".doubleflow_")] == []



def test_import_and_freq_simulate_leave_scipy_unloaded(tmp_path):
    # only the fiber-matrix path of action_angle imports scipy
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "action_angle", "t1": 0.1, "dt": 0.05,
                               "params": {"I0": [1.0], "phi0": [0.0], "freq": [1.0]}}))
    script = (
        "import sys\n"
        "import doubleflow, doubleflow.cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        f"code = doubleflow.cli.main(['simulate', '--config', {str(cfg)!r}, "
        f"'--out', {str(tmp_path / 'run.csv')!r}])\n"
        "assert code == 0, code\n"
        "assert 'scipy' not in sys.modules, 'simulate'\n"
    )
    src = os.path.dirname(os.path.dirname(doubleflow.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
