import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import doubleflow
from doubleflow import cli
from doubleflow import dynamics as dyn
from doubleflow import verify as ver
from doubleflow.cli import MAX_ROWS, _write_csv, main
from doubleflow.quadrature import MAX_STRAIGHT_DIM
from test_dynamics import NoNumpy, count_element_builds


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
        "t1": 1.0, "dt": 0.1, "oracle": False,
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


STIFF_CASIMIR = {"system": "casimir_sl2c", "params": {"u0": {"r": 3.0, "gamma": [2.0, 1.0]},
                                                     "F": 10.0}, "t1": 1.0, "dt": 0.01}


def test_missed_oracle_bound_estimates_the_oracles_own_error(tmp_path, capsys):
    # at F = 10 the closed form is right and RK4 at h = 1e-3 is not: the
    # step-doubling estimate of RK4's own error at the worst row is within
    # 10% of the deviation (the README's example, its line byte for byte);
    # the CSV bytes are those of a run that passes
    code, out = run_config(tmp_path, STIFF_CASIMIR, extra=["--oracle"])
    assert code == 3
    assert capsys.readouterr().err == (
        "oracle deviation 1.682912e-05 exceeds max-dev 1.000000e-05; at its worst row, "
        "t = 0.98999999999999999, the oracle's own error is about 1.680620e-05 by step "
        "doubling\n")
    devs = [r[-1] for r in read_csv(out)[1]]
    assert f"{max(devs):.6e}" == "1.682912e-05" and devs.index(max(devs)) == 99
    code, passing = run_config(tmp_path, STIFF_CASIMIR, name="pass.csv",
                               extra=["--oracle", "--max-dev", "1e-4"])
    assert code == 0 and capsys.readouterr().err == ""
    assert out.read_bytes() == passing.read_bytes()


def test_missed_oracle_bound_skips_an_estimate_past_max_rows(tmp_path, monkeypatch, capsys):
    # 100 RK4 steps pass a cap of 150, and the 200 of the h/2 run would not
    monkeypatch.setattr(cli, "MAX_ROWS", 150)
    doc = {**STIFF_CASIMIR, "t1": 0.1}
    code, _ = run_config(tmp_path, doc, extra=["--oracle", "--max-dev", "1e-18"])
    assert code == 3
    assert capsys.readouterr().err.endswith(
        "the oracle's own error is not estimated: twice its 100 RK4 steps would exceed "
        "MAX_ROWS = 150\n")


def test_missed_oracle_bound_reports_a_half_step_run_past_the_floats(tmp_path, capsys):
    # L[0, 0] = -4000 makes the step of 1e-3 unstable but finite, and puts
    # the second stage of the h/2 run at r = 0, a ZeroDivisionError there
    doc = {"system": "momenta_su2", "params": {"u0": {"r": 1.0, "gamma": [0.5, 0.0]},
                                               "alpha": [0.0, 0.0], "nu": [1.0, 0.0],
                                               "F": 8000.0}, "t1": 0.001, "dt": 0.001}
    code, _ = run_config(tmp_path, doc, extra=["--oracle"])
    assert code == 3
    assert capsys.readouterr().err.endswith(
        "at its worst row, t = 0.001, the oracle's own error is not estimated: RK4 at h/2 "
        "leaves the finite floats at t = 0.00050000000000000001\n")


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
# The last three start where the oracle's rates are signed zeros (F = 0, nu0 =
# 0, lam = 0 with gamma0 = 0), whose signs the float fields need not keep; the
# pinned bytes are those of fields that kept them, so no zero's sign reaches a byte.
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
    ({"system": "momenta_su2", "params": {"u0": {"r": 1.3, "gamma": [-0.0, 0.0]},
                                          "alpha": [0.36, 0.48], "nu": [0.64, -0.48],
                                          "F": 0.0}, "t1": 2.0, "dt": 0.01},
     "f9b15be19896efd0d55280dae5752366d6101d2d2f155ce3df6126c97ae580ae",
     "f1ebfeddd3872f214458b011a78efefa070fb994e4375f0f39aff034b39d571b"),
    ({"system": "noncasimir_h", "params": {"u0": {"r": 0.8, "gamma": [-0.5, 0.1]},
                                           "alpha0": [0.6, 0.8], "nu0": [0.0, 0.0]},
      "t1": 2.0, "dt": 0.01},
     "68904302391882106899356198503a8c6c4b9d77da65e85f6a20fc217bf9252e",
     "7ff44fdabe1e536483548647c0d3114cce894a923c07302028b710e83ae0f6de"),
    ({"system": "perturbed", "params": {"g0": {"alpha": [0.6, 0.0], "nu": [0.0, 0.8]},
                                        "u0": {"r": 1.7, "gamma": [0.0, 0.0]}, "F": 1.0,
                                        "lam": 0.0}, "t1": 2.0, "dt": 0.01},
     "5226d8185b5331b6eea032061f37046e00f7989315f9945592b5ddbc239c2154",
     "abfaa44dd29c42b10a815d71e556aed7f33251dbd4b59f7d1ee59ce2a03e2f89"),
]


@pytest.mark.parametrize("doc, plain, with_oracle", PINNED_CSV,
                         ids=["momenta_su2", "noncasimir_h", "perturbed", "momenta_su2-zeros",
                              "noncasimir_h-zeros", "perturbed-zeros"])
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


def test_write_csv_streams_rows_to_a_file(tmp_path):
    # the CSV is written line by line: no list of lines and no whole-CSV string
    rows = [[j * 0.01, *(math.sin(j + k) for k in range(11))] for j in range(20_000)]
    header = [f"c{i}" for i in range(12)]
    out = tmp_path / "run.csv"
    tracemalloc.start()
    try:
        _write_csv(str(out), header, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert peak < size / 10, (peak, size)
    lines = out.read_text().split("\n")
    assert lines[0] == ",".join(header) and lines[-1] == "" and len(lines) == 20_002
    assert lines[-2] == ",".join(format(x, ".17g") for x in rows[-1])


_MOMENTA_DOC = {"system": "momenta_su2", "t1": 10.0, "dt": 0.1,
                "params": {"u0": {"r": 1.0, "gamma": [0.5, 0.0]}, "alpha": [0.6, 0.0],
                           "nu": [0.0, 0.8], "F": 0.1}}
_CASIMIR_DOC = {"system": "casimir_sl2c", "t1": 7.0, "dt": 1e-3,
                "params": {"g0": {"alpha": [1, 0], "nu": [0, 0]},
                           "u0": {"r": 2.0, "gamma": [0.5, -0.25]}, "F": 1.0}}


@pytest.mark.parametrize("doc, n_rows, bound", [
    # 100 rows of 100 RK4 steps: the oracle stores the 101 states it compares,
    # not all 10,001 of its steps (which took 320 KB more)
    (_MOMENTA_DOC, 101, 100_000),
    # 7,001 rows of one RK4 step: on top of the RK4 states, the deviations are
    # formed in one array of the flat columns, in place, 156 bytes a row (the
    # whole rows as an array and two temporaries took 216; at 6,001 rows, 204)
    (_CASIMIR_DOC, 7_001, 200 * 7_001),
], ids=["momenta_su2", "casimir_sl2c"])
def test_simulate_oracle_memory_grows_with_rows_not_rk4_steps(tmp_path, doc, n_rows, bound):
    # a run with the oracle peaks within the bound of the same run without it
    short = {**doc, "t1": 10 * doc["dt"]}
    peaks = []
    for extra in ((), ("--oracle",)):
        assert run_config(tmp_path, short, extra=extra)[0] == 0  # compiles the RK4 loop once
        tracemalloc.start()
        try:
            code, out = run_config(tmp_path, doc, extra=extra)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    header, rows = read_csv(out)
    assert header[-1] == "oracle_dev" and len(rows) == n_rows and max(r[-1] for r in rows) < 1e-5
    assert peaks[1] - peaks[0] < bound, peaks


def test_simulate_into_a_pipe_closed_after_the_header(tmp_path):
    # a reader that stops early ends the run with exit 0 and nothing on stderr
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "noncasimir_h", "t1": 100.0, "dt": 0.01}))
    src = os.path.dirname(os.path.dirname(doubleflow.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    with open(tmp_path / "err.txt", "wb") as err:
        proc = subprocess.Popen([sys.executable, "-W", "error", "-m", "doubleflow", "simulate",
                                 "--config", str(cfg)], stdout=subprocess.PIPE, stderr=err,
                                env=env)
        try:
            header = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=120)
        finally:
            proc.kill()  # a no-op once it has exited
    assert header == b"t,alpha_re,alpha_im,nu_re,nu_im,r,gamma_re,gamma_im,h_nu\n"
    assert code == 0 and (tmp_path / "err.txt").read_bytes() == b""


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


def test_scalar_params_parse_without_numpy(monkeypatch):
    # a casimir config given in full is floats and complex numbers, checked
    # by math and cmath: the parse makes no numpy call
    params = {"g0": {"alpha": [0.6, 0.0], "nu": [0.0, 0.8]},
              "u0": {"r": 2.0, "gamma": [0.5, -0.25]}, "F": 1.5}
    want = cli._parse_params("casimir_sl2c", params, 0)
    monkeypatch.setattr(cli, "np", NoNumpy())
    got = cli._parse_params("casimir_sl2c", params, 0)
    assert repr(got) == repr(want) and got["u0"].gamma == 0.5 - 0.25j and got["F"] == 1.5


# simulate configs that exit 2 with one error line: (the flag sets it runs
# with, the config, and its whole message after "error: " or a tuple of parts
# of it); a str config is the file's text and None a missing file.  The flag
# sets: P plain, O --oracle, B both
P, O, B = ((),), (("--oracle",),), ((), ("--oracle",))
SIMULATE_EXIT_2 = [
    # config errors
    (P, {"system": "nosuch"}, ("system",)),
    (P, {"system": "rotator", "t1": -1.0}, ("t1",)),
    (P, {"system": "rotator", "dt": 0.0}, ("dt",)),
    (P, {"system": "rotator", "t1": 1.0, "dt": 2.0}, ("dt",)),
    (P, {"system": "rotator", "seed": -1}, ("seed",)),
    (P, {"system": "rotator", "bogus": True}, ("bogus",)),
    (P, {"system": "rotator", "params": {"q": 1}}, ("q",)),
    (P, {"system": "rotator", "params": {"g0": [[1, 0], [0, 1]]}}, ("g0",)),
    (P, {"system": "casimir_sl2c", "params": {"u0": {"r": -2.0, "gamma": 0}}}, ("params.u0.r",)),
    (P, {"system": "casimir_sl2c", "params": {"u0": {"r": 1.0}}}, ("params.u0",)),
    (P, {"system": "momenta_su2", "params": {"alpha": [1, 0], "nu": [1, 0]}}, ("params.alpha",)),
    (P, {"system": "momenta_su2", "params": {"alpha": [1, 0]}}, ("params.nu",)),
    (P, {"system": "action_angle", "params": {"I0": [1.0]}}, ("params.phi0",)),
    (P, {"system": "action_angle", "params": {"I0": [1.0], "phi0": [0.0]}},
     "params: action_angle_flow needs exactly one of freq, matrix"),
    (P, {"system": "action_angle", "params": {"I0": [1.0], "phi0": [0.0], "freq": [1.0],
                                              "matrix": [[0.0]]}},
     "params: action_angle_flow needs exactly one of freq, matrix"),
    (P, {"system": "action_angle", "params": {"I0": [1.0], "phi0": [0.0, 1.0], "freq": [1.0]}},
     "params: freq must be finite and of shape (2,)"),
    (P, {"system": "action_angle", "params": {"I0": [1.0], "phi0": [0.0],
                                              "matrix": [[0.0, 1.0]]}},
     "params: matrix must be finite and of shape (1, 1)"),
    # numeric fields take JSON numbers only: no strings, no booleans
    (P, {"system": "action_angle", "params": {"I0": [1.0], "phi0": [0.0],
                                              "matrix": [["0.5"]]}}, ("params.matrix",)),
    (P, {"system": "rotator", "params": {"g0": [[1, 0, 0], [0, 1, 0], [0, 0, "1"]]}},
     ("params.g0",)),
    (P, {"system": "action_angle", "params": {"I0": [True], "phi0": [0.0], "freq": [1.0]}},
     ("params.I0",)),
    (P, {"system": "momenta_su2", "params": {"alpha": True, "nu": 0}}, ("params.alpha",)),
    (P, {"system": "perturbed", "params": {"u0": {"r": 1.0, "gamma": [True, 0.0]}}},
     ("params.u0.gamma",)),
    # the config is not a JSON object in a readable file; "oracle" is not a
    # JSON boolean
    (P, "{not json", ("JSON",)),
    (P, None, ()),
    *((P, {"system": "rotator", "t1": 0.1, "oracle": value}, ("oracle",))
      for value in ["false", "true", 0, 1, None, [True]]),
    # non-finite numbers
    (P, {"system": "rotator", "t1": math.inf}, ("t1", "finite")),
    (P, {"system": "rotator", "t1": -math.inf}, ("t1", "finite")),
    (P, {"system": "rotator", "dt": math.nan}, ("dt", "finite")),
    (P, {"system": "rotator", "max_dev": math.nan}, ("max_dev", "finite")),
    (P, {"system": "rotator", "max_dev": math.inf}, ("max_dev", "finite")),
    ((("--oracle", "--max-dev", "nan"),), {"system": "rotator", "t1": 0.1},
     ("max_dev", "finite")),
    (P, {"system": "rotator", "params": {"F": math.nan}}, ("params.F", "finite")),
    (P, {"system": "perturbed", "params": {"F": -math.inf}}, ("params.F", "finite")),
    (P, {"system": "perturbed", "params": {"u0": {"r": 1.0, "gamma": [math.nan, 0.0]}}},
     ("params.u0.gamma", "finite")),
    (P, {"system": "rotator", "params": {"p": [0.0, math.inf, 1.0]}}, ("params.p", "finite")),
    (P, {"system": "rotator", "params": {"g0": [[1, 0, 0], [0, 1, 0], [0, 0, math.nan]]}},
     ("params.g0", "finite")),
    (P, {"system": "action_angle", "params": {"I0": [1.0], "phi0": [0.0],
                                              "matrix": [[math.inf]]}},
     ("params.matrix", "finite")),
    # JSON integers beyond the floats
    (P, {"system": "rotator", "params": {"F": 10**400}}, ("params.F", "finite")),
    (P, {"system": "rotator", "params": {"p": [0.0, -10**400, 1.0]}}, ("params.p", "finite")),
    (P, {"system": "action_angle", "params": {"I0": [1.0], "phi0": [0.0],
                                              "matrix": [[10**400]]}},
     ("params.matrix", "finite")),
    (P, {"system": "momenta_su2", "params": {"alpha": [10**400, 0], "nu": 0}},
     ("params.alpha", "finite")),
    # overflowing configs
    (P, {"system": "rotator", "t1": 1e300, "dt": 1e-300}, ("dt",)),
    (P, {"system": "rotator", "t1": 1.0, "dt": 1.0 / (MAX_ROWS + 1)}, ("dt",)),
    (P, {"system": "momenta_su2", "t1": 0.1, "dt": 0.05, "params": {"F": 1e10}}, ("params",)),
    (P, {"system": "action_angle", "t1": 0.1, "dt": 0.05,
         "params": {"I0": [1.0], "phi0": [0.0], "matrix": [[1e300]]}}, ("t = ",)),
    (O, {"system": "action_angle", "t1": 0.1, "dt": 0.05,
         "params": {"I0": [1.0], "phi0": [1.0], "matrix": [[1e300]]}}, ("params",)),
    (O, {"system": "rotator", "t1": 0.1, "dt": 0.01, "params": {"F": 1e6}}, ("t = ",)),
    # inputs a closed form rejects, when its sampler is built or at a row
    (B, {"system": "rotator", "params": {"g0": [[1, 1, 0], [0, 1, 0], [0, 0, 1]]}},
     "params: g0 fails the rotation check by 1.000e+00"),
    (B, {"system": "momenta_su2", "params": {"alpha": [0.6, 0], "nu": [0.6, 0]}},
     "params.alpha, params.nu must satisfy |alpha|^2 + |nu|^2 = 1"),
    (B, {"system": "noncasimir_h", "params": {"alpha0": 1.0, "nu0": 1.0}},
     "params.alpha0, params.nu0 must satisfy |alpha|^2 + |nu|^2 = 1"),
    (B, {"system": "momenta_su2", "t1": 0.1, "dt": 0.05, "params": {"F": 1e10}},
     "params: non-finite matrix entry at t = 0.050000000000000003"),
    (B, {"system": "action_angle", "t1": 0.1, "dt": 0.05,
         "params": {"I0": [1.0], "phi0": [0.0], "matrix": [[1e300]]}},
     "params: the flow leaves the finite floats at t = 0.050000000000000003"),
    (B, {"system": "casimir_sl2c", "t1": 10.0, "dt": 0.5, "params": {"F": 1e300}},
     "params: non-finite matrix entry at t = 0.5"),
    (B, {"system": "perturbed", "t1": 10.0, "dt": 0.5, "params": {"F": 1e306}},
     "params: non-finite matrix entry at t = 0.5"),
    (B, {"system": "rotator", "t1": 10.0, "dt": 0.5, "params": {"F": 1e307}},
     "params: F must be finite and keep |F p|^2 finite"),
    # rotator_flow's 3-vector rule
    (B, {"system": "rotator", "params": {"p": [1.0, 2.0]}},
     "params: p must be finite and of shape (3,)"),
    (B, {"system": "rotator", "params": {"p": [1.0, 2.0, 3.0, 4.0]}},
     "params: p must be finite and of shape (3,)"),
    # |p|^2 past the normal floats: p_norm read 0 (exit 0), or inf
    (B, {"system": "rotator", "params": {"p": [1e-200, 0, 0], "F": 1e300}},
     "params: p must be 0 or have |p|^2 in the normal floats"),
    (B, {"system": "rotator", "params": {"p": [1e200, 1e200, 1e200]}},
     "params: p must be 0 or have |p|^2 in the normal floats"),
    # an entry of the Legendre map past the floats: "float division by zero"
    # or "(34, 'Numerical result out of range')" before
    (B, {"system": "casimir_sl2c", "params": {"u0": {"r": 1e-200, "gamma": [0, 0]}}},
     "params: non-finite matrix entry"),
    (B, {"system": "perturbed", "params": {"u0": {"r": 1.0, "gamma": [1e200, 0]}}},
     "params: non-finite matrix entry"),
    # r0 |nu0|^2 past the normal floats: "complex division by zero" before
    (B, {"system": "noncasimir_h", "params": {"u0": {"r": 1e-200, "gamma": [0, 0]},
                                              "alpha0": [1, 0], "nu0": [1e-100, 0]}},
     "params: nu0 must be 0 or have r0 |nu0|^2 in the normal floats"),
    # |z|^2 of the H0 column past the floats at a finite row: "(34, 'Numerical
    # result out of range')" before
    (B, {"system": "casimir_sl2c", "t1": 0.1, "dt": 0.05,
         "params": {"g0": {"alpha": math.cos(math.atan2(1.25, 0.7)),
                           "nu": -math.sin(math.atan2(1.25, 0.7))},
                    "u0": {"r": 8e-155, "gamma": 7e153}}},
     "params: the flow leaves the finite floats at t = 0"),
    # a phase lam r0 t / 2 past the floats: "math domain error" from cmath.exp before
    (B, {"system": "perturbed", "t1": 1000, "dt": 1000,
         "params": {"u0": {"r": 1.0, "gamma": [0.5, 0]}, "lam": 1e308}},
     "params: non-finite matrix entry at t = 1000"),
    # exp(t L) is finite but r0 e^d underflows in exp(t L) u0: "r = 0.0 must be
    # finite and positive" before, which read as a bad input
    (B, {"system": "momenta_su2", "t1": 1000, "dt": 1000,
         "params": {"u0": {"r": 1e-300, "gamma": [0.5, 0]}, "alpha": [0.6, 0],
                    "nu": [0, 0.8]}},
     "params: the flow leaves the finite floats at t = 1000"),
    # a flow past the floats in the middle of a block of rows: the message
    # names that row, not the block's first t or the first failing t after it
    (P, {"system": "rotator", "t1": 200, "dt": 0.1, "params": {"p": [1e152, 0, 0]}},
     "params: the flow leaves the finite floats at t = 134.09999999999999"),
    (P, {"system": "action_angle", "t1": 20, "dt": 0.01,
         "params": {"I0": [1, 1], "phi0": [1, 1], "matrix": [[50, 1], [0, -1]]}},
     "params: the flow leaves the finite floats at t = 14.200000000000001"),
    (P, {"system": "action_angle", "t1": 20, "dt": 0.01,
         "params": {"I0": [1], "phi0": [1], "freq": [1e307]}},
     "params: the flow leaves the finite floats at t = 17.98"),
    # t·L with a det past the floats at the first row after t = 0: "math
    # domain error" before, from cmath.cosh of an infinite delta
    *((P, {"system": system, "t1": 1e160, "dt": 1e159,
           "params": {"u0": {"r": 1.0, "gamma": [0.5, 0]}}},
       "params: non-finite matrix entry at t = 9.9999999999999993e+158")
      for system in ["casimir_sl2c", "perturbed"]),
    # the oracle's field overflows (an OverflowError in Python floats) at F =
    # 1e5 and 1e8, and its state leaves the floats at F = 1e3 and 1e6: either
    # way in the second RK4 step; the closed form alone exits 0
    *((O, {"system": "casimir_sl2c", "t1": 0.01, "dt": 0.01,
           "params": {"u0": {"r": 3.0, "gamma": [2.0, 1.0]}, "F": F}},
       "params: the oracle leaves the finite floats at t = 0.002")
      for F in [1e3, 1e5, 1e6, 1e8]),
    # inputs that once ended in a traceback
    (P, {"system": "casimir_sl2c", "t1": 1.0, "params": {"u0": {"r": 1e-200, "gamma": 0}}},
     "params: non-finite matrix entry"),
    (P, {"system": "perturbed", "t1": 1.0, "params": {"u0": {"r": 1e-200, "gamma": 0}}},
     "params: non-finite matrix entry"),
    (P, {"system": "casimir_sl2c", "t1": 1.0, "params": {"g0": {"alpha": 1e200, "nu": 0}}},
     "params.g0: |alpha|^2 + |nu|^2 = inf is not 1"),
    (P, {"system": "momenta_su2", "t1": 1.0, "params": {"alpha": 1e200, "nu": 0}},
     "params.alpha, params.nu must satisfy |alpha|^2 + |nu|^2 = 1"),
    (P, {"system": "noncasimir_h", "t1": 1.0, "params": {"alpha0": [1e200, 1e200], "nu0": 0}},
     "params.alpha0, params.nu0 must satisfy |alpha|^2 + |nu|^2 = 1"),
    (P, {"system": "rotator", "t1": 0.1, "out": "{tmp}/missing/run.csv"},
     "out: cannot write {tmp}/missing/run.csv: No such file or directory"),
    (P, {"system": "rotator", "t1": 0.1, "out": "{tmp}"}, "out: cannot write {tmp}: Is a directory"),
]


@pytest.mark.parametrize("runs, doc, message", SIMULATE_EXIT_2,
                         ids=[f"row{i}" for i in range(len(SIMULATE_EXIT_2))])
def test_simulate_exits_2_with_one_error_line(tmp_path, runs, doc, message, capsys):
    cfg = tmp_path / "cfg.json"
    if doc is not None:
        cfg.write_text(doc if isinstance(doc, str) else
                       json.dumps(doc).replace("{tmp}", str(tmp_path)))
    out = [] if isinstance(doc, dict) and "out" in doc else ["--out", str(tmp_path / "never.csv")]
    for extra in runs:
        assert main(["simulate", "--config", str(cfg), *out, *extra]) == 2
        captured = capsys.readouterr()
        err = captured.err
        assert captured.out == "" and err.startswith("error: ") and err.count("\n") == 1
        if isinstance(message, str):
            assert err == f"error: {message}\n".replace("{tmp}", str(tmp_path))
        else:
            assert all(part in err for part in message)
        # no output file and no temp file
        assert os.listdir(tmp_path) == ([] if doc is None else ["cfg.json"])
    if str(message).startswith("params: the oracle"):  # the closed form alone runs
        assert run_config(tmp_path, doc, name="plain.csv")[0] == 0


def test_simulate_caps_oracle_steps_before_building_anything(tmp_path, monkeypatch, capsys):
    # 1e6 rows of 1000 RK4 steps each would ask for a 1e9-row state array: the
    # cap must fire before a row or an oracle state exists, so neither may run
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(cli, "rk4_integrate", reached)
    rotator = dyn.SYSTEMS["rotator"]
    monkeypatch.setitem(dyn.SYSTEMS, "rotator", dataclasses.replace(rotator, sample=reached))
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


# every registered system, action_angle in both of its variants, and a fiber
# whose 2n flat floats pass MAX_STRAIGHT_DIM, so RK4 runs its general loop
_N = MAX_STRAIGHT_DIM // 2 + 1
REGISTRY_CASES = [(name, {}) for name in dyn.SYSTEMS if name != "action_angle"] + [
    ("action_angle", {"I0": [0.5, 1.5], "phi0": [0.1, 6.0], "freq": [1.0, -0.75]}),
    ("action_angle", {"I0": [1.0], "phi0": [1.0, 0.5], "matrix": [[0.1, -1.0], [1.3, 0.2]]}),
    ("action_angle", {"I0": [1.0] * _N, "phi0": [0.5] * _N,
                      "matrix": [[0.3 * (i == j) - 0.1 * (i == j + 1) for j in range(_N)]
                                 for i in range(_N)]}),
]


@pytest.mark.parametrize("system, params", REGISTRY_CASES)
def test_registry_system_simulates_with_oracle(tmp_path, system, params, capsys):
    doc = {"system": system, "params": params, "t1": 0.2, "dt": 0.05, "seed": 4}
    code, out = run_config(tmp_path, doc, extra=["--oracle"])
    assert code == 0
    header, rows = read_csv(out)
    flat_columns, invariant_columns = dyn.SYSTEMS[system].columns(params)
    assert header == ["t", *flat_columns, *invariant_columns, "oracle_dev"]
    assert len(rows) == 5 and all(math.isfinite(v) for row in rows for v in row)
    assert max(row[-1] for row in rows) < 1e-8
    _, again = run_config(tmp_path, doc, name="again.csv", extra=["--oracle"])
    assert again.read_bytes() == out.read_bytes()
    capsys.readouterr()
    assert main(["simulate", "--config", str(tmp_path / "cfg.json"), "--oracle"]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()  # both sinks, same bytes
    code, _ = run_config(tmp_path, {**doc, "params": {**params, "bogus": 1}}, name="never.csv")
    assert code == 2
    assert system in capsys.readouterr().err


@pytest.mark.parametrize("system, params", REGISTRY_CASES)
def test_simulate_builds_no_flow_state_per_row(tmp_path, monkeypatch, system, params):
    # 1,001 rows cross the 1,000-row block boundary; a block builds its rows
    # from the flow's values on coordinate tuples, and a FlowState and its
    # group elements are only for callers of at(t): a run builds the elements
    # of its config, as many at 1,001 rows as at 2
    made = Counter()

    class Counted(dyn.FlowState):
        def __init__(self, *args, **kwargs):
            made["FlowState"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(dyn, "FlowState", Counted)
    count_element_builds(monkeypatch, made)
    builds = []
    for t1 in (0.01, 10.0):
        made.clear()
        code, out = run_config(tmp_path, {"system": system, "params": params, "t1": t1,
                                          "dt": 0.01, "seed": 4})
        assert code == 0 and len(read_csv(out)[1]) == round(t1 / 0.01) + 1
        builds.append(dict(made))
    assert builds[1] == builds[0] and "FlowState" not in builds[1]


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


# (name, tolerance, samples) of every `verify --suite all --samples 20` check,
# in report order; the verdicts, not the residual bits, hold under every
# OpenBLAS kernel
VERIFY_CHECK_TABLE = [
    ("antisymmetry_coefficients", 0.0, 0), ("reality_coefficients", 0.0, 0),
    ("table_values_identity", 1e-15, 1), ("jacobi_sl2c_on_surface", 1e-10, 20),
    ("jacobi_sl2c_generic", 1e-10, 20), ("jacobi_su2", 1e-10, 20),
    ("jacobi_sb2", 1e-10, 20), ("jacobi_double", 1e-10, 20),
    ("casimir_det", 1e-12, 20), ("casimir_conj_det", 1e-12, 20),
    ("casimir_h_su2_norm", 1e-12, 20), ("casimir_h0_sb2", 1e-12, 20),
    ("symmetry_reality_eval", 1e-12, 20), ("symmetry_inversion_eval", 1e-12, 20),
    ("leibniz_product_covector", 1e-10, 20), ("field_matches_transcribed_flow", 1e-12, 20),
    ("product_coordinates_consistency", 1e-12, 20), ("table_json_round_trip", 0.0, 0),
    ("iwasawa_gu_recompose", 1e-12, 20), ("iwasawa_ug_recompose", 1e-12, 20),
    ("factor_membership", 1e-12, 20), ("factor_uniqueness", 1e-10, 20),
    ("legendre_lands_in_su2", 1e-12, 20), ("legendre_round_trip", 1e-10, 20),
    ("legendre_unreduced_inverse_mismatch", 0.0, 20), ("eq5_conservation_drift", 1e-8, 2),
    ("casimir_flow_vs_oracle", 1e-6, 2), ("noncasimir_flow_vs_oracle", 1e-6, 2),
    ("perturbed_flow_ode_residual", 1e-6, 20), ("rotator_orthogonality", 1e-10, 51),
    ("rotator_full_turn", 1e-10, 1), ("commuting_guard_accepts", 1e-8, 257),
    ("commuting_guard_rejects", 0.0, 33), ("interaction_picture_commuting", 1e-12, 1),
    ("action_angle_frequency", 1e-12, 1), ("rk4_order_ratio", 2.0, 2),
]


def test_verify_all_verdicts_and_check_table_are_pinned(capsys):
    assert main(["verify", "--suite", "all", "--seed", "0", "--samples", "20"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_pass"] is True
    for c in doc["checks"]:
        assert c["passed"] and math.isfinite(c["residual"]) and c["residual"] <= c["tolerance"]
    assert [(c["name"], c["tolerance"], c["samples"]) for c in doc["checks"]] \
        == VERIFY_CHECK_TABLE


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
    assert row["H0"] == dyn._casimir_invariants(*dyn.flat_to_z(y))[0] == 0.5


def test_verify_bad_arguments(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2
    assert main(["verify", "--suite", "legendre", "--samples", "0"]) == 2
    capsys.readouterr()
    assert main(["verify", "--suite", "legendre", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed") and err.count("\n") == 1


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
    # a subnormal F and an F of -0.0 print each zero's sign
    for argv, negative in [(["--r", "2", "--f", "5e-324"], "v21_im"),
                           (["--r", "2", "--gamma", "0.5,-0.25", "--f=-0.0"], "v22_re")]:
        assert main(["legendre", "map", *argv]) == 0
        assert capsys.readouterr().out == "".join(
            f"{k} = {'-0' if k == negative else '0'}\n" for k in
            [f"v{ij}_{part}" for ij in (11, 12, 21, 22) for part in ("re", "im")]
            + ["roundtrip_residual"])
    assert main(["legendre", "map", "--r", "-1"]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["legendre", "map", "--r", "10", "--f", "1e308"]) == 2
    assert capsys.readouterr().err == ("error: --f is out of range: the Legendre map or its "
                                       "round trip overflows or underflows\n")


def test_legendre_invert_subcommand(capsys):
    assert main(["legendre", "invert", "--s", "1.875", "--w", "0,0"]) == 0
    out = dict(line.split(" = ") for line in capsys.readouterr().out.strip().split("\n"))
    assert float(out["r"]) == pytest.approx(2.0)
    assert float(out["roundtrip_residual"]) < 1e-12
    assert main(["legendre", "invert", "--s", "1.875", "--unreduced"]) == 0
    out = dict(line.split(" = ") for line in capsys.readouterr().out.strip().split("\n"))
    assert float(out["r"]) == pytest.approx(4.0)
    assert float(out["roundtrip_residual"]) > 1e-2


# non-finite flags, and flags whose map or inverse leaves the floats
@pytest.mark.parametrize("argv, flag", [
    (["map", "--r", "nan"], "--r"),
    (["map", "--r", "inf"], "--r"),
    (["map", "--r", "2", "--f", "nan"], "--f"),
    (["map", "--r", "2", "--f=-inf"], "--f"),
    (["invert", "--s", "nan"], "--s"),
    (["invert", "--s", "inf"], "--s"),
    (["map", "--r", "2", "--f", "-inf"], "--f"),
    (["map", "--r", "1e200"], "--r"),
    (["map", "--r", "1e-200"], "--r"),
    (["map", "--r", "2", "--f", "1e308", "--gamma", "1e300"], "--gamma"),
    (["map", "--r", "20", "--f", "1e308"], "--f"),
    (["invert", "--s", "1e300"], "--s"),
    (["invert", "--s=-1e10"], "--s"),
    (["invert", "--s", "1", "--w", "1e200"], "--w"),
    (["invert", "--s", "-1e10"], "--s"),
])
def test_legendre_rejects_flags(argv, flag, capsys):
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
    (["legendre", "map", "--r", "2", "--gamma", "-1e-3,0.5"], ["--f", "-1e3"], 0),
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


def test_simulate_names_the_first_non_finite_row(tmp_path, monkeypatch, capsys):
    # a sampler whose row at t = 0 is NaN and whose next t raises: the NaN row
    # is the one named, as a block's rows are checked before its sampler's error
    def block(times):
        return [[math.nan] * 9 + [0.0] * 4], ValueError("a later row")

    rotator = dataclasses.replace(dyn.SYSTEMS["rotator"], sample=lambda p: block)
    monkeypatch.setitem(dyn.SYSTEMS, "rotator", rotator)
    code, _ = run_config(tmp_path, {"system": "rotator", "t1": 1.0, "dt": 0.5}, name="never.csv")
    assert code == 2
    assert capsys.readouterr().err == "error: params: the flow leaves the finite floats at t = 0\n"


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_import_and_given_param_runs_leave_scipy_and_numpy_random_unloaded(tmp_path):
    # only the fiber-matrix path of action_angle imports scipy, and only a
    # drawn param imports numpy.random
    given, drawn = tmp_path / "given.json", tmp_path / "drawn.json"
    given.write_text(json.dumps({"system": "action_angle", "t1": 0.1, "dt": 0.05,
                                 "params": {"I0": [1.0], "phi0": [0.0], "freq": [1.0]}}))
    drawn.write_text(json.dumps({"system": "casimir_sl2c", "t1": 0.1, "dt": 0.05}))
    out = str(tmp_path / "run.csv")
    script = (
        "import sys\n"
        "import doubleflow, doubleflow.cli\n"
        "def run(*argv):\n"
        "    assert doubleflow.cli.main(list(argv)) == 0, argv\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "assert 'numpy.random' not in sys.modules, 'import'\n"
        f"run('simulate', '--config', {str(given)!r}, '--out', {out!r})\n"
        "assert 'scipy' not in sys.modules, 'simulate'\n"
        "assert 'numpy.random' not in sys.modules, 'simulate'\n"
        "run('legendre', 'map', '--r', '2')\n"
        "assert 'numpy.random' not in sys.modules, 'legendre'\n"
        f"run('simulate', '--config', {str(drawn)!r}, '--out', {out!r})\n"
        "assert 'numpy.random' in sys.modules, 'drawn'\n"
    )
    src = os.path.dirname(os.path.dirname(doubleflow.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
