"""Seeded call lists for the three benchmark workloads.

A workload is a fixed list of CLI calls, one pass, built from the benchmark
seed alone; the program sees only the generated configs and arguments.  The
amount of work in a pass (horizons, row counts, sample counts, calls per
system or suite) is the same for every seed; the seed draws the initial data,
parameters, verify seeds and call order.  Only valid configs are drawn:
robustness against bad configs is the job of a config fuzzer, not of this
benchmark, so a zero failure count here says nothing about robustness.
"""

import math
from dataclasses import dataclass

import numpy as np

SYSTEMS = ("casimir_sl2c", "rotator", "momenta_su2", "noncasimir_h", "perturbed",
           "action_angle")
SUITES = ("brackets", "decompositions", "legendre", "flows")
WORKLOADS = ("oracle", "closed_form", "verify")

DT = 0.01

# Short horizons for `simulate --oracle`: every system runs each horizon once
# per pass, so a pass holds 6 x 4 seeded calls plus the accuracy probe.
ORACLE_HORIZONS = (0.15, 0.2, 0.25, 0.3)

# Row counts for plain `simulate`.  The cheap closed forms get many rows per
# call; action_angle with a fiber matrix pays the O(S^2) commutator guard and
# a scipy expm on every row, so a few rows make it the slowest class of call,
# and it holds closed_form's tail percentile.  A pass has an odd number of
# calls (19), so the median falls inside one class (perturbed at 201 rows).
CLOSED_FORM_ROWS = {
    "casimir_sl2c": (201, 401, 601, 801),
    "rotator": (201, 401, 601),
    "momenta_su2": (201, 401, 601),
    "noncasimir_h": (201, 401, 601),
    "perturbed": (201, 401, 601),
    "action_angle": (11, 21, 31),
}

# `verify --samples` per suite.  Structure suites take most of a pass.
# flows costs about the same at any sample count (two RK4 starts over
# [0, 5] at h = 1e-3), so one call per pass keeps it a minority of calls.
# A pass has 11 calls; ordered by cost they are 2 legendre, 5
# decompositions, 3 brackets and flows, so the median falls inside the
# decompositions calls.  A run has fewer than 11 flows calls, so the tail
# falls inside the next-slowest class, the brackets calls.
VERIFY_SAMPLES = {
    "brackets": (200,) * 3,
    "decompositions": (2000,) * 5,
    "legendre": (2000,) * 2,
    "flows": (10,),
}

# A fixed, stiff casimir_sl2c run whose oracle_dev (about 1e-8) is set by RK4
# truncation, not round-off, and lies well above that of the seeded calls: a
# coarser or otherwise less accurate oracle raises it.
PROBE_CONFIG = {
    "system": "casimir_sl2c",
    "t1": 0.25,
    "dt": DT,
    "params": {"u0": {"r": 3.0, "gamma": [2.0, 1.0]}, "F": 3.0},
}


@dataclass(frozen=True)
class Call:
    """One CLI call: `label` is the system or suite it exercises."""

    label: str
    size: str               # horizon, rows or samples: the call's class with label
    argv: tuple
    config: dict = None     # simulate only; written to a file before the run
    header: tuple = None    # simulate only; expected CSV header
    rows: int = 0           # simulate only; expected data rows
    oracle: bool = False


def _cplx(z):
    return [float(z.real), float(z.imag)]


def _su2(rng):
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    return complex(v[0], v[1]), complex(v[2], v[3])


def _sb2(rng):
    return {"r": float(math.exp(rng.uniform(-0.5, 0.5))),
            "gamma": [float(x) for x in 0.5 * rng.standard_normal(2)]}


def _rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q.tolist()


def draw_params(system, rng, fiber):
    """Valid, moderately scaled params for one system.

    fiber selects the action_angle variant: "freq" or "matrix".
    """
    F = float(rng.uniform(0.5, 1.5))
    if system == "casimir_sl2c":
        a, n = _su2(rng)
        return {"g0": {"alpha": _cplx(a), "nu": _cplx(n)}, "u0": _sb2(rng), "F": F}
    if system == "rotator":
        p = rng.standard_normal(3)
        p *= rng.uniform(1.0, 4.0) / np.linalg.norm(p)
        return {"g0": _rotation(rng), "p": p.tolist(), "F": F}
    if system == "momenta_su2":
        a, n = _su2(rng)
        return {"u0": _sb2(rng), "alpha": _cplx(a), "nu": _cplx(n), "F": F}
    if system == "noncasimir_h":
        a, n = _su2(rng)
        return {"u0": _sb2(rng), "alpha0": _cplx(a), "nu0": _cplx(n)}
    if system == "perturbed":
        a, n = _su2(rng)
        return {"g0": {"alpha": _cplx(a), "nu": _cplx(n)}, "u0": _sb2(rng), "F": F,
                "lam": float(rng.uniform(0.05, 0.5))}
    params = {"I0": rng.uniform(0.5, 2.0, 3).tolist(),
              "phi0": rng.uniform(0.0, 2.0 * math.pi, 3).tolist()}
    if fiber == "freq":
        params["freq"] = rng.uniform(-2.0, 2.0, 3).tolist()
    else:
        params["matrix"] = (0.3 * rng.standard_normal((3, 3))).tolist()
    return params


def _complex_cols(prefix):
    return [f"{prefix}_re", f"{prefix}_im"]


def expected_header(config, oracle):
    """CSV header the README documents for this config."""
    system, params = config["system"], config["params"]
    if system == "casimir_sl2c":
        cols = sum((_complex_cols(f"z{i}") for i in range(1, 5)), [])
        cols += ["H0", "det_re", "det_im"]
    elif system == "rotator":
        cols = [f"g{i}{j}" for i in range(1, 4) for j in range(1, 4)]
        cols += ["p1", "p2", "p3", "p_norm"]
    elif system == "momenta_su2":
        cols = ["r", *_complex_cols("gamma"), "h_su2_norm"]
    elif system in ("noncasimir_h", "perturbed"):
        cols = [*_complex_cols("alpha"), *_complex_cols("nu"), "r", *_complex_cols("gamma"),
                "h_nu" if system == "noncasimir_h" else "gamma_abs"]
    else:
        n, m = len(params["I0"]), len(params["phi0"])
        cols = ([f"I_{k}" for k in range(1, n + 1)] + [f"phi_{k}" for k in range(1, m + 1)]
                + [f"phimod_{k}" for k in range(1, m + 1)])
    return tuple(["t", *cols] + (["oracle_dev"] if oracle else []))


def simulate_call(label, config, oracle):
    steps = round(config["t1"] / config["dt"])
    argv = ("simulate", "--oracle") if oracle else ("simulate",)
    size = f"t1={config['t1']}" if oracle else f"rows={steps + 1}"
    return Call(label, size, argv, config, expected_header(config, oracle), steps + 1, oracle)


def probe_call():
    return simulate_call("casimir_sl2c", PROBE_CONFIG, True)


def _oracle(rng):
    calls = [probe_call()]
    for system in SYSTEMS:
        for t1 in ORACLE_HORIZONS:
            config = {"system": system, "t1": t1, "dt": DT,
                      "params": draw_params(system, rng, "freq")}
            calls.append(simulate_call(system, config, True))
    return calls


def _closed_form(rng):
    calls = []
    for system in SYSTEMS:
        for rows in CLOSED_FORM_ROWS[system]:
            config = {"system": system, "t1": round((rows - 1) * DT, 10), "dt": DT,
                      "params": draw_params(system, rng, "matrix")}
            calls.append(simulate_call(system, config, False))
    return calls


def _verify(rng):
    calls = []
    for suite in SUITES:
        for samples in VERIFY_SAMPLES[suite]:
            seed = int(rng.integers(0, 2**31))
            calls.append(Call(suite, f"samples={samples}", ("verify", "--suite", suite, "--seed", str(seed),
                                      "--samples", str(samples))))
    return calls


def build(workload, seed):
    """The seeded call list (one pass) of a workload, in run order."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    calls = {"oracle": _oracle, "closed_form": _closed_form, "verify": _verify}[workload](rng)
    return [calls[i] for i in rng.permutation(len(calls))]
