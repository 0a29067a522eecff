"""Property test: `simulate` on generated configs of every system."""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest

from doubleflow import dynamics as dyn
from doubleflow.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

EXTREMES = [0.0, -0.0, 1.0, -1.0, 0.6, 2.0, 1e-10, 1e10, 1e-160, 1e160, 1e-200, 1e200,
            1e-300, -1e-300, 1e300, -1e300, 5e-324, 1.7e308, -1.7e308]
NUMBER = st.one_of(st.sampled_from(EXTREMES), st.integers(-3, 3),
                   st.floats(allow_nan=False, allow_infinity=False))
POSITIVE = st.one_of(st.sampled_from([x for x in EXTREMES if x > 0]),
                     st.floats(min_value=5e-324, max_value=1.7e308))
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=2), st.just({}),
                 st.lists(NUMBER, max_size=3))


def typed(strategy):
    """Mostly the right JSON type, now and then a wrong one."""
    return st.integers(0, 7).flatmap(lambda k: strategy if k else JUNK)


COMPLEX = st.one_of(NUMBER, st.lists(NUMBER, min_size=2, max_size=2))
UNIT = st.floats(0.0, 7.0).map(lambda a: ([math.cos(a), 0.0], [0.0, math.sin(a)]))
PARAM_KINDS = {
    "float": NUMBER,
    "su2": st.one_of(UNIT.map(lambda an: {"alpha": an[0], "nu": an[1]}),
                     st.fixed_dictionaries({"alpha": typed(COMPLEX), "nu": typed(COMPLEX)})),
    "sb2": st.fixed_dictionaries({"r": typed(POSITIVE), "gamma": typed(COMPLEX)}),
    "vector3": st.lists(NUMBER, min_size=2, max_size=4),
    "vector": st.lists(NUMBER, min_size=1, max_size=2),
    "matrix": st.lists(st.lists(NUMBER, min_size=1, max_size=2), min_size=1, max_size=2),
}


def params_of(system):
    """Any subset of a system's params, each one typed(...) by its parse kind."""
    optional = {}
    for name, kind, _ in dyn.SYSTEMS[system].params:
        if kind == "momenta":  # a unit pair, as drawn, or two free numbers
            optional[name] = st.one_of(UNIT, st.tuples(typed(COMPLEX), typed(COMPLEX)))
        else:
            optional[name] = typed(PARAM_KINDS[kind])
    subset = st.fixed_dictionaries({}, optional=optional).map(
        lambda p: {k: v for name, val in p.items()
                   for k, v in (zip(name, val) if isinstance(name, tuple) else [(name, val)])})
    if system != "action_angle":
        return subset
    # the params a run needs, with either a frequency or a fiber matrix
    needed = {key: optional[key] for key in ("I0", "phi0")}
    return st.one_of(subset, *[st.fixed_dictionaries({**needed, key: optional[key]})
                               for key in ("freq", "matrix")])


GRIDS = st.sampled_from([(0.1, 0.01), (0.2, 0.05), (0.05, 0.05), (0.3, 0.1)])
CONFIGS = st.sampled_from(list(dyn.SYSTEMS)).flatmap(lambda system: st.builds(
    lambda params, grid, oracle: {"system": system, "params": params, "t1": grid[0],
                                  "dt": grid[1], "oracle": oracle},
    params_of(system), GRIDS, st.booleans()))


# simulate on generated configs of every system: a documented exit code, one
# error line on exit 2, and finite CSV values otherwise
@hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
@hypothesis.given(doc=CONFIGS)
def test_simulate_config_fuzz(doc):
    with tempfile.TemporaryDirectory() as d:
        cfg, out = os.path.join(d, "cfg.json"), os.path.join(d, "run.csv")
        with open(cfg, "w") as f:
            json.dump(doc, f)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["simulate", "--config", cfg, "--out", out])
        assert code in (0, 2, 3), err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        else:
            with open(out) as f:
                values = [float(v) for line in f.read().splitlines()[1:] for v in line.split(",")]
            assert values and all(map(math.isfinite, values))
