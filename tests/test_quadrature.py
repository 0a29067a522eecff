import math

import numpy as np
import pytest

from doubleflow import dynamics as dyn
from doubleflow.cli import _parse_params
from doubleflow.quadrature import (
    NonFiniteStateError,
    Trajectory,
    drift_report,
    rk4_integrate,
    simpson_rule,
)


def rotation_field(y):
    # flat form of ydot = i*y on (Re y, Im y)
    return np.array([-y[1], y[0]])


def test_rk4_accuracy_on_rotation():
    traj = rk4_integrate(rotation_field, np.array([1.0, 0.0]), 0.0, 1.0, 1e-3)
    assert abs(traj.states[-1][0] - math.cos(1.0)) < 1e-12
    assert abs(traj.states[-1][1] - math.sin(1.0)) < 1e-12


def test_rk4_order_four():
    def endpoint_error(h):
        traj = rk4_integrate(rotation_field, np.array([1.0, 0.0]), 0.0, 1.0, h)
        return math.hypot(traj.states[-1][0] - math.cos(1.0),
                          traj.states[-1][1] - math.sin(1.0))

    ratio = endpoint_error(1e-2) / endpoint_error(5e-3)
    assert 14.0 <= ratio <= 18.0


def test_rk4_grid_and_partial_final_step():
    traj = rk4_integrate(rotation_field, np.array([1.0, 0.0]), 0.0, 1.0, 0.3)
    np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0])
    # global error ~ C h^4 with h = 0.3
    assert abs(traj.states[-1][0] - math.cos(1.0)) < 1e-4
    # exact multiple: no spurious extra node
    traj = rk4_integrate(rotation_field, np.array([1.0, 0.0]), 0.0, 1.0, 0.25)
    np.testing.assert_allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert traj.times[-1] == 1.0


def test_rk4_rejects_bad_arguments():
    y0 = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        rk4_integrate(rotation_field, y0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        rk4_integrate(rotation_field, y0, 1.0, 1.0, 0.1)
    # a rate of another length than the state
    for rate in ([1.0], [1.0, 0.0, 0.0]):
        with pytest.raises(ValueError):
            rk4_integrate(lambda y: rate, y0, 0.0, 1.0, 0.25)


def test_rk4_step_count_overflow_is_a_value_error():
    # (t1 - t0) / h, and t1 - t0 itself, overflow to inf before any grid exists
    for t0, t1, h in ((0.0, 1e308, 1e-308), (-1e308, 1e308, 1.0)):
        with pytest.raises(ValueError, match="step count"):
            rk4_integrate(lambda y: [0.0], [1.0], t0, t1, h)


def test_rk4_grid_starts_at_t0_and_steps_at_least_once():
    y0 = [1.0, 0.0]
    # h far beyond t1 - t0: one step of t1 - t0 (the t0 row was dropped)
    _, ref_states = reference_rk4(rotation_field, np.array(y0), 0.0, 1.0, 1.0)
    for h in (1.5, 2e12, 1e300):
        traj = rk4_integrate(rotation_field, y0, 0.0, 1.0, h)
        assert traj.times.tolist() == [0.0, 1.0]
        assert traj.states.tobytes() == ref_states.tobytes()
    # an interval within the round-off of its times still takes its one step
    t1 = 1.0 + 2**-52
    traj = rk4_integrate(rotation_field, y0, 1.0, t1, 0.1)
    assert traj.times.tolist() == [1.0, t1]
    assert traj.states[0].tolist() == y0 and traj.states[1][1] > 0.0
    # non-finite times or step (a RuntimeWarning or an OverflowError before)
    inf = math.inf
    for t0, t1, h in ((0.0, 1.0, inf), (-inf, 1.0, 0.1), (0.0, inf, 0.1),
                      (0.0, 1.0, math.nan), (math.nan, 1.0, 0.1)):
        with pytest.raises(ValueError, match="must be finite"):
            rk4_integrate(rotation_field, y0, t0, t1, h)


def test_rk4_nonfinite_detection():
    def blowup(y):
        return np.array([np.inf])

    with pytest.raises(NonFiniteStateError) as err:
        rk4_integrate(blowup, np.array([1.0]), 0.0, 1.0, 0.25)
    assert err.value.time == pytest.approx(0.25)
    with pytest.raises(NonFiniteStateError):
        rk4_integrate(rotation_field, np.array([np.nan, 0.0]), 0.0, 1.0, 0.25)


def reference_rk4(field, y0, t0, t1, h):
    """The step-by-step RK4 driver: one stage function, list appends."""
    def step(y, h):
        k1 = np.asarray(field(y), dtype=float)
        k2 = np.asarray(field(y + 0.5 * h * k1), dtype=float)
        k3 = np.asarray(field(y + 0.5 * h * k2), dtype=float)
        k4 = np.asarray(field(y + h * k3), dtype=float)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    y = np.array(y0, dtype=float)
    n_full = int(math.floor((t1 - t0) / h + 1e-12))
    times, states = [t0], [y]
    for k in range(n_full):
        y = step(y, h)
        times.append(t0 + (k + 1) * h)
        states.append(y)
    rest = t1 - (t0 + n_full * h)
    if rest > 1e-12 * max(h, abs(t1)):
        states.append(step(y, rest))
        times.append(t1)
    else:
        times[-1] = t1
    return np.array(times), np.array(states)


def lotka_volterra(y):
    return np.array([y[0] * (1.0 - 0.7 * y[1]), y[1] * (0.4 * y[0] - 1.1)])


@pytest.mark.parametrize("t0, t1, h", [(0.0, 1.0, 0.25), (0.0, 1.0, 0.3),
                                       (0.5, 3.7, 1e-2), (-1.0, 2.0, 7e-3)])
def test_rk4_bitwise_matches_reference_loop(t0, t1, h):
    y0 = np.array([1.3, 0.6])
    traj = rk4_integrate(lotka_volterra, y0, t0, t1, h)
    times, states = reference_rk4(lotka_volterra, y0, t0, t1, h)
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.tobytes() == states.tobytes()


# simulate's params for every SYSTEMS entry: omitted initial data are drawn
# from the seed; action_angle runs by freq and by matrix
ORACLE_CASES = [(name, {}) for name in dyn.SYSTEMS if name != "action_angle"] + [
    ("action_angle", {"I0": [1.0, 2.0], "phi0": [0.1, 0.2], "freq": [0.3, -1.7]}),
    ("action_angle", {"I0": [1.0], "phi0": [0.1, 0.2], "matrix": [[0.1, -0.4], [0.4, 0.1]]}),
]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("system, given", ORACLE_CASES,
                         ids=[name + "".join(f"-{k}" for k in ("freq", "matrix") if k in given)
                              for name, given in ORACLE_CASES])
def test_rk4_on_system_fields_bitwise_matches_array_loop(system, given, seed):
    sysdef = dyn.SYSTEMS[system]
    params = _parse_params(system, given, np.random.default_rng(seed))
    field = sysdef.field(params)
    y0 = sysdef.flat(sysdef.flow(params)(0.0))
    # 0.8 / 3e-3 leaves a partial last step
    traj = rk4_integrate(field, y0, 0.0, 0.8, 3e-3)
    times, states = reference_rk4(lambda y: np.asarray(field(y)), y0, 0.0, 0.8, 3e-3)
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.tobytes() == states.tobytes()


def test_rk4_nonfinite_time_when_a_stage_sum_overflows():
    # the rate stays finite; the state overflows in the update sum of the
    # fourth step (1.79e308 + 4 * 2.5e305 > DBL_MAX)
    def push(y):
        return [1e306]

    with pytest.raises(NonFiniteStateError) as err:
        rk4_integrate(push, [1.79e308], 0.0, 2.0, 0.25)
    with np.errstate(over="ignore"):
        times, states = reference_rk4(push, np.array([1.79e308]), 0.0, 2.0, 0.25)
    first_bad = np.flatnonzero(~np.isfinite(states[:, 0]))[0]
    assert err.value.time == times[first_bad] == 1.0


def test_rk4_nonfinite_time_on_partial_step():
    calls = []

    def late_blowup(y):
        calls.append(None)
        return np.array([np.inf if len(calls) > 12 else 1.0])

    # three full steps of 0.3 use 12 evaluations; the partial step blows up
    with pytest.raises(NonFiniteStateError) as err:
        rk4_integrate(late_blowup, np.array([0.0]), 0.0, 1.0, 0.3)
    assert err.value.time == 1.0


@pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError])
def test_rk4_field_arithmetic_error_is_nonfinite_at_its_step(error):
    # evaluations 9 to 12 are the stages of the third step
    calls = []

    def fails_on_tenth(y):
        calls.append(None)
        if len(calls) == 10:
            raise error("in the field")
        return [1.0]

    with pytest.raises(NonFiniteStateError) as err:
        rk4_integrate(fails_on_tenth, [0.0], 0.0, 1.0, 0.25)
    assert err.value.time == 0.75
    assert isinstance(err.value.__cause__, error)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory([0.0, 0.0], [[1.0], [1.0]])
    with pytest.raises(ValueError):
        Trajectory([0.0, 1.0], [[1.0]])
    t = Trajectory([0.0, 1.0], [[1.0, 2.0], [3.0, 4.0]])
    assert len(t) == 2 and t.states.shape == (2, 2)


def test_simpson_rule_weights():
    nodes, weights = simpson_rule(0.0, 1.0, 4)
    assert len(nodes) == 5
    assert weights.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        simpson_rule(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        simpson_rule(0.0, 1.0, 0)


def _simpson(f, t0, t1, n):
    nodes, weights = simpson_rule(t0, t1, n)
    return sum(w * f(s) for s, w in zip(nodes, weights))


def test_simpson_exact_for_cubics():
    val = _simpson(lambda s: 4.0 * s**3 - 3.0 * s**2 + 2.0 * s - 1.0, 0.0, 2.0, 2)
    exact = 2.0**4 - 2.0**3 + 2.0**2 - 2.0
    assert val == pytest.approx(exact, abs=1e-14)


def test_simpson_converges_on_smooth_integrand():
    # composite error ~ (b - a) h^4 / 180, halving h gains ~16x
    coarse = abs(_simpson(math.sin, 0.0, math.pi, 8) - 2.0)
    fine = abs(_simpson(math.sin, 0.0, math.pi, 16) - 2.0)
    assert fine < coarse / 10.0
    assert fine < 1e-4


def test_drift_report_tracks_conserved_radius():
    traj = rk4_integrate(rotation_field, np.array([1.0, 0.0]), 0.0, 10.0, 1e-2)
    rep = drift_report(traj, ("radius", "angle_rate"),
                       lambda y: (math.hypot(y[0], y[1]), y[0] ** 2 + y[1] ** 2))
    assert rep["radius"][1] < 1e-10
    assert max(d for _, d, _ in rep.values()) < 1e-9
    init, worst, at = rep["radius"]
    assert init == pytest.approx(1.0)
    assert 0.0 <= at <= 10.0


def test_drift_report_reversal_invariance():
    # drift is an absolute deviation: reversing the trajectory cannot hide it
    times = np.linspace(0.0, 1.0, 11)
    states = np.stack([np.linspace(1.0, 2.0, 11), np.zeros(11)], axis=1)
    rep = drift_report(Trajectory(times, states), ("x",), lambda y: (y[0],))
    assert rep["x"][1] == pytest.approx(1.0)
    rev = Trajectory(times, states[::-1])
    assert drift_report(rev, ("x",), lambda y: (y[0],))["x"][1] == pytest.approx(1.0)


def _ref_drift_report(traj, names, invariants):
    """The per-name loop over the states, each invariant on its own."""
    out = {}
    for k, name in enumerate(names):
        f0 = float(invariants(traj.states[0])[k])
        worst, at = 0.0, traj.times[0]
        for t, y in zip(traj.times, traj.states):
            d = abs(float(invariants(y)[k]) - f0)
            if d > worst:
                worst, at = d, t
        out[name] = (f0, worst, float(at))
    return out


def test_drift_report_calls_the_invariants_once_per_state():
    traj = rk4_integrate(rotation_field, np.array([1.0, 0.0]), 0.0, 2.0, 1e-2)
    calls = []

    def invariants(y):
        calls.append(1)
        return dyn._casimir_extras([*y, 0.5, -0.25, 2.0, 1.0, 0.0, 0.3])

    rep = drift_report(traj, ("H0", "det_re", "det_im"), invariants)
    assert len(calls) == len(traj)
    assert rep == _ref_drift_report(traj, ("H0", "det_re", "det_im"), invariants)


def test_drift_report_keeps_the_loop_rules():
    # the loop's bits and rules: a NaN deviation is never the max, a tie goes
    # to the first state reaching the max, inf - inf is a NaN deviation
    times = np.arange(6.0)
    rows = [(1.0, math.nan, math.inf, -0.0), (3.0, 1.0, math.inf, 0.0),
            (math.nan, 2.0, 1.0, 0.0), (-1.0, 0.0, math.inf, 0.0),
            (0.1 + 0.2, math.inf, math.nan, 0.0), (2.5, -1.0, 2.0, 0.0)]
    traj = Trajectory(times, np.array([[float(k)] for k in range(6)]))
    names = ("a", "b", "c", "d")
    rep = drift_report(traj, names, lambda y: rows[int(y[0])])
    assert repr(rep) == repr(_ref_drift_report(traj, names, lambda y: rows[int(y[0])]))
    assert rep["a"] == (1.0, 2.0, 1.0) and rep["d"] == (-0.0, 0.0, 0.0)


@pytest.mark.parametrize("rows", [[(1.0,)] * 3, [(1.0, 2.0, 3.0)] * 3,
                                  [(1.0, 2.0), (1.0, 2.0), (1.0,)]])
def test_drift_report_rejects_a_row_of_the_wrong_length(rows):
    traj = Trajectory([0.0, 1.0, 2.0], [[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError):
        drift_report(traj, ("x", "y"), lambda y: rows[int(y[0])])
