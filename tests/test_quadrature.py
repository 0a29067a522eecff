import hashlib
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import doubleflow
from doubleflow import dynamics as dyn
from doubleflow.cli import _parse_params
from doubleflow.quadrature import (
    MAX_STRAIGHT_DIM,
    NonFiniteStateError,
    Trajectory,
    drift_report,
    rk4_integrate,
    simpson_rule,
)

hypothesis = pytest.importorskip("hypothesis")


def rotation_field(y0, y1):
    # flat form of ydot = i*y on (Re y, Im y)
    return np.array([-y1, y0])


def test_rk4_accuracy_on_rotation():
    traj = rk4_integrate(rotation_field, np.array([1.0, 0.0]), 0.0, 1.0, 1e-3)
    assert abs(traj.states[-1][0] - math.cos(1.0)) < 1e-12
    assert abs(traj.states[-1][1] - math.sin(1.0)) < 1e-12


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
            rk4_integrate(lambda *y: rate, y0, 0.0, 1.0, 0.25)


def test_rk4_step_count_overflow_is_a_value_error():
    # (t1 - t0) / h, and t1 - t0 itself, overflow to inf before any grid exists
    for t0, t1, h in ((0.0, 1e308, 1e-308), (-1e308, 1e308, 1.0)):
        with pytest.raises(ValueError, match="step count"):
            rk4_integrate(lambda y0: [0.0], [1.0], t0, t1, h)


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
    def blowup(y0):
        return np.array([np.inf])

    with pytest.raises(NonFiniteStateError) as err:
        rk4_integrate(blowup, np.array([1.0]), 0.0, 1.0, 0.25)
    assert err.value.time == pytest.approx(0.25)
    with pytest.raises(NonFiniteStateError):
        rk4_integrate(rotation_field, np.array([np.nan, 0.0]), 0.0, 1.0, 0.25)


def reference_rk4(field, y0, t0, t1, h):
    """The step-by-step RK4 driver: one stage function, list appends."""
    def step(y, h):
        k1 = np.asarray(field(*y), dtype=float)
        k2 = np.asarray(field(*(y + 0.5 * h * k1)), dtype=float)
        k3 = np.asarray(field(*(y + 0.5 * h * k2)), dtype=float)
        k4 = np.asarray(field(*(y + h * k3)), dtype=float)
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


def lotka_volterra(y0, y1):
    return np.array([y0 * (1.0 - 0.7 * y1), y1 * (0.4 * y0 - 1.1)])


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
    params = _parse_params(system, given, seed)
    field = sysdef.field(params)
    y0 = sysdef.sample(params)([0.0])[0][0][:len(sysdef.columns(params)[0])]
    # 0.8 / 3e-3 leaves a partial last step
    traj = rk4_integrate(field, y0, 0.0, 0.8, 3e-3)
    times, states = reference_rk4(lambda *y: np.asarray(field(*y)), y0, 0.0, 0.8, 3e-3)
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.tobytes() == states.tobytes()
    # 500 steps against the comprehension stepper
    traj = rk4_integrate(field, y0, 0.0, 500 * 2e-3, 2e-3)
    times, states = comprehension_rk4(field, y0, 0.0, 500 * 2e-3, 2e-3)
    assert len(times) == 501
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.tobytes() == states.tobytes()


def comprehension_rk4(field, y0, t0, t1, h):
    """rk4_integrate's grid with its step as comprehensions over strict zips."""
    y = np.array(y0, dtype=float).ravel()
    n_full = int(math.floor((t1 - t0) / h + 1e-12))
    rest = t1 - (t0 + n_full * h)
    partial = n_full == 0 or rest > 1e-12 * max(abs(t0), abs(t1))
    n = n_full + 1 + partial
    times = t0 + np.arange(n) * h
    times[-1] = t1
    states = np.empty((n, y.size))
    states[0] = y
    y = y.tolist()
    for k in range(1, n):
        step = h if k <= n_full else rest
        half = 0.5 * step
        k1 = field(*y)
        k2 = field(*[a + half * b for a, b in zip(y, k1, strict=True)])
        k3 = field(*[a + half * b for a, b in zip(y, k2, strict=True)])
        k4 = field(*[a + step * b for a, b in zip(y, k3, strict=True)])
        c = step / 6.0
        y = [a + c * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4, strict=True)]
        states[k] = y
    return times, states


def linear_field(d, seed, kind):
    """y -> A·y for a seeded A, summed on Python floats, returned as kind."""
    rows = (np.random.default_rng(seed).standard_normal((d, d)) / max(d, 1)).tolist()

    def field(*y):
        return kind([math.fsum(a * x for a, x in zip(row, y)) for row in rows])

    return field


STATE_LENGTHS = [*range(17), MAX_STRAIGHT_DIM - 1, MAX_STRAIGHT_DIM, MAX_STRAIGHT_DIM + 1, 100]


@pytest.mark.parametrize("kind", [list, tuple, np.array])
@pytest.mark.parametrize("d", STATE_LENGTHS)
def test_rk4_step_bitwise_matches_comprehensions_at_every_length(d, kind):
    field = linear_field(d, d, kind)
    y0 = np.random.default_rng(100 + d).standard_normal(d).tolist()
    # a partial final step, and h past t1 - t0 (one step of t1 - t0)
    for t0, t1, h in ((0.0, 0.37, 0.05), (-0.2, 0.1, 0.5)):
        traj = rk4_integrate(field, y0, t0, t1, h)
        times, states = comprehension_rk4(field, y0, t0, t1, h)
        assert traj.times.tobytes() == times.tobytes()
        assert traj.states.tobytes() == states.tobytes()
        assert traj.states.shape == (len(times), d)


@pytest.mark.parametrize("d", [2, MAX_STRAIGHT_DIM, MAX_STRAIGHT_DIM + 1])
@pytest.mark.parametrize("stage", [1, 2, 3, 4])
@pytest.mark.parametrize("off", [-1, 1])
def test_rk4_rate_of_the_wrong_length_at_any_stage_is_a_value_error(d, stage, off):
    def make():
        calls = []

        def field(*y):
            calls.append(None)
            # the second step's evaluations are 5 to 8
            return [0.5] * (d + off if len(calls) == 4 + stage else d)

        return field

    with pytest.raises(ValueError):
        rk4_integrate(make(), [1.0] * d, 0.0, 1.0, 0.25)
    with pytest.raises(ValueError):
        comprehension_rk4(make(), [1.0] * d, 0.0, 1.0, 0.25)


@pytest.mark.parametrize("d", [0, 2, 4, MAX_STRAIGHT_DIM, MAX_STRAIGHT_DIM + 1])
def test_rk4_state_of_another_length_than_the_field_takes_is_a_type_error(d):
    # the field gets the state as positional floats, so one that names 3
    # coordinates fails at its first call, in either loop, before it runs
    calls = []

    def field(y0, y1, y2):
        calls.append(None)
        return [0.0, 0.0, 0.0]

    with pytest.raises(TypeError):
        rk4_integrate(field, [1.0] * d, 0.0, 1.0, 0.25)
    assert calls == []
    assert rk4_integrate(field, [1.0] * 3, 0.0, 1.0, 0.25).states.tolist() == [[1.0] * 3] * 5


# (t1, step, error): steps of 0.25, the error raised at the given stage of
# the third step on [0, 1], or of the fourth, partial step on [0, 0.9]
@pytest.mark.parametrize("d, stage, t1, step, error", [
    pytest.param(d, stage, *case, id=f"{stage}-{d}{suffix}")
    for d in STATE_LENGTHS for stage in (1, 2, 3, 4)
    for case, suffix in (((1.0, 3, OverflowError), ""), ((0.9, 4, ZeroDivisionError), "-partial"))
])
def test_rk4_field_arithmetic_error_at_any_stage_is_nonfinite_at_its_step(d, stage, t1, step,
                                                                           error):
    def make():
        calls = []

        def field(*y):
            calls.append(None)
            if len(calls) == 4 * (step - 1) + stage:
                raise error("in the field")
            return [1.0] * d

        return field, calls

    field, calls = make()
    with pytest.raises(NonFiniteStateError) as err:
        rk4_integrate(field, [0.0] * d, 0.0, t1, 0.25)
    assert err.value.time == [0.25, 0.5, 0.75, t1][step - 1]
    assert isinstance(err.value.__cause__, error)
    reference, reference_calls = make()
    with pytest.raises(error):
        comprehension_rk4(reference, [0.0] * d, 0.0, t1, 0.25)
    assert len(calls) == len(reference_calls)


@pytest.mark.parametrize("d", [d for d in STATE_LENGTHS if d > 0])
@pytest.mark.parametrize("stage", [1, 2, 3, 4])
@pytest.mark.parametrize("t1, step", [(1.0, 3), (0.9, 4)])
def test_rk4_nonfinite_part_at_any_stage_and_position_fails_at_its_step(d, stage, t1, step):
    # one rate part is inf or NaN at the given stage; its position runs over
    # the state as the stage does, so both ends of the finiteness sum are hit
    bad, at = (math.inf, math.nan)[stage % 2], (stage - 1) * (d - 1) // 3

    def make():
        calls = []

        def field(*y):
            calls.append(None)
            rate = [0.5] * d
            if len(calls) == 4 * (step - 1) + stage:
                rate[at] = bad
            return rate

        return field

    with pytest.raises(NonFiniteStateError) as err:
        rk4_integrate(make(), [1.0] * d, 0.0, t1, 0.25)
    assert err.value.time == [0.25, 0.5, 0.75, t1][step - 1]
    assert err.value.__cause__ is None
    times, states = comprehension_rk4(make(), [1.0] * d, 0.0, t1, 0.25)
    first_bad = np.flatnonzero(~np.isfinite(states).all(axis=1))[0]
    assert times[first_bad] == err.value.time


def test_rk4_compiles_a_step_only_for_a_length_it_integrates():
    # a fresh interpreter: importing the package and the CLI compiles nothing,
    # a state past MAX_STRAIGHT_DIM takes the general loop, a short one compiles
    src = str(Path(doubleflow.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import doubleflow, doubleflow.cli; "
            "from doubleflow.quadrature import _straight_run, rk4_integrate; "
            "sizes = [_straight_run.cache_info().currsize]; "
            "rk4_integrate(lambda *y: [0.0] * 100, [1.0] * 100, 0.0, 1.0, 0.5); "
            "sizes.append(_straight_run.cache_info().currsize); "
            "rk4_integrate(lambda *y: [0.0] * 3, [1.0] * 3, 0.0, 1.0, 0.5); "
            "sizes.append(_straight_run.cache_info().currsize); print(sizes)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         encoding="utf-8", check=True).stdout
    assert out == "[0, 0, 1]\n"


# sha256 of states.tobytes() over 1,000 steps of 2^-10 from fixed starts, as
# the comprehension stepper computed them; these fields call no BLAS, so the
# digests hold under every OpenBLAS kernel.  momenta_su2 at F = 0 from
# gamma0 = (-0.0, 0.0) has rates that are signed zeros, where a float rewrite
# of a field can drift while every == still holds.  The rotator starts from
# the rotation of the quaternion (1, 2, 3, 4)/√30, entries multiples of 1/30.
ALPHA, NU, R, GAMMA = 0.6 + 0.0j, 0.8j, 1.3, 0.4 - 0.2j
Z = (ALPHA * R, ALPHA * GAMMA - NU.conjugate() / R, NU * R, NU * GAMMA + ALPHA.conjugate() / R)
DOUBLE = [ALPHA.real, ALPHA.imag, NU.real, NU.imag, R, GAMMA.real, GAMMA.imag]
PINNED_TRAJECTORIES = {
    "rotator": ("rotator", {"p": [0.4, -0.3, 0.8], "F": 1.3},
                [v / 30 for v in (-20, 4, 22, 20, -10, 20, 10, 28, 4)],
                "af3d9a09b968e490966ccd73f5a625f041fdfeb31256f24b8bab65c3cf8b8ee6"),
    "casimir_sl2c": ("casimir_sl2c", {"F": 1.0}, [x for z in Z for x in (z.real, z.imag)],
                     "71b095a82725ca835f3ab3e542235cfe3fbb1383ca4c75a1f56b2fbcb262fa61"),
    "noncasimir_h": ("noncasimir_h", {}, DOUBLE,
                     "81c77549e624911e75254095bfbd7cc8242211e28351bbff66bbf664e2077186"),
    "momenta_su2": ("momenta_su2", {"alpha": ALPHA, "nu": NU, "F": 1.0},
                    [R, GAMMA.real, GAMMA.imag],
                    "39f78f9bad2d783394c6c5dd2c46d9d34633cf8450b4d2ab7cc05a5e26a96a0b"),
    "momenta_su2_signed_zeros": ("momenta_su2", {"alpha": ALPHA, "nu": NU, "F": 0.0},
                                 [R, -0.0, 0.0],
                                 "ef39c3e65e90d0586ed1d4c1b98f5e50f3fed30ac3b4fd06782fb79237fc6782"),
    "perturbed": ("perturbed", {"F": 1.0, "lam": 0.1}, DOUBLE,
                  "250bf0ed74adf96060c2f53e6045e28421b991f495b435f8d6e5ecec707e4ed7"),
    "action_angle": ("action_angle", {"I0": [1.0, 2.0], "freq": [0.3, -1.7], "matrix": None},
                     [1.0, 2.0, 0.1, 0.2],
                     "ce25cd59c39ce941e1622dc45e8a32bdeb6f62153f38999c65caa525f4803148"),
}


@pytest.mark.parametrize("case", PINNED_TRAJECTORIES)
def test_rk4_trajectories_are_pinned(case):
    system, params, y0, digest = PINNED_TRAJECTORIES[case]
    traj = rk4_integrate(dyn.SYSTEMS[system].field(params), y0, 0.0, 1000 / 1024, 1 / 1024)
    assert len(traj) == 1001 and np.isfinite(traj.states).all()
    assert hashlib.sha256(traj.states.tobytes()).hexdigest() == digest


# the pinned starts, and action_angle by matrix at 33 degrees of freedom, whose
# state of 66 floats takes the general loop
STRIDE_CASES = {
    **{case: start[:3] for case, start in PINNED_TRAJECTORIES.items()},
    "action_angle_general": ("action_angle", {
        "I0": [1.0] * 33, "freq": None,
        "matrix": (np.random.default_rng(3).standard_normal((33, 33)) / 33).tolist()},
        [*([1.0] * 33), *np.linspace(-1.0, 1.0, 33).tolist()]),
}


@hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
@hypothesis.given(case=hypothesis.strategies.sampled_from(sorted(STRIDE_CASES)),
                  steps=hypothesis.strategies.integers(1, 40),
                  rest=hypothesis.strategies.sampled_from([0.0, 1e-14, 0.25, 0.999]),
                  every=hypothesis.strategies.integers(2, 45))
def test_rk4_stride_stores_every_kth_state_and_the_last_bitwise(case, steps, rest, every):
    # a grid of whole steps, or with a partial last step; every past the step count too
    system, params, y0 = STRIDE_CASES[case]
    field = dyn.SYSTEMS[system].field(params)
    t1 = (steps + rest) / 64
    full = rk4_integrate(field, y0, 0.0, t1, 1 / 64)
    got = rk4_integrate(field, y0, 0.0, t1, 1 / 64, every)
    rows = [*range(0, len(full) - 1, every), len(full) - 1]  # [::every], then the last
    assert got.times.tobytes() == full.times[rows].tobytes()
    assert got.states.tobytes() == full.states[rows].tobytes()


@pytest.mark.parametrize("d", [1, 3, MAX_STRAIGHT_DIM + 1])
@pytest.mark.parametrize("error", [None, OverflowError, ZeroDivisionError])
@pytest.mark.parametrize("t1, every, step", [(3.0, 4, 6), (1.9, 5, 8)])
def test_rk4_failure_between_stored_states_keeps_its_time(d, error, t1, every, step):
    # steps of 0.25 storing every 4th, the sixth fails (stored: 4 and 8); or
    # storing every 5th, the partial eighth step to t1 = 1.9 fails (stored: 5, 8)
    def make():
        calls = []

        def field(*y):
            calls.append(None)
            if len(calls) == 4 * (step - 1) + 2:
                if error is not None:
                    raise error("in the field")
                return [math.inf] * d
            return [1.0] * d

        return field, calls

    failures = []
    for stride in (1, every):
        field, calls = make()
        with pytest.raises(NonFiniteStateError) as err:
            rk4_integrate(field, [0.0] * d, 0.0, t1, 0.25, stride)
        cause = err.value.__cause__
        failures.append((err.value.time, None if cause is None else type(cause), len(calls)))
    # an inf rate fails the step once its four stages have run
    calls = 4 * (step - 1) + (4 if error is None else 2)
    assert failures[0] == failures[1] == ([1.5, t1][t1 < 2], error, calls)


@pytest.mark.parametrize("every", [0, -2, 1.0, 2.5, True, None, "2", np.int64(2)])
def test_rk4_every_must_be_a_positive_int(every):
    with pytest.raises(ValueError, match="^every must be a positive int, not "):
        rk4_integrate(rotation_field, [1.0, 0.0], 0.0, 1.0, 0.25, every)


def test_rk4_nonfinite_time_when_a_stage_sum_overflows():
    # the rate stays finite; the state overflows in the update sum of the
    # fourth step (1.79e308 + 4 * 2.5e305 > DBL_MAX)
    def push(y0):
        return [1e306]

    with pytest.raises(NonFiniteStateError) as err:
        rk4_integrate(push, [1.79e308], 0.0, 2.0, 0.25)
    with np.errstate(over="ignore"):
        times, states = reference_rk4(push, np.array([1.79e308]), 0.0, 2.0, 0.25)
    first_bad = np.flatnonzero(~np.isfinite(states[:, 0]))[0]
    assert err.value.time == times[first_bad] == 1.0


def test_rk4_nonfinite_time_on_partial_step():
    calls = []

    def late_blowup(y0):
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

    def fails_on_tenth(y0):
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
    # a count that is not an integer was truncated (2.5 panels ran as 2)
    for n in (2.5, 4.000000000000001, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="^Simpson rule needs an even panel count >= 2$"):
            simpson_rule(0.0, 1.0, n)
    for got, want in zip(simpson_rule(0.0, 1.0, 4.0), (nodes, weights)):
        assert got.tobytes() == want.tobytes()


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
    # 2,501 states: drift_report lists them a block of 1,024 at a time
    traj = rk4_integrate(rotation_field, np.array([1.0, 0.0]), 0.0, 25.0, 1e-2)
    calls = []

    def invariants(y):
        calls.append(y)
        return dyn._casimir_invariants(*dyn.flat_to_z([*y, 0.5, -0.25, 2.0, 1.0, 0.0, 0.3]))

    rep = drift_report(traj, ("H0", "det_re", "det_im"), invariants)
    assert [type(y) for y in calls] == [list] * len(traj)  # each state as a list of floats
    assert calls == traj.states.tolist()
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
