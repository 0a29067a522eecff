"""Structure-ignorant numerical oracles.

Fixed-step classical RK4 on flat real coordinate vectors, composite Simpson
quadrature, and conserved-quantity drift reporting.  Nothing in here knows
about groups or brackets; that ignorance is what makes the oracle independent
of the closed-form flows it checks.

RK4 keeps its state as a list of Python floats.  A field receives that list
and returns a sequence of as many floats (a length mismatch is a ValueError).
Every stage and update sum is the float-for-float equivalent of its numpy
array form, so the states have the bits of array arithmetic without paying
numpy's dispatch on 3- to 9-element vectors.
"""

import math

import numpy as np

__all__ = [
    "Trajectory",
    "NonFiniteStateError",
    "rk4_integrate",
    "simpson_rule",
    "drift_report",
]


class NonFiniteStateError(RuntimeError):
    """RK4 state left the finite floats; carries the time of first failure."""

    def __init__(self, time):
        super().__init__(f"non-finite state at t = {time!r}")
        self.time = float(time)


class Trajectory:
    """Sampled solution: strictly increasing times, one flat state row each."""

    __slots__ = ("times", "states")

    def __init__(self, times, states):
        times = np.asarray(times, dtype=float)
        states = np.asarray(states, dtype=float)
        if times.ndim != 1 or states.ndim != 2 or len(times) != len(states):
            raise ValueError("times and states must be aligned 1d/2d arrays")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        self.times = times
        self.states = states

    def __len__(self):
        return len(self.times)

    def __repr__(self):
        return f"Trajectory({len(self.times)} samples, dim {self.states.shape[1]})"


def rk4_integrate(field, y0, t0, t1, h) -> Trajectory:
    """Classical fixed-step RK4; the final partial step lands exactly on t1.

    field maps a flat real state, passed as a list of Python floats, to its
    rate, a sequence of as many floats; it must not depend on time.  The
    stage and update sums run float by float in the order of their array
    form, y + (h/2)·k1, ..., y + (h/6)·(k1 + 2·k2 + 2·k3 + k4), so each state
    has the bits numpy's elementwise arithmetic gives.  The trajectory
    starts at t0 and ends at t1 after at least one step.  Raises
    NonFiniteStateError, with the time of the step's end, the first time a
    state stops being finite or the field raises OverflowError or
    ZeroDivisionError.
    """
    if not all(map(math.isfinite, (t0, t1, h))):
        raise ValueError("t0, t1 and h must be finite")
    if not (h > 0):
        raise ValueError("h must be positive")
    if not (t1 > t0):
        raise ValueError("t1 must exceed t0")
    if not math.isfinite((t1 - t0) / h):
        raise ValueError("the step count (t1 - t0) / h overflows the floats")
    y = np.array(y0, dtype=float).ravel()
    if not np.isfinite(y).all():
        raise NonFiniteStateError(t0)
    n_full = int(math.floor((t1 - t0) / h + 1e-12))
    rest = t1 - (t0 + n_full * h)
    # a rest within round-off of the times is no step, unless no full step fits
    partial = n_full == 0 or rest > 1e-12 * max(abs(t0), abs(t1))
    n = n_full + 1 + partial
    times = t0 + np.arange(n) * h
    times[-1] = t1
    states = np.empty((n, y.size))
    states[0] = y
    y = y.tolist()

    def failed_at(k):
        return NonFiniteStateError(t1 if k > n_full else t0 + k * h)

    for k in range(1, n):
        step = h if k <= n_full else rest
        half = 0.5 * step
        try:
            k1 = field(y)
            k2 = field([a + half * b for a, b in zip(y, k1, strict=True)])
            k3 = field([a + half * b for a, b in zip(y, k2, strict=True)])
            k4 = field([a + step * b for a, b in zip(y, k3, strict=True)])
        except (OverflowError, ZeroDivisionError) as e:  # in the field's float arithmetic
            raise failed_at(k) from e
        c = step / 6.0
        y = [a + c * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4, strict=True)]
        if not all(map(math.isfinite, y)):
            raise failed_at(k)
        states[k] = y
    return Trajectory(times, states)


def simpson_rule(t0, t1, n):
    """Composite-Simpson nodes and weights on [t0, t1] with n (even) panels."""
    n = int(n)
    if n < 2 or n % 2:
        raise ValueError("Simpson rule needs an even panel count >= 2")
    if not math.isfinite(t1 - t0):
        raise ValueError("t0, t1 and t1 - t0 must be finite")
    nodes = np.linspace(t0, t1, n + 1)
    h = (t1 - t0) / n
    weights = np.full(n + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    return nodes, weights * (h / 3.0)


def drift_report(traj: Trajectory, names, invariants) -> dict:
    """{name: (initial value, max |f(y_t) - f(y_0)|, time of the max)} along traj.

    invariants(y) returns one value per name and is called once per state; a row
    of the wrong length is a ValueError.  A NaN deviation is never the max, and
    the time is that of the first state to reach it.
    """
    values = np.array([invariants(y) for y in traj.states], dtype=float)
    if values.shape != (len(traj), len(names)):
        raise ValueError(f"invariants must return {len(names)} values per state")
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN deviation
        dev = np.abs(values - values[0])
    dev[np.isnan(dev)] = 0.0
    first = dev.argmax(axis=0)
    return {name: (float(values[0, k]), float(dev[i, k]), float(traj.times[i]))
            for k, (name, i) in enumerate(zip(names, first))}
