"""Structure-ignorant numerical oracles.

Fixed-step classical RK4 on flat real coordinate vectors, composite Simpson
quadrature, and conserved-quantity drift reporting.  Nothing in here knows
about groups or brackets; that ignorance is what makes the oracle independent
of the closed-form flows it checks.

RK4 runs a whole trajectory in one loop on Python floats, which it passes to
the field as arguments, field(*y) (see rk4_integrate): straight-line code on
named floats, compiled once per state length d the first time a state of
that length is integrated (nothing is compiled at import), or comprehensions
for the empty state and states longer than MAX_STRAIGHT_DIM = 64.  Both do
the same IEEE operations in the same order, so the bits and the length rule
(a rate of another length is a ValueError) do not depend on which one runs,
nor on which states it stores: every k-th and the last, the straight-line
loop by a struct pack_into (see _straight_run).
"""

import functools
import math
import struct

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


def rk4_integrate(field, y0, t0, t1, h, every=1) -> Trajectory:
    """Classical fixed-step RK4; the final partial step lands exactly on t1.

    field(y_0, ..., y_{d-1}) takes a flat real state as positional Python floats and
    returns its rate, a sequence of as many floats (another count of arguments is its
    TypeError); it must not depend on time.  The stage and update sums run float by float
    in the order of their array form, y + (h/2)·k1, ..., y + (h/6)·(k1 + 2·k2 + 2·k3 + k4),
    so each state has the bits numpy's elementwise arithmetic gives, whatever every is.
    The trajectory holds the states of steps 0, every, 2·every, ... and of the last, at
    t1 after at least one step.  Raises NonFiniteStateError at the first step, stored or
    not, whose state is not finite or whose field raises OverflowError or
    ZeroDivisionError, timed at the step's end, with no numpy RuntimeWarning before it.
    """
    if type(every) is not int or every < 1:
        raise ValueError(f"every must be a positive int, not {every!r}")
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
    last = n_full + (n_full == 0 or rest > 1e-12 * max(abs(t0), abs(t1)))
    times = t0 + np.arange(0, last + every, every) * h  # ends at the first multiple >= last
    times[-1] = t1
    states = np.empty((len(times), y.size))
    states[0] = y
    run = _straight_run(y.size) if 0 < y.size <= MAX_STRAIGHT_DIM else _general_run
    with np.errstate(over="ignore", invalid="ignore"):  # a numpy field's inf or NaN fails below
        k, out = run(field, y.tolist(), states, h, n_full, rest, last, every)
    if k:
        raise NonFiniteStateError(t1 if k > n_full else t0 + k * h) from out
    states[-1] = out
    return Trajectory(times, states)


# Longest state that gets a straight-line loop: compiling one costs time and
# memory linear in d, and a config sets action_angle's d.
MAX_STRAIGHT_DIM = 64


def _general_run(field, y, states, h, n_full, rest, last, every):
    """RK4 steps of h to step n_full, then of rest to step last, by comprehensions, every every-th
    stored; (0, the last state), or the first non-finite step and the field's error or None."""
    try:
        for step, first, stop in ((h, 1, n_full + 1), (rest, n_full + 1, last + 1)):
            half, c = 0.5 * step, step / 6.0
            for k in range(first, stop):
                k1 = field(*y)
                k2 = field(*[a + half * b for a, b in zip(y, k1, strict=True)])
                k3 = field(*[a + half * b for a, b in zip(y, k2, strict=True)])
                k4 = field(*[a + step * b for a, b in zip(y, k3, strict=True)])
                y = [a + c * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                     for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4, strict=True)]
                if not all(map(math.isfinite, y)):
                    return k, None
                if k % every == 0:
                    states[k // every] = y
    except (OverflowError, ZeroDivisionError) as e:  # in the field's float arithmetic
        return k, e
    return 0, y


@functools.cache
def _straight_run(d):
    """_general_run for states of length d, as straight-line code on named floats.

    Each sum is the general loop's, term for term, so the states have the
    same bits; a rate of another length fails to unpack, a ValueError.  The
    state stays in the named floats y0, y1, ..., which go to the field as its
    arguments.  The sum of the 0·y is 0 exactly when every y is finite.  pack_into
    stores the same doubles as a row assignment at a third of its cost, on stored steps only.
    """
    def each(part):  # part formatted for i = 0, ..., d - 1, joined
        return "".join(part.format(i) for i in range(d))

    source = (f"def run(field, y, states, h, n_full, rest, last, every):\n"
              f"    record, offset = every, {8 * d}\n"
              f"    {each('y{}, ')}= y\n"
              f"    try:\n"
              f"        for step, first, stop in ((h, 1, n_full + 1), (rest, n_full + 1, last + 1)):\n"
              f"            half, c = 0.5 * step, step / 6.0\n"
              f"            for k in range(first, stop):\n"
              f"                {each('a{}, ')}= field({each('y{}, ')})\n"
              f"                {each('b{}, ')}= field({each('y{0} + half * a{0}, ')})\n"
              f"                {each('e{}, ')}= field({each('y{0} + half * b{0}, ')})\n"
              f"                {each('f{}, ')}= field({each('y{0} + step * e{0}, ')})\n"
              f"                {each('y{0} = y{0} + c * (a{0} + 2.0 * b{0} + 2.0 * e{0} + f{0}); ')}\n"
              f"                if {each(' + 0.0 * y{}')[3:]} != 0.0:\n"
              f"                    return k, None\n"
              f"                if k == record:\n"
              f"                    pack_into(states, offset, {each('y{}, ')})\n"
              f"                    offset, record = offset + {8 * d}, record + every\n"
              f"    except (OverflowError, ZeroDivisionError) as e:\n"
              f"        return k, e\n"
              f"    return 0, ({each('y{}, ')})\n")
    namespace = {"pack_into": struct.Struct(f"{d}d").pack_into}
    exec(compile(source, f"<rk4 run, d = {d}>", "exec"), namespace)
    return namespace["run"]


def simpson_rule(t0, t1, n):
    """Composite-Simpson nodes and weights on [t0, t1] with n (even) panels."""
    if not (n >= 2 and n % 2 == 0):  # False for a non-integral or non-finite n
        raise ValueError("Simpson rule needs an even panel count >= 2")
    n = int(n)
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

    invariants(y) gets each state as a list of floats, once, and returns one
    value per name; a row of the wrong length is a ValueError.  A NaN deviation
    is never the max, and the time is that of the first state to reach it.
    """
    values = np.array([invariants(y) for k in range(0, len(traj), 1024)  # a block at a time bounds the peak
                       for y in traj.states[k:k + 1024].tolist()], dtype=float)
    if values.shape != (len(traj), len(names)):
        raise ValueError(f"invariants must return {len(names)} values per state")
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN deviation
        dev = np.abs(values - values[0])
    dev[np.isnan(dev)] = 0.0
    first = dev.argmax(axis=0)
    return {name: (float(values[0, k]), float(dev[i, k]), float(traj.times[i]))
            for k, (name, i) in enumerate(zip(names, first))}
