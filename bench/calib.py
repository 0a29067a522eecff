"""CPU speed probes for the benchmark's calls and its set-up processes.

The machine's CPU speed drifts by about +-20 % within and between runs
(other load on shared cores), and every call slows with it.  A fixed loop
timed next to the work measures the speed available at that moment; the
benchmark reports times at reference speed, where the loop takes REF_S.  The
loop does what the program's inner loops do, in the same proportions:
small numpy arrays, complex scalars and short-lived dicts and lists.  It
calls no doubleflow code, so a change to the program cannot move it.

Set-up time is scaled the same way by a different probe: a fresh interpreter
importing doubleflow's dependencies and nothing of doubleflow
(IMPORT_REF_CODE).  At reference speed it takes REF_IMPORT_S of CPU.
"""

import time

import numpy as np

REF_S = 0.002
REF_IMPORT_S = 0.4

IMPORT_REF_CODE = """\
import time
t0 = time.process_time()
import argparse, dataclasses, json
import numpy, scipy.linalg
print(time.process_time() - t0)
"""

_V = np.array([0.5, -1.5, 2.0])
_M = np.eye(3)


def calibrate():
    """Seconds the fixed loop takes now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(150):
        b = _M @ _V + 0.5 * _V
        acc += float(np.max(np.abs(b)))
        z = complex(acc, i) ** 2
        d = {"x": z, "y": [i, i + 1]}
        acc += abs(d["x"]) * 1e-9
    return time.perf_counter() - t0


def sample(budget_s):
    """Mean loop time over about budget_s seconds of runs, at least one."""
    times = [calibrate()]
    while sum(times) < budget_s:
        times.append(calibrate())
    return sum(times) / len(times)


def at_reference(seconds, before, after):
    """seconds at reference speed, given the loop's times around the work."""
    return seconds * 2.0 * REF_S / (before + after)
