"""Small dense matrix kernels: 2x2 complex and 3x3 real.

Everything here is closed form.  The 2x2 exponential uses the explicit
eigenstructure of a 2x2 matrix instead of scaling-and-squaring, so group
flows built on top of it are exact up to round-off.
"""

import cmath
import math

import numpy as np

__all__ = [
    "det2",
    "frobenius",
    "trace2",
    "sinhc",
    "expm2",
    "hat3",
    "rodrigues3",
    "check_finite",
]


def check_finite(a) -> np.ndarray:
    """Return ``a`` as an ndarray, rejecting NaN/Inf entries."""
    a = np.asarray(a)
    if not np.all(np.isfinite(a.view(np.float64) if np.iscomplexobj(a) else a)):
        raise ValueError("non-finite matrix entry")
    return a


def det2(m) -> complex:
    return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def trace2(m) -> complex:
    return complex(m[0, 0] + m[1, 1])


def frobenius(m) -> float:
    return float(np.sqrt(np.sum(np.abs(np.asarray(m)) ** 2)))


def sinhc(delta: complex) -> complex:
    """sinh(delta)/delta, with a series fallback near the removable singularity.

    For |delta| < 1e-6 the truncated series 1 + d^2/6 + d^4/120 is exact to
    round-off, avoiding the 0/0.
    """
    if abs(delta) < 1e-6:
        d2 = delta * delta
        return 1.0 + d2 / 6.0 + d2 * d2 / 120.0
    return cmath.sinh(delta) / delta


def expm2(m) -> np.ndarray:
    """Exact exponential of a 2x2 complex matrix.

    Splitting m = mu*I + n with mu = tr(m)/2 and n traceless, n^2 = delta^2*I
    where delta^2 = -det(n), so

        exp(m) = e^mu * (cosh(delta)*I + sinhc(delta)*n).

    Total on finite input; cost is one scalar exp, cosh, sinh.
    """
    m = check_finite(np.asarray(m, dtype=complex))
    mu = trace2(m) / 2.0
    n = m - mu * np.eye(2)
    delta = cmath.sqrt(-det2(n))
    return cmath.exp(mu) * (cmath.cosh(delta) * np.eye(2, dtype=complex) + sinhc(delta) * n)


def hat3(p) -> np.ndarray:
    """3-vector to skew-symmetric matrix, hat(p) q = p x q."""
    p = np.asarray(p, dtype=float)
    return np.array(
        [
            [0.0, -p[2], p[1]],
            [p[2], 0.0, -p[0]],
            [-p[1], p[0], 0.0],
        ]
    )


def rodrigues3(p, t: float) -> np.ndarray:
    """Rotation by angle |p|*t about the axis p/|p|.

    Uses the axis-angle closed form; below |p|*t = 1e-8 the second-order
    series in hat(p)*t is already exact to round-off.
    """
    p = check_finite(np.asarray(p, dtype=float))
    if not math.isfinite(t):
        raise ValueError("non-finite time")
    k = hat3(p)
    theta = float(np.linalg.norm(p)) * abs(t)
    if theta < 1e-8:
        kt = k * t
        return np.eye(3) + kt + 0.5 * (kt @ kt)
    # R = I + sin(theta)/theta * (k t) + (1-cos(theta))/theta^2 * (k t)^2
    kt = k * t
    a = math.sin(theta) / theta
    b = (1.0 - math.cos(theta)) / (theta * theta)
    return np.eye(3) + a * kt + b * (kt @ kt)
