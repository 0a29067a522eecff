"""Small dense matrix kernels: 2x2 complex and 3x3 real.

Everything here is closed form.  The 2x2 exponential uses the explicit
eigenstructure of a 2x2 matrix instead of scaling-and-squaring, so group
flows built on top of it are exact up to round-off.  The public kernels
check their input and call the matching `*_kernel`, which a closed-form
sampler calls directly on input it has checked once per call.
`expm2_kernel` takes and returns the four entries as Python complex scalars,
each product complex x complex as numpy's elementwise arithmetic takes it,
so on su(2) input every entry has the bits of the array formula.
"""

import cmath
import math

import numpy as np

__all__ = [
    "sinhc",
    "expm2",
    "expm2_kernel",
    "hat3",
    "rodrigues3",
    "rodrigues3_kernel",
    "check_finite",
]


def check_finite(a) -> np.ndarray:
    """Return ``a`` as an ndarray, rejecting NaN/Inf entries."""
    a = np.asarray(a)
    if not np.isfinite(a).all():
        raise ValueError("non-finite matrix entry")
    return a


def sinhc(delta: complex) -> complex:
    """sinh(delta)/delta, with a series fallback near the removable singularity.

    For |delta| < 1e-6 the truncated series 1 + d^2/6 + d^4/120 is exact to
    round-off, avoiding the 0/0.
    """
    if abs(delta) < 1e-6:
        d2 = delta * delta
        return 1.0 + d2 / 6.0 + d2 * d2 / 120.0
    return cmath.sinh(delta) / delta


_ONE, _ZERO = complex(1.0, 0.0), complex(0.0, 0.0)
_I3 = np.eye(3)


def expm2(m) -> np.ndarray:
    """Exact exponential of a 2x2 complex matrix.

    Splitting m = mu*I + n with mu = tr(m)/2 and n traceless, n^2 = delta^2*I
    where delta^2 = -det(n), so

        exp(m) = e^mu * (cosh(delta)*I + sinhc(delta)*n).

    Total on finite input; cost is one scalar exp, cosh, sinh.
    """
    (a, b), (c, d) = check_finite(np.asarray(m, dtype=complex)).tolist()
    return np.array(expm2_kernel(a, b, c, d)).reshape(2, 2)


def expm2_kernel(m00, m01, m10, m11):
    """expm2 on the finite complex entries of a 2x2 matrix, row by row, unchecked."""
    mu = (m00 + m11) / 2.0
    n00, n01, n10, n11 = m00 - mu * _ONE, m01 - mu * _ZERO, m10 - mu * _ZERO, m11 - mu * _ONE
    delta = cmath.sqrt(-(n00 * n11 - n01 * n10))
    e, ch, sh = cmath.exp(mu), cmath.cosh(delta), sinhc(delta)
    return (e * (ch * _ONE + sh * n00), e * (ch * _ZERO + sh * n01),
            e * (ch * _ZERO + sh * n10), e * (ch * _ONE + sh * n11))


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
    return rodrigues3_kernel(hat3(p), float(np.linalg.norm(p)), t)


def rodrigues3_kernel(k, norm: float, t: float) -> np.ndarray:
    """rodrigues3 from k = hat3(p) and norm = |p| of a finite p, at time t."""
    if not math.isfinite(t):
        raise ValueError("non-finite time")
    theta = norm * abs(t)
    kt = k * t
    if theta < 1e-8:
        return _I3 + kt + 0.5 * (kt @ kt)
    # R = I + sin(theta)/theta * (k t) + (1-cos(theta))/theta^2 * (k t)^2
    a = math.sin(theta) / theta
    b = (1.0 - math.cos(theta)) / (theta * theta)
    return _I3 + a * kt + b * (kt @ kt)
