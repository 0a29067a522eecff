"""The group triple SU(2), SB(2,C), SL(2,C) and the Lie algebra pieces.

Elements store minimal coordinates (alpha, nu) / (r, gamma) / (z1..z4) rather
than raw matrices, so membership invariants are checkable and small drift is
renormalizable.  Constructors project inputs that violate the invariant by at
most ``PROJECT_TOL`` and reject anything worse.  Each formula is a scalar kernel that
takes and returns parts on Python numbers: su2_project, su2_product, sb2_parts, sb2_product,
exp_sb2, sl2_normalize, the Iwasawa factorizations and the seeded draw random_parts.  The
elements wrap them for the API, and a per-row or per-sample loop calls them on coordinate
tuples; checked, projected parts are wrapped as they are (_wrap), not projected again.  An
e^|d| or y·sinhc(d) in exp_sb2 or an Iwasawa norm that leaves the floats is
ValueError("non-finite matrix entry"), not the OverflowError or ZeroDivisionError of the
scalar arithmetic.  Every numeric 2x2 complex product goes through `mul2`, one np.matmul on
(n, 2, 2) arrays, with ndarray.dot's bits pair by pair.  The product a = g·u of SL(2,C) =
SU(2)·SB(2,C) has one numeric home: `gu_products` of (alpha, nu, r, gamma) parts.

The exponentials are closed form.  The 2x2 one, `expm2_kernel`, uses the
explicit eigenstructure of a 2x2 matrix instead of scaling-and-squaring, so
group flows built on it are exact up to round-off.  It takes and returns the
four entries as Python complex scalars, each product complex x complex as
numpy's elementwise arithmetic takes it, so on su(2) input every entry has the
bits of the array formula; a closed-form sampler calls it directly on input it
has checked once.
"""

import cmath
import math

import numpy as np

__all__ = [
    "MembershipError",
    "SU2Element",
    "SB2Element",
    "SL2Element",
    "AlgebraElement",
    "iwasawa_gu",
    "iwasawa_ug",
    "exp_group",
    "exp_sb2",
    "random_element",
]

# Constructors repair violations up to this size and reject larger ones.
PROJECT_TOL = 1e-8
ALGEBRA_TOL = 1e-12


class MembershipError(ValueError):
    """Input does not satisfy (or nearly satisfy) a group/algebra invariant."""


def mul2(xs, ys) -> list:
    """The products x·y of paired rows of xs and ys, each a 2x2 matrix's entries row by row;
    a product past the floats has inf or NaN entries, with no numpy warning first."""
    a, b = np.array(xs, complex), np.array(ys, complex)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.matmul(a.reshape(-1, 2, 2), b.reshape(-1, 2, 2)).reshape(-1, 4).tolist()


def gu_products(parts) -> list:
    """[z1, z2, z3, z4] of each product g·u of paired parts, rows (alpha, nu, r, gamma)."""
    return mul2([_su2_entries(a, n) for a, n, _, _ in parts], [_sb2_entries(r, g) for _, _, r, g in parts])


def check_finite(a) -> np.ndarray:
    """Return ``a`` as an ndarray, rejecting NaN/Inf entries."""
    a = np.asarray(a)
    if not np.isfinite(a).all():
        raise ValueError("non-finite matrix entry")
    return a


def _finite_complex(z, name) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise MembershipError(f"non-finite {name}")
    return z


def _wrap(cls, *parts):
    """An element of cls holding parts that a kernel has checked and projected, as they are."""
    x = object.__new__(cls)
    for name, v in zip(cls.__slots__, parts):
        setattr(x, name, v)
    return x


def su2_project(alpha, nu) -> tuple:
    """SU2Element's projection (alpha, nu)/sqrt(|alpha|^2 + |nu|^2), on Python complex scalars."""
    try:
        norm2 = abs(alpha) ** 2 + abs(nu) ** 2
    except OverflowError:
        norm2 = math.inf
    if abs(norm2 - 1.0) > PROJECT_TOL:
        raise MembershipError(f"|alpha|^2 + |nu|^2 = {norm2!r} is not 1")
    s = math.sqrt(norm2)
    return alpha / s, nu / s


def su2_product(a1, n1, a2, n2) -> tuple:
    """The projected parts of (a1, n1)·(a2, n2) in SU(2)."""
    return su2_project(a1 * a2 - n1.conjugate() * n2, n1 * a2 + a1.conjugate() * n2)


def _su2_entries(alpha, nu) -> list:
    return [alpha, -nu.conjugate(), nu, alpha.conjugate()]


def _su2_defect(alpha, nu) -> float:
    return abs(abs(alpha) ** 2 + abs(nu) ** 2 - 1.0)


def sb2_parts(r, gamma) -> tuple:
    """(r, gamma) as SB2Element checks and stores them."""
    r = float(r)
    if not math.isfinite(r) or r <= 0.0:
        raise MembershipError(f"r = {r!r} must be finite and positive")
    return r, _finite_complex(gamma, "gamma")


def sb2_product(r1, g1, r2, g2) -> tuple:
    """The parts of (r1, g1)·(r2, g2) in SB(2,C), checked as SB2Element checks them."""
    return sb2_parts(r1 * r2, r1 * g2 + g1 / r2)


def _sb2_entries(r, gamma) -> list:
    return [r, gamma, 0.0, 1.0 / r]


class SU2Element:
    """Unitary factor, as a matrix [[alpha, -conj(nu)], [nu, conj(alpha)]]."""

    __slots__ = ("alpha", "nu")

    def __init__(self, alpha, nu):
        self.alpha, self.nu = su2_project(_finite_complex(alpha, "alpha"), _finite_complex(nu, "nu"))

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0)

    @classmethod
    def from_matrix(cls, m):
        m = check_finite(np.asarray(m, dtype=complex))
        g = cls(m[0, 0], m[1, 0])
        if np.abs(g.as_matrix() - m).max() > PROJECT_TOL:
            raise MembershipError("matrix is not of SU(2) form")
        return g

    def as_matrix(self) -> np.ndarray:
        return np.array(_su2_entries(self.alpha, self.nu), dtype=complex).reshape(2, 2)

    def inverse(self) -> "SU2Element":
        return _wrap(SU2Element, *su2_project(self.alpha.conjugate(), -self.nu))

    def __matmul__(self, other: "SU2Element") -> "SU2Element":
        return _wrap(SU2Element, *su2_product(self.alpha, self.nu, other.alpha, other.nu))

    def membership_defect(self) -> float:
        return _su2_defect(self.alpha, self.nu)

    def __repr__(self):
        return f"SU2Element(alpha={self.alpha!r}, nu={self.nu!r})"


class SB2Element:
    """Upper-triangular factor [[r, gamma], [0, 1/r]] with r > 0."""

    __slots__ = ("r", "gamma")

    def __init__(self, r, gamma):
        self.r, self.gamma = sb2_parts(r, gamma)

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0)

    @classmethod
    def from_matrix(cls, m):
        m = check_finite(np.asarray(m, dtype=complex))
        if abs(m[1, 0]) > PROJECT_TOL or abs(m[0, 0].imag) > PROJECT_TOL:
            raise MembershipError("matrix is not of SB(2,C) form")
        u = cls(m[0, 0].real, m[0, 1])
        if np.abs(u.as_matrix() - m).max() > PROJECT_TOL:
            raise MembershipError("matrix is not of SB(2,C) form")
        return u

    def as_matrix(self) -> np.ndarray:
        return np.array(_sb2_entries(self.r, self.gamma), dtype=complex).reshape(2, 2)

    def inverse(self) -> "SB2Element":
        return SB2Element(1.0 / self.r, -self.gamma)

    def __matmul__(self, other: "SB2Element") -> "SB2Element":
        return _wrap(SB2Element, *sb2_product(self.r, self.gamma, other.r, other.gamma))

    def __repr__(self):
        return f"SB2Element(r={self.r!r}, gamma={self.gamma!r})"


def sl2_normalize(z1, z2, z3, z4) -> tuple:
    """SL2Element's normalization (z1, z2, z3, z4)/sqrt(det), on Python complex scalars."""
    d = z1 * z4 - z2 * z3
    if abs(d - 1.0) > PROJECT_TOL:
        raise MembershipError(f"det = {d!r} is not 1")
    s = cmath.sqrt(d)
    return z1 / s, z2 / s, z3 / s, z4 / s


def _sl2_defect(z1, z2, z3, z4) -> float:
    return abs(z1 * z4 - z2 * z3 - 1.0)


class SL2Element:
    """An element of SL(2,C) with z1*z4 - z2*z3 = 1."""

    __slots__ = ("z1", "z2", "z3", "z4")

    def __init__(self, z1, z2, z3, z4):
        self.z1, self.z2, self.z3, self.z4 = sl2_normalize(
            *map(_finite_complex, (z1, z2, z3, z4), ("z1", "z2", "z3", "z4")))

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def from_matrix(cls, m):
        (z1, z2), (z3, z4) = check_finite(np.asarray(m, dtype=complex)).tolist()
        return cls(z1, z2, z3, z4)

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.z1, self.z2], [self.z3, self.z4]], dtype=complex)

    def inverse(self) -> "SL2Element":
        return _wrap(SL2Element, *sl2_normalize(self.z4, -self.z2, -self.z3, self.z1))

    def __matmul__(self, other: "SL2Element") -> "SL2Element":
        ab = mul2([[self.z1, self.z2, self.z3, self.z4]], [[other.z1, other.z2, other.z3, other.z4]])
        return SL2Element.from_matrix(np.reshape(ab, (2, 2)))

    def membership_defect(self) -> float:
        return _sl2_defect(self.z1, self.z2, self.z3, self.z4)

    def __repr__(self):
        return f"SL2Element({self.z1!r}, {self.z2!r}, {self.z3!r}, {self.z4!r})"


class AlgebraElement:
    """A Lie algebra element tagged by the subalgebra it lives in.

    kind "su2": traceless anti-Hermitian 2x2; "sb2": upper-triangular with
    real trace-free diagonal.  These are the two halves of sl(2,C) that
    exp_group maps onto SU(2) and SB(2,C); the rotator's so(3) generator is
    rotator_flow's own.
    """

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value):
        if kind not in ("su2", "sb2"):
            raise MembershipError(f"unknown algebra kind {kind!r}")
        value = check_finite(np.asarray(value, dtype=complex))
        if value.shape != (2, 2):
            raise MembershipError(f"{kind} element must be a 2x2 matrix")
        defect = _algebra_defect(kind, value)
        if defect > ALGEBRA_TOL:
            raise MembershipError(f"matrix fails the {kind} check by {defect:.3e}")
        self.kind = kind
        self.value = value

    def __repr__(self):
        return f"AlgebraElement({self.kind!r}, {self.value!r})"


def _algebra_defect(kind: str, m: np.ndarray) -> float:
    """Largest defect of m, a 2x2 matrix or a stack of them (m[..., i, j]); m + m*
    takes numpy's |.|, a trace or entry Python's, which a numpy scalar's equals."""
    tr = max(map(abs, np.ravel(m[..., 0, 0] + m[..., 1, 1]).tolist()))
    if kind == "su2":
        return float(max(np.abs(m + np.conj(np.swapaxes(m, -1, -2))).max(), tr))
    low = max(map(abs, np.ravel(m[..., 1, 0]).tolist()))
    return float(max(low, tr, np.abs(m[..., 0, 0].imag).max(), np.abs(m[..., 1, 1].imag).max()))


def _inverse_norm(z, w) -> float:
    """1/sqrt(|z|^2 + |w|^2), for a sum of squares inside the floats."""
    try:
        s = 1.0 / math.sqrt(abs(z) ** 2 + abs(w) ** 2)
    except (OverflowError, ZeroDivisionError):  # a square overflows or the sum underflows to 0
        s = 0.0
    if s == 0.0:  # or the sum overflows to inf
        raise ValueError("non-finite matrix entry")
    return s


def iwasawa_gu_kernel(z1, z2, z3, z4) -> tuple:
    """(alpha, nu, r, gamma) of a = g*u, g in SU(2) and u in SB(2,C), with s = 1/sqrt(|z1|^2 + |z3|^2):
    g = [[s*z1, -s*conj(z3)], [s*z3, s*conj(z1)]], u = [[1/s, s*(conj(z1)*z2 + conj(z3)*z4)], [0, s]]."""
    s = _inverse_norm(z1, z3)
    return (*su2_project(s * z1, s * z3),
            *sb2_parts(1.0 / s, s * (z1.conjugate() * z2 + z3.conjugate() * z4)))


def iwasawa_ug_kernel(z1, z2, z3, z4) -> tuple:
    """(r, gamma, alpha, nu) of a = u*g, u in SB(2,C) and g in SU(2), with t = 1/sqrt(|z3|^2 + |z4|^2):
    u = [[t, t*(z1*conj(z3) + z2*conj(z4))], [0, 1/t]], g = [[t*conj(z4), -t*conj(z3)], [t*z3, t*z4]]."""
    t = _inverse_norm(z3, z4)
    return (*sb2_parts(t, t * (z1 * z3.conjugate() + z2 * z4.conjugate())),
            *su2_project(t * z4.conjugate(), t * z3))


def iwasawa_gu(a: SL2Element):
    """Factor a = g*u with g in SU(2), u in SB(2,C): iwasawa_gu_kernel's parts as elements."""
    alpha, nu, r, gamma = iwasawa_gu_kernel(a.z1, a.z2, a.z3, a.z4)
    return _wrap(SU2Element, alpha, nu), _wrap(SB2Element, r, gamma)


def iwasawa_ug(a: SL2Element):
    """Factor a = u*g with u in SB(2,C), g in SU(2): iwasawa_ug_kernel's parts as elements."""
    r, gamma, alpha, nu = iwasawa_ug_kernel(a.z1, a.z2, a.z3, a.z4)
    return _wrap(SB2Element, r, gamma), _wrap(SU2Element, alpha, nu)


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


def expm2_kernel(m00, m01, m10, m11):
    """Exact exponential of a 2x2 complex matrix, from and to its entries row by row.

    Splitting m = mu*I + n with mu = tr(m)/2 and n traceless, n^2 = delta^2*I
    where delta^2 = -det(n), so

        exp(m) = e^mu * (cosh(delta)*I + sinhc(delta)*n).

    Entries whose exp, cosh or sinh leaves the floats (det(n) past them, say)
    are ValueError("non-finite matrix entry"); an inf or NaN entry gives that
    error or inf or NaN in the result.
    Cost is one scalar exp, cosh, sinh.
    """
    mu = (m00 + m11) / 2.0
    n00, n01, n10, n11 = m00 - mu * _ONE, m01 - mu * _ZERO, m10 - mu * _ZERO, m11 - mu * _ONE
    delta = cmath.sqrt(-(n00 * n11 - n01 * n10))
    try:
        e, ch, sh = cmath.exp(mu), cmath.cosh(delta), sinhc(delta)
    except (ValueError, OverflowError):  # cmath's "math domain error" or "math range error"
        raise ValueError("non-finite matrix entry") from None
    return (e * (ch * _ONE + sh * n00), e * (ch * _ZERO + sh * n01),
            e * (ch * _ZERO + sh * n10), e * (ch * _ONE + sh * n11))


def exp_group(x: AlgebraElement):
    """Exponentiate onto the matching subgroup, SU(2) or SB(2,C).

    su2 goes through the closed-form 2x2 exponential of x's (checked)
    entries; sb2 has the explicit triangular exponential
    [[e^x, y*sinhc(x)], [0, e^-x]].
    """
    if x.kind == "su2":
        exp = expm2_kernel(*x.value.ravel().tolist())
        return SU2Element.from_matrix(np.array(exp).reshape(2, 2))
    return _wrap(SB2Element, *exp_sb2(complex(x.value[0, 0]).real, complex(x.value[0, 1])))


def exp_sb2(d: float, y: complex) -> tuple:
    """The parts (r, gamma) = (e^d, y*sinhc(d)) of exp([[d, y], [0, -d]]) for real d."""
    try:
        return sb2_parts(math.exp(d), y * sinhc(d))
    except (OverflowError, MembershipError):  # e^|d| or y*sinhc(d) past the floats
        raise ValueError("non-finite matrix entry") from None


def _as_rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_parts(kind: str, n: int, seed) -> list:
    """The parts (alpha, nu), (r, gamma), (z1, z2, z3, z4) or (alpha, nu, r, gamma) of n seeded random
    elements of kind "su2", "sb2", "sl2c" or "double" (a (g, u) pair), from one standard_normal((n, k)).

    SU(2) is sampled uniformly (normalized 4-component Gaussian; sqrt(v.dot(v)) is np.linalg.norm's
    formula and bits, the block's dots one stacked matmul of 1x4·4x1 pairs, each the same BLAS dot),
    SB(2,C) with log-normal r (sigma = 0.5) and complex-Gaussian gamma, and SL(2,C) as g·u through
    gu_products, g drawn first; bits and generator state are those of n single draws.
    """
    k = {"su2": 4, "sb2": 3, "sl2c": 7, "double": 7}.get(kind)  # normals per draw; g takes the first four
    if k is None:
        raise MembershipError(f"unknown group kind {kind!r}")
    x = _as_rng(seed).standard_normal((n, k))
    gs = us = [()] * n
    if kind != "sb2":
        g4 = x[:, :4]
        units = (g4 / np.sqrt(np.matmul(g4[:, None, :], g4[:, :, None])[:, 0])).tolist()
        gs = [su2_project(complex(x0, x1), complex(x2, x3)) for x0, x1, x2, x3 in units]
    if kind != "su2":  # r > 0 and gamma finite, as SB2Element checks them
        root2 = complex(math.sqrt(2.0), 0.0)
        us = [(math.exp(0.5 * r), complex(re, im) / root2) for r, re, im in x[:, -3:].tolist()]
    parts = [g + u for g, u in zip(gs, us)]
    return [sl2_normalize(*z) for z in gu_products(parts)] if kind == "sl2c" else parts


def random_elements(kind: str, n: int, seed) -> list:
    """random_parts' draws as elements; kind "double" as (SU2Element, SB2Element) pairs."""
    parts = random_parts(kind, n, seed)
    if kind == "double":
        return [(_wrap(SU2Element, *p[:2]), _wrap(SB2Element, *p[2:])) for p in parts]
    return [_wrap({"su2": SU2Element, "sb2": SB2Element, "sl2c": SL2Element}[kind], *p) for p in parts]


def random_element(kind: str, seed):
    """One seeded random group element: random_elements' n = 1 case.  Deterministic per seed."""
    return random_elements(kind, 1, seed)[0]
