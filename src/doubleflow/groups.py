"""The group triple SU(2), SB(2,C), SL(2,C) and the Lie algebra pieces.

Elements store minimal coordinates (alpha, nu) / (r, gamma) / (z1..z4) rather
than raw matrices, so membership invariants are checkable and small drift is
renormalizable.  Constructors project inputs that violate the invariant by at
most ``PROJECT_TOL`` and reject anything worse.  An e^|d| or y·sinhc(d) in
exp_sb2 or an Iwasawa norm that leaves the floats is ValueError("non-finite matrix entry"),
not the OverflowError or ZeroDivisionError of the scalar arithmetic.  Every numeric
2x2 complex product goes through `mul2`, one np.matmul on (n, 2, 2) arrays, with ndarray.dot's
bits pair by pair.  The product a = g·u of SL(2,C) = SU(2)·SB(2,C) has one numeric home,
`gu_products` of paired elements (a block of CSV rows, a verify block, one start).

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


def gu_products(gs, us) -> list:
    """[z1, z2, z3, z4] of each product g·u of paired SU2Elements gs and SB2Elements us, row by row."""
    return mul2([g.entries() for g in gs], [u.entries() for u in us])


def check_finite(a) -> np.ndarray:
    """Return ``a`` as an ndarray, rejecting NaN/Inf entries."""
    a = np.asarray(a)
    if not np.isfinite(a).all():
        raise ValueError("non-finite matrix entry")
    return a


def _finite_complex(z, name) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise MembershipError(f"non-finite {name}")
    return z


def _trusted(cls, *parts):
    """cls(*parts) for parts already known to be finite Python complex numbers.

    Only the finiteness checks are skipped: the membership test and the
    normalization are the constructor's, so the element has the same bits.
    """
    x = object.__new__(cls)
    x._set(*parts)
    return x


class SU2Element:
    """Unitary factor, as a matrix [[alpha, -conj(nu)], [nu, conj(alpha)]]."""

    __slots__ = ("alpha", "nu")

    def __init__(self, alpha, nu):
        self._set(_finite_complex(alpha, "alpha"), _finite_complex(nu, "nu"))

    def _set(self, alpha, nu):
        try:
            norm2 = abs(alpha) ** 2 + abs(nu) ** 2
        except OverflowError:
            norm2 = math.inf
        if abs(norm2 - 1.0) > PROJECT_TOL:
            raise MembershipError(f"|alpha|^2 + |nu|^2 = {norm2!r} is not 1")
        s = math.sqrt(norm2)
        self.alpha = alpha / s
        self.nu = nu / s

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
        return np.array(self.entries(), dtype=complex).reshape(2, 2)

    def entries(self) -> list:
        return [self.alpha, -self.nu.conjugate(), self.nu, self.alpha.conjugate()]

    def inverse(self) -> "SU2Element":
        return _trusted(SU2Element, self.alpha.conjugate(), -self.nu)

    def __matmul__(self, other: "SU2Element") -> "SU2Element":
        a = self.alpha * other.alpha - self.nu.conjugate() * other.nu
        n = self.nu * other.alpha + self.alpha.conjugate() * other.nu
        return _trusted(SU2Element, a, n)

    def membership_defect(self) -> float:
        return abs(abs(self.alpha) ** 2 + abs(self.nu) ** 2 - 1.0)

    def __repr__(self):
        return f"SU2Element(alpha={self.alpha!r}, nu={self.nu!r})"


class SB2Element:
    """Upper-triangular factor [[r, gamma], [0, 1/r]] with r > 0."""

    __slots__ = ("r", "gamma")

    def __init__(self, r, gamma):
        r = float(r)
        if not math.isfinite(r) or r <= 0.0:
            raise MembershipError(f"r = {r!r} must be finite and positive")
        self.r = r
        self.gamma = _finite_complex(gamma, "gamma")

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
        return np.array(self.entries(), dtype=complex).reshape(2, 2)

    def entries(self) -> list:
        return [self.r, self.gamma, 0.0, 1.0 / self.r]

    def inverse(self) -> "SB2Element":
        return SB2Element(1.0 / self.r, -self.gamma)

    def __matmul__(self, other: "SB2Element") -> "SB2Element":
        return SB2Element(self.r * other.r, self.r * other.gamma + self.gamma / other.r)

    def __repr__(self):
        return f"SB2Element(r={self.r!r}, gamma={self.gamma!r})"


class SL2Element:
    """An element of SL(2,C) with z1*z4 - z2*z3 = 1."""

    __slots__ = ("z1", "z2", "z3", "z4")

    def __init__(self, z1, z2, z3, z4):
        self._set(*map(_finite_complex, (z1, z2, z3, z4), ("z1", "z2", "z3", "z4")))

    def _set(self, z1, z2, z3, z4):
        d = z1 * z4 - z2 * z3
        if abs(d - 1.0) > PROJECT_TOL:
            raise MembershipError(f"det = {d!r} is not 1")
        s = cmath.sqrt(d)
        self.z1, self.z2, self.z3, self.z4 = z1 / s, z2 / s, z3 / s, z4 / s

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
        return _trusted(SL2Element, self.z4, -self.z2, -self.z3, self.z1)

    def __matmul__(self, other: "SL2Element") -> "SL2Element":
        ab = mul2([[self.z1, self.z2, self.z3, self.z4]], [[other.z1, other.z2, other.z3, other.z4]])
        return SL2Element.from_matrix(np.reshape(ab, (2, 2)))

    def membership_defect(self) -> float:
        return abs(self.z1 * self.z4 - self.z2 * self.z3 - 1.0)

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


def iwasawa_gu(a: SL2Element):
    """Factor a = g*u with g in SU(2), u in SB(2,C).

    With s = 1/sqrt(|z1|^2 + |z3|^2):
        g = [[s*z1, -s*conj(z3)], [s*z3, s*conj(z1)]]
        u = [[1/s, s*(conj(z1)*z2 + conj(z3)*z4)], [0, s]]
    """
    s = _inverse_norm(a.z1, a.z3)
    g = _trusted(SU2Element, s * a.z1, s * a.z3)
    u = SB2Element(1.0 / s, s * (a.z1.conjugate() * a.z2 + a.z3.conjugate() * a.z4))
    return g, u


def iwasawa_ug(a: SL2Element):
    """Factor a = u*g with u in SB(2,C), g in SU(2).

    With t = 1/sqrt(|z3|^2 + |z4|^2):
        u = [[t, t*(z1*conj(z3) + z2*conj(z4))], [0, 1/t]]
        g = [[t*conj(z4), -t*conj(z3)], [t*z3, t*z4]]
    """
    t = _inverse_norm(a.z3, a.z4)
    u = SB2Element(t, t * (a.z1 * a.z3.conjugate() + a.z2 * a.z4.conjugate()))
    g = _trusted(SU2Element, t * a.z4.conjugate(), t * a.z3)
    return u, g


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
    return exp_sb2(complex(x.value[0, 0]).real, complex(x.value[0, 1]))


def exp_sb2(d: float, y: complex) -> SB2Element:
    """exp([[d, y], [0, -d]]) = [[e^d, y*sinhc(d)], [0, e^-d]] for real d."""
    try:
        return SB2Element(math.exp(d), y * sinhc(d))
    except (OverflowError, MembershipError):  # e^|d| or y*sinhc(d) past the floats
        raise ValueError("non-finite matrix entry") from None


def _as_rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_elements(kind: str, n: int, seed) -> list:
    """n seeded random elements of kind "su2", "sb2" or "sl2c" from one standard_normal((n, k)) call.

    SU(2) is sampled uniformly (normalized 4-component Gaussian; sqrt(v.dot(v)) is np.linalg.norm's
    formula and bits), SB(2,C) with log-normal r (sigma = 0.5) and complex-Gaussian gamma, SL(2,C)
    as g·u through gu_products, g drawn first, and kind "double" as the (g, u) pairs themselves;
    bits and generator state are those of n single draws.
    """
    k = {"su2": 4, "sb2": 3, "sl2c": 7, "double": 7}.get(kind)  # normals per draw; g takes the first four
    if k is None:
        raise MembershipError(f"unknown group kind {kind!r}")
    x = _as_rng(seed).standard_normal((n, k))
    gs, us = [], []
    if kind != "sb2":
        g4 = x[:, :4]
        for i, (x0, x1, x2, x3) in enumerate(g4.tolist()):
            s = math.sqrt(g4[i].dot(g4[i]))
            gs.append(_trusted(SU2Element, complex(x0 / s, x1 / s), complex(x2 / s, x3 / s)))
    if kind != "su2":
        us = [SB2Element(math.exp(0.5 * r), complex(re, im) / math.sqrt(2.0))
              for r, re, im in x[:, -3:].tolist()]
    if kind == "sl2c":
        return [_trusted(SL2Element, *z) for z in gu_products(gs, us)]
    return list(zip(gs, us)) if kind == "double" else gs or us


def random_element(kind: str, seed):
    """One seeded random group element: random_elements' n = 1 case.  Deterministic per seed."""
    return random_elements(kind, 1, seed)[0]
