"""Vector fields, Legendre maps, and closed-form quadrature flows.

Right-hand sides are transcribed explicitly; the poisson module's generic
field assembly is used in tests as an independent cross-check, never here.
Flows are pure functions of (initial data, parameters, t).  Each system's
*_flow takes the initial data and parameters, checks them and reduces them to
the generator of the flow once, and returns at(t) -> FlowState, which does
only the t-dependent arithmetic.  That arithmetic has one body per flow:
at(t) wraps its values in a FlowState for library callers, and at.rows(times)
builds a block's CSV rows from the same values, with no FlowState per row
(see System).  The rotator's and action_angle's body is a block of t, and
at(t) is a block of one.

A block's rows take the groups kernels on coordinate tuples, and only at(t)'s
FlowState holds elements.  The SU(2) rows exponentiate with groups.expm2_kernel
on Python complex scalars, as legendre_map_kernel forms its entries; a block of
casimir rows takes its g·u in one groups.gu_products call, and H0 and det from
the entries it returns.

A *_flat_field takes a flat state's coordinates as positional floats,
field(*y), as quadrature.rk4_integrate passes them.  None calls numpy per
evaluation but action_angle's by matrix, one A @ φ of a config-sized A: the
others work on Python floats.  The rotator's rows are the cross products
g_i × F·p, with np.cross's bits, so its oracle takes no BLAS kernel.  The
SU(2)·SB(2,C) fields are their complex rates split into real and imaginary
parts, in the complex arithmetic's order of operations, with every term that
is exactly zero left out.  So where the complex rate is not NaN the float
rate has its bits but for the sign of a zero, a NaN it had from 0·inf in
such a term may be a number, and an input that raised raises the same
exception type.  No output sees a zero's sign: oracle_dev and every residual
take |·|.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .groups import (
    PROJECT_TOL,
    AlgebraElement,
    MembershipError,
    SB2Element,
    SL2Element,
    SU2Element,
    _finite_complex,
    _wrap,
    check_finite,
    exp_group,
    exp_sb2,
    expm2_kernel,
    gu_products,
    random_element,
    random_parts,
    sb2_parts,
    sb2_product,
    su2_product,
    su2_project,
)
from .quadrature import simpson_rule

__all__ = [
    "System",
    "SYSTEMS",
    "FlowState",
    "REQUIRED",
    "CommutativityError",
    "free_hamiltonian",
    "legendre_map",
    "legendre_invert",
    "casimir_flow",
    "rotator_flow",
    "momenta_su2_flow",
    "noncasimir_flow",
    "perturbed_flow",
    "perturbed_velocity",
    "interaction_picture_flow",
    "commuting_quadrature_flow",
    "action_angle_flow",
    "sl2c_flat_field",
    "noncasimir_flat_field",
    "momenta_su2_flat_field",
    "perturbed_flat_field",
    "rotator_flat_field",
    "action_angle_flat_field",
    "z_to_flat",
    "flat_to_z",
]

@dataclass
class FlowState:
    """One flow snapshot; only the parts meaningful for the system are set."""

    time: float
    g: object = None        # SU2Element or 3x3 rotation matrix
    u: SB2Element = None
    alpha: complex = None   # momenta on the SU(2) side
    nu: complex = None
    p: np.ndarray = None    # angular momentum vector
    I: np.ndarray = None    # action variables
    phi: np.ndarray = None  # raw (real-valued) angles
    phi_mod: np.ndarray = None  # angles reduced mod 2*pi
    p_norm: float = None    # |p|


class CommutativityError(RuntimeError):
    """Sampled velocities fail to commute; quadrature formula is invalid."""

    def __init__(self, max_norm, pair):
        super().__init__(
            f"velocity samples at t = {pair[0]:.6g} and t = {pair[1]:.6g} "
            f"do not commute: commutator norm {max_norm:.3e}"
        )
        self.max_norm = float(max_norm)
        self.pair = (float(pair[0]), float(pair[1]))


def free_hamiltonian(x) -> float:
    """(1/2)Tr(a a*): (1/2)Σ|z_i|² on SL(2,C), (1/2)(|γ|²+r²+r⁻²) on SB(2,C).

    A value past the floats is ValueError("non-finite matrix entry").
    """
    if not isinstance(x, (SL2Element, SB2Element)):
        raise TypeError(f"no free Hamiltonian for {type(x).__name__}")
    if isinstance(x, SL2Element):  # the casimir row's H0 column
        h = _casimir_invariants(x.z1, x.z2, x.z3, x.z4)[0]
    else:
        try:
            h = 0.5 * (abs(x.gamma) ** 2 + x.r ** 2 + x.r ** -2)
        except OverflowError:  # a square or r^-2 past the floats
            h = math.inf
    if h == math.inf:  # or their sum
        raise ValueError("non-finite matrix entry")
    return h


def z_to_flat(z1, z2, z3, z4) -> list:
    """The 8-real z-state [z1.real, z1.imag, ..., z4.imag], as a list."""
    return [z1.real, z1.imag, z2.real, z2.imag, z3.real, z3.imag, z4.real, z4.imag]


def flat_to_z(y):
    """The four complex entries of an 8-real z-state, as a tuple."""
    return (complex(y[0], y[1]), complex(y[2], y[3]), complex(y[4], y[5]), complex(y[6], y[7]))


def sl2c_flat_field(F_value: float):
    """Bracket field of F·dH0 at the 8 reals of a flattened z-state, field(x1, y1, ..., y4)."""
    c = -0.5 * float(F_value)

    def field(x1, y1, x2, y2, x3, y3, x4, y4):
        h0 = 0.5 * (abs(complex(x1, y1)) ** 2 + abs(complex(x2, y2)) ** 2
                    + abs(complex(x3, y3)) ** 2 + abs(complex(x4, y4)) ** 2)
        # (u, v) = h0·z ∓ z̄', and ż = i·c·(u + iv)
        u1, v1 = h0 * x1 - x4, h0 * y1 + y4
        u2, v2 = h0 * x2 + x3, h0 * y2 - y3
        u3, v3 = h0 * x3 + x2, h0 * y3 - y2
        u4, v4 = h0 * x4 - x1, h0 * y4 + y1
        return (-c * v1, c * u1, -c * v2, c * u2, -c * v3, c * u3, -c * v4, c * u4)

    return field


def legendre_map_kernel(r, g, F_value: float) -> tuple:
    """legendre_map's value at u = (r, g), as its entries ((m00, m01), (m10, m11))."""
    try:
        d = r * r - 1.0 / (r * r) + abs(g) ** 2
    except (ZeroDivisionError, OverflowError):  # r^2 underflows or |gamma|^2 overflows
        raise ValueError("non-finite matrix entry") from None
    off = complex(2.0, 0.0) * g / complex(r, 0.0)
    c = complex(0.0, -0.25 * float(F_value))
    m = ((c * complex(d), c * off), (c * off.conjugate(), c * complex(-d)))
    if not all(map(cmath.isfinite, m[0] + m[1])):
        raise ValueError("non-finite matrix entry")
    return m


def legendre_map(u: SB2Element, F_value: float) -> AlgebraElement:
    """Velocity in su(2) assigned to the momentum u by η = F·dH0.

    The value c·[[d, off], [conj(off), -d]], d real and c = (+0.0, -F/4), has m + m*
    and tr m exactly 0 where finite, so only finiteness is checked, not su2
    membership: an entry past the floats is ValueError("non-finite matrix entry").
    Each entry is one complex x complex product of Python scalars, with numpy's bits.
    """
    return _wrap(AlgebraElement, "su2", np.array(legendre_map_kernel(u.r, u.gamma, F_value), complex))


def legendre_invert_kernel(m00, m01, unreduced=False) -> tuple:
    """legendre_invert's (r, gamma), checked as SB2Element checks them, from v's first row (m00, m01)."""
    # v = -(i/2) [[s, w], [conj(w), -s]], on Python scalars: an overflow is inf, not a warning
    s = (2j * m00).real
    w = 2j * m01
    try:
        disc = math.sqrt(s * s + abs(w) ** 2 + 1.0)
    except OverflowError:  # |w|^2 overflows
        disc = math.inf
    if disc == math.inf:
        raise ValueError("non-finite matrix entry")
    if unreduced:
        r = s + disc
    else:
        r = math.sqrt((s + disc) / (1.0 + abs(w) ** 2))
    return sb2_parts(r, r * w)


def legendre_invert(v: AlgebraElement, unreduced=False) -> SB2Element:
    """Momentum u with legendre_map(u, 1) = v.

    The default solves the positive-root quartic (1+|w|²)r⁴ - 2s·r² - 1 = 0.
    unreduced=True instead takes r = s + √(s²+|w|²+1) directly, skipping the
    (1+|w|²) divisor and the square root down to r; that shortcut does not
    satisfy the round trip away from v = 0 and is kept only for comparison.
    An s² + |w|² past the floats is ValueError("non-finite matrix entry").
    """
    if not isinstance(v, AlgebraElement) or v.kind != "su2":
        raise MembershipError("legendre_invert needs an su2 AlgebraElement")
    return _wrap(SB2Element, *legendre_invert_kernel(*v.value.tolist()[0], unreduced))


def _su2_exp(m):
    """s -> SU2Element's projected parts (alpha, nu) of exp(s·m), for an m whose multiples s·m are in su(2).

    That holds for every real s when m + m* and tr m are exactly 0, as for a
    legendre_map value or the perturbed X, and exp(s·m) then has the SU(2)
    form to round-off.  Per s only the column of the parts is checked
    finite: an s·m past the floats makes it inf or NaN, or makes
    expm2_kernel raise the same ValueError("non-finite matrix entry").
    """
    (m00, m01), (m10, m11) = m.tolist()

    def at(s):
        s = complex(s)  # as numpy promotes a float times a complex array
        alpha, _, nu, _ = expm2_kernel(s * m00, s * m01, s * m10, s * m11)
        if not (cmath.isfinite(alpha) and cmath.isfinite(nu)):
            raise ValueError("non-finite matrix entry")
        return su2_project(alpha, nu)

    return at


def _each(body):
    """The block of a per-t body: times -> (values, error), the values body(t) of the longest
    prefix of times it builds and the ValueError of the next t, or None.  The error is
    returned, not raised, so that the caller checks the rows before it first."""
    def block(times):
        values = []
        try:
            for t in times:
                values.append(body(t))
        except ValueError as e:
            return values, e
        return values, None

    return block


def _flow(block, state, rows):
    """at(t) -> state(float(t), v) for block([t])'s one value v, or block's ValueError raised,
    and at.rows(times) -> (rows(values), error) for block(times) -> (values, error)."""
    def at(t):
        values, err = block([t])
        if err is not None:
            raise err
        return state(float(t), values[0])

    def rows_at(times):
        values, err = block(times)
        return rows(values), err

    at.rows = rows_at
    return at


def casimir_flow(g0: SU2Element, u0: SB2Element, F) -> Callable:
    """Frozen-momenta flow: u stays at u0, g(t) = g0·exp(t·L_η(u0)), η = F·dH0."""
    exp_tl, a0, n0, r0, gamma0 = _su2_exp(legendre_map(u0, F).value), g0.alpha, g0.nu, u0.r, u0.gamma
    return _flow(_each(lambda t: su2_product(a0, n0, *exp_tl(t))),
                 lambda t, g: FlowState(time=t, g=_wrap(SU2Element, *g), u=u0),
                 lambda gs: [z_to_flat(*z) + _casimir_invariants(*z)
                             for z in gu_products([(a, n, r0, gamma0) for a, n in gs])])


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


_I3 = np.eye(3)


def rotator_flow(g0, p, F) -> Callable:
    """Isotropic rotator: p frozen, g(t) = g0·exp(t·F·hat(p)).

    g0 must be a finite 3x3 rotation matrix, else a MembershipError names it.
    |p| and |F·p| are square roots of |p|² and |F·p|², so a ValueError names p
    unless p = 0 or |p|² is a normal float, and F unless |F·p|² is finite.
    exp(t·k), k = hat(F·p), is the axis-angle I + a·kt + b·(kt)², θ = |F·p|·|t|,
    a = sin θ/θ and b = (1 - cos θ)/θ², below θ = 1e-8 the series' (1, 1/2).
    A θ² past the floats (or a non-finite t) is a ValueError.  A block of t
    takes its (kt)² and g0·exp(t·k) as one stacked matmul each, and its rows
    the 9 entries of each g from one tolist().
    """
    g0 = np.asarray(g0, dtype=float)
    if g0.shape != (3, 3):
        raise MembershipError("g0 must be a 3x3 rotation matrix")
    if not np.isfinite(g0).all():
        raise MembershipError("g0 must be finite")
    with np.errstate(all="ignore"):  # an inf or NaN defect fails the check
        defect = max(
            float(np.max(np.abs(g0.T @ g0 - np.eye(3)))),
            abs(float(np.linalg.det(g0)) - 1.0),
        )
    if not defect <= PROJECT_TOL:
        raise MembershipError(f"g0 fails the rotation check by {defect:.3e}")
    p, F = _finite_array(p, "p", (3,)), float(F)
    with np.errstate(over="ignore"):
        p_sq = float(p.dot(p))
    if p.any() and not np.finfo(float).tiny <= p_sq < math.inf:
        raise ValueError("p must be 0 or have |p|^2 in the normal floats")
    fp, norm = _scaled_axis(p, F)
    p_norm, k = math.sqrt(p_sq), hat3(fp)

    def block(times):
        ts, ab = np.array(times, dtype=float), []
        for t in ts.tolist():
            theta = norm * abs(t)
            if not math.isfinite(theta * theta):
                break
            ab.append((1.0, 0.5) if theta < 1e-8 else
                      (math.sin(theta) / theta, (1.0 - math.cos(theta)) / (theta * theta)))
        ab, kt = np.reshape(ab, (-1, 2, 1, 1)), k * ts[:len(ab), None, None]
        gs = g0 @ (_I3 + ab[:, 0] * kt + ab[:, 1] * (kt @ kt))
        return gs, None if len(gs) == len(ts) else ValueError("the flow leaves the finite floats")

    tail = [*p.tolist(), p_norm]
    return _flow(block, lambda t, g: FlowState(time=t, g=g, p=p.copy(), p_norm=p_norm),
                 lambda gs: [g + tail for g in gs.reshape(-1, 9).tolist()])


def _scaled_axis(p, F: float):
    """F·p and |F·p| for a checked 3-vector p; a ValueError names F unless |F·p|² is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        fp = F * p
        norm = float(np.linalg.norm(fp))
    if not math.isfinite(norm):
        raise ValueError("F must be finite and keep |F p|^2 finite")
    return fp, norm


def rotator_flat_field(p, F):
    """ġ = g·hat(w), w = F·p checked as rotator_flow does: field(*flat g)'s row i is g_i × w."""
    w0, w1, w2 = _scaled_axis(_finite_array(p, "p", (3,)), float(F))[0].tolist()

    def field(a0, a1, a2, b0, b1, b2, c0, c1, c2):
        return (a1 * w2 - a2 * w1, a2 * w0 - a0 * w2, a0 * w1 - a1 * w0,
                b1 * w2 - b2 * w1, b2 * w0 - b0 * w2, b0 * w1 - b1 * w0,
                c1 * w2 - c2 * w1, c2 * w0 - c0 * w2, c0 * w1 - c1 * w0)

    return field


def _momenta_su2_generator(alpha, nu, F) -> np.ndarray:
    F = float(F)
    x = -0.5 * F * abs(nu) ** 2
    y = -1j * F * alpha * (nu.real - nu.imag)
    return np.array([[x, y], [0.0, -x]], dtype=complex)


def momenta_su2_flow(u0: SB2Element, alpha, nu, F) -> Callable:
    """Free motion of the SB(2,C) part with frozen SU(2) momenta (α, ν).

    The constant generator is L = -(F/2)·[[|ν|², 2iα(Re ν - Im ν)], [0, -|ν|²]]
    and u(t) = exp(t·L)·u0.  The RK4 oracle's field takes this same L, so it
    does not check L's off-diagonal term, which the package does not derive.
    """
    SU2Element(alpha, nu)  # the unit check; the flow keeps alpha, nu as given
    alpha, nu = complex(alpha), complex(nu)
    # L is exactly in sb2 (zero (1,0) entry, real diagonal x, -x), and so is
    # t·L for every real t: per t only the two numbers exp_sb2 takes are checked
    (l00, l01), _ = _momenta_su2_generator(alpha, nu, F).tolist()

    def u(t):
        ct = complex(float(t))  # as numpy promotes a float times a complex array
        d, y = (ct * l00).real, ct * l01
        if not (math.isfinite(d) and cmath.isfinite(y)):
            raise ValueError("non-finite matrix entry")
        try:  # exp_sb2 past the floats is a ValueError, not a MembershipError
            return sb2_product(*exp_sb2(d, y), u0.r, u0.gamma)
        except MembershipError:  # the product's r underflows or its gamma overflows
            raise ValueError("the flow leaves the finite floats") from None

    h = abs(alpha) ** 2 + abs(nu) ** 2
    return _flow(_each(u), lambda t, v: FlowState(time=t, u=_wrap(SB2Element, *v), alpha=alpha, nu=nu),
                 lambda us: [[r, gamma.real, gamma.imag, h] for r, gamma in us])


def momenta_su2_flat_field(alpha, nu, F):
    """u̇ = L·u at the flattened state, field(r, Re γ, Im γ).

    γ̇ = x·γ + y·(1/r), x = L[0, 0] and y = L[0, 1]: a product by 1/r, which
    rounds otherwise than y/r.  An r of 0 is a ZeroDivisionError.  L is the
    flow's own, so this oracle checks its exponential but not L itself.
    """
    (l00, l01), _ = _momenta_su2_generator(complex(alpha), complex(nu), F).tolist()
    x, yr, yi = l00.real, l01.real, l01.imag

    def field(r, gr, gi):
        scl = 1.0 / r
        return [x * r, x * gr + yr * scl, x * gi + yi * scl]

    return field


def noncasimir_flow(u0: SB2Element, alpha0, nu0) -> Callable:
    """Exact flow of the non-Casimir 1-form η = dH, H = |ν|²/2.

    Momenta: ν frozen, α(t) = α0·e^{i|ν0|²t/2}.  Group part: r frozen and
    γ(t) = γ0 + (conj(α0)conj(ν0)/(r0|ν0|²))·(1 - e^{-i|ν0|²t/2}), the exact
    antiderivative of γ̇ = (i/2)·conj(α(t))·conj(ν0)/r0.  ν0 = 0 is a fixed
    point by explicit branch; any other ν0 needs r0|ν0|² in the normal floats,
    else a ValueError names it.
    """
    SU2Element(alpha0, nu0)  # the unit check; the flow keeps alpha0, nu0 as given
    alpha0, nu0 = complex(alpha0), complex(nu0)
    if nu0 == 0:
        def body(t):
            return alpha0, u0.gamma
    else:
        w = abs(nu0) ** 2
        if not u0.r * w >= np.finfo(float).tiny:  # coef's divisor
            raise ValueError("nu0 must be 0 or have r0 |nu0|^2 in the normal floats")
        # the hoisted factors keep the left-to-right grouping of 0.5j * w * t,
        # which fixes the bits of each product
        half, quarter, mquarter = 0.5j * w, 0.25 * w, -0.25j * w
        coef = alpha0.conjugate() * nu0.conjugate() / (u0.r * w)

        def body(t):
            t = float(t)
            alpha_t = alpha0 * cmath.exp(half * t)
            # 1 - e^{-iwt/2} = 2i·sin(wt/4)·e^{-iwt/4}, stable for small w·t
            loop = 2j * math.sin(quarter * t) * cmath.exp(mquarter * t)
            return alpha_t, _finite_complex(u0.gamma + coef * loop, "gamma")  # SB2Element's check

    r, (nr, ni), h = u0.r, (nu0.real, nu0.imag), 0.5 * abs(nu0) ** 2
    return _flow(_each(body),
                 lambda t, v: FlowState(time=t, u=SB2Element(r, v[1]), alpha=v[0], nu=nu0),
                 lambda vs: [[a.real, a.imag, nr, ni, r, g.real, g.imag, h] for a, g in vs])


def noncasimir_flat_field():
    """Bracket-derived rates at field(Re α, Im α, Re ν, Im ν, r, Re γ, Im γ)."""

    def field(a_re, a_im, n_re, n_im, r, _g_re, _g_im):
        h = 0.5 * abs(complex(n_re, n_im)) ** 2  # α̇ = i·h·α
        # (pr, pi) = (i/2)·ᾱ, (qr, qi) = (pr, pi)·ν̄, and γ̇ = (qr, qi)/r
        pr, pi = 0.5 * a_im, 0.5 * a_re
        qr, qi = pr * n_re + pi * n_im, pi * n_re - pr * n_im
        return (-h * a_im, h * a_re, 0.0, 0.0, 0.0, qr / r, qi / r)

    return field


def _perturbed_x(lam: float, r: float) -> np.ndarray:
    return np.array([[-0.25j * lam * r, 0.0], [0.0, 0.25j * lam * r]], dtype=complex)


def perturbed_flow(g0: SU2Element, u0: SB2Element, F, lam: float) -> Callable:
    """Flow of η = F·dH0 - λ·dr: a phase-rotating momentum and a two-factor g.

    γ(t) = γ0·e^{-iλr0t/2}, r frozen; g(t) = g0·exp(t(X+A0))·exp(-tX) with
    X = diag(-(i/4)λr0, (i/4)λr0) and X + A0 the η-velocity matrix at (r0, γ0).
    The sign of λ·dr is the one the double group's bracket table gives.
    """
    lam = float(lam)
    frame = _rotating_frame(g0, legendre_map(u0, F).value, _perturbed_x(lam, u0.r))
    phase = -0.5j * lam * u0.r

    def body(t):
        t = float(t)
        try:
            gamma_t = u0.gamma * cmath.exp(phase * t)
        except ValueError:  # cmath.exp of an infinite phase, for a finite t
            raise ValueError("non-finite matrix entry") from None
        g = frame(t)
        return g, _finite_complex(gamma_t, "gamma")  # SB2Element's check

    r = u0.r
    return _flow(_each(body),
                 lambda t, v: FlowState(time=t, g=_wrap(SU2Element, *v[0]), u=SB2Element(r, v[1])),
                 lambda vs: [[a.real, a.imag, n.real, n.imag, r, gm.real, gm.imag, abs(gm)]
                             for (a, n), gm in vs])


def perturbed_velocity(u0: SB2Element, F, lam: float, t: float) -> np.ndarray:
    """The generator g⁻¹ġ(t) = exp(tX)·A0·exp(-tX) of the perturbed flow; t·λ·r finite."""
    lam, t = float(lam), float(t)
    if not math.isfinite(t * lam * u0.r):
        raise ValueError("t * lam * r must be finite")
    X = _perturbed_x(lam, u0.r)
    A0 = legendre_map(u0, F).value - X
    ex = np.diag(np.exp(np.diag(t * X)))
    return ex @ A0 @ np.diag(np.exp(np.diag(-t * X)))


def perturbed_flat_field(F, lam: float):
    """Perturbed field at field(Re α, Im α, Re ν, Im ν, r, Re γ, Im γ).

    The g-part follows ġ = g·(L_F(u) - X(r)), the momenta follow ṙ = 0,
    γ̇ = -(i/2)λrγ; this is the system the closed form integrates.
    """
    # i·c, i·x and i·p are -0.25i·F, 0.25i·λ and -0.5i·λ
    c, x, p = -0.25 * float(F), 0.25 * float(lam), -0.5 * float(lam)

    def field(a_re, a_im, n_re, n_im, r, g_re, g_im):
        d = r * r - 1.0 / (r * r) + abs(complex(g_re, g_im)) ** 2
        # first column of gen = legendre_map(u, F) - X(r): (i·G, E), G = c·d + x·r
        # and E = i·c·conj(2γ/r)
        G = c * d + x * r
        E0, E1 = c * (2.0 * g_im / r), c * (2.0 * g_re / r)
        # first column of g·gen, g = [[alpha, -conj(nu)], [nu, conj(alpha)]]
        g00r = -a_im * G - (n_re * E0 + n_im * E1)
        g00i = a_re * G - (n_re * E1 - n_im * E0)
        g10r = -n_im * G + (a_re * E0 + a_im * E1)
        g10i = n_re * G + (a_re * E1 - a_im * E0)
        q = p * r  # γ̇ = i·q·γ
        return (g00r, g00i, g10r, g10i, 0.0, -q * g_im, q * g_re)

    return field


def _rotating_frame(g0, x_plus_a0, X):
    """t -> the parts of g0·exp(t(X+A0))·exp(-tX) for X + A0 and X in su(2), to round-off (see _su2_exp)."""
    exp_xa, exp_x, (a0, n0) = _su2_exp(x_plus_a0), _su2_exp(X), (g0.alpha, g0.nu)
    return lambda t: su2_product(*su2_product(a0, n0, *exp_xa(t)), *exp_x(-t))


def interaction_picture_flow(g0: SU2Element, X: AlgebraElement, A0: AlgebraElement) -> Callable:
    """Rotating-frame solution g(t) = g0·exp(t(X+A0))·exp(-tX) for constant X, A0 in su(2).

    X + A0 past the floats is ValueError("non-finite matrix entry").
    """
    for name, x in (("X", X), ("A0", A0)):
        if not isinstance(x, AlgebraElement) or x.kind != "su2":
            raise MembershipError(f"{name} must be an su2 AlgebraElement")
    with np.errstate(over="ignore"):  # an entry past the floats is rejected next
        x_plus_a0 = check_finite(X.value + A0.value)
    frame = _rotating_frame(g0, x_plus_a0, X.value)
    return lambda t: _wrap(SU2Element, *frame(t))


def _commutator_guard(mats, nodes, tol):
    """Raise CommutativityError unless every pairwise commutator norm is <= tol.

    Row i takes its products with the samples after it from one batched
    matmul, m[i] @ m[i+1:] - m[i+1:] @ m[i], so each norm is the one a
    pairwise loop computes and memory grows linearly in S.  The reported
    pair is the first worst one in (i, j), i < j order; a NaN norm is never
    the worst, as with a pairwise loop over `nrm > worst`.
    """
    m = np.array(mats)
    worst, pair = -math.inf, None
    for i in range(len(m) - 1):
        comm = m[i] @ m[i + 1:] - m[i + 1:] @ m[i]
        norms = np.sqrt(np.sum(np.abs(comm) ** 2, axis=(1, 2)))
        norms[np.isnan(norms)] = 0.0
        k = int(np.argmax(norms))
        if norms[k] > worst:
            worst, pair = norms[k], (nodes[i], nodes[i + 1 + k])
    if worst > tol:
        raise CommutativityError(worst, pair)


# Largest pairwise commutator norm commuting_quadrature_flow accepts.
_COMMUTATOR_TOL = 1e-9


def commuting_quadrature_flow(g0, momentum_path, t1: float, samples=33):
    """g0·exp(∫₀^t1 L(s) ds) after verifying the sampled velocities commute.

    momentum_path maps s to an su2 or sb2 AlgebraElement of a fixed kind, g0
    is in the matching group; the pairwise commutator Frobenius norms of the
    samples must stay below _COMMUTATOR_TOL, otherwise a CommutativityError
    with the worst pair is raised.  The integral uses the composite Simpson
    rule on the same sample nodes.
    """
    if not (samples >= 3 and samples % 2 == 1):  # False for a non-integral or non-finite count
        raise ValueError("samples must be an odd count >= 3")
    samples = int(samples)
    t1 = float(t1)
    nodes, weights = simpson_rule(0.0, t1, samples - 1)
    vals = [momentum_path(float(s)) for s in nodes]
    kind = vals[0].kind
    if any(v.kind != kind for v in vals):
        raise MembershipError("momentum_path must keep a fixed algebra kind")
    _commutator_guard([v.value for v in vals], nodes, _COMMUTATOR_TOL)
    integral = sum(w * v.value for w, v in zip(weights, vals))
    return g0 @ exp_group(AlgebraElement(kind, integral))


def action_angle_flow(I0, phi0, freq=None, matrix=None) -> Callable:
    """Action-angle dynamics with I frozen at I0: exactly one of freq, matrix.

    Frequency variant: φ(t) = φ0 + ν·t for the constant vector ν = freq.
    Fiber variant, t >= 0 only: φ(t) = exp(∫₀ᵗ A ds)·φ0 for the constant
    matrix A = matrix, the integral by composite Simpson on 33 nodes.  No
    commutator guard runs: the 33 samples are one matrix, so every pairwise
    commutator is exactly 0 and the one-term Magnus exponential is exact.
    I0, phi0 must be finite and 1-D, freq finite of shape (m,), matrix finite
    of shape (m, m), m = len(phi0); else a ValueError names the argument.
    A φ(t) past the finite floats is a ValueError; each row tests its own φ.
    A block of t takes its φ, and for the fiber its Simpson sums, exponentials
    and products with φ0, as one stacked call each, and its rows from one
    tolist() of φ and of φ mod 2π.
    """
    if (freq is None) == (matrix is None):
        raise ValueError("action_angle_flow needs exactly one of freq, matrix")
    I0, phi0 = _finite_array(I0, "I0"), _finite_array(phi0, "phi0")
    m = len(phi0)
    nu = None if freq is None else _finite_array(freq, "freq", (m,))
    A = None if matrix is None else _finite_array(matrix, "matrix", (m, m))
    # simpson_rule(0, t, 32)'s weights are these times t / 32 / 3, bit for bit
    simpson = simpson_rule(0.0, 96.0, 32)[1]

    def block(times):
        ts = np.array(times, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite phi is an error below
            if A is None:
                phis = phi0 + nu * ts[:, None]
            else:
                import scipy.linalg  # only this path needs it; keeps the CLI import light
                w = simpson * (ts[:, None] / 32 / 3.0)
                integral = 0  # sum()'s start, whose 0 + x turns a -0.0 into +0.0
                for j in range(33):
                    integral = integral + w[:, j, None, None] * A
                phis = scipy.linalg.expm(integral) @ phi0
                phis[ts == 0.0] = phi0  # expm(0) @ phi0 would turn -0.0 into +0.0
        backward = (A is not None) & (ts < 0)
        k = next(iter(np.flatnonzero(backward | ~np.isfinite(phis).all(axis=1))), len(ts))
        err = None if k == len(ts) else ValueError(
            "the fiber variant integrates forward time only" if backward[k]
            else "the flow leaves the finite floats")
        return phis[:k], err

    I = I0.tolist()
    return _flow(block, lambda t, phi: FlowState(time=t, I=I0.copy(), phi=phi,
                                                 phi_mod=np.mod(phi, 2.0 * np.pi)),
                 lambda phis: [I + phi + mod for phi, mod
                               in zip(phis.tolist(), np.mod(phis, 2.0 * np.pi).tolist())])


def _finite_array(a, name, shape=None) -> np.ndarray:
    """a as a finite float array of the shape given (default: 1-D); else a ValueError naming it."""
    try:
        a = np.asarray(a, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an array of numbers") from None
    if a.shape != (shape or (a.size,)) or not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite and of shape {shape or '(n,)'}")
    return a


def action_angle_flat_field(I0, freq=None, matrix=None):
    """(İ, φ̇) = (0, ν) or (0, A·φ) at field(*I, *φ), which takes any count of floats."""
    n = len(I0)
    if matrix is None:
        rate = np.concatenate([np.zeros(n), np.asarray(freq, dtype=float)]).tolist()
        return lambda *y: rate
    A = np.asarray(matrix, dtype=float)
    return lambda *y: [0.0] * n + (A @ np.array(y[n:])).tolist()


# The default of a System param that a run must give.
REQUIRED = object()


@dataclass(frozen=True)
class System:
    """What `simulate`, the RK4 oracle and the tests know about one system.

    params holds (name, parse kind, default); a pair of names is the
    (alpha, nu) of one unit momentum.  An omitted name takes its default,
    None too: a callable default is a draw, called with the run's rng in
    the order of params, and a REQUIRED one is a config error.
    sample(params) calls the system's *_flow, which checks every domain
    rule of the params once, and returns its at.rows: block(times) ->
    (rows, error), the rows of the longest prefix of times the flow builds,
    and the ValueError of the first t it cannot build, or None.  A row is a
    list of floats, the CSV row after t: the flat state, then the invariant
    columns.  columns(params) names them, as (flat columns, invariant
    columns), and field(params)(*flat) is the RK4 oracle's rate at a flat state.
    """

    params: tuple
    sample: Callable
    columns: Callable
    field: Callable

    def names(self):
        return [n for name, _, _ in self.params
                for n in (name if isinstance(name, tuple) else (name,))]


def _complex_cols(*prefixes):
    return [f"{p}_{part}" for p in prefixes for part in ("re", "im")]


def _flat_double(alpha, nu, u):
    return [alpha.real, alpha.imag, nu.real, nu.imag, u.r, u.gamma.real, u.gamma.imag]


def _casimir_invariants(z1, z2, z3, z4):
    """The casimir row's invariant columns of a = [[z1, z2], [z3, z4]]: H0 and det's two parts."""
    det = z1 * z4 - z2 * z3
    try:
        h0 = 0.5 * (abs(z1) ** 2 + abs(z2) ** 2 + abs(z3) ** 2 + abs(z4) ** 2)
    except OverflowError:  # a square past the floats
        h0 = math.inf
    return [h0, det.real, det.imag]


def _action_angle_columns(p):
    n, m = len(p["I0"]), len(p["phi0"])
    return ([f"I_{k}" for k in range(1, n + 1)] + [f"phi_{k}" for k in range(1, m + 1)],
            [f"phimod_{k}" for k in range(1, m + 1)])


def _unit_pair(rng):
    return random_parts("su2", 1, rng)[0]


_G0 = ("g0", "su2", SU2Element.identity())
_U0 = ("u0", "sb2", lambda rng: random_element("sb2", rng))
_F = ("F", "float", 1.0)
# the flat columns of noncasimir_h and perturbed, in _flat_double's order
_DOUBLE = (*_complex_cols("alpha", "nu"), "r", *_complex_cols("gamma"))

# Flows and fields go through module-level names at call time, so a
# function patched on this module (a tracer, a test double) is the one used.
SYSTEMS = {
    "rotator": System(
        params=(("g0", "matrix", np.eye(3)), ("p", "vector", lambda rng: rng.standard_normal(3)),
                _F),
        sample=lambda p: rotator_flow(p["g0"], p["p"], p["F"]).rows,
        columns=lambda p: ([f"g{i}{j}" for i in range(1, 4) for j in range(1, 4)],
                           ["p1", "p2", "p3", "p_norm"]),
        field=lambda p: rotator_flat_field(p["p"], p["F"]),
    ),
    "casimir_sl2c": System(
        params=(_G0, _U0, _F),
        sample=lambda p: casimir_flow(p["g0"], p["u0"], p["F"]).rows,
        columns=lambda p: (_complex_cols("z1", "z2", "z3", "z4"), ["H0", "det_re", "det_im"]),
        field=lambda p: sl2c_flat_field(p["F"]),
    ),
    "momenta_su2": System(
        params=(_U0, (("alpha", "nu"), "momenta", _unit_pair), _F),
        sample=lambda p: momenta_su2_flow(p["u0"], p["alpha"], p["nu"], p["F"]).rows,
        columns=lambda p: (["r", *_complex_cols("gamma")], ["h_su2_norm"]),
        field=lambda p: momenta_su2_flat_field(p["alpha"], p["nu"], p["F"]),
    ),
    "noncasimir_h": System(
        params=(_U0, (("alpha0", "nu0"), "momenta", _unit_pair)),
        sample=lambda p: noncasimir_flow(p["u0"], p["alpha0"], p["nu0"]).rows,
        columns=lambda p: (_DOUBLE, ["h_nu"]),
        field=lambda p: noncasimir_flat_field(),
    ),
    "perturbed": System(
        params=(_G0, _U0, _F, ("lam", "float", 0.1)),
        sample=lambda p: perturbed_flow(p["g0"], p["u0"], p["F"], p["lam"]).rows,
        columns=lambda p: (_DOUBLE, ["gamma_abs"]),
        field=lambda p: perturbed_flat_field(p["F"], p["lam"]),
    ),
    "action_angle": System(
        params=(("I0", "vector", REQUIRED), ("phi0", "vector", REQUIRED),
                ("freq", "vector", None), ("matrix", "matrix", None)),
        sample=lambda p: action_angle_flow(p["I0"], p["phi0"], p["freq"], p["matrix"]).rows,
        columns=lambda p: _action_angle_columns(p),
        field=lambda p: action_angle_flat_field(p["I0"], p["freq"], p["matrix"]),
    ),
}
