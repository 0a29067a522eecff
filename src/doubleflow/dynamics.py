"""Vector fields, Legendre maps, and closed-form quadrature flows.

Right-hand sides are transcribed explicitly; the poisson module's generic
field assembly is used in tests as an independent cross-check, never here.
Flows return FlowState snapshots and are pure functions of (initial data,
parameters, t), so trajectory sampling is just a loop over t values.
"""

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .groups import (
    AlgebraElement,
    MembershipError,
    SB2Element,
    SL2Element,
    SU2Element,
    exp_group,
)
from .mat2 import hat3, rodrigues3
from .quadrature import rk4_integrate, simpson_rule

__all__ = [
    "System",
    "SYSTEMS",
    "SystemSpec",
    "FlowState",
    "InteractionPictureData",
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
    "run_system",
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
class SystemSpec:
    """Which dynamical system to run, with its params (SYSTEMS defaults filled in)."""

    variant: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        system = SYSTEMS.get(self.variant)
        if system is None:
            raise ValueError(f"unknown system {self.variant!r}; valid: {', '.join(SYSTEMS)}")
        self.params = {**system.defaults(), **self.params}


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


@dataclass
class InteractionPictureData:
    """Constant generators X, A0 of the rotating-frame solution."""

    X: AlgebraElement
    A0: AlgebraElement

    def __post_init__(self):
        for name, x in (("X", self.X), ("A0", self.A0)):
            if not isinstance(x, AlgebraElement) or x.kind != "su2":
                raise MembershipError(f"{name} must be an su2 AlgebraElement")


class CommutativityError(RuntimeError):
    """Sampled velocities fail to commute; quadrature formula is invalid."""

    def __init__(self, max_norm, pair):
        super().__init__(
            f"velocity samples at t = {pair[0]:.6g} and t = {pair[1]:.6g} "
            f"do not commute: commutator norm {max_norm:.3e}"
        )
        self.max_norm = float(max_norm)
        self.pair = (float(pair[0]), float(pair[1]))


def _fvalue(F, *args) -> float:
    return float(F(*args)) if callable(F) else float(F)


def free_hamiltonian(x) -> float:
    """(1/2)Tr(a a*): (1/2)Σ|z_i|² on SL(2,C), (1/2)(|γ|²+r²+r⁻²) on SB(2,C)."""
    if isinstance(x, SL2Element):
        return 0.5 * (abs(x.z1) ** 2 + abs(x.z2) ** 2 + abs(x.z3) ** 2 + abs(x.z4) ** 2)
    if isinstance(x, SB2Element):
        return 0.5 * (abs(x.gamma) ** 2 + x.r ** 2 + x.r ** -2)
    if isinstance(x, dict):
        if "z1" in x:
            return 0.5 * sum(abs(complex(x[f"z{i}"])) ** 2 for i in range(1, 5))
        if "r" in x:
            r = complex(x["r"]).real
            return 0.5 * (abs(complex(x["gamma"])) ** 2 + r ** 2 + r ** -2)
    raise TypeError(f"no free Hamiltonian for {type(x).__name__}")


def _sl2c_rates(z1, z2, z3, z4, F):
    h0 = 0.5 * (abs(z1) ** 2 + abs(z2) ** 2 + abs(z3) ** 2 + abs(z4) ** 2)
    c = -0.5j * F
    return (
        c * (h0 * z1 - z4.conjugate()),
        c * (h0 * z2 + z3.conjugate()),
        c * (h0 * z3 + z2.conjugate()),
        c * (h0 * z4 - z1.conjugate()),
    )


def z_to_flat(z1, z2, z3, z4) -> np.ndarray:
    return np.array([z1.real, z1.imag, z2.real, z2.imag,
                     z3.real, z3.imag, z4.real, z4.imag])


def flat_to_z(y):
    return (complex(y[0], y[1]), complex(y[2], y[3]),
            complex(y[4], y[5]), complex(y[6], y[7]))


def sl2c_flat_field(F_value: float):
    """Bracket field of F·dH0 on the flattened 8-real z-state (RK4 oracle)."""
    F = float(F_value)

    def field(y):
        x1, y1, x2, y2, x3, y3, x4, y4 = y.tolist()
        r1, r2, r3, r4 = _sl2c_rates(complex(x1, y1), complex(x2, y2),
                                     complex(x3, y3), complex(x4, y4), F)
        return np.array([r1.real, r1.imag, r2.real, r2.imag,
                         r3.real, r3.imag, r4.real, r4.imag])

    return field


def legendre_map(u: SB2Element, F_value: float) -> AlgebraElement:
    """Velocity in su(2) assigned to the momentum u by η = F·dH0."""
    r, g = u.r, u.gamma
    d = r * r - 1.0 / (r * r) + abs(g) ** 2
    off = 2.0 * g / r
    m = (-0.25j * float(F_value)) * np.array(
        [[d, off], [off.conjugate(), -d]], dtype=complex
    )
    return AlgebraElement("su2", m)


def legendre_invert(v: AlgebraElement, unreduced=False) -> SB2Element:
    """Momentum u with legendre_map(u, 1) = v.

    The default solves the positive-root quartic (1+|w|²)r⁴ - 2s·r² - 1 = 0.
    unreduced=True instead takes r = s + √(s²+|w|²+1) directly, skipping the
    (1+|w|²) divisor and the square root down to r; that shortcut does not
    satisfy the round trip away from v = 0 and is kept only for comparison.
    """
    if not isinstance(v, AlgebraElement) or v.kind != "su2":
        raise MembershipError("legendre_invert needs an su2 AlgebraElement")
    # v = -(i/2) [[s, w], [conj(w), -s]]
    s = (2j * v.value[0, 0]).real
    w = complex(2j * v.value[0, 1])
    disc = math.sqrt(s * s + abs(w) ** 2 + 1.0)
    if unreduced:
        r = s + disc
    else:
        r = math.sqrt((s + disc) / (1.0 + abs(w) ** 2))
    return SB2Element(r, r * w)


def casimir_flow(g0: SU2Element, u0: SB2Element, F, t: float) -> FlowState:
    """Frozen-momenta flow: u stays at u0, g(t) = g0·exp(t·L_η(u0))."""
    Fv = _fvalue(F, u0.gamma, u0.r)
    L = legendre_map(u0, Fv)
    g = g0 @ exp_group(AlgebraElement("su2", float(t) * L.value))
    return FlowState(time=float(t), g=g, u=u0)


def rotator_flow(g0, p, F, t: float) -> FlowState:
    """Isotropic rotator: p frozen, g(t) = g0·exp(t·F(p)·hat(p))."""
    g0 = np.asarray(g0, dtype=float)
    if g0.shape != (3, 3):
        raise MembershipError("g0 must be a 3x3 rotation matrix")
    defect = max(
        float(np.max(np.abs(g0.T @ g0 - np.eye(3)))),
        abs(float(np.linalg.det(g0)) - 1.0),
    )
    if defect > 1e-8:
        raise MembershipError(f"g0 fails the rotation check by {defect:.3e}")
    p = np.asarray(p, dtype=float)
    Fv = _fvalue(F, p)
    return FlowState(time=float(t), g=g0 @ rodrigues3(Fv * p, t), p=p.copy())


def rotator_flat_field(p, F):
    """ġ = g·hat(F(p)·p) on the flattened 9-real rotation matrix."""
    p = np.asarray(p, dtype=float)
    k = hat3(_fvalue(F, p) * p)

    def field(y):
        return (y.reshape(3, 3) @ k).ravel()

    return field


def _momenta_su2_generator(alpha, nu, F) -> np.ndarray:
    Fv = _fvalue(F, alpha, nu)
    x = -0.5 * Fv * abs(nu) ** 2
    y = -1j * Fv * alpha * (nu.real - nu.imag)
    return np.array([[x, y], [0.0, -x]], dtype=complex)


def momenta_su2_flow(u0: SB2Element, alpha, nu, F, t: float) -> FlowState:
    """Free motion of the SB(2,C) part with frozen SU(2) momenta (α, ν).

    The constant generator is L = -(F/2)·[[|ν|², 2iα(Re ν - Im ν)], [0, -|ν|²]]
    and u(t) = exp(t·L)·u0.
    """
    alpha, nu = complex(alpha), complex(nu)
    norm2 = abs(alpha) ** 2 + abs(nu) ** 2
    if abs(norm2 - 1.0) > 1e-8:
        raise MembershipError("(alpha, nu) must satisfy |alpha|^2 + |nu|^2 = 1")
    L = _momenta_su2_generator(alpha, nu, F)
    u = exp_group(AlgebraElement("sb2", float(t) * L)) @ u0
    return FlowState(time=float(t), u=u, alpha=alpha, nu=nu)


def momenta_su2_flat_field(alpha, nu, F):
    """u̇ = L·u on the flattened (r, Re γ, Im γ) state."""
    L = _momenta_su2_generator(complex(alpha), complex(nu), F)
    x, y = L[0, 0].real, L[0, 1]

    def field(st):
        r, gamma = st[0], complex(st[1], st[2])
        gdot = x * gamma + y / r
        return np.array([x * r, gdot.real, gdot.imag])

    return field


def noncasimir_flow(u0: SB2Element, alpha0, nu0, t: float) -> FlowState:
    """Exact flow of the non-Casimir 1-form η = dH, H = |ν|²/2.

    Momenta: ν frozen, α(t) = α0·e^{i|ν0|²t/2}.  Group part: r frozen and
    γ(t) = γ0 + (conj(α0)conj(ν0)/(r0|ν0|²))·(1 - e^{-i|ν0|²t/2}), the exact
    antiderivative of γ̇ = (i/2)·conj(α(t))·conj(ν0)/r0.  ν0 = 0 is a fixed
    point by explicit branch.
    """
    alpha0, nu0 = complex(alpha0), complex(nu0)
    norm2 = abs(alpha0) ** 2 + abs(nu0) ** 2
    if abs(norm2 - 1.0) > 1e-8:
        raise MembershipError("(alpha0, nu0) must satisfy |alpha|^2 + |nu|^2 = 1")
    t = float(t)
    if nu0 == 0:
        return FlowState(time=t, u=u0, alpha=alpha0, nu=nu0)
    w = abs(nu0) ** 2
    alpha_t = alpha0 * cmath.exp(0.5j * w * t)
    # 1 - e^{-iwt/2} = 2i·sin(wt/4)·e^{-iwt/4}, stable for small w·t
    loop = 2j * math.sin(0.25 * w * t) * cmath.exp(-0.25j * w * t)
    gamma_t = u0.gamma + alpha0.conjugate() * nu0.conjugate() / (u0.r * w) * loop
    return FlowState(time=t, u=SB2Element(u0.r, gamma_t), alpha=alpha_t, nu=nu0)


def noncasimir_flat_field():
    """Bracket-derived rates on the flattened (Re α, Im α, Re ν, Im ν, r, Re γ, Im γ)."""

    def field(st):
        alpha = complex(st[0], st[1])
        nu = complex(st[2], st[3])
        r = st[4]
        adot = 0.5j * abs(nu) ** 2 * alpha
        gdot = 0.5j * alpha.conjugate() * nu.conjugate() / r
        return np.array([adot.real, adot.imag, 0.0, 0.0, 0.0, gdot.real, gdot.imag])

    return field


def _perturbed_x(lam: float, r: float) -> np.ndarray:
    return np.array([[-0.25j * lam * r, 0.0], [0.0, 0.25j * lam * r]], dtype=complex)


def perturbed_flow(g0: SU2Element, u0: SB2Element, F, lam: float, t: float) -> FlowState:
    """Flow of η = F(r)dH0 + λdr: a phase-rotating momentum and a two-factor g.

    γ(t) = γ0·e^{-iλr0t/2}, r frozen; g(t) = g0·exp(t(X+A0))·exp(-tX) with
    X = diag(-(i/4)λr0, (i/4)λr0) and X + A0 the η-velocity matrix at (r0, γ0).
    """
    lam, t = float(lam), float(t)
    Fv = _fvalue(F, u0.r)
    g = _rotating_frame(g0, legendre_map(u0, Fv).value, _perturbed_x(lam, u0.r), t)
    gamma_t = u0.gamma * cmath.exp(-0.5j * lam * u0.r * t)
    return FlowState(time=t, g=g, u=SB2Element(u0.r, gamma_t))


def perturbed_velocity(u0: SB2Element, F, lam: float, t: float) -> np.ndarray:
    """The generator g⁻¹ġ(t) = exp(tX)·A0·exp(-tX) of the perturbed flow."""
    lam, t = float(lam), float(t)
    Fv = _fvalue(F, u0.r)
    X = _perturbed_x(lam, u0.r)
    A0 = legendre_map(u0, Fv).value - X
    ex = np.diag(np.exp(np.diag(t * X)))
    return ex @ A0 @ np.diag(np.exp(np.diag(-t * X)))


def perturbed_flat_field(F, lam: float):
    """Perturbed field on (Re α, Im α, Re ν, Im ν, r, Re γ, Im γ).

    The g-part follows ġ = g·(L_F(u) - X(r)), the momenta follow ṙ = 0,
    γ̇ = -(i/2)λrγ; this is the system the closed form integrates.
    """
    lam = float(lam)

    def field(st):
        a_re, a_im, n_re, n_im, r, g_re, g_im = st.tolist()
        alpha, nu, gamma = complex(a_re, a_im), complex(n_re, n_im), complex(g_re, g_im)
        # first column of gen = legendre_map(u, F) - X(r), entry by entry
        c = -0.25j * _fvalue(F, r)
        gen00 = c * complex(r * r - 1.0 / (r * r) + abs(gamma) ** 2) + 0.25j * lam * r
        gen10 = c * (2.0 * gamma / r).conjugate()
        # first column of g·gen, g = [[alpha, -conj(nu)], [nu, conj(alpha)]]
        g00 = alpha * gen00 - nu.conjugate() * gen10
        g10 = nu * gen00 + alpha.conjugate() * gen10
        gammadot = -0.5j * lam * r * gamma
        return np.array([g00.real, g00.imag, g10.real, g10.imag, 0.0,
                         gammadot.real, gammadot.imag])

    return field


def _rotating_frame(g0, x_plus_a0, X, t):
    """g0·exp(t(X+A0))·exp(-tX) from the matrices X + A0 and X."""
    return (
        g0
        @ exp_group(AlgebraElement("su2", t * x_plus_a0))
        @ exp_group(AlgebraElement("su2", -t * X))
    )


def interaction_picture_flow(g0: SU2Element, data: InteractionPictureData, t: float) -> SU2Element:
    """Rotating-frame solution g(t) = g0·exp(t(X+A0))·exp(-tX)."""
    return _rotating_frame(g0, data.X.value + data.A0.value, data.X.value, float(t))


def _commutator_guard(mats, nodes, tol):
    """Raise CommutativityError unless every pairwise commutator norm is <= tol.

    All S² products come from one batched matmul, so each norm is the one a
    pairwise loop computes.  The reported pair is the first worst one in
    (i, j), i < j order; a NaN norm is never the worst, as with a pairwise
    loop over `nrm > worst`.
    """
    m = np.array(mats)
    prod = m[:, None] @ m[None]
    comm = prod - prod.swapaxes(0, 1)
    norms = np.sqrt(np.sum(np.abs(comm) ** 2, axis=(2, 3)))
    iu, ju = np.triu_indices(len(m), 1)
    upper = norms[iu, ju]
    upper[np.isnan(upper)] = 0.0
    k = int(np.argmax(upper))
    if upper[k] > tol:
        raise CommutativityError(upper[k], (nodes[iu[k]], nodes[ju[k]]))


def commuting_quadrature_flow(g0, momentum_path, t1: float, tol=1e-9, samples=33):
    """g0·exp(∫₀^t1 L(s) ds) after verifying the sampled velocities commute.

    momentum_path maps s to an AlgebraElement of a fixed kind; the pairwise
    commutator Frobenius norms of the samples must stay below tol, otherwise a
    CommutativityError with the worst pair is raised.  The integral uses the
    composite Simpson rule on the same sample nodes.
    """
    samples = int(samples)
    if samples < 3 or samples % 2 == 0:
        raise ValueError("samples must be an odd count >= 3")
    t1 = float(t1)
    nodes, weights = simpson_rule(0.0, t1, samples - 1)
    vals = [momentum_path(float(s)) for s in nodes]
    kind = vals[0].kind
    if any(v.kind != kind for v in vals):
        raise MembershipError("momentum_path must keep a fixed algebra kind")
    _commutator_guard([hat3(v.value) if kind == "so3" else v.value for v in vals], nodes, tol)
    integral = sum(w * v.value for w, v in zip(weights, vals))
    return g0 @ exp_group(AlgebraElement(kind, integral))


def action_angle_flow(spec, t: float) -> FlowState:
    """Action-angle dynamics, frequency or linear-fiber variant.

    Frequency variant (params: I0, phi0, freq): I frozen, φ(t) = φ0 + ν(I)·t.
    Linear variant (params: I0, phi0, matrix, optional drift, tol, samples):
    İ = F(I) by RK4, φ(t) = exp(∫A(I(s))ds)·φ0, guarded by the same
    commutativity check as commuting_quadrature_flow.
    """
    params = spec.params if isinstance(spec, SystemSpec) else dict(spec)
    I0 = np.asarray(params["I0"], dtype=float)
    phi0 = np.asarray(params["phi0"], dtype=float)
    t = float(t)
    matrix = params.get("matrix")
    if matrix is None:
        freq = params["freq"]
        nu = np.asarray(freq(I0) if callable(freq) else freq, dtype=float)
        phi = phi0 + nu * t
        return FlowState(time=t, I=I0.copy(), phi=phi, phi_mod=np.mod(phi, 2.0 * np.pi))
    if t < 0:
        raise ValueError("the linear variant integrates forward time only")
    samples = int(params.get("samples", 33))
    if samples < 3 or samples % 2 == 0:
        raise ValueError("samples must be an odd count >= 3")
    tol = float(params.get("tol", 1e-9))
    drift = params.get("drift")
    if t == 0.0:
        return FlowState(time=0.0, I=I0.copy(), phi=phi0.copy(),
                         phi_mod=np.mod(phi0, 2.0 * np.pi))
    if drift is None:
        I_nodes = [I0] * samples
        I_t = I0.copy()
    else:
        substeps = 8
        steps = (samples - 1) * substeps
        traj = rk4_integrate(lambda y: np.asarray(drift(y), dtype=float),
                             I0, 0.0, t, t / steps)
        I_nodes = [traj.states[k * substeps] for k in range(samples)]
        I_t = traj.states[-1]
    nodes, weights = simpson_rule(0.0, t, samples - 1)
    mats = [np.asarray(matrix(I), dtype=float) for I in I_nodes]
    _commutator_guard(mats, nodes, tol)
    integral = sum(w * m for w, m in zip(weights, mats))
    import scipy.linalg  # only this path needs it; keeps the CLI import light

    phi = scipy.linalg.expm(integral) @ phi0
    return FlowState(time=t, I=I_t, phi=phi, phi_mod=np.mod(phi, 2.0 * np.pi))


def action_angle_flat_field(params):
    """(İ, φ̇) = (0, ν) or (0, A·φ) on the flattened (I, φ) state.

    ν is the constant frequency vector; A = matrix(I0) is taken as constant,
    as `simulate` runs it (no drift).
    """
    n = len(params["I0"])
    if params.get("matrix") is None:
        nu = np.asarray(params["freq"], dtype=float)
        return lambda y: np.concatenate([np.zeros(n), nu])
    A = np.asarray(params["matrix"](params["I0"]), dtype=float)
    return lambda y: np.concatenate([np.zeros(n), A @ y[n:]])


@dataclass(frozen=True)
class System:
    """What `simulate`, the RK4 oracle and the tests know about one system.

    params holds (name, parse kind, default) in the order that `simulate`
    draws omitted initial data from its seed; a pair of names is the
    (alpha, nu) of one unit momentum.  A library call takes the default
    (None: required) instead.  flow(params, t) is the closed form; a CSV row
    is [t, *flat(state), *extras(state, flat)] under columns(params);
    field(params) is the RK4 oracle's rate on flat states.
    """

    params: tuple
    flow: Callable
    columns: Callable
    flat: Callable
    extras: Callable
    field: Callable

    def names(self):
        return [n for name, _, _ in self.params
                for n in (name if isinstance(name, tuple) else (name,))]

    def defaults(self):
        return {name: d for name, _, d in self.params if d is not None}


def _complex_cols(*prefixes):
    return [f"{p}_{part}" for p in prefixes for part in ("re", "im")]


def _flat_double(alpha, nu, u):
    return np.array([alpha.real, alpha.imag, nu.real, nu.imag, u.r, u.gamma.real, u.gamma.imag])


def _flat_casimir(st):
    m = st.g.as_matrix() @ st.u.as_matrix()
    return z_to_flat(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


def _casimir_extras(y):
    z = flat_to_z(y)
    det = z[0] * z[3] - z[1] * z[2]
    h0 = 0.5 * sum(abs(c) ** 2 for c in z)
    return [h0, det.real, det.imag]


def _action_angle_columns(p):
    n, m = len(p["I0"]), len(p["phi0"])
    return ([f"I_{k}" for k in range(1, n + 1)] + [f"phi_{k}" for k in range(1, m + 1)]
            + [f"phimod_{k}" for k in range(1, m + 1)])


_G0 = ("g0", "su2", SU2Element.identity())
_U0 = ("u0", "sb2", SB2Element.identity())
_F = ("F", "float", 1.0)

# Flows and fields go through module-level names at call time, so a
# function patched on this module (a tracer, a test double) is the one used.
SYSTEMS = {
    "rotator": System(
        params=(("g0", "matrix", np.eye(3)), ("p", "vector3", None), _F),
        flow=lambda p, t: rotator_flow(p["g0"], p["p"], p["F"], t),
        columns=lambda p: [f"g{i}{j}" for i in range(1, 4) for j in range(1, 4)]
        + ["p1", "p2", "p3", "p_norm"],
        flat=lambda st: np.asarray(st.g, dtype=float).ravel(),
        extras=lambda st, y: list(st.p) + [float(np.linalg.norm(st.p))],
        field=lambda p: rotator_flat_field(p["p"], p["F"]),
    ),
    "casimir_sl2c": System(
        params=(_G0, _U0, _F),
        flow=lambda p, t: casimir_flow(p["g0"], p["u0"], p["F"], t),
        columns=lambda p: _complex_cols("z1", "z2", "z3", "z4") + ["H0", "det_re", "det_im"],
        flat=lambda st: _flat_casimir(st),
        extras=lambda st, y: _casimir_extras(y),
        field=lambda p: sl2c_flat_field(p["F"]),
    ),
    "momenta_su2": System(
        params=(_U0, (("alpha", "nu"), "momenta", None), _F),
        flow=lambda p, t: momenta_su2_flow(p["u0"], p["alpha"], p["nu"], p["F"], t),
        columns=lambda p: ["r", *_complex_cols("gamma"), "h_su2_norm"],
        flat=lambda st: np.array([st.u.r, st.u.gamma.real, st.u.gamma.imag]),
        extras=lambda st, y: [abs(st.alpha) ** 2 + abs(st.nu) ** 2],
        field=lambda p: momenta_su2_flat_field(p["alpha"], p["nu"], p["F"]),
    ),
    "noncasimir_h": System(
        params=(_U0, (("alpha0", "nu0"), "momenta", None)),
        flow=lambda p, t: noncasimir_flow(p["u0"], p["alpha0"], p["nu0"], t),
        columns=lambda p: [*_complex_cols("alpha", "nu"), "r", *_complex_cols("gamma"), "h_nu"],
        flat=lambda st: _flat_double(st.alpha, st.nu, st.u),
        extras=lambda st, y: [0.5 * abs(st.nu) ** 2],
        field=lambda p: noncasimir_flat_field(),
    ),
    "perturbed": System(
        params=(_G0, _U0, _F, ("lam", "float", 0.1)),
        flow=lambda p, t: perturbed_flow(p["g0"], p["u0"], p["F"], p["lam"], t),
        columns=lambda p: [*_complex_cols("alpha", "nu"), "r", *_complex_cols("gamma"),
                           "gamma_abs"],
        flat=lambda st: _flat_double(st.g.alpha, st.g.nu, st.u),
        extras=lambda st, y: [abs(st.u.gamma)],
        field=lambda p: perturbed_flat_field(p["F"], p["lam"]),
    ),
    "action_angle": System(
        params=(("I0", "vector", None), ("phi0", "vector", None),
                ("freq", "vector", None), ("matrix", "matrix", None)),
        flow=lambda p, t: action_angle_flow(p, t),
        columns=lambda p: _action_angle_columns(p),
        flat=lambda st: np.concatenate([st.I, st.phi]),
        extras=lambda st, y: list(st.phi_mod),
        field=lambda p: action_angle_flat_field(p),
    ),
}


def run_system(spec: SystemSpec, t: float) -> FlowState:
    """The closed-form state of a SystemSpec at time t."""
    return SYSTEMS[spec.variant].flow(spec.params, t)
