"""Seeded verification suites behind the `verify` CLI command.

Each suite returns a list of CheckResult rows; a check fails exactly when its
residual exceeds its tolerance.  Everything is deterministic per (seed,
samples), so reports are byte-identical across runs.
"""

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import dynamics as dyn
from . import poisson as poi
from .groups import (
    AlgebraElement,
    SB2Element,
    SU2Element,
    _algebra_defect,
    _sb2_entries,
    _sl2_defect,
    _su2_defect,
    _su2_entries,
    exp_group,
    gu_products,
    iwasawa_gu_kernel,
    iwasawa_ug_kernel,
    mul2,
    random_element,
    random_parts,
    sl2_normalize,
)
from .quadrature import drift_report, rk4_integrate

__all__ = ["CheckResult", "SUITES", "run_suite", "report_doc"]

# Entries call the suites by module name, so a patched suite is the one used.
_SUITES = {
    "brackets": lambda seed, samples: suite_brackets(seed, samples),
    "decompositions": lambda seed, samples: suite_decompositions(seed, samples),
    "legendre": lambda seed, samples: suite_legendre(seed, samples),
    "flows": lambda seed, samples: suite_flows(seed, samples),
}
SUITES = (*_SUITES, "all")


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    samples: int
    seed: int


def _check(name, residual, tolerance, samples, seed) -> CheckResult:
    residual = float(residual)
    return CheckResult(name, residual <= tolerance, residual, float(tolerance), samples, seed)


def suite_brackets(seed, samples):
    out = []
    tables = {name: poi.get_table(name) for name in poi.COORD_SYSTEMS}

    # coefficient-level structure: antisymmetry and reality, no sampling involved
    anti = real = 0.0
    for t in tables.values():
        for a, b in itertools.combinations(t.cs.coords, 2):
            anti = max(anti, (t.entry(a, b) + t.entry(b, a)).max_coeff())
            rhs = t.entry(t.cs.conj[a], t.cs.conj[b])
            real = max(real, (t.entry(a, b).conj() - rhs).max_coeff())
    out.append(_check("antisymmetry_coefficients", anti, 0.0, 0, seed))
    out.append(_check("reality_coefficients", real, 0.0, 0, seed))

    # fixed table values at the identity of SL(2,C)
    ident = poi.poisson_point("sl2c", {"z1": 1, "z2": 0, "z3": 0, "z4": 1})
    tz = tables["sl2c"]
    vals = max(
        abs(tz.bracket_eval("z1", "z4", ident)),
        abs(tz.bracket_eval("z2", "z3", ident) - 1j),
        abs(tz.bracket_eval("z1", "z1c", ident) - (-0.5j)),
    )
    out.append(_check("table_values_identity", vals, 1e-15, 1, seed))

    rng = np.random.default_rng(seed)
    pts = {
        "sl2c": poi.random_points("sl2c", samples, rng),
        "sl2c_generic": poi.random_points("sl2c", samples, rng, on_surface=False),
        "su2": poi.random_points("su2", samples, rng),
        "sb2": poi.random_points("sb2", samples, rng),
        "double": poi.random_points("double", samples, rng),
    }

    out.append(_check("jacobi_sl2c_on_surface",
                      tables["sl2c"].jacobi_max_residual(pts["sl2c"]), 1e-10, samples, seed))
    out.append(_check("jacobi_sl2c_generic",
                      tables["sl2c"].jacobi_max_residual(pts["sl2c_generic"]), 1e-10, samples, seed))
    for name in ("su2", "sb2", "double"):
        out.append(_check(f"jacobi_{name}",
                          tables[name].jacobi_max_residual(pts[name]), 1e-10, samples, seed))

    out.append(_check("casimir_det",
                      max(tz.casimir_residual("det", p) for p in pts["sl2c_generic"]),
                      1e-12, samples, seed))
    out.append(_check("casimir_conj_det",
                      max(tz.casimir_residual("conj_det", p) for p in pts["sl2c_generic"]),
                      1e-12, samples, seed))
    out.append(_check("casimir_h_su2_norm",
                      max(tables["su2"].casimir_residual("h_su2_norm", p) for p in pts["su2"]),
                      1e-12, samples, seed))
    out.append(_check("casimir_h0_sb2",
                      max(tables["sb2"].casimir_residual("h0", p) for p in pts["sb2"]),
                      1e-12, samples, seed))

    sym_r = sym_i = 0.0
    for p in pts["sl2c_generic"]:
        rep = tz.table_symmetry_checks(p)
        sym_r = max(sym_r, rep["reality"])
        sym_i = max(sym_i, rep["inversion"])
    out.append(_check("symmetry_reality_eval", sym_r, 1e-12, samples, seed))
    out.append(_check("symmetry_inversion_eval", sym_i, 1e-12, samples, seed))

    # Leibniz: field of d(f*g) equals f*field(dg) + g*field(df)
    f, g = poi.named_function("sl2c", "h0"), poi.named_function("sl2c", "det")
    fg = f * g
    worst = 0.0
    for p in pts["sl2c"][: min(samples, 20)]:
        lhs = tz.hamiltonian_field(poi.gradient_covector(fg, p), p)
        rf = tz.hamiltonian_field(poi.gradient_covector(f, p), p)
        rg = tz.hamiltonian_field(poi.gradient_covector(g, p), p)
        fv, gv = f.evaluate(p), g.evaluate(p)
        for c in tz.cs.coords:
            worst = max(worst, abs(lhs[c] - (fv * rg[c] + gv * rf[c])))
    out.append(_check("leibniz_product_covector", worst, 1e-10, min(samples, 20), seed))

    # the table-driven field with eta = dH0 reproduces the transcribed flow
    h0 = poi.named_function("sl2c", "h0")
    worst = 0.0
    for p in pts["sl2c"][: min(samples, 20)]:
        rates = tz.hamiltonian_field(poi.gradient_covector(h0, p), p)
        z = [p[f"z{i}"] for i in range(1, 5)]
        expect = dyn.flat_to_z(dyn.sl2c_flat_field(1.0)(*dyn.z_to_flat(*z)))
        for i in range(4):
            worst = max(worst, abs(rates[f"z{i+1}"] - expect[i]))
            worst = max(worst, abs(rates[f"z{i+1}c"] - expect[i].conjugate()))
    out.append(_check("field_matches_transcribed_flow", worst, 1e-12, min(samples, 20), seed))

    # product coordinates: the double table pushed through a = g*u
    # reproduces the sl2c table
    zpolys = {k: poi.named_function("double", k) for k in ("z1", "z2", "z3", "z4")}
    zpolys.update({k + "c": v.conj() for k, v in list(zpolys.items())})
    pairs = [(tables["double"].poly_bracket(zpolys[a], zpolys[b]), tz.entry(a, b))
             for a, b in itertools.combinations(tz.cs.coords, 2)]
    worst = 0.0
    for p in pts["double"][: min(samples, 20)]:
        zp = {k: v.evaluate(p) for k, v in zpolys.items()}
        for via_double, direct in pairs:
            worst = max(worst, abs(via_double.evaluate(p) - direct.evaluate(zp)))
    out.append(_check("product_coordinates_consistency", worst, 1e-12, min(samples, 20), seed))

    # serialization audit: bit-exact JSON round trip
    rt = 0.0
    for t in tables.values():
        t2 = poi.BracketTable.from_json(t.to_json())
        if t2.to_json() != t.to_json():
            rt = 1.0
        for key, poly in t.entries.items():
            if t2.entries[key].terms != poly.terms:
                rt = 1.0
    out.append(_check("table_json_round_trip", rt, 0.0, 0, seed))
    return out


# Samples per block: the decompositions and legendre suites draw a block at a
# time and fold its matrices into each residual with one numpy reduction.
BLOCK = 1000


def _decompose_block(rng, n):
    """(rec_gu, rec_ug, member, uniq) of n draws' parts; each recomposition is one stacked product."""
    azs = random_parts("sl2c", n, rng)  # (z1, z2, z3, z4)
    gus = [iwasawa_gu_kernel(*a) for a in azs]  # (alpha, nu, r, gamma)
    ugs = [iwasawa_ug_kernel(*a) for a in azs]  # (r, gamma, alpha, nu)
    member = max(max(_sl2_defect(*a), _su2_defect(gu[0], gu[1]), _su2_defect(ug[2], ug[3]))
                 for a, gu, ug in zip(azs, gus, ugs))
    gu_rows = gu_products(gus)
    ug_rows = mul2([_sb2_entries(ug[0], ug[1]) for ug in ugs], [_su2_entries(ug[2], ug[3]) for ug in ugs])
    uniq = 0.0
    for row, (alpha, nu, r, gamma) in zip(gu_rows, gus):
        # uniqueness: refactorizing the product returns the factors
        alpha3, nu3, r3, gamma3 = iwasawa_gu_kernel(*sl2_normalize(*row))
        uniq = max(uniq, abs(alpha3 - alpha), abs(nu3 - nu), abs(r3 - r), abs(gamma3 - gamma))
    az = np.array(azs)
    rec_gu, rec_ug = (float(np.abs(np.array(rows) - az).max()) for rows in (gu_rows, ug_rows))
    return rec_gu, rec_ug, member, uniq


def suite_decompositions(seed, samples):
    rng = np.random.default_rng(seed)
    blocks = [_decompose_block(rng, min(BLOCK, samples - s)) for s in range(0, samples, BLOCK)]
    rec_gu, rec_ug, member, uniq = map(max, zip((0.0,) * 4, *blocks))
    return [
        _check("iwasawa_gu_recompose", rec_gu, 1e-12, samples, seed),
        _check("iwasawa_ug_recompose", rec_ug, 1e-12, samples, seed),
        _check("factor_membership", member, 1e-12, samples, seed),
        _check("factor_uniqueness", uniq, 1e-10, samples, seed),
    ]


def suite_legendre(seed, samples):
    rng = np.random.default_rng(seed)
    in_su2 = round_trip = unreduced_hits = 0.0
    for start in range(0, samples, BLOCK):
        ms, m3s = [], []  # each sample's map and the map of its unreduced inverse, as entries
        for r, gamma in random_parts("sb2", min(BLOCK, samples - start), rng):
            m = dyn.legendre_map_kernel(r, gamma, 1.0)
            r2, gamma2 = dyn.legendre_invert_kernel(m[0][0], m[0][1])
            round_trip = max(round_trip, abs(r2 - r), abs(gamma2 - gamma))
            ms.append(m)
            m3s.append(dyn.legendre_map_kernel(*dyn.legendre_invert_kernel(m[0][0], m[0][1], True), 1.0))
        stack = np.array(ms)
        in_su2 = max(in_su2, _algebra_defect("su2", stack))
        unreduced_hits += float((np.abs(np.array(m3s) - stack).max(axis=(1, 2)) < 1e-8).sum())
    return [
        _check("legendre_lands_in_su2", in_su2, 1e-12, samples, seed),
        _check("legendre_round_trip", round_trip, 1e-10, samples, seed),
        # counts samples where the unreduced inverse accidentally satisfies
        # the round trip; the documented expectation is zero
        _check("legendre_unreduced_inverse_mismatch", unreduced_hits, 0.0, samples, seed),
    ]


def suite_flows(seed, samples):
    rng = np.random.default_rng(seed)
    out = []
    starts = max(2, min(5, samples // 20))

    # conservation along the RK4 oracle of the free flow, of the casimir CSV
    # row's invariants [H0, det_re, det_im]; H0 is an explicit four-term sum, so
    # its bits do not hang on how the Python version's sum() adds floats
    drift = 0.0
    for _ in range(starts):
        a0 = random_element("sl2c", rng)
        y0 = dyn.z_to_flat(a0.z1, a0.z2, a0.z3, a0.z4)
        traj = rk4_integrate(dyn.sl2c_flat_field(1.0), y0, 0.0, 5.0, 1e-3)
        rep = drift_report(traj, ("H0", "det_re", "det_im"),
                           lambda y: dyn._casimir_invariants(*dyn.flat_to_z(y)))
        drift = max(drift, *(d for _, d, _ in rep.values()))
    out.append(_check("eq5_conservation_drift", drift, 1e-8, starts, seed))

    # closed-form casimir flow (the registry's rows, one block a start, their
    # flat g·u columns) vs the oracle trajectory
    dev = 0.0
    sample = dyn.SYSTEMS["casimir_sl2c"].sample
    for _ in range(starts):
        g0 = random_element("su2", rng)
        u0 = random_element("sb2", rng)
        a0 = dyn.SL2Element(*gu_products([(g0.alpha, g0.nu, u0.r, u0.gamma)])[0])
        y0 = dyn.z_to_flat(a0.z1, a0.z2, a0.z3, a0.z4)
        traj = rk4_integrate(dyn.sl2c_flat_field(1.0), y0, 0.0, 5.0, 1e-3, 500)
        rows, _ = sample({"g0": g0, "u0": u0, "F": 1.0})(traj.times)
        zs = np.array([row[:8] for row in rows]).view(complex)
        dev = max(dev, float(np.max(np.abs(zs - traj.states.view(complex)))))
    out.append(_check("casimir_flow_vs_oracle", dev, 1e-6, starts, seed))

    # non-Casimir exact flow vs the oracle of the bracket-derived field
    dev = 0.0
    sample = dyn.SYSTEMS["noncasimir_h"].sample
    for _ in range(starts):
        g = random_element("su2", rng)
        u0 = random_element("sb2", rng)
        traj = rk4_integrate(dyn.noncasimir_flat_field(), dyn._flat_double(g.alpha, g.nu, u0),
                             0.0, 5.0, 1e-3, 500)
        rows, _ = sample({"u0": u0, "alpha0": g.alpha, "nu0": g.nu})(traj.times)
        dev = max(dev, float(np.max(np.abs(np.array(rows)[:, :7] - traj.states))))
    out.append(_check("noncasimir_flow_vs_oracle", dev, 1e-6, starts, seed))

    # perturbed flow: central-difference residual of the generator equation
    res = 0.0
    g0 = random_element("su2", rng)
    u0 = SB2Element(2.0, 1.0)
    lam, eps = 0.3, 1e-5
    at = dyn.perturbed_flow(g0, u0, 1.0, lam)
    for t in np.linspace(0.25, 5.0, 20):
        gp = at(t + eps).g.as_matrix()
        gm = at(t - eps).g.as_matrix()
        gc = at(t).g.as_matrix()
        vel = np.linalg.inv(gc) @ ((gp - gm) / (2.0 * eps))
        res = max(res, float(np.max(np.abs(vel - dyn.perturbed_velocity(u0, 1.0, lam, t)))))
    out.append(_check("perturbed_flow_ode_residual", res, 1e-6, 20, seed))

    # rotator: |p| exact, orthogonality, full-turn return
    ortho = 0.0
    at = dyn.rotator_flow(np.eye(3), np.array([0.4, -0.3, 0.8]), 1.0)
    for t in np.linspace(0.0, 100.0, 51):
        g = at(t).g
        ortho = max(ortho, float(np.max(np.abs(g.T @ g - np.eye(3)))))
    out.append(_check("rotator_orthogonality", ortho, 1e-10, 51, seed))
    g = dyn.rotator_flow(np.eye(3), (0.0, 0.0, 1.0), 1.0)(2.0 * math.pi).g
    out.append(_check("rotator_full_turn", float(np.max(np.abs(g - np.eye(3)))), 1e-10, 1, seed))

    # commutativity guard: accept a nilpotent one-line path, reject a twisted one
    g = random_element("su2", rng)
    alpha, nu = g.alpha, g.nu
    w = abs(nu) ** 2
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

    def nilpotent_path(s):
        ac = np.conj(alpha) * np.exp(-0.5j * w * s)
        return AlgebraElement("sb2", 0.5j * ac * np.conj(nu) * e12)

    accept = 0.0
    try:
        u0 = random_element("sb2", rng)
        # 257 nodes keep the Simpson error of the oscillatory integrand
        # (~h^4/720) well below the tolerance for every seed
        got = dyn.commuting_quadrature_flow(
            SB2Element.identity(), nilpotent_path, 4.0, samples=257) @ u0
        st = dyn.noncasimir_flow(u0, alpha, nu)(4.0)
        accept = max(abs(got.r - st.u.r), abs(got.gamma - st.u.gamma))
    except dyn.CommutativityError:
        accept = 1.0
    out.append(_check("commuting_guard_accepts", accept, 1e-8, 257, seed))

    def twisted(s):
        m = np.array([[0.5j * math.cos(s), 0.3 * math.sin(s)],
                      [-0.3 * math.sin(s), -0.5j * math.cos(s)]], dtype=complex)
        return AlgebraElement("su2", m)

    rejected = 1.0
    try:
        dyn.commuting_quadrature_flow(SU2Element.identity(), twisted, 3.0)
    except dyn.CommutativityError:
        rejected = 0.0
    out.append(_check("commuting_guard_rejects", rejected, 0.0, 33, seed))

    # interaction picture with commuting generators collapses to one factor
    x = AlgebraElement("su2", np.array([[0.25j, 0.0], [0.0, -0.25j]]))
    a0 = AlgebraElement("su2", np.array([[-0.7j, 0.0], [0.0, 0.7j]]))
    g0 = random_element("su2", rng)
    lhs = dyn.interaction_picture_flow(g0, x, a0)(2.0)
    rhs = g0 @ exp_group(AlgebraElement("su2", 2.0 * a0.value))
    out.append(_check("interaction_picture_commuting",
                      float(np.max(np.abs(lhs.as_matrix() - rhs.as_matrix()))), 1e-12, 1, seed))

    # action-angle frequency flow is exactly linear in t
    st = dyn.action_angle_flow([0.7, 1.1], [0.2, 0.4], freq=2.0 * np.array([0.7, 1.1]))(3.0)
    exact = np.array([0.2, 0.4]) + 3.0 * 2.0 * np.array([0.7, 1.1])
    out.append(_check("action_angle_frequency", float(np.max(np.abs(st.phi - exact))),
                      1e-12, 1, seed))

    # RK4 order: step halving shrinks the endpoint error 16x (within [14, 18])
    def efield(y0, y1):
        return np.array([-y1, y0])

    def endpoint_error(h):
        traj = rk4_integrate(efield, np.array([1.0, 0.0]), 0.0, 1.0, h)
        return float(np.hypot(traj.states[-1][0] - math.cos(1.0),
                              traj.states[-1][1] - math.sin(1.0)))

    ratio = endpoint_error(1e-2) / endpoint_error(5e-3)
    out.append(_check("rk4_order_ratio", abs(ratio - 16.0), 2.0, 2, seed))
    return out


def run_suite(suite, seed, samples):
    if suite == "all":
        return [c for run in _SUITES.values() for c in run(seed, samples)]
    if suite not in _SUITES:
        raise KeyError(f"unknown suite {suite!r}; valid: {', '.join(SUITES)}")
    return _SUITES[suite](seed, samples)


def report_doc(suite, seed, samples):
    checks = run_suite(suite, seed, samples)
    return {
        "suite": suite,
        "seed": seed,
        "samples": samples,
        "all_pass": all(c.passed for c in checks),
        "checks": [asdict(c) for c in checks],
    }
