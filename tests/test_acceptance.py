"""Acceptance criteria, one test and one printed pass/fail line per criterion.

Each test evaluates its criterion at the stated tolerance, prints a single
summary line, and then asserts, so a red run still shows every verdict.
"""

import cmath
import itertools
import json
import math

import numpy as np

from doubleflow import dynamics as dyn
from doubleflow import poisson as poi
from doubleflow.cli import main
from doubleflow.groups import (
    AlgebraElement,
    SB2Element,
    SL2Element,
    SU2Element,
    iwasawa_gu,
    iwasawa_ug,
    random_element,
)
from doubleflow.quadrature import rk4_integrate

SEED = 20260814


def report(n, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {label}")
    assert ok, f"criterion {n} failed: {label}"


def test_1_bracket_structure():
    ok = True
    for name in ("sl2c", "su2", "sb2", "double"):
        t = poi.get_table(name)
        for a, b in itertools.combinations(t.cs.coords, 2):
            ok &= (t.entry(a, b) + t.entry(b, a)).max_coeff() == 0.0
            ok &= (t.entry(a, b).conj()
                   - t.entry(t.cs.conj[a], t.cs.conj[b])).max_coeff() == 0.0
        pts = [poi.random_point(name, SEED + k) for k in range(20)]
        ok &= t.jacobi_max_residual(pts) < 1e-10
    tz = poi.get_table("sl2c")
    for k in range(20):
        p = poi.random_point("sl2c", SEED + k, on_surface=False)
        ok &= tz.casimir_residual("det", p) < 1e-12
        ok &= tz.casimir_residual("conj_det", p) < 1e-12
        ok &= tz.table_symmetry_checks(p)["inversion"] < 1e-12
    report(1, "bracket antisymmetry/reality exact, Jacobi < 1e-10, "
              "det Casimirs and inversion symmetry < 1e-12", ok)


def test_2_decompositions():
    worst = 0.0
    for k in range(1000):
        a = random_element("sl2c", SEED + k)
        g, u = iwasawa_gu(a)
        worst = max(worst, float(np.max(np.abs(
            g.as_matrix() @ u.as_matrix() - a.as_matrix()))))
        u2, g2 = iwasawa_ug(a)
        worst = max(worst, float(np.max(np.abs(
            u2.as_matrix() @ g2.as_matrix() - a.as_matrix()))))
        worst = max(worst, g.membership_defect(), g2.membership_defect())
        worst = max(worst, abs(u.as_matrix()[0, 0].real * u.as_matrix()[1, 1].real - 1.0))
    report(2, f"1000 Iwasawa factorizations recompose and stay members "
              f"(worst {worst:.2e} < 1e-12)", worst < 1e-12)


def test_3_conservation():
    worst = 0.0
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        a0 = random_element("sl2c", rng)
        traj = rk4_integrate(dyn.sl2c_flat_field(1.0),
                             dyn.z_to_flat(a0.z1, a0.z2, a0.z3, a0.z4),
                             0.0, 10.0, 1e-3, 200)
        h0_0 = dyn.free_hamiltonian(a0)
        _, u0 = iwasawa_gu(a0)
        f0 = dyn.free_hamiltonian(u0)
        for y in traj.states:
            z = dyn.flat_to_z(y)
            worst = max(worst, abs(0.5 * sum(abs(c) ** 2 for c in z) - h0_0))
            worst = max(worst, abs(z[0] * z[3] - z[1] * z[2] - 1.0))
            _, u = iwasawa_gu(SL2Element(*z))
            worst = max(worst, abs(dyn.free_hamiltonian(u) - f0))
    report(3, f"20 RK4 runs of the free flow conserve H0, det, and the "
              f"projected momenta (worst drift {worst:.2e} < 1e-8)", worst < 1e-8)


def test_4_quadrature_vs_oracle():
    rng = np.random.default_rng(SEED)
    worst_cas = worst_non = worst_per = 0.0
    for _ in range(3):
        g0, u0 = random_element("su2", rng), random_element("sb2", rng)
        a0 = SL2Element.from_matrix(g0.as_matrix() @ u0.as_matrix())
        traj = rk4_integrate(dyn.sl2c_flat_field(1.0),
                             dyn.z_to_flat(a0.z1, a0.z2, a0.z3, a0.z4), 0.0, 5.0, 1e-3, 250)
        for t, y in zip(traj.times, traj.states):
            st = dyn.casimir_flow(g0, u0, 1.0)(t)
            z = dyn.flat_to_z(y)
            worst_cas = max(worst_cas, float(np.max(np.abs(
                st.g.as_matrix() @ st.u.as_matrix()
                - np.array([[z[0], z[1]], [z[2], z[3]]])))))
        y0 = dyn._flat_double(g0.alpha, g0.nu, u0)
        traj = rk4_integrate(dyn.noncasimir_flat_field(), y0, 0.0, 5.0, 1e-3, 250)
        for t, y in zip(traj.times, traj.states):
            st = dyn.noncasimir_flow(u0, g0.alpha, g0.nu)(t)
            worst_non = max(worst_non, float(np.max(np.abs(
                np.subtract(dyn._flat_double(st.alpha, st.nu, st.u), y)))))
    g0, u0, lam, eps = random_element("su2", rng), SB2Element(2.0, 1.0), 0.3, 1e-5
    for t in np.linspace(0.25, 5.0, 20):
        gp = dyn.perturbed_flow(g0, u0, 1.0, lam)(t + eps).g.as_matrix()
        gm = dyn.perturbed_flow(g0, u0, 1.0, lam)(t - eps).g.as_matrix()
        gc = dyn.perturbed_flow(g0, u0, 1.0, lam)(t).g.as_matrix()
        vel = np.linalg.inv(gc) @ ((gp - gm) / (2.0 * eps))
        worst_per = max(worst_per, float(np.max(np.abs(
            vel - dyn.perturbed_velocity(u0, 1.0, lam, t)))))
    ok = worst_cas < 1e-6 and worst_non < 1e-6 and worst_per < 1e-6
    report(4, f"closed forms track the oracle: casimir {worst_cas:.2e}, "
              f"noncasimir {worst_non:.2e}, perturbed residual {worst_per:.2e} "
              f"(all < 1e-6)", ok)


def test_5_legendre():
    worst_alg = worst_rt = 0.0
    unreduced_misses = True
    for k in range(100):
        u = random_element("sb2", SEED + k)
        m = dyn.legendre_map(u, 1.0).value
        worst_alg = max(worst_alg, float(np.max(np.abs(m + np.conj(m.T)))),
                        abs(m[0, 0] + m[1, 1]))
        back = dyn.legendre_invert(dyn.legendre_map(u, 1.0))
        worst_rt = max(worst_rt, abs(back.r - u.r), abs(back.gamma - u.gamma))
        alt = dyn.legendre_invert(dyn.legendre_map(u, 1.0), unreduced=True)
        v2 = dyn.legendre_map(alt, 1.0).value
        unreduced_misses &= float(np.max(np.abs(v2 - m))) > 1e-6
    ok = worst_alg < 1e-12 and worst_rt < 1e-10 and unreduced_misses
    report(5, f"Legendre map in su(2) ({worst_alg:.2e} < 1e-12), round trip "
              f"{worst_rt:.2e} < 1e-10, unreduced inverse fails as documented", ok)


def test_6_rotator():
    p = np.array([0.4, -0.3, 0.8])
    ok = True
    for t in np.linspace(0.0, 100.0, 41):
        st = dyn.rotator_flow(np.eye(3), p, 1.0)(t)
        ok &= float(np.max(np.abs(st.g.T @ st.g - np.eye(3)))) < 1e-10
        ok &= bool(np.array_equal(st.p, p))  # |p| untouched, exactly
    st = dyn.rotator_flow(np.eye(3), (0.0, 0.0, 1.0), 1.0)(2.0 * math.pi)
    back = float(np.max(np.abs(st.g - np.eye(3))))
    ok &= back < 1e-10
    report(6, f"rotator keeps p exactly, g orthogonal < 1e-10, full turn "
              f"returns within {back:.2e} < 1e-10", ok)


def test_7_commutativity_guard():
    g = random_element("su2", SEED)
    u0 = random_element("sb2", SEED + 1)
    w = abs(g.nu) ** 2
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

    def ex4_path(s):
        ac = np.conj(g.alpha) * cmath.exp(-0.5j * w * s)
        return AlgebraElement("sb2", 0.5j * ac * np.conj(g.nu) * e12)

    try:
        got = dyn.commuting_quadrature_flow(SB2Element.identity(), ex4_path, 4.0) @ u0
        st = dyn.noncasimir_flow(u0, g.alpha, g.nu)(4.0)
        accepts = max(abs(got.r - st.u.r), abs(got.gamma - st.u.gamma)) < 1e-8
    except dyn.CommutativityError:
        accepts = False

    def twisted(s):
        m = np.array([[0.5j * math.cos(s), 0.3 * math.sin(s)],
                      [-0.3 * math.sin(s), -0.5j * math.cos(s)]], dtype=complex)
        return AlgebraElement("su2", m)

    try:
        dyn.commuting_quadrature_flow(SU2Element.identity(), twisted, 3.0)
        rejects = False
    except dyn.CommutativityError as err:
        t0, t1 = err.pair
        rejects = err.max_norm > 1e-9 and 0.0 <= t0 < t1 <= 3.0
    report(7, "commutativity guard accepts the commuting velocity line and "
              "rejects the twisted path", accepts and rejects)


def test_8_rk4_order():
    def field(y0, y1):
        return np.array([-y1, y0])  # ydot = i*y on (Re, Im)

    def endpoint_error(h):
        traj = rk4_integrate(field, np.array([1.0, 0.0]), 0.0, 1.0, h)
        return math.hypot(traj.states[-1][0] - math.cos(1.0),
                          traj.states[-1][1] - math.sin(1.0))

    ratio = endpoint_error(1e-2) / endpoint_error(5e-3)
    report(8, f"RK4 halving ratio {ratio:.3f} lies in [14, 18]", 14.0 <= ratio <= 18.0)


def test_9_reproducibility(tmp_path, capsys):
    doc = {"system": "casimir_sl2c", "t1": 1.0, "dt": 0.02,
           "seed": 123, "oracle": True}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    csv_same = out1.read_bytes() == out2.read_bytes()
    assert main(["verify", "--suite", "legendre", "--seed", "4",
                 "--samples", "30"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--suite", "legendre", "--seed", "4",
                 "--samples", "30"]) == 0
    json_same = capsys.readouterr().out == first
    report(9, "seeded CSV and JSON outputs are byte-identical across runs",
           csv_same and json_same)
