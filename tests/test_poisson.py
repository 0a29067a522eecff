import itertools

import numpy as np
import pytest

from doubleflow import dynamics as dyn
from doubleflow.groups import random_element
from doubleflow.poisson import (
    COORD_SYSTEMS,
    BracketTable,
    Poly,
    get_table,
    gradient_covector,
    named_function,
    point_of_element,
    poisson_point,
    random_point,
)

SYSTEMS = ("sl2c", "su2", "sb2", "double")


def test_tables_build_and_are_canonical():
    for name in SYSTEMS:
        t = get_table(name)
        cs = t.cs
        for (a, b), poly in t.entries.items():
            assert cs.index(a) < cs.index(b)
            assert not poly.is_zero()


def test_known_values_at_points():
    tz = get_table("sl2c")
    ident = poisson_point("sl2c", {"z1": 1, "z2": 0, "z3": 0, "z4": 1})
    assert tz.bracket_eval("z1", "z4", ident) == 0
    assert tz.bracket_eval("z2", "z3", ident) == pytest.approx(1j)
    assert tz.bracket_eval("z1", "z1c", ident) == pytest.approx(-0.5j)
    p = poisson_point("sl2c", {"z1": 2 + 1j, "z2": 0.5, "z3": -1j, "z4": 0.5 - 0.25j})
    z1, z2 = p["z1"], p["z2"]
    assert tz.bracket_eval("z1", "z2", p) == pytest.approx(-0.5j * z1 * z2)
    assert tz.bracket_eval("z1", "z3", p) == pytest.approx(0.5j * z1 * p["z3"])
    assert tz.bracket_eval("z2", "z3", p) == pytest.approx(1j * z1 * p["z4"])
    # evaluated antisymmetry through the signed lookup
    assert tz.bracket_eval("z2", "z1", p) == pytest.approx(0.5j * z1 * z2)


def test_momenta_and_group_tables_values():
    ts = get_table("su2")
    p = random_point("su2", 0)
    a, n = p["alpha"], p["nu"]
    assert ts.bracket_eval("alpha", "nu", p) == pytest.approx(0.5j * a * n)
    assert ts.bracket_eval("alpha", "alphac", p) == pytest.approx(-1j * abs(n) ** 2)
    assert ts.bracket_eval("nu", "nuc", p) == 0

    tb = get_table("sb2")
    q = random_point("sb2", 1)
    r, g = q["r"].real, q["gamma"]
    assert tb.bracket_eval("gamma", "r", q) == pytest.approx(0.5j * g * r)
    assert tb.bracket_eval("gammac", "gamma", q) == pytest.approx(1j * (r**2 - r**-2))

    td = get_table("double")
    w = random_point("double", 2)
    a, n, r, g = w["alpha"], w["nu"], w["r"].real, w["gamma"]
    assert td.bracket_eval("nu", "gamma", w) == pytest.approx(
        -0.25j * n * g - 1j * np.conj(a) / r)
    assert td.bracket_eval("alpha", "gamma", w) == pytest.approx(
        -0.25j * a * g + 1j * np.conj(n) / r)
    assert td.bracket_eval("nu", "r", w) == pytest.approx(-0.25j * n * r)
    assert td.bracket_eval("nuc", "gamma", w) == pytest.approx(0.25j * np.conj(n) * g)


def test_antisymmetry_and_reality_hold_exactly():
    for name in SYSTEMS:
        t = get_table(name)
        for a, b in itertools.combinations(t.cs.coords, 2):
            assert (t.entry(a, b) + t.entry(b, a)).max_coeff() == 0.0
            rhs = t.entry(t.cs.conj[a], t.cs.conj[b])
            assert (t.entry(a, b).conj() - rhs).max_coeff() == 0.0


def test_jacobi_vanishes_at_coefficient_level():
    # the cyclic sum is the zero polynomial for every coordinate triple,
    # so the identity holds on all of C^n, not just on the group surface
    for name in SYSTEMS:
        t = get_table(name)
        for a, b, c in itertools.combinations(t.cs.coords, 3):
            assert t.jacobi_poly(a, b, c).max_coeff() == 0.0


def test_jacobi_residual_sampled():
    for name in SYSTEMS:
        t = get_table(name)
        pts = [random_point(name, k) for k in range(20)]
        assert t.jacobi_max_residual(pts) < 1e-10
    t = get_table("sl2c")
    pts = [random_point("sl2c", k, on_surface=False) for k in range(20)]
    assert t.jacobi_max_residual(pts) < 1e-10
    p = random_point("sl2c", 99)
    assert t.jacobi_residual("z1", "z2", "z3c", p) < 1e-12


def test_casimirs():
    tz = get_table("sl2c")
    for k in range(20):
        p = random_point("sl2c", k, on_surface=False)
        assert tz.casimir_residual("det", p) < 1e-12
        assert tz.casimir_residual("conj_det", p) < 1e-12
    ts = get_table("su2")
    tb = get_table("sb2")
    for k in range(20):
        assert ts.casimir_residual("h_su2_norm", random_point("su2", k)) < 1e-12
        assert tb.casimir_residual("h0", random_point("sb2", k)) < 1e-12


def test_inversion_symmetry():
    tz = get_table("sl2c")
    for k in range(20):
        rep = tz.table_symmetry_checks(random_point("sl2c", k, on_surface=False))
        assert rep["reality"] < 1e-12
        assert rep["inversion"] < 1e-12


def test_poly_bracket_is_bilinear_and_leibniz():
    tz = get_table("sl2c")
    cs = tz.cs
    f = named_function("sl2c", "h0")
    g = named_function("sl2c", "det")
    h = Poly.var(cs, "z2") * Poly.var(cs, "z3c") + Poly.const(cs, 2.0)
    lin = tz.poly_bracket(f + h * 3.0, g) - (tz.poly_bracket(f, g) + tz.poly_bracket(h, g) * 3.0)
    assert lin.max_coeff() < 1e-12
    leib = tz.poly_bracket(f * h, g) - (f * tz.poly_bracket(h, g) + h * tz.poly_bracket(f, g))
    assert leib.max_coeff() < 1e-12


def test_hamiltonian_field_matches_transcribed_rates():
    tz = get_table("sl2c")
    h0 = named_function("sl2c", "h0")
    for k in range(20):
        p = random_point("sl2c", k)
        rates = tz.hamiltonian_field(gradient_covector(h0, p), p)
        z = [p[f"z{i}"] for i in range(1, 5)]
        expect = dyn._sl2c_rates(*z, 1.0)
        for i in range(4):
            assert abs(rates[f"z{i+1}"] - expect[i]) < 1e-12
            assert abs(rates[f"z{i+1}c"] - expect[i].conjugate()) < 1e-12


def test_hamiltonian_field_requires_full_covector():
    tz = get_table("sl2c")
    p = random_point("sl2c", 0)
    with pytest.raises(ValueError, match="missing covector"):
        tz.hamiltonian_field({"z1": 1.0}, p)


def test_double_table_reproduces_sl2c_through_product_coordinates():
    td, tz = get_table("double"), get_table("sl2c")
    cs = td.cs
    zp = {
        "z1": Poly.from_monomials(cs, [(1, {"alpha": 1, "r": 1})]),
        "z2": Poly.from_monomials(cs, [(1, {"alpha": 1, "gamma": 1}), (-1, {"nuc": 1, "r": -1})]),
        "z3": Poly.from_monomials(cs, [(1, {"nu": 1, "r": 1})]),
        "z4": Poly.from_monomials(cs, [(1, {"nu": 1, "gamma": 1}), (1, {"alphac": 1, "r": -1})]),
    }
    zp.update({k + "c": v.conj() for k, v in list(zp.items())})
    for k in range(10):
        p = random_point("double", k)
        zvals = {name: poly.evaluate(p) for name, poly in zp.items()}
        for a, b in itertools.combinations(tz.cs.coords, 2):
            lhs = td.poly_bracket(zp[a], zp[b]).evaluate(p)
            rhs = tz.entry(a, b).evaluate(zvals)
            assert abs(lhs - rhs) < 1e-12


def test_poly_arithmetic_and_diff():
    cs = COORD_SYSTEMS["sb2"]
    f = Poly.from_monomials(cs, [(2.0, {"r": 2}), (1.0, {"gamma": 1, "gammac": 1}), (3.0, {"r": -2})])
    p = {"r": 1.5, "gamma": 1 - 2j, "gammac": 1 + 2j}
    assert f.evaluate(p) == pytest.approx(2 * 1.5**2 + abs(1 - 2j) ** 2 + 3 / 1.5**2)
    df = f.diff("r")
    assert df.evaluate(p) == pytest.approx(4 * 1.5 - 6 / 1.5**3)
    assert f.diff("gamma").evaluate(p) == pytest.approx(1 + 2j)
    assert (f - f).max_coeff() == 0.0
    assert (f * 0.0).is_zero()


def test_gradient_covector_matches_finite_differences():
    f = named_function("double", "h0")
    p = random_point("double", 7)
    grad = gradient_covector(f, p)
    eps = 1e-7
    for name in ("r", "gamma"):
        # holomorphic partial: perturb the coordinate, not its conjugate
        q = dict(p)
        q[name] = q[name] + eps
        fd = (f.evaluate(q) - f.evaluate(p)) / eps
        assert abs(grad[name] - fd) < 1e-6


def test_named_function_values():
    p = poisson_point("sl2c", {"z1": 2, "z2": 0.5, "z3": 0, "z4": 0.5})
    assert named_function("sl2c", "det").evaluate(p) == pytest.approx(1.0)
    assert named_function("sl2c", "h0").evaluate(p) == pytest.approx(0.5 * (4 + 0.25 + 0.25))
    q = poisson_point("sb2", {"r": 2.0, "gamma": 1j})
    assert named_function("sb2", "h0").evaluate(q) == pytest.approx(0.5 * (1 + 4 + 0.25))
    w = poisson_point("double", {"alpha": 0.6, "nu": 0.8j, "r": 1.0, "gamma": 0.0})
    assert named_function("double", "h_nu").evaluate(w) == pytest.approx(0.32)
    with pytest.raises(KeyError):
        named_function("sl2c", "nonsense")


def test_poisson_point_validation():
    p = poisson_point("su2", {"alpha": 0.6, "nu": 0.8})
    assert p["alphac"] == 0.6 and p["nuc"] == 0.8
    with pytest.raises(ValueError):
        poisson_point("su2", {"alpha": 1j, "alphac": 1j, "nu": 0, "nuc": 0})
    with pytest.raises(ValueError):
        poisson_point("sb2", {"r": -2.0, "gamma": 0.0})
    with pytest.raises(ValueError):
        poisson_point("su2", {"alpha": 1.0})


def test_point_of_element_round_trip():
    g = random_element("su2", 4)
    u = random_element("sb2", 4)
    p = point_of_element(g, u)
    assert p["alpha"] == g.alpha and p["gamma"] == u.gamma and p["r"] == u.r
    a = random_element("sl2", 4)
    q = point_of_element(a)
    assert q["z1"] == a.z1 and q["z4c"] == np.conj(a.z4)


def test_random_point_on_surface_and_off():
    p = random_point("sl2c", 11)
    det = p["z1"] * p["z4"] - p["z2"] * p["z3"]
    assert abs(det - 1.0) < 1e-12
    q = random_point("sl2c", 11, on_surface=False)
    det_q = q["z1"] * q["z4"] - q["z2"] * q["z3"]
    assert abs(det_q - 1.0) > 1e-6  # generic point leaves the surface
    for name in SYSTEMS:
        w = random_point(name, 3)
        for c in COORD_SYSTEMS[name].coords:
            assert c in w


def test_json_round_trip_is_bit_exact():
    for name in SYSTEMS:
        t = get_table(name)
        s = t.to_json()
        t2 = BracketTable.from_json(s)
        assert t2.to_json() == s
        assert set(t2.entries) == set(t.entries)
        for key, poly in t.entries.items():
            assert t2.entries[key].terms == poly.terms
