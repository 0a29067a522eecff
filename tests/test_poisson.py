import hashlib
import itertools

import numpy as np
import pytest

from doubleflow import dynamics as dyn
from doubleflow import poisson, verify
from doubleflow.groups import gu_products, random_element
from doubleflow.poisson import (
    _SIGMA,
    COORD_SYSTEMS,
    BracketTable,
    Poly,
    get_table,
    gradient_covector,
    named_function,
    point_of_element,
    poisson_point,
    random_point,
    _sigma_poly,
)

SYSTEMS = ("sl2c", "su2", "sb2", "double")


@pytest.mark.parametrize("name", SYSTEMS)
def test_tables_build_and_are_canonical(name):
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


@pytest.mark.parametrize("name", SYSTEMS)
def test_jacobi_vanishes_at_coefficient_level(name):
    # the cyclic sum is the zero polynomial for every coordinate triple,
    # so the identity holds on all of C^n, not just on the group surface
    t = get_table(name)
    for a, b, c in itertools.combinations(t.cs.coords, 3):
        assert t.jacobi_poly(a, b, c).max_coeff() == 0.0


def test_casimirs():
    # det and conj_det of sl2c are acceptance criterion 1
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
    h = Poly.from_monomials(cs, [(1, {"z2": 1, "z3c": 1}), (2.0, {})])
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
        expect = dyn.flat_to_z(dyn.sl2c_flat_field(1.0)(*dyn.z_to_flat(*z)))
        for i in range(4):
            assert abs(rates[f"z{i+1}"] - expect[i]) < 1e-12
            assert abs(rates[f"z{i+1}c"] - expect[i].conjugate()) < 1e-12


def double_eta(F, lam, point):
    """F·dH0 + lam·dr at a point of the double group, as a covector."""
    dh0 = gradient_covector(named_function("double", "h0"), point)
    dr = gradient_covector(Poly.from_monomials(COORD_SYSTEMS["double"], [(1, {"r": 1})]), point)
    return {c: F * dh0[c] + lam * dr[c] for c in dh0}


@pytest.mark.parametrize("system, field, eta", [
    ("noncasimir_h", dyn.noncasimir_flat_field(),
     lambda p: gradient_covector(named_function("double", "h_nu"), p)),
    ("perturbed", dyn.perturbed_flat_field(1.0, 0.1), lambda p: double_eta(1.0, -0.1, p)),
    ("perturbed", dyn.perturbed_flat_field(-0.7, 2.0), lambda p: double_eta(-0.7, -2.0, p)),
    ("perturbed", dyn.perturbed_flat_field(1.3, 0.0), lambda p: double_eta(1.3, 0.0, p)),
], ids=["noncasimir_h", "perturbed-F1-lam0.1", "perturbed-F-0.7-lam2", "perturbed-F1.3-lam0"])
def test_double_group_oracle_fields_are_table_fields(system, field, eta):
    # the hand-transcribed rates against the bracket table's field of eta =
    # d h_nu for noncasimir_h and eta = F dH0 - lam dr for perturbed
    table = get_table("double")
    for k in range(15):
        rng = np.random.default_rng(k)
        g, u = random_element("su2", rng), random_element("sb2", rng)
        p = point_of_element(g, u)
        rates = table.hamiltonian_field(eta(p), p)
        want = np.array([rates["alpha"].real, rates["alpha"].imag, rates["nu"].real,
                         rates["nu"].imag, rates["r"].real, rates["gamma"].real,
                         rates["gamma"].imag])
        got = np.asarray(field(*dyn._flat_double(g.alpha, g.nu, u)))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert abs(rates["r"].imag) <= 1e-12 * np.max(np.abs(want))


def _ref_hamiltonian_field(table, eta, point):
    """hamiltonian_field with each covector component passed through complex()."""
    rates = {c: 0j for c in table.cs.coords}
    for (a, b), t in table.entries.items():
        v = t.evaluate(point)
        rates[a] += v * complex(eta[b])
        rates[b] -= v * complex(eta[a])
    return rates


@pytest.mark.parametrize("name", SYSTEMS)
def test_hamiltonian_field_bitwise_matches_complex_conversion(name):
    table = get_table(name)
    coords = table.cs.coords
    f = Poly.from_monomials(table.cs, [(0.5 + k - 0.25j * k, {a: 1, b: 1 + k % 2})
                                       for k, (a, b) in enumerate(zip(coords, coords[1:]))])
    float_eta = {c: 0.37 * k - 1.1 for k, c in enumerate(coords)}
    for seed in range(5):
        p = random_point(name, seed)
        for eta in (gradient_covector(f, p), float_eta):
            got, want = table.hamiltonian_field(eta, p), _ref_hamiltonian_field(table, eta, p)
            assert list(got) == list(want)
            assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()


def test_hamiltonian_field_requires_full_covector():
    tz = get_table("sl2c")
    p = random_point("sl2c", 0)
    with pytest.raises(ValueError, match="missing covector"):
        tz.hamiltonian_field({"z1": 1.0}, p)


def test_double_table_reproduces_sl2c_through_product_coordinates():
    td, tz = get_table("double"), get_table("sl2c")
    zp = _zpolys()
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
    a = random_element("sl2c", 4)
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


@pytest.mark.parametrize("name", SYSTEMS)
def test_json_round_trip_is_bit_exact(name):
    t = get_table(name)
    s = t.to_json()
    t2 = BracketTable.from_json(s)
    assert t2.to_json() == s
    assert set(t2.entries) == set(t.entries)
    for key, poly in t.entries.items():
        assert t2.entries[key].terms == poly.terms


# Reference forms of the memoized code paths.  They rebuild every polynomial
# at every point and evaluate by visiting each exponent, zeros included; the
# memoized forms must give the same bits, not merely close values.

def _ref_evaluate(poly, point):
    total = 0j
    for e, c in poly.terms.items():
        v = c
        for name, k in zip(poly.cs.coords, e):
            if k:
                v *= complex(point[name]) ** k
        total += v
    return total


def _ref_symmetry_checks(t, point):
    reality = 0.0
    for (a, b), e in t.entries.items():
        lhs = _ref_evaluate(e.conj(), point)
        rhs = _ref_evaluate(t.entry(t.cs.conj[a], t.cs.conj[b]), point)
        reality = max(reality, abs(lhs - rhs))
    report = {"reality": reality}
    if t.system == "sl2c":
        inversion = 0.0
        for a, b in itertools.combinations(t.cs.coords, 2):
            sa, na = _SIGMA[a]
            sb, nb = _SIGMA[b]
            lhs = _ref_evaluate(_sigma_poly(t.entry(a, b)), point)
            rhs = sa * sb * _ref_evaluate(t.entry(na, nb), point)
            inversion = max(inversion, abs(lhs - rhs))
        report["inversion"] = inversion
    return report


def _ref_casimir_residual(t, fname, point):
    f = named_function(t.system, fname)
    eta = {c: _ref_evaluate(f.diff(c), point) for c in t.cs.coords}
    rates = {c: 0j for c in t.cs.coords}
    for (a, b), e in t.entries.items():
        v = _ref_evaluate(e, point)
        rates[a] += v * complex(eta[b])
        rates[b] -= v * complex(eta[a])
    return max(abs(v) for v in rates.values())


def _zpolys():
    """z1..z4 and conjugates of a = g*u as polynomials in the double coordinates."""
    zp = {k: named_function("double", k) for k in ("z1", "z2", "z3", "z4")}
    zp.update({k + "c": v.conj() for k, v in list(zp.items())})
    return zp


def test_gu_products_match_the_double_records_product_coordinates():
    # the numeric home of a = g·u and its symbolic home agree
    polys = [named_function("double", f"z{k}") for k in range(1, 5)]
    rng = np.random.default_rng(31)
    for _ in range(2000):
        g, u = random_element("su2", rng), random_element("sb2", rng)
        p = point_of_element(g, u)
        for z, poly in zip(gu_products([(g.alpha, g.nu, u.r, u.gamma)])[0], polys, strict=True):
            assert abs(z - poly.evaluate(p)) <= 1e-14 * max(1.0, abs(z)), (g, u)


def _points(name, n=50):
    if name == "sl2c":
        return [random_point("sl2c", k, on_surface=k % 2 == 0) for k in range(n)]
    return [random_point(name, k) for k in range(n)]


@pytest.mark.parametrize("name", SYSTEMS)
def test_compiled_evaluate_is_bit_identical_to_reference(name):
    t = get_table(name)
    polys = list(t.entries.values())
    polys += [t.jacobi_poly(a, b, c) for a, b, c in itertools.combinations(t.cs.coords, 3)]
    if name in ("sb2", "double"):
        # the Laurent entries: negative powers of r
        assert any(k < 0 for p in polys for e in p.terms for k in e)
    if name == "double":
        zp = _zpolys()
        polys += list(zp.values())
        polys += [t.poly_bracket(zp[a], zp[b]) for a, b in itertools.combinations(zp, 2)]
    for point in _points(name):
        for poly in polys:
            # repr tells the signs of zeros apart, which == does not
            assert repr(poly.evaluate(point)) == repr(_ref_evaluate(poly, point))


@pytest.mark.parametrize("name", SYSTEMS)
def test_memoized_symmetry_checks_are_bit_identical_to_reference(name):
    t = get_table(name)
    for point in _points(name):
        assert t.table_symmetry_checks(point) == _ref_symmetry_checks(t, point)


def test_memoized_casimir_residual_is_bit_identical_to_reference():
    for name, fname in (("sl2c", "det"), ("sl2c", "conj_det"), ("su2", "h_su2_norm"),
                        ("sb2", "h0")):
        t = get_table(name)
        for point in _points(name):
            assert t.casimir_residual(fname, point) == _ref_casimir_residual(t, fname, point)


def test_hoisted_product_coordinates_check_matches_per_point_recomputation():
    seed, samples = 5, 20
    rng = np.random.default_rng(seed)
    # the suite's draw order: sl2c, generic sl2c, su2 and sb2 points come first
    for name, on_surface in (("sl2c", True), ("sl2c", False), ("su2", True), ("sb2", True)):
        for _ in range(samples):
            random_point(name, rng, on_surface=on_surface)
    pts = [random_point("double", rng) for _ in range(samples)]
    td, tz = get_table("double"), get_table("sl2c")
    worst = 0.0
    for p in pts:
        zp = _zpolys()
        zvals = {k: _ref_evaluate(v, p) for k, v in zp.items()}
        for a, b in itertools.combinations(tz.cs.coords, 2):
            lhs = _ref_evaluate(td.poly_bracket(zp[a], zp[b]), p)
            worst = max(worst, abs(lhs - _ref_evaluate(tz.entry(a, b), zvals)))
    checks = {c.name: c for c in verify.suite_brackets(seed, samples)}
    assert checks["product_coordinates_consistency"].residual == worst


def test_brackets_report_is_the_same_with_cold_and_warm_caches(monkeypatch):
    monkeypatch.setattr(poisson, "_TABLES", {})
    cold = verify.report_doc("brackets", 3, 30)
    warm = verify.report_doc("brackets", 3, 30)
    assert poisson._TABLES
    assert cold == warm


# sha256 of get_table(name).to_json() as the tables were first pinned; the
# completion uses coefficient arithmetic only, so the digests hold on any CPU.
TABLE_SHA256 = {
    "sl2c": "a8900bae3978036dc475e3dae15e671ca62127254f6f785b6352c91f09aaf088",
    "su2": "9b2fec552dbda61021ad22e26a32b1809c5b0b4255b6c9e30635344d260313f9",
    "sb2": "3f0dc1a5ecb10173ac111c203899d27d9f82a73b4ff4aee1895611af2a01825e",
    "double": "33710d17bb9efc02e987f5bdc0f661a53d7e543c8ba27760a334fd45c919c610",
}

# Every (system, name) that named_function accepts: (exponents, real coefficient)
# in term order; every imaginary part is +0.0.
NAMED_TERMS = {
    ("sl2c", "det"): [((1, 0, 0, 1, 0, 0, 0, 0), 1.0), ((0, 1, 1, 0, 0, 0, 0, 0), -1.0)],
    ("sl2c", "conj_det"): [((0, 0, 0, 0, 1, 0, 0, 1), 1.0), ((0, 0, 0, 0, 0, 1, 1, 0), -1.0)],
    ("sl2c", "h0"): [((1, 0, 0, 0, 1, 0, 0, 0), 0.5), ((0, 1, 0, 0, 0, 1, 0, 0), 0.5),
                     ((0, 0, 1, 0, 0, 0, 1, 0), 0.5), ((0, 0, 0, 1, 0, 0, 0, 1), 0.5)],
    ("su2", "h_su2_norm"): [((1, 0, 1, 0), 1.0), ((0, 1, 0, 1), 1.0)],
    ("su2", "h_nu"): [((0, 1, 0, 1), 0.5)],
    ("sb2", "h0"): [((0, 1, 1), 0.5), ((2, 0, 0), 0.5), ((-2, 0, 0), 0.5)],
    ("double", "h_su2_norm"): [((1, 0, 1, 0, 0, 0, 0), 1.0), ((0, 1, 0, 1, 0, 0, 0), 1.0)],
    ("double", "h_nu"): [((0, 1, 0, 1, 0, 0, 0), 0.5)],
    ("double", "h0"): [((0, 0, 0, 0, 0, 1, 1), 0.5), ((0, 0, 0, 0, 2, 0, 0), 0.5),
                       ((0, 0, 0, 0, -2, 0, 0), 0.5)],
    ("double", "z1"): [((1, 0, 0, 0, 1, 0, 0), 1.0)],
    ("double", "z2"): [((1, 0, 0, 0, 0, 1, 0), 1.0), ((0, 0, 0, 1, -1, 0, 0), -1.0)],
    ("double", "z3"): [((0, 1, 0, 0, 1, 0, 0), 1.0)],
    ("double", "z4"): [((0, 1, 0, 0, 0, 1, 0), 1.0), ((0, 0, 1, 0, -1, 0, 0), 1.0)],
}


def _bits(poly):
    """Terms in order, each coefficient as the exact hex of its two parts."""
    return [(e, c.real.hex(), c.imag.hex()) for e, c in poly.terms.items()]


def test_completed_tables_are_pinned():
    for name in SYSTEMS:
        digest = hashlib.sha256(get_table(name).to_json().encode()).hexdigest()
        assert digest == TABLE_SHA256[name], name


def test_named_functions_keep_their_terms_and_bits():
    for (system, name), terms in NAMED_TERMS.items():
        expected = [(e, c.hex(), (0.0).hex()) for e, c in terms]
        assert _bits(named_function(system, name)) == expected, (system, name)
    accepted = {(system, name) for system in SYSTEMS for name in COORD_SYSTEMS[system].functions}
    assert accepted == set(NAMED_TERMS)


@pytest.mark.parametrize("system, name", [
    ("su2", "h0"), ("sl2c", "h_nu"), ("sb2", "h_nu"), ("su2", "det"), ("double", "conj_det"),
])
def test_named_function_rejects_names_of_other_systems(system, name):
    with pytest.raises(KeyError, match=f"unknown function {name!r} for system {system!r}"):
        named_function(system, name)


def test_conj_det_is_det_conjugated_term_for_term():
    assert _bits(named_function("sl2c", "conj_det")) == _bits(named_function("sl2c", "det").conj())


@pytest.mark.parametrize("factor", ["su2", "sb2"])
def test_double_table_restricted_to_a_factor_is_that_factor_table(factor):
    double, sub = get_table("double"), get_table(factor)
    restricted = {}
    for (a, b), poly in double.entries.items():
        if a in sub.cs.coords and b in sub.cs.coords:
            terms = []
            for e, c in poly.terms.items():
                powers = dict(zip(double.cs.coords, e))
                assert all(powers[n] == 0 for n in double.cs.coords if n not in sub.cs.coords)
                terms.append((tuple(powers[n] for n in sub.cs.coords), c.real.hex(), c.imag.hex()))
            restricted[(a, b)] = terms
    assert list(restricted.items()) == [(key, _bits(poly)) for key, poly in sub.entries.items()]


@pytest.mark.parametrize("kinds, names", [
    (("sb2", "su2"), "SB2Element, SU2Element"),
    (("sl2c", "sb2"), "SL2Element, SB2Element"),
    (("su2", "su2"), "SU2Element, SU2Element"),
])
def test_point_of_element_rejects_other_argument_shapes(kinds, names):
    elements = [random_element(kind, k) for k, kind in enumerate(kinds)]
    with pytest.raises(TypeError, match=rf"\({names}\)"):
        point_of_element(*elements)


@pytest.mark.parametrize("system", ["su2", "sb2", "double"])
def test_random_point_off_surface_is_only_for_sl2c(system):
    with pytest.raises(ValueError, match="only for sl2c"):
        random_point(system, 0, on_surface=False)
