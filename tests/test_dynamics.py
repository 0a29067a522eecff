import cmath
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from doubleflow import dynamics, groups
from doubleflow.dynamics import (
    SYSTEMS,
    CommutativityError,
    FlowState,
    _casimir_invariants,
    _commutator_guard,
    _finite_array,
    _flat_double,
    _momenta_su2_generator,
    _perturbed_x,
    _rotating_frame,
    action_angle_flat_field,
    action_angle_flow,
    casimir_flow,
    commuting_quadrature_flow,
    flat_to_z,
    free_hamiltonian,
    hat3,
    interaction_picture_flow,
    legendre_invert,
    legendre_map,
    momenta_su2_flat_field,
    momenta_su2_flow,
    noncasimir_flat_field,
    noncasimir_flow,
    perturbed_flat_field,
    perturbed_flow,
    perturbed_velocity,
    rotator_flat_field,
    rotator_flow,
    sl2c_flat_field,
    z_to_flat,
)
from doubleflow.groups import (
    AlgebraElement,
    MembershipError,
    SB2Element,
    SL2Element,
    SU2Element,
    exp_group,
    iwasawa_gu,
    random_element,
)
from doubleflow.quadrature import NonFiniteStateError, drift_report, rk4_integrate, simpson_rule
from doubleflow.verify import BLOCK

def sampled(system, params, times):
    """The rows of SYSTEMS[system] at times, as one block, and their flat states."""
    rows, err = SYSTEMS[system].sample(params)(times)
    if err is not None:
        raise err
    d = len(SYSTEMS[system].columns(params)[0])
    return rows, [row[:d] for row in rows]


def test_free_hamiltonian_forms():
    a = SL2Element(2.0, 0.5, 0.0, 0.5)
    assert free_hamiltonian(a) == pytest.approx(0.5 * (4 + 0.25 + 0.25))
    u = SB2Element(2.0, 1j)
    assert free_hamiltonian(u) == pytest.approx(0.5 * (1 + 4 + 0.25))
    with pytest.raises(TypeError):
        free_hamiltonian([1, 2, 3])


def sl2c_rates(a, F):
    """The sl2c field's rates at an SL2Element, as four complex numbers."""
    return flat_to_z(sl2c_flat_field(F)(*z_to_flat(a.z1, a.z2, a.z3, a.z4)))


def test_sl2c_vf_fixed_values():
    rates = sl2c_rates(SL2Element.identity(), 1.0)
    assert max(abs(r) for r in rates) == 0.0
    rates = sl2c_rates(random_element("sl2c", 0), 0.0)
    assert max(abs(r) for r in rates) == 0.0
    rates = sl2c_rates(SL2Element(2.0, 0.0, 0.0, 0.5), 1.0)
    assert rates[0] == pytest.approx(-15j / 8)


def test_casimir_flow_defaults_and_fixed_points():
    g0, u0 = random_element("su2", 1), random_element("sb2", 1)
    st = casimir_flow(g0, u0, 1.0)(0.0)
    assert st.g.alpha == pytest.approx(g0.alpha) and st.u is u0
    st = casimir_flow(g0, SB2Element.identity(), 1.0)(7.0)
    assert abs(st.g.alpha - g0.alpha) < 1e-14 and abs(st.g.nu - g0.nu) < 1e-14


def test_casimir_flow_diagonal_example():
    u0 = SB2Element(2.0, 0.0)
    for t in (0.5, 2.0, 9.0):
        st = casimir_flow(SU2Element.identity(), u0, 1.0)(t)
        m = st.g.as_matrix()
        assert m[0, 0] == pytest.approx(cmath.exp(-15j * t / 16))
        assert m[1, 1] == pytest.approx(cmath.exp(15j * t / 16))
        assert abs(m[0, 1]) < 1e-15


def test_legendre_map_fixed_values():
    assert np.max(np.abs(legendre_map(SB2Element.identity(), 1.0).value)) == 0.0
    v = legendre_map(SB2Element(2.0, 0.0), 1.0).value
    np.testing.assert_allclose(v, np.diag([-15j / 16, 15j / 16]), atol=1e-15)
    v = legendre_map(SB2Element(1.0, 2.0), 1.0).value
    np.testing.assert_allclose(v, -1j * np.array([[1.0, 1.0], [1.0, -1.0]]), atol=1e-15)


def test_legendre_invert_fixed_values():
    u = legendre_invert(AlgebraElement("su2", np.zeros((2, 2))))
    assert u.r == pytest.approx(1.0) and u.gamma == 0
    u = legendre_invert(AlgebraElement("su2", np.diag([-15j / 16, 15j / 16])))
    assert u.r == pytest.approx(2.0) and abs(u.gamma) < 1e-15
    with pytest.raises(MembershipError):
        legendre_invert(AlgebraElement("sb2", np.array([[0.1, 1.0], [0.0, -0.1]])))


@pytest.mark.xfail(strict=True, reason="unreduced inverse misses the 1+|w|^2 divisor")
def test_legendre_unreduced_inverse_round_trips():
    v = legendre_map(SB2Element(2.0, 0.0), 1.0)
    u = legendre_invert(v, unreduced=True)
    assert u.r == pytest.approx(2.0, abs=1e-10)


def test_momenta_su2_flow_examples():
    u0 = random_element("sb2", 3)
    st = momenta_su2_flow(u0, 0.6, 0.8j, 0.0)(5.0)
    assert st.u.r == pytest.approx(u0.r) and st.u.gamma == pytest.approx(u0.gamma)
    st = momenta_su2_flow(SB2Element.identity(), 0.0, 1.0, 1.0)(2.0)
    assert st.u.r == pytest.approx(math.exp(-1.0))
    assert abs(st.u.gamma) < 1e-15
    st = momenta_su2_flow(u0, 1.0, 0.0, 1.0)(4.0)  # nu = 0 freezes u
    assert st.u.r == pytest.approx(u0.r) and st.u.gamma == pytest.approx(u0.gamma)
    with pytest.raises(MembershipError):
        momenta_su2_flow(u0, 1.0, 1.0, 1.0)(1.0)


def rk4_case_params(system, rng):
    """The params the closed-form-vs-RK4 test draws for system from rng."""
    if system == "rotator":
        return {"g0": np.eye(3), "p": rng.standard_normal(3), "F": 1.0}
    g, u = random_element("su2", rng), random_element("sb2", rng)
    if system == "momenta_su2":
        return {"u0": u, "alpha": g.alpha, "nu": g.nu, "F": 1.3}
    return {"g0": g, "u0": u, "F": 1.0, "lam": 0.25}


# casimir_sl2c and noncasimir_h are acceptance criterion 4
@pytest.mark.parametrize("system, seed, t1, stride", [
    ("momenta_su2", 4, 4.0, 200), ("perturbed", 10, 4.0, 200), ("rotator", 11, 5.0, 250)])
def test_closed_form_flows_match_rk4(system, seed, t1, stride):
    params, sysdef = rk4_case_params(system, np.random.default_rng(seed)), SYSTEMS[system]
    field, y0 = sysdef.field(params), sampled(system, params, [0.0])[1][0]
    traj = rk4_integrate(field, y0, 0.0, t1, 1e-3, stride)
    _, ys = sampled(system, params, traj.times)
    worst = max(float(np.linalg.norm(np.subtract(y, want))) for y, want in zip(ys, traj.states))
    assert worst < 1e-6
    if system == "momenta_su2":  # membership at every step of the oracle too
        assert all(st[0] > 0 for st in rk4_integrate(field, y0, 0.0, t1, 1e-3).states)


def test_noncasimir_flow_invariants_and_period():
    g = random_element("su2", 6)
    u0 = random_element("sb2", 6)
    w = abs(g.nu) ** 2
    for t in np.linspace(0.0, 12.0, 7):
        st = noncasimir_flow(u0, g.alpha, g.nu)(t)
        assert abs(abs(st.alpha) - abs(g.alpha)) < 1e-14
        assert st.nu == g.nu
        assert st.u.r == u0.r
    # the phase loop closes after t = 4*pi/|nu|^2
    period = 4.0 * math.pi / w
    st = noncasimir_flow(u0, g.alpha, g.nu)(period)
    assert abs(st.alpha - g.alpha) < 1e-12
    assert abs(st.u.gamma - u0.gamma) < 1e-12


def test_noncasimir_flow_nu_zero_branch():
    u0 = SB2Element(2.0, 1.0 - 1.0j)
    st = noncasimir_flow(u0, 1.0, 0.0)(123.0)
    assert st.alpha == 1.0 and st.nu == 0.0
    assert st.u.r == u0.r and st.u.gamma == u0.gamma
    with pytest.raises(MembershipError):
        noncasimir_flow(u0, 0.3, 0.0)(1.0)


def test_perturbed_flow_momenta_and_reduction():
    g0, u0 = random_element("su2", 7), SB2Element(2.0, 1.0)
    lam = 0.3
    for t in (0.0, 1.5, 6.0):
        st = perturbed_flow(g0, u0, 1.0, lam)(t)
        assert st.u.r == u0.r
        assert abs(st.u.gamma) == pytest.approx(abs(u0.gamma))
        assert abs(st.u.gamma - u0.gamma * cmath.exp(-0.5j * lam * u0.r * t)) < 1e-14
    # lambda = 0 collapses onto the Casimir flow
    st0 = perturbed_flow(g0, u0, 1.0, 0.0)(2.0)
    stc = casimir_flow(g0, u0, 1.0)(2.0)
    np.testing.assert_allclose(st0.g.as_matrix(), stc.g.as_matrix(), atol=1e-13)
    assert st0.u.gamma == pytest.approx(u0.gamma)


def test_perturbed_flow_diagonal_case():
    # gamma0 = 0 makes all generators diagonal: g(t) = g0 exp(t A0)
    g0, u0, lam = random_element("su2", 8), SB2Element(1.5, 0.0), 0.4
    a0 = legendre_map(u0, 1.0).value - np.diag([-0.25j * lam * u0.r, 0.25j * lam * u0.r])
    for t in (0.5, 3.0):
        st = perturbed_flow(g0, u0, 1.0, lam)(t)
        expect = g0.as_matrix() @ scipy.linalg.expm(t * a0)
        np.testing.assert_allclose(st.g.as_matrix(), expect, atol=1e-13)


def perturbed_field_reference(F, lam, st):
    """The perturbed rates built from group and algebra objects."""
    alpha, nu = complex(st[0], st[1]), complex(st[2], st[3])
    r, gamma = st[4], complex(st[5], st[6])
    gen = (legendre_map(SB2Element(r, gamma), F).value
           - np.diag([-0.25j * lam * r, 0.25j * lam * r]))
    gdot = SU2Element(alpha, nu).as_matrix() @ gen
    gammadot = -0.5j * lam * r * gamma
    return np.array([gdot[0, 0].real, gdot[0, 0].imag, gdot[1, 0].real, gdot[1, 0].imag,
                     0.0, gammadot.real, gammadot.imag])


@pytest.mark.parametrize("F", [1.3, -0.7])
def test_perturbed_flat_field_matches_object_reference(F):
    # The scalar transcription may differ from the 2x2 matrix product in the
    # last bit (BLAS may fuse multiply-adds), hence 1e-15 relative to the rates.
    rng = np.random.default_rng(31)
    lam = 0.35
    field = perturbed_flat_field(F, lam)
    for _ in range(200):
        g, u = random_element("su2", rng), random_element("sb2", rng)
        st = _flat_double(g.alpha, g.nu, u)
        want = perturbed_field_reference(F, lam, st)
        got = np.asarray(field(*st))
        assert np.max(np.abs(got - want)) <= 1e-15 * max(1.0, np.max(np.abs(want)))
        assert got[4:].tobytes() == want[4:].tobytes()


def sl2c_field_complex_reference(F_value):
    """sl2c_flat_field as it was on Python complex numbers, kept as the bit reference."""
    F = float(F_value)

    def _sl2c_rates(z1, z2, z3, z4, F):
        h0 = 0.5 * (abs(z1) ** 2 + abs(z2) ** 2 + abs(z3) ** 2 + abs(z4) ** 2)
        c = -0.5j * F
        return (
            c * (h0 * z1 - z4.conjugate()),
            c * (h0 * z2 + z3.conjugate()),
            c * (h0 * z3 + z2.conjugate()),
            c * (h0 * z4 - z1.conjugate()),
        )

    def field(*y):
        x1, y1, x2, y2, x3, y3, x4, y4 = y
        r1, r2, r3, r4 = _sl2c_rates(complex(x1, y1), complex(x2, y2),
                                     complex(x3, y3), complex(x4, y4), F)
        return (r1.real, r1.imag, r2.real, r2.imag, r3.real, r3.imag, r4.real, r4.imag)

    return field


def noncasimir_field_complex_reference():
    """noncasimir_flat_field as it was on Python complex numbers, kept as the bit reference."""

    def field(*st):
        a_re, a_im, n_re, n_im, r, _, _ = st
        alpha, nu = complex(a_re, a_im), complex(n_re, n_im)
        adot = 0.5j * abs(nu) ** 2 * alpha
        gdot = 0.5j * alpha.conjugate() * nu.conjugate() / r
        return (adot.real, adot.imag, 0.0, 0.0, 0.0, gdot.real, gdot.imag)

    return field


def perturbed_field_complex_reference(F, lam):
    """perturbed_flat_field as it was on Python complex numbers, kept as the bit reference."""
    lam, c = float(lam), -0.25j * float(F)

    def field(*st):
        a_re, a_im, n_re, n_im, r, g_re, g_im = st
        alpha, nu, gamma = complex(a_re, a_im), complex(n_re, n_im), complex(g_re, g_im)
        # first column of gen = legendre_map(u, F) - X(r), entry by entry
        gen00 = c * complex(r * r - 1.0 / (r * r) + abs(gamma) ** 2) + 0.25j * lam * r
        gen10 = c * (2.0 * gamma / r).conjugate()
        # first column of g·gen, g = [[alpha, -conj(nu)], [nu, conj(alpha)]]
        g00 = alpha * gen00 - nu.conjugate() * gen10
        g10 = nu * gen00 + alpha.conjugate() * gen10
        gammadot = -0.5j * lam * r * gamma
        return (g00.real, g00.imag, g10.real, g10.imag, 0.0, gammadot.real, gammadot.imag)

    return field


def zero_signs_aside(got, want):
    """got has want's bits wherever want is not NaN, but for the sign of a zero.

    That is the float fields' contract with the complex bodies they replace:
    a signed-zero term is left out, which can flip only the sign of a zero
    rate, and a NaN of 0·inf in such a term may become a number.  -0.0 + 0.0
    is +0.0, so the sums compare bit for bit with the zeros' signs dropped.
    """
    keep = ~np.isnan(want)
    return (got[keep] + 0.0).tobytes() == (want[keep] + 0.0).tobytes()


# parts a float rewrite of complex arithmetic can get wrong while every ==
# holds: signed zeros, subnormals, squares and products past the floats, inf
# and NaN
EXTREME_PARTS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1e-300, -1e-300,
                 1e160, 1e300, -1e300, math.inf, -math.inf, math.nan]
F_LAM_VALUES = [1.0, -0.7, 0.0, -0.0, 1e-300, 1e200, 1e250, math.inf, math.nan]


# state length and (F, lam) -> (field, its complex reference), per system
COMPLEX_REFERENCES = {
    "casimir_sl2c": (8, lambda F, lam: (sl2c_flat_field(F), sl2c_field_complex_reference(F))),
    "noncasimir_h": (7, lambda F, lam: (noncasimir_flat_field(),
                                        noncasimir_field_complex_reference())),
    "perturbed": (7, lambda F, lam: (perturbed_flat_field(F, lam),
                                     perturbed_field_complex_reference(F, lam))),
}


@pytest.mark.parametrize("name", COMPLEX_REFERENCES)
def test_complex_fields_on_floats_bitwise_match_the_complex_references(name):
    # 100,000 states per field, 2,000 per (F, lam): a quarter normals of scale
    # 1e-8 to 1e8, the rest the same with on average two parts drawn
    # from EXTREME_PARTS; an exception must be of the same type, and a rate
    # the reference's bits but for a zero's sign where the reference's is not NaN
    dim, pair = COMPLEX_REFERENCES[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    got, want = [], []
    for _ in range(50):
        F, lam = (float(rng.choice(F_LAM_VALUES)) * rng.choice([1.0, -1.0]) for _ in range(2))
        field, reference = pair(F, lam)
        states = rng.standard_normal((2000, dim)) * 10.0 ** rng.integers(-8, 9, (2000, 1))
        extreme = rng.random((2000, dim)) < 2.0 / dim
        extreme[:500] = False
        states[extreme] = rng.choice(EXTREME_PARTS, int(extreme.sum()))
        for st in states.tolist():
            try:
                ref = reference(*st)
            except (OverflowError, ZeroDivisionError) as e:
                with pytest.raises(type(e)):
                    field(*st)
                continue
            got.append(field(*st))
            want.append(ref)
    got, want = np.array(got), np.array(want)
    assert len(got) > 50_000
    assert zero_signs_aside(got, want)


def momenta_su2_field_reference(alpha, nu, F):
    """momenta_su2_flat_field as it was on numpy scalars, kept as the bit reference."""
    L = _momenta_su2_generator(complex(alpha), complex(nu), F)
    x, y = L[0, 0].real, L[0, 1]

    def field(*st):
        r, gamma = st[0], complex(st[1], st[2])
        gdot = x * gamma + y / r
        return [float(x * r), float(gdot.real), float(gdot.imag)]

    return field


@pytest.mark.parametrize("F", [0.0, 1.3, -1.3, 1e308])
def test_momenta_su2_flat_field_bitwise_matches_numpy_scalars(F):
    # 5,000 states per F: r at both ends of the floats, where y·(1/r) and y/r
    # round apart, and gamma parts with signed zeros or infinite;
    # alpha = 0 or Re nu = Im nu makes both parts of L[0, 1] signed zeros.
    # Where numpy's rate is not NaN, the float one has its bits but for a zero's sign
    rng = np.random.default_rng(41)
    diagonal = 0.4 * math.sqrt(2.0) * (1.0 + 1.0j)
    pairs = [(0.0, 1.0), (0.0, -1.0j), (0.6, diagonal), (-0.6, -diagonal)]
    pairs += [(g.alpha, g.nu) for g in (random_element("su2", rng) for _ in range(46))]
    got, want = [], []
    for alpha, nu in pairs:
        field, reference = momenta_su2_flat_field(alpha, nu, F), \
            momenta_su2_field_reference(alpha, nu, F)
        for _ in range(100):
            st = [float(rng.choice([5e-324, 1e-300, 1.0, 1e300])),
                  *(float(rng.choice([0.0, -0.0, -math.inf, rng.standard_normal()]))
                    for _ in range(2))]
            got.append(field(*st))
            with np.errstate(all="ignore"):  # 1/r and x*r past the floats
                want.append(reference(*st))
    assert zero_signs_aside(np.array(got), np.array(want))


# unit momenta for the momenta_su2 runs: the first three make both parts of
# L[0, 1] signed zeros
MOMENTA_PAIRS = [(0.0, 1.0), (0.0, -1.0j), (0.6, 0.4 * math.sqrt(2.0) * (1.0 + 1.0j)),
                 (0.36 + 0.48j, 0.64 - 0.48j), (-0.8j, 0.6)]


def momenta_su2_references(F, lam, rng):
    """The momenta_su2 field and its numpy reference at a pair drawn from MOMENTA_PAIRS."""
    alpha, nu = MOMENTA_PAIRS[rng.integers(len(MOMENTA_PAIRS))]
    return momenta_su2_flat_field(alpha, nu, F), momenta_su2_field_reference(alpha, nu, F)


# state length and (F, lam, rng) -> (field, its kept reference), per system
RK4_REFERENCES = {**{name: (dim, lambda F, lam, rng, pair=pair: pair(F, lam))
                     for name, (dim, pair) in COMPLEX_REFERENCES.items()},
                  "momenta_su2": (3, momenta_su2_references)}
# r > 0, as in SB(2,C): numpy's y/r at r = 0 is a warning, the float one's an error
RK4_R = [5e-324, 2.5e-310, 1e-300, 1.0, 1e300, 1.7e308]
RK4_PARTS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e-300, -1e-300, 1e300, 1.7e308, -1.7e308]
RK4_F_LAM = [1.0, 0.7, 0.0, 1e-300, 1e200, 1e300, math.inf, math.nan]


def rk4_outcome(field, y0, h):
    """The states of 8 RK4 steps of h from y0, or the time and cause of their NonFiniteStateError."""
    try:
        return rk4_integrate(field, y0, 0.0, 8 * h, h).states, None
    except NonFiniteStateError as e:
        return e.time, type(e.__cause__)


@pytest.mark.parametrize("name", RK4_REFERENCES)
def test_float_fields_integrate_as_their_references_do(name):
    # 1,875 runs per field: each pair of RK4 runs, with the field and with
    # its reference, ends in states equal under ==, or fails at the same step
    # with the same cause.  So a zero's sign never reaches a nonzero value,
    # and where the reference's rate was a 0·inf NaN, an inf or NaN beside it
    # in the same update fails the step all the same.  Three runs in four
    # start with on average two parts from RK4_PARTS, every other r from RK4_R
    dim, pair = RK4_REFERENCES[name]
    rng = np.random.default_rng(sum(map(ord, name)) + 1)
    r = {"momenta_su2": 0, "noncasimir_h": 4, "perturbed": 4}.get(name)
    finished = 0
    for i in range(1875):
        F, lam = (float(rng.choice(RK4_F_LAM)) * rng.choice([1.0, -1.0]) for _ in range(2))
        field, reference = pair(F, lam, rng)
        y0 = rng.standard_normal(dim) * 10.0 ** rng.integers(-8, 9)
        if i % 4:
            extreme = rng.random(dim) < 2.0 / dim
            y0[extreme] = rng.choice(RK4_PARTS, int(extreme.sum()))
        if r is not None:
            y0[r] = rng.choice(RK4_R) if i % 2 else 10.0 ** rng.uniform(-8, 8)
        h = float(rng.choice([1e-3, 0.1, 1.0]))
        got, want = rk4_outcome(field, y0, h), rk4_outcome(reference, y0, h)
        if isinstance(want[0], np.ndarray):
            assert isinstance(got[0], np.ndarray) and (got[0] == want[0]).all()
            finished += 1
        else:
            assert got == want
    assert 90 <= finished <= 1785  # both outcomes are well represented


def test_momenta_su2_field_zero_r_at_a_stage_is_nonfinite_at_its_step():
    # L[0, 0] = -2000, so the second stage of the first step of 1e-3 has
    # r = 1 - 1 = 0; numpy's division warned there, the float one raises
    field = momenta_su2_flat_field(0.0, 1.0, 4000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteStateError) as err:
            rk4_integrate(field, [1.0, 0.5, 0.2], 0.0, 0.01, 0.001)
    assert err.value.time == 0.001


def rotator_field_reference(p, F):
    """rotator_flat_field as it was, through @, kept as a closeness reference."""
    k = hat3(float(F) * _finite_array(p, "p", (3,)))

    def field(*y):
        return (np.array(y).reshape(3, 3) @ k).ravel().tolist()

    return field


def rotator_draws():
    """(p, F, 10 states) for 2,000 fields, every scale from 1e-8 to 1e8."""
    rng = np.random.default_rng(42)
    for _ in range(2000):
        p, F = rng.standard_normal(3), float(rng.choice([0.0, 1.3, -1.3, 1e150]))
        yield p, F, [(rng.standard_normal(9) * 10.0 ** rng.integers(-8, 9)).tolist()
                     for _ in range(10)]


def test_rotator_flat_field_pinned_bitwise_matches_cross():
    # each row is g_i x F·p, two rounded products and a difference, as
    # np.cross computes it: no BLAS kernel, so the bits, signed zeros
    # included, hold under every OpenBLAS kernel
    got, want = [], []
    for p, F, ys in rotator_draws():
        field = rotator_flat_field(p, F)
        for y in ys:
            got.append(field(*y))
            want.append(np.cross(np.reshape(y, (3, 3)), F * p).ravel())
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_rotator_flat_field_is_close_to_matmul():
    # the dgemm of g·hat(F·p) may fuse or reorder its three terms, so the
    # old field agrees to round-off of the largest product only
    for p, F, ys in rotator_draws():
        field, reference = rotator_flat_field(p, F), rotator_field_reference(p, F)
        for y in ys:
            scale = 2.0 ** -50 * np.abs(y).max() * np.abs(F * p).max()
            assert np.abs(np.subtract(field(*y), reference(*y))).max() <= scale


@pytest.mark.parametrize("scale", [3e33, 1e50, 1e100, 1e150])
def test_rotator_field_overflows_at_the_step_the_matmul_field_did(scale):
    # the float rate overflows to inf or NaN without a warning or an
    # exception, so the trajectory fails at the same step as through @
    p, times = np.array([0.6, 0.0, 0.8]) * scale, []
    for field in (rotator_flat_field(p, 1.0), rotator_field_reference(p, 1.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteStateError) as err:
                rk4_integrate(field, np.eye(3).ravel(), 0.0, 1.0, 1e-3)
        times.append(err.value.time)
    assert times[0] == times[1]


@pytest.mark.parametrize("d", [0, 8, 10])
def test_rotator_field_rejects_a_state_not_of_length_9(d):
    # the field names its 9 coordinates: another count of them is a call error
    with pytest.raises(TypeError):
        rotator_flat_field([0.4, -0.3, 0.8], 1.0)(*[1.0] * d)


class NoNumpy:
    """A stand-in for the numpy module that fails on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used per evaluation")


def count_element_builds(monkeypatch, made, *extra):
    """Count in made each element a constructor or groups._wrap builds, by class, and each call
    of the (owner, name) pairs in extra, by name."""
    def counted(owner, name, key):
        f = getattr(owner, name)

        def wrapper(*args, **kwargs):
            made[key(args)] += 1
            return f(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for cls in (SU2Element, SB2Element, SL2Element, AlgebraElement):
        counted(cls, "__init__", lambda args: type(args[0]).__name__)
    for module in (groups, dynamics):
        counted(module, "_wrap", lambda args: args[0].__name__)
    for owner, name in extra:
        counted(owner, name, lambda args, name=name: name)


@pytest.mark.parametrize("make, y", [
    (lambda: sl2c_flat_field(1.3), [0.5, -0.2, 1.1, 0.3, -0.4, 0.9, 0.7, -0.6]),
    (lambda: noncasimir_flat_field(), [0.6, 0.0, 0.0, 0.8, 1.3, 0.4, -0.2]),
    (lambda: perturbed_flat_field(1.3, 0.1), [0.6, 0.0, 0.0, 0.8, 1.3, 0.4, -0.2]),
    (lambda: momenta_su2_flat_field(0.6, 0.8j, 1.3), [1.3, 0.4, -0.2]),
    (lambda: rotator_flat_field([0.4, -0.3, 0.8], 1.3), [0.0, -0.6, 0.8, 1.0, 0.0, 0.0,
                                                          0.0, 0.8, 0.6]),
    (lambda: action_angle_flat_field([1.0, 2.0], freq=[0.3, -1.7]), [1.0, 2.0, 0.1, 0.2]),
], ids=["sl2c", "noncasimir", "perturbed", "momenta_su2", "rotator", "action_angle_freq"])
def test_float_fields_call_no_numpy_per_evaluation(make, y, monkeypatch):
    field = make()
    rate = list(field(*y))
    monkeypatch.setattr(dynamics, "np", NoNumpy())
    assert list(field(*y)) == rate and len(rate) == len(y)


@pytest.mark.parametrize("p, F", [([1e150, 0.0, 0.0], 1e10), ([1.0, 0.0, 0.0], math.inf),
                                  ([1.0, 0.0, 0.0], math.nan), ([0.0, 0.0, 0.0], math.inf)])
def test_rotator_field_checks_F_p_when_built_as_the_flow_does(p, F):
    # the field once built with inf or NaN entries (after a numpy warning)
    # and failed only at the first RK4 step
    for build in (lambda: rotator_flow(np.eye(3), p, F), lambda: rotator_flat_field(p, F)):
        with pytest.raises(ValueError, match=r"^F must be finite and keep \|F p\|\^2 finite$"):
            build()


def test_rotator_flow_examples():
    g0 = np.eye(3)
    st = rotator_flow(g0, np.zeros(3), 1.0)(5.0)
    np.testing.assert_allclose(st.g, g0)
    st = rotator_flow(g0, (0.0, 0.0, 1.0), 1.0)(0.7)
    c, s = math.cos(0.7), math.sin(0.7)
    np.testing.assert_allclose(st.g, [[c, -s, 0], [s, c, 0], [0, 0, 1]], atol=1e-14)
    st2 = rotator_flow(g0, (0.0, 0.0, 1.0), 2.0)(0.35)
    np.testing.assert_allclose(st2.g, st.g, atol=1e-14)  # F scales the angle
    with pytest.raises(MembershipError):
        rotator_flow(np.diag([2.0, 1.0, 0.5]), (1.0, 0.0, 0.0), 1.0)(1.0)


@pytest.mark.parametrize("p", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]]])
def test_rotator_takes_p_as_a_3_vector(p):
    # a 4-vector p once gave a g 0.022 off orthogonal, and a 2-vector an IndexError
    for build in (lambda: rotator_flow(np.eye(3), p, 1.0), lambda: rotator_flat_field(p, 1.0)):
        with pytest.raises(ValueError, match=r"^p must be finite and of shape \(3,\)$"):
            build()


# forms of input that no caller uses are gone: F as a callable, the "so3"
# and "sl2c" algebra kinds, and "sl2" as a second name of SL(2,C)
@pytest.mark.parametrize("build, error, match", [
    (lambda f: casimir_flow(SU2Element.identity(), SB2Element(2.0, 1.0), f), TypeError, None),
    (lambda f: rotator_flow(np.eye(3), [0.0, 0.0, 1.0], f), TypeError, None),
    (lambda f: rotator_flat_field([0.0, 0.0, 1.0], f), TypeError, None),
    (lambda f: momenta_su2_flow(SB2Element(2.0, 1.0), 0.6, 0.8j, f), TypeError, None),
    (lambda f: momenta_su2_flat_field(0.6, 0.8j, f), TypeError, None),
    (lambda f: perturbed_flow(SU2Element.identity(), SB2Element(2.0, 1.0), f, 0.1),
     TypeError, None),
    (lambda f: perturbed_velocity(SB2Element(2.0, 1.0), f, 0.1, 1.0), TypeError, None),
    (lambda f: perturbed_flat_field(f, 0.1), TypeError, None),
    (lambda f: sl2c_flat_field(f), TypeError, None),
    (lambda f: AlgebraElement("so3", [1.0, 2.0, 3.0]), MembershipError,
     "^unknown algebra kind 'so3'$"),
    (lambda f: AlgebraElement("sl2c", np.diag([1.0, -1.0])), MembershipError,
     "^unknown algebra kind 'sl2c'$"),
    (lambda f: random_element("sl2", 0), MembershipError, "^unknown group kind 'sl2'$"),
], ids=["casimir_flow", "rotator_flow", "rotator_flat_field", "momenta_su2_flow",
        "momenta_su2_flat_field", "perturbed_flow", "perturbed_velocity",
        "perturbed_flat_field", "sl2c_flat_field", "so3", "sl2c", "sl2"])
def test_removed_input_forms_are_rejected(build, error, match):
    with pytest.raises(error, match=match):
        build(lambda *args: 1.0)


def test_interaction_picture_examples():
    g0 = random_element("su2", 12)
    a0 = AlgebraElement("su2", np.array([[0.6j, 0.2 + 0.1j], [-0.2 + 0.1j, -0.6j]]))
    x0 = AlgebraElement("su2", np.zeros((2, 2)))
    lhs = interaction_picture_flow(g0, x0, a0)(2.0)
    rhs = g0 @ exp_group(AlgebraElement("su2", 2.0 * a0.value))
    np.testing.assert_allclose(lhs.as_matrix(), rhs.as_matrix(), atol=1e-13)
    x = AlgebraElement("su2", np.diag([0.4j, -0.4j]))
    lhs = interaction_picture_flow(g0, x, x0)(3.0)
    np.testing.assert_allclose(lhs.as_matrix(), g0.as_matrix(), atol=1e-13)
    # commuting X and A0 collapse to a single exponential
    a_diag = AlgebraElement("su2", np.diag([-0.7j, 0.7j]))
    lhs = interaction_picture_flow(g0, x, a_diag)(2.5)
    rhs = g0 @ exp_group(AlgebraElement("su2", 2.5 * a_diag.value))
    np.testing.assert_allclose(lhs.as_matrix(), rhs.as_matrix(), atol=1e-12)
    # the generators are checked when the flow is built
    sb2 = AlgebraElement("sb2", np.array([[0.1, 0], [0, -0.1]]))
    with pytest.raises(MembershipError, match="^A0 must be an su2 AlgebraElement"):
        interaction_picture_flow(g0, x, sb2)
    with pytest.raises(MembershipError, match="^X must be an su2 AlgebraElement"):
        interaction_picture_flow(g0, x.value, a0)


def test_interaction_picture_matches_perturbed_factorization():
    g0, u0, lam = random_element("su2", 13), SB2Element(2.0, 1.0 - 0.5j), 0.2
    X = np.diag([-0.25j * lam * u0.r, 0.25j * lam * u0.r])
    a0 = AlgebraElement("su2", legendre_map(u0, 1.0).value - X)
    at = interaction_picture_flow(g0, AlgebraElement("su2", X), a0)
    for t in (0.5, 2.0):
        rhs = perturbed_flow(g0, u0, 1.0, lam)(t).g
        np.testing.assert_allclose(at(t).as_matrix(), rhs.as_matrix(), atol=1e-13)


def test_interaction_picture_accepts_every_t_of_a_near_su2_generator():
    # X is su2 only to round-off (defect 2e-13): t·(X + A0) failed the su2
    # check at t = 20, though the flow's element is in SU(2) there
    g0 = random_element("su2", 15)
    X = np.diag([0.25j + 1e-13, -0.25j - 1e-13])
    A0 = np.array([[-0.7j, 0.1], [-0.1, 0.7j]])
    at = interaction_picture_flow(g0, AlgebraElement("su2", X), AlgebraElement("su2", A0))
    frame = _rotating_frame(g0, X + A0, X)  # the parts at(t) wraps
    for t in (20.0, 100.0):
        g = at(t)
        assert repr((g.alpha, g.nu)) == repr(frame(t))


def test_commuting_quadrature_constant_path():
    g0 = random_element("su2", 14)
    L = AlgebraElement("su2", np.array([[0.3j, 0.4], [-0.4, -0.3j]]))
    got = commuting_quadrature_flow(g0, lambda s: L, 2.5)
    want = g0 @ exp_group(AlgebraElement("su2", 2.5 * L.value))
    assert np.max(np.abs(got.as_matrix() - want.as_matrix())) < 1e-10


def commutator_sq(x, y):
    """|x_i y_j - x_j y_i|² on Python floats, for x = (x_i, x_j) and y = (y_i, y_j) complex."""
    (xi, xj), (yi, yj) = x, y
    re = (xi.real * yj.real - xi.imag * yj.imag) - (xj.real * yi.real - xj.imag * yi.imag)
    im = (xi.real * yj.imag + xi.imag * yj.real) - (xj.real * yi.imag + xj.imag * yi.real)
    return re * re + im * im


def closed_form_norm(x, y):
    """‖[x, y]‖ of 2x2 matrices from the entries b, c and e = d - a, pair by pair on Python floats."""
    (a1, b1), (c1, d1) = np.asarray(x, dtype=complex).tolist()
    (a2, b2), (c2, d2) = np.asarray(y, dtype=complex).tolist()
    b, c, e = (b1, b2), (c1, c2), (d1 - a1, d2 - a2)
    return math.sqrt(2.0 * commutator_sq(b, c) + commutator_sq(b, e) + commutator_sq(c, e))


def brute_force_guard(mats, nodes):
    worst, pair = 0.0, (0.0, 0.0)
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            nrm = closed_form_norm(mats[i], mats[j])
            if nrm > worst:
                worst, pair = nrm, (nodes[i], nodes[j])
    return worst, pair


def twisted(s):
    return np.array([[0.5j * math.cos(s), 0.3 * math.sin(s) + 0.1j * s],
                     [-0.3 * math.sin(s) + 0.1j * s, -0.5j * math.cos(s)]])


def assert_guard_matches_brute_force(mats, nodes):
    worst, pair = brute_force_guard(mats, nodes)
    if worst > 0.0:
        with pytest.raises(CommutativityError) as err:
            _commutator_guard(mats, nodes, 0.0)
        assert err.value.max_norm == worst
        assert err.value.pair == pair
    _commutator_guard(mats, nodes, worst)


def test_commutator_guard_matches_brute_force_loop():
    nodes = np.linspace(0.0, 3.0, 33)
    mats = [twisted(s) for s in nodes]
    worst, pair = brute_force_guard(mats, nodes)
    with pytest.raises(CommutativityError) as err:
        _commutator_guard(mats, nodes, 1e-9)
    assert err.value.max_norm == worst
    assert err.value.pair == pair
    _commutator_guard(mats, nodes, 1.01 * worst)   # worst norm below tol: no error
    # ties: the first worst pair in (i, j) loop order wins
    a, b = mats[0], mats[20]
    tied = [a, b, a, b, a]
    worst, pair = brute_force_guard(tied, nodes[:5])
    assert pair == (nodes[0], nodes[1])
    with pytest.raises(CommutativityError) as err:
        _commutator_guard(tied, nodes[:5], 0.0)
    assert err.value.pair == pair
    # a tie whose first worst pair is in row 1 and recurs in rows 2 and 3:
    # 0.7·I commutes exactly with every sample, so row 0 is all zeros
    tied = [0.7 * np.eye(2, dtype=complex), a, b, a, b]
    assert brute_force_guard(tied, nodes[:5])[1] == (nodes[1], nodes[2])
    assert_guard_matches_brute_force(tied, nodes[:5])
    # the guard takes 16 rows at a time: a tie recurring in later blocks, and
    # a first worst pair in the second block after 20 rows of exact zeros
    assert_guard_matches_brute_force([a, b] * 20, np.linspace(0.0, 3.0, 40))
    tied = [0.7 * np.eye(2, dtype=complex)] * 20 + [a, b, a, b]
    assert brute_force_guard(tied, nodes[:24])[1] == (nodes[20], nodes[21])
    assert_guard_matches_brute_force(tied, nodes[:24])
    # entries near 1e200: products of two big samples overflow to a NaN norm,
    # so row 0 mixes NaN with finite norms and row 4 is all NaN
    big = [1e200 * twisted(s) for s in nodes[1:4]]
    small = [1e-195 * twisted(s) for s in nodes[4:6]]
    stack = [big[0], big[1], *small, big[2], 1e200 * b]
    assert math.isnan(closed_form_norm(stack[0], stack[1]))
    assert math.isnan(closed_form_norm(stack[4], stack[5]))
    assert_guard_matches_brute_force(stack, nodes[:6])
    assert_guard_matches_brute_force([np.zeros((2, 2))] * 14 + stack, nodes[:20])  # across two blocks
    # stacks of 1 and 2 samples
    assert_guard_matches_brute_force(mats[:1], nodes[:1])
    assert_guard_matches_brute_force(mats[:2], nodes[:2])
    assert_guard_matches_brute_force([a, a], nodes[:2])
    # commuting samples: multiples of one matrix, and of the identity
    _commutator_guard([k * a for k in range(5)], nodes[:5], 0.0)
    _commutator_guard([k * np.eye(2) for k in range(5)], nodes[:5], 0.0)
    # 33 copies of one real matrix: every commutator is exactly 0 (or NaN
    # past overflow) at any scale
    rng = np.random.default_rng(9)
    for scale in np.logspace(-300, 200, 50):
        for _ in range(16):
            _commutator_guard([scale * rng.standard_normal((2, 2))] * 33, nodes, 0.0)


@pytest.mark.parametrize("kind", ["su2", "sb2"])
def test_commutator_guard_norm_is_the_commutators_frobenius_norm(kind):
    # an independent check of the closed form: 200 seeded pairs of each algebra
    rng = np.random.default_rng(38)
    for _ in range(200):
        x, y = rng.standard_normal((2, 3))
        if kind == "su2":  # [[i·p, q], [-conj q, -i·p]]
            m = [np.array([[1j * v[0], complex(v[1], v[2])], [complex(-v[1], v[2]), -1j * v[0]]]) for v in (x, y)]
        else:  # [[s, w], [0, -s]], s real
            m = [np.array([[v[0], complex(v[1], v[2])], [0.0, -v[0]]]) for v in (x, y)]
        with pytest.raises(CommutativityError) as err:
            _commutator_guard(m, (0.0, 1.0), 0.0)
        want = np.linalg.norm(m[0] @ m[1] - m[1] @ m[0])
        assert err.value.max_norm == pytest.approx(want, rel=1e-14, abs=0.0)


def test_commutator_guard_rejects_a_stack_that_is_not_2x2():
    nodes = np.linspace(0.0, 1.0, 5)
    for mats in ([np.eye(3)] * 5, [np.eye(1)] * 5, np.zeros((5, 2, 3)), np.zeros(5)):
        with pytest.raises(ValueError, match="2x2"):
            _commutator_guard(mats, nodes, 0.0)


def test_commutator_guard_memory_grows_linearly_in_samples():
    # 513 samples: all S x S commutators at once take 42 MiB, one row at a time 0.16 MiB
    nodes = np.linspace(0.0, 3.0, 513)
    mats = [twisted(s) for s in nodes]
    tracemalloc.start()
    try:
        _commutator_guard(mats, nodes, math.inf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_commuting_quadrature_argument_validation():
    L = AlgebraElement("su2", np.diag([0.1j, -0.1j]))
    with pytest.raises(ValueError):
        commuting_quadrature_flow(SU2Element.identity(), lambda s: L, 1.0, samples=4)
    with pytest.raises(ValueError):
        commuting_quadrature_flow(SU2Element.identity(), lambda s: L, 1.0, samples=1)
    # a count that is not an integer was truncated (33.7 samples ran as 33)
    for samples in (33.7, 5.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="^samples must be an odd count >= 3$"):
            commuting_quadrature_flow(SU2Element.identity(), lambda s: L, 1.0, samples=samples)
    g = commuting_quadrature_flow(SU2Element.identity(), lambda s: L, 1.0, samples=33.0)
    h = commuting_quadrature_flow(SU2Element.identity(), lambda s: L, 1.0, samples=33)
    assert (g.alpha, g.nu) == (h.alpha, h.nu)

    def mixed(s):
        if s < 0.5:
            return AlgebraElement("su2", np.diag([0.1j, -0.1j]))
        return AlgebraElement("sb2", np.array([[0.1, 0.0], [0.0, -0.1]]))

    with pytest.raises(MembershipError):
        commuting_quadrature_flow(SU2Element.identity(), mixed, 1.0)


def test_action_angle_frequency_variant():
    st = action_angle_flow([0.7, 1.1], [0.2, 0.4], freq=2.0 * np.array([0.7, 1.1]))(3.0)
    np.testing.assert_allclose(st.I, [0.7, 1.1])
    np.testing.assert_allclose(st.phi, np.array([0.2, 0.4]) + 6.0 * np.array([0.7, 1.1]))
    np.testing.assert_allclose(st.phi_mod, np.mod(st.phi, 2 * np.pi))
    assert np.all(st.phi_mod >= 0) and np.all(st.phi_mod < 2 * np.pi)
    st = action_angle_flow([1.0], [0.0], [0.5])(4.0)
    assert st.phi[0] == pytest.approx(2.0)


def test_action_angle_constant_matrix():
    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    st = action_angle_flow([1.0], [1.0, 0.0], matrix=a)(2.0)
    np.testing.assert_allclose(st.phi, scipy.linalg.expm(2.0 * a) @ [1.0, 0.0], atol=1e-12)
    # diagonal constant matrix: componentwise exponential growth
    d = np.diag([0.3, -0.2])
    st = action_angle_flow([1.0], [1.0, 2.0], matrix=d)(1.5)
    np.testing.assert_allclose(st.phi, [math.exp(0.45), 2.0 * math.exp(-0.3)], atol=1e-12)


def test_action_angle_argument_validation():
    at = action_angle_flow([1.0], [0.0], matrix=np.zeros((1, 1)))
    with pytest.raises(ValueError):
        at(-1.0)
    assert at(0.0).phi[0] == 0.0
    for freq, matrix in ((None, None), ([1.0], np.zeros((1, 1)))):
        with pytest.raises(ValueError, match="exactly one of freq, matrix"):
            action_angle_flow([1.0], [0.0], freq, matrix)


# (id, args, kwargs): each breaks one rule on the argument the id starts with
ACTION_ANGLE_BAD = [
    ("freq-shorter-than-phi0", ([1.0], [0.0, 1.0]), {"freq": [1.0]}),
    ("freq-nan", ([1.0], [0.0]), {"freq": [math.nan]}),
    ("freq-2d", ([1.0], [0.0]), {"freq": [[1.0]]}),
    ("matrix-wrong-size", ([1.0], [0.0, 1.0]), {"matrix": np.eye(3)}),
    ("matrix-1d", ([1.0], [0.0]), {"matrix": [1.0]}),
    ("matrix-inf", ([1.0], [0.0]), {"matrix": [[math.inf]]}),
    ("I0-nan", ([math.nan], [0.0]), {"freq": [1.0]}),
    ("I0-2d", ([[1.0]], [0.0]), {"freq": [1.0]}),
    ("phi0-scalar", ([1.0], 0.0), {"freq": [1.0]}),
    ("phi0-inf", ([1.0], [0.0, math.inf]), {"freq": [1.0, 1.0]}),
    ("phi0-ragged", ([1.0], [[0.0], [1.0, 2.0]]), {"freq": [1.0]}),
]


@pytest.mark.parametrize("case, args, kwargs", ACTION_ANGLE_BAD,
                         ids=[case for case, _, _ in ACTION_ANGLE_BAD])
def test_action_angle_flow_checks_inputs_when_built(case, args, kwargs):
    # at the parent these spread one frequency over two angles, returned NaN
    # rows, or failed only at the first t > 0
    with pytest.raises(ValueError, match=f"^{case.split('-')[0]} must be"):
        action_angle_flow(*args, **kwargs)


def test_systems_flow_values():
    # each system's flow through SYSTEMS, every param given
    g0, u0 = random_element("su2", 16), random_element("sb2", 16)
    (row,), _ = sampled("casimir_sl2c", {"g0": g0, "u0": u0, "F": 1.0}, [1.0])
    assert row[8:] == pytest.approx([free_hamiltonian(SL2Element(*flat_to_z(row))), 1.0, 0.0])
    (row,), _ = sampled("rotator", {"g0": np.eye(3), "p": [0.0, 0.0, 1.0], "F": 1.0}, [0.5])
    assert len(row) == 13 and row[9:] == [0.0, 0.0, 1.0, 1.0]
    (row,), _ = sampled("momenta_su2", {"u0": SB2Element.identity(), "alpha": 0.0, "nu": 1.0,
                                        "F": 1.0}, [1.0])
    assert row[0] == pytest.approx(math.exp(-0.5)) and row[3] == 1.0
    (row,), _ = sampled("noncasimir_h", {"u0": u0, "alpha0": g0.alpha, "nu0": g0.nu}, [1.0])
    assert row[4] == u0.r and row[7] == 0.5 * abs(g0.nu) ** 2
    (row,), _ = sampled("perturbed", {"g0": SU2Element.identity(), "u0": u0, "F": 1.0,
                                      "lam": 0.1}, [1.0])
    assert row[4] == u0.r and row[7] == pytest.approx(abs(u0.gamma))
    (row,), _ = sampled("action_angle", {"I0": [1.0], "phi0": [0.0], "freq": [2.0],
                                         "matrix": None}, [1.5])
    assert row == pytest.approx([1.0, 3.0, 3.0])


def test_conservation_along_oracle_with_projection():
    # H0 and det drift below 1e-8, and the projected momenta stay frozen
    rng = np.random.default_rng(17)
    a0 = random_element("sl2c", rng)
    traj = rk4_integrate(sl2c_flat_field(1.0), z_to_flat(a0.z1, a0.z2, a0.z3, a0.z4),
                         0.0, 10.0, 1e-3)

    def h0(y):
        return 0.5 * sum(abs(c) ** 2 for c in flat_to_z(y))

    def det_dev(y):
        z = flat_to_z(y)
        return abs(z[0] * z[3] - z[1] * z[2])

    rep = drift_report(traj, ("H0", "det"), lambda y: (h0(y), det_dev(y)))
    assert rep["H0"][1] < 1e-8
    assert rep["det"][1] < 1e-8
    # the projection is read along a strided run: the full run's every 500th state
    strided = rk4_integrate(sl2c_flat_field(1.0), traj.states[0], 0.0, 10.0, 1e-3, 500)
    assert strided.states.tobytes() == traj.states[::500].tobytes()
    _, u0 = iwasawa_gu(a0)
    for y in strided.states:
        _, u = iwasawa_gu(SL2Element(*flat_to_z(y)))
        assert abs(u.r - u0.r) < 1e-8
        assert abs(u.gamma - u0.gamma) < 1e-8


def reference_state(system, p, t):
    """Per-t reference for the closed-form flows: rebuilds the generator at every t
    and goes through the validated AlgebraElement and exp_group path; the
    rotator's is the axis-angle formula with 2-D @, and the fiber's one
    scipy.linalg.expm per t.
    """
    t = float(t)
    if system == "casimir_sl2c":
        L = legendre_map(p["u0"], p["F"]).value
        return FlowState(t, g=p["g0"] @ exp_group(AlgebraElement("su2", t * L)), u=p["u0"])
    if system == "rotator":
        pv = np.asarray(p["p"], dtype=float)
        fp = p["F"] * pv
        theta, kt = float(np.linalg.norm(fp)) * abs(t), hat3(fp) * t
        if theta < 1e-8:  # the second-order series
            rot = np.eye(3) + kt + 0.5 * (kt @ kt)
        else:
            a, b = math.sin(theta) / theta, (1.0 - math.cos(theta)) / (theta * theta)
            rot = np.eye(3) + a * kt + b * (kt @ kt)
        return FlowState(t, g=np.asarray(p["g0"], dtype=float) @ rot, p=pv.copy())
    if system == "momenta_su2":
        L = _momenta_su2_generator(p["alpha"], p["nu"], p["F"])
        u = exp_group(AlgebraElement("sb2", t * L)) @ p["u0"]
        return FlowState(t, u=u, alpha=p["alpha"], nu=p["nu"])
    if system == "noncasimir_h":
        u0, alpha0, nu0 = p["u0"], p["alpha0"], p["nu0"]
        if nu0 == 0:
            return FlowState(t, u=u0, alpha=alpha0, nu=nu0)
        w = abs(nu0) ** 2
        alpha_t = alpha0 * cmath.exp(0.5j * w * t)
        loop = 2j * math.sin(0.25 * w * t) * cmath.exp(-0.25j * w * t)
        gamma_t = u0.gamma + alpha0.conjugate() * nu0.conjugate() / (u0.r * w) * loop
        return FlowState(t, u=SB2Element(u0.r, gamma_t), alpha=alpha_t, nu=nu0)
    if system == "perturbed":
        u0, lam = p["u0"], p["lam"]
        X = _perturbed_x(lam, u0.r)
        g = (p["g0"] @ exp_group(AlgebraElement("su2", t * legendre_map(u0, p["F"]).value))
             @ exp_group(AlgebraElement("su2", -t * X)))
        gamma_t = u0.gamma * cmath.exp(-0.5j * lam * u0.r * t)
        return FlowState(t, g=g, u=SB2Element(u0.r, gamma_t))
    I0, phi0 = np.asarray(p["I0"], dtype=float), np.asarray(p["phi0"], dtype=float)
    if p.get("matrix") is None:
        phi = phi0 + np.asarray(p["freq"], dtype=float) * t
    elif t == 0.0:
        phi = phi0.copy()
    else:
        _, weights = simpson_rule(0.0, t, 32)
        mats = [np.asarray(p["matrix"], dtype=float)] * 33
        phi = scipy.linalg.expm(sum(w * m for w, m in zip(weights, mats))) @ phi0
    return FlowState(t, I=I0.copy(), phi=phi, phi_mod=np.mod(phi, 2.0 * np.pi))


def state_row(system, st):
    """The row a FlowState gives under the rows contract: its flat state, then its
    invariant columns, built here from the state's fields."""
    if system == "casimir_sl2c":  # g·u by 2-D @, not by the block's gu_products
        z = (st.g.as_matrix() @ st.u.as_matrix()).ravel().tolist()
        return z_to_flat(*z) + _casimir_invariants(*z)
    if system == "rotator":  # |p| from p, not from FlowState.p_norm
        return [*st.g.ravel().tolist(), *st.p.tolist(), float(np.linalg.norm(st.p))]
    if system == "momenta_su2":
        return [st.u.r, st.u.gamma.real, st.u.gamma.imag, abs(st.alpha) ** 2 + abs(st.nu) ** 2]
    if system == "noncasimir_h":
        return [*_flat_double(st.alpha, st.nu, st.u), 0.5 * abs(st.nu) ** 2]
    if system == "perturbed":
        return [*_flat_double(st.g.alpha, st.g.nu, st.u), abs(st.u.gamma)]
    return [*st.I.tolist(), *st.phi.tolist(), *st.phi_mod.tolist()]


def reference_row(system, p, t):
    return [t, *state_row(system, reference_state(system, p, t))]


# the public *_flow of each system, called with its SYSTEMS params
FLOWS = {
    "casimir_sl2c": lambda p: casimir_flow(p["g0"], p["u0"], p["F"]),
    "rotator": lambda p: rotator_flow(p["g0"], p["p"], p["F"]),
    "momenta_su2": lambda p: momenta_su2_flow(p["u0"], p["alpha"], p["nu"], p["F"]),
    "noncasimir_h": lambda p: noncasimir_flow(p["u0"], p["alpha0"], p["nu0"]),
    "perturbed": lambda p: perturbed_flow(p["g0"], p["u0"], p["F"], p["lam"]),
    "action_angle": lambda p: action_angle_flow(p["I0"], p["phi0"], p["freq"], p["matrix"]),
}


def rotation(p, t=1.0):
    """The rotation by angle |p|·t about p/|p|, as the rotator's flow forms it."""
    return rotator_flow(np.eye(3), p, 1.0)(t).g


def test_hat3_cross_product():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p, q = rng.standard_normal(3), rng.standard_normal(3)
        np.testing.assert_allclose(hat3(p) @ q, np.cross(p, q), atol=1e-14)


def test_rodrigues3_matches_expm():
    worst = 0.0
    for k in range(50):
        rng = np.random.default_rng(k)
        p = rng.standard_normal(3)
        t = float(rng.uniform(-5, 5))
        worst = max(worst, float(np.max(np.abs(
            rotation(p, t) - scipy.linalg.expm(hat3(p) * t)))))
    assert worst < 1e-12


def test_rodrigues3_small_angle_series():
    p = np.array([1e-5, -2e-5, 3e-5])
    r = rotation(p, 1e-5)
    np.testing.assert_allclose(r, scipy.linalg.expm(hat3(p) * 1e-5), atol=1e-15)
    np.testing.assert_allclose(rotation(np.zeros(3), 2.0), np.eye(3))


def test_rodrigues3_is_rotation():
    for k in range(50):
        rng = np.random.default_rng(k)
        r = rotation(rng.standard_normal(3), float(rng.uniform(0, 10)))
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-13)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-13)


def sampler_params(system, seed):
    """Seeded params, and for seed 0 plain ones: identities, real or zero entries; the fiber's
    phi0 holds a -0.0, which its t = 0 row keeps."""
    rng = np.random.default_rng(seed)
    g0, u0, m = random_element("su2", rng), random_element("sb2", rng), random_element("su2", rng)
    F, lam = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.05, 0.5))
    if seed == 0:
        g0, u0, m = SU2Element.identity(), SB2Element(2.0, 0.0), SU2Element(0.6, 0.8)
    a = np.array([[0.1, -1.0, 0.2], [1.3, 0.2, 0.0], [0.0, 0.4, -0.3]])
    return {
        "casimir_sl2c": {"g0": g0, "u0": u0, "F": F},
        "rotator": {"g0": rotation(rng.standard_normal(3)),
                    "p": [0.0, 0.0, 1.5] if seed == 0 else rng.standard_normal(3), "F": F},
        "momenta_su2": {"u0": u0, "alpha": m.alpha, "nu": m.nu, "F": F},
        "noncasimir_h": {"u0": u0, "alpha0": m.alpha, "nu0": m.nu},
        "perturbed": {"g0": g0, "u0": u0, "F": F, "lam": lam},
        "action_angle_freq": {"I0": [0.5, 1.5, 0.7], "phi0": rng.uniform(0.0, 6.3, 3),
                              "freq": rng.uniform(-2.0, 2.0, 3), "matrix": None},
        "action_angle_matrix": {"I0": [1.0], "phi0": [1.0, -0.0, -0.2], "freq": None,
                                "matrix": (1.0 + seed) * a},
    }[system]


# t = 0 and -0; 1e-9 takes the rotator's theta < 1e-8 branch and 2e-8 the
# sinhc series (|delta| < 1e-6) of the su2 and sb2 exponentials
SAMPLER_TIMES = [0.0, -0.0, 1e-12, 1e-9, 2e-8, 0.01, 0.37, 1.0, 2.5, 10.0, 123.4, -0.7]


SAMPLER_CASES = ["casimir_sl2c", "rotator", "momenta_su2", "noncasimir_h", "perturbed",
                 "action_angle_freq", "action_angle_matrix"]
BLOCK_SIZES = (1, 2, BLOCK, BLOCK + 1)


@pytest.mark.parametrize("case", SAMPLER_CASES)
def test_sampler_rows_pinned_bitwise_to_per_row_reference(case):
    # SAMPLER_TIMES cut into blocks of every size in BLOCK_SIZES at four
    # seeds, and at two of them the first 1, 2, BLOCK and BLOCK + 1 times of
    # a grid as one block each, against reference_row one t at a time; and
    # the rows of the public at(t)'s FlowStates against the same bytes
    system = case[:12] if case.startswith("action_angle") else case
    grid = [j * 0.01 for j in range(BLOCK + 1)]
    for seed in range(4):
        p = sampler_params(case, seed)
        sample, at = SYSTEMS[system].sample(p), FLOWS[system](p)
        for times in (SAMPLER_TIMES, grid)[:2 if seed < 2 else 1]:
            if case == "action_angle_matrix":
                times = [t for t in times if math.copysign(1.0, t) > 0]
            want = [np.array(reference_row(system, p, t)).tobytes() for t in times]
            assert want == [np.array([t, *state_row(system, at(t))]).tobytes() for t in times]
            for size in BLOCK_SIZES:
                for start in range(0, len(times), size) if len(times) < BLOCK else [0]:
                    block = times[start:start + size]
                    rows, err = sample(block)
                    assert err is None, (case, seed, size, block[len(rows)])
                    got = [np.array([t, *row]).tobytes() for t, row in zip(block, rows)]
                    wrong = [t for t, row, ref in zip(block, got, want[start:]) if row != ref]
                    assert len(got) == len(block) and not wrong, (case, seed, size, wrong[:3])
        assert takes_small_angle_branch(system, p)


@pytest.mark.parametrize("case", SAMPLER_CASES)
def test_sampler_rows_at_extreme_t_are_finite_or_raise(case):
    # a row past the floats raises rather than returning inf or NaN (the
    # rotator at +-1e308, action_angle at NaN and +-inf, and the fiber matrix
    # at 1e308, once did), and with no numpy warning first; a block returns
    # the rows ahead of its first such t and that t's own error, not raising;
    # the public at(t) raises that error, or gives that row from its FlowState
    system = case[:12] if case.startswith("action_angle") else case
    times = [1.0, math.nan, 0.5, math.inf, -math.inf, 1e308, 2.0, -1e308]
    for seed in range(4):
        p = sampler_params(case, seed)
        sample, at = SYSTEMS[system].sample(p), FLOWS[system](p)
        alone = [sample([t])[1] for t in times]  # each t's own error, or None
        for t, e in zip(times, alone):
            try:
                got = np.array(state_row(system, at(t))).tobytes()
            except ValueError as at_err:
                got = repr(at_err)
            assert got == (repr(e) if e else np.array(sample([t])[0][0]).tobytes()), (case, t)
        for size in BLOCK_SIZES:
            for start in range(0, len(times), size):
                block, errs = times[start:start + size], alone[start:start + size]
                rows, err = sample(block)
                k = next((i for i, e in enumerate(errs) if e is not None), len(block))
                assert len(rows) == k and repr(err) == repr(errs[k] if errs[k:] else None)
                assert all(all(map(math.isfinite, row)) for row in rows), (case, seed, block)


def first_overflowing_t(m):
    """The least positive float t at which t·max|m| (over the parts of m's entries) overflows."""
    top = max(abs(x) for z in np.ravel(m).tolist() for x in (z.real, z.imag))
    t = math.nextafter(sys.float_info.max / top, 0.0)  # t·top is below the largest float
    while math.isfinite(t * top):
        t = math.nextafter(t, math.inf)
    return t


ROW_U0, ROW_X = SB2Element(1.0, 0.5), AlgebraElement("su2", _perturbed_x(0.1, 1.0))
# system -> (F -> sampler, F -> the generator whose multiples t·m a row exponentiates)
SU2_SB2_ROWS = {
    "casimir": (lambda F: casimir_flow(SU2Element.identity(), ROW_U0, F),
                lambda F: legendre_map(ROW_U0, F).value),
    "perturbed": (lambda F: perturbed_flow(SU2Element.identity(), ROW_U0, F, 0.1),
                  lambda F: legendre_map(ROW_U0, F).value),
    "interaction": (
        lambda F: interaction_picture_flow(SU2Element.identity(), ROW_X, AlgebraElement(
            "su2", legendre_map(ROW_U0, F).value - ROW_X.value)),
        lambda F: ROW_X.value + (legendre_map(ROW_U0, F).value - ROW_X.value)),
    "momenta_su2": (lambda F: momenta_su2_flow(ROW_U0, 0.6, 0.8j, F),
                    lambda F: _momenta_su2_generator(0.6, 0.8j, F)),
}
# the SU(2) and SB(2,C) rows test no t·max|m| bound before they exponentiate:
# a t·m past the floats must still be the exponential's ValueError
ROW_PAST_THE_FLOATS = {
    f"{name}_t_{label}": (lambda flow=flow, t=t: flow(1.0)(t), "^non-finite matrix entry$")
    for name, (flow, _) in SU2_SB2_ROWS.items()
    for label, t in (("inf", math.inf), ("-inf", -math.inf), ("nan", math.nan),
                     ("-1e308", -1e308))
}
ROW_PAST_THE_FLOATS.update({
    f"{name}_F_1e10_first_overflowing_t": (
        lambda flow=flow, gen=gen: flow(1e10)(first_overflowing_t(gen(1e10))),
        "^non-finite matrix entry$")
    for name, (flow, gen) in SU2_SB2_ROWS.items()
})
# one phi entry past the floats, the other finite
ROW_PAST_THE_FLOATS["freq_one_entry_overflows"] = (
    lambda: action_angle_flow([1.0], [0.5, 0.1], freq=[1e300, 1.0])(1e10), "finite floats")


# warnings are errors in this suite, so a numpy RuntimeWarning raised ahead of
# the ValueError fails these (each of them once did)
@pytest.mark.parametrize("call, match", [
    (lambda: action_angle_flow([1.0], [0.5], matrix=[[0.3]])(1e308), "finite floats"),
    (lambda: action_angle_flow([1.0], [0.5, 0.1], freq=[0.0, 1.0])(math.inf), "finite floats"),
    (lambda: legendre_map(SB2Element(1e200, 0.0), 1.0), "non-finite matrix entry"),
    (lambda: casimir_flow(SU2Element.identity(), SB2Element(1e200, 0.0), 1.0),
     "non-finite matrix entry"),
    (lambda: legendre_map(SB2Element(1e10, 0.0), 1e308), "non-finite matrix entry"),
    # an entry past the floats in the Legendre pair (a ZeroDivisionError, an
    # OverflowError, or a numpy warning before a MembershipError, each once)
    (lambda: legendre_map(SB2Element(1e-200, 0.0), 1.0), "non-finite matrix entry"),
    (lambda: legendre_map(SB2Element(1.0, 1e200), 1.0), "non-finite matrix entry"),
    (lambda: perturbed_flow(SU2Element.identity(), SB2Element(1e-200, 0.0), 1.0, 0.1),
     "non-finite matrix entry"),
    (lambda: legendre_invert(su2_of(0.0, 1e200)), "non-finite matrix entry"),
    (lambda: legendre_invert(su2_of(1e200, 0.0)), "non-finite matrix entry"),
    (lambda: legendre_invert(su2_of(1e200, 0.0), unreduced=True), "non-finite matrix entry"),
    # X + A0 was a bare numpy add: an overflow warning, then the rows' checks
    (lambda: interaction_picture_flow(SU2Element.identity(), *[AlgebraElement(
        "su2", np.diag([1e308j, -1e308j]))] * 2), "^non-finite matrix entry$"),
    # the free Hamiltonian's squares, r^-2 or their sum past the floats (an
    # OverflowError, or an infinite value returned)
    (lambda: free_hamiltonian(SB2Element(1e-200, 0.0)), "^non-finite matrix entry$"),
    (lambda: free_hamiltonian(SB2Element(1.0, 1e200)), "^non-finite matrix entry$"),
    (lambda: free_hamiltonian(SL2Element(1e200, 0, 0, 1e-200)), "^non-finite matrix entry$"),
    (lambda: free_hamiltonian(SB2Element(1.3e154, 1.3e154)), "^non-finite matrix entry$"),
    (lambda: free_hamiltonian(SL2Element(1.3e154, 1.3e154, 0, 1 / 1.3e154)),
     "^non-finite matrix entry$"),
    # exp(t·L) of the SB(2,C) part past the floats: "math range error"
    (lambda: momenta_su2_flow(SB2Element(1.0, 0.0), 0.6, 0.8j, 1e10)(0.05),
     "^non-finite matrix entry$"),
    # an su(2) exponent whose det passes the floats: cmath.cosh of an infinite
    # delta, a bare "math domain error"
    (lambda: exp_group(AlgebraElement("su2", [[0, 1e300], [-1e300, 0]])),
     "^non-finite matrix entry$"),
    (lambda: exp_group(AlgebraElement("su2", [[1e200j, 0], [0, -1e200j]])),
     "^non-finite matrix entry$"),
    (lambda: casimir_flow(SU2Element.identity(), SB2Element(1.0, 0.5), 1.0)(1e159),
     "^non-finite matrix entry$"),
    (lambda: perturbed_flow(SU2Element.identity(), SB2Element(1.0, 0.5), 1.0, 0.1)(1e159),
     "^non-finite matrix entry$"),
    # g0^T g0 past the floats in the rotation check: an overflow warning, and
    # a divide-by-zero warning from det
    (lambda: rotator_flow(np.diag([1e160, 1.0, 1.0]), [0.0, 0.0, 1.0], 1.0),
     "^g0 fails the rotation check by inf$"),
    (lambda: rotator_flow([[1e-160, 1.7e308, -1.7e308], [1e-160, 1.7e308, -1.7e308],
                           [0.0, 5e-324, 1.0]], [0.0, 0.0, 1.0], 1.0),
     "^g0 fails the rotation check by inf$"),
    # inf + -inf in g0^T g0: an OpenBLAS kernel without FMA makes it NaN,
    # which passed a `defect > tol` check
    (lambda: rotator_flow([[1e160, 1e160, 0.0], [1e160, -1e160, 0.0], [0.0, 0.0, 1.0]],
                          [0.0, 0.0, 1.0], 1.0),
     "^g0 fails the rotation check by (inf|nan)$"),
    *ROW_PAST_THE_FLOATS.values(),
], ids=["fiber_t_1e308", "freq_zero_entry_t_inf", "legendre_r_1e200", "casimir_r_1e200",
        "legendre_F_1e308", "legendre_r_1e-200", "legendre_gamma_1e200",
        "perturbed_r_1e-200", "invert_w_1e200", "invert_s_1e200", "invert_unreduced_s_1e200",
        "interaction_x_plus_a0_1e308", "free_h_r_1e-200", "free_h_gamma_1e200",
        "free_h_z1_1e200", "free_h_sb2_sum", "free_h_sl2_sum", "momenta_su2_F_1e10",
        "exp_su2_offdiag_1e300", "exp_su2_diag_1e200", "casimir_t_1e159", "perturbed_t_1e159",
        "rotator_g0_1e160", "rotator_g0_det_divide", "rotator_g0_inf_minus_inf",
        *ROW_PAST_THE_FLOATS])
def test_non_finite_results_raise_without_a_numpy_warning(call, match):
    with pytest.raises(ValueError, match=match):
        call()


ALPHA, NU, R, GAMMA = 0.6 + 0.0j, 0.8j, 1.3, 0.4 - 0.2j
F_TAKING_FIELD_STARTS = {
    "casimir_sl2c": ({}, z_to_flat(*(SU2Element(ALPHA, NU).as_matrix()
                                     @ SB2Element(R, GAMMA).as_matrix()).ravel())),
    "rotator": ({"p": [0.3, -0.5, 0.8]}, np.eye(3).ravel()),
    "momenta_su2": ({"alpha": ALPHA, "nu": NU}, [R, GAMMA.real, GAMMA.imag]),
    "perturbed": ({"lam": 0.1}, [ALPHA.real, ALPHA.imag, NU.real, NU.imag, R, GAMMA.real,
                                 GAMMA.imag]),
}


# (system, params, y0, t1, h, error): each F-taking field at an F past the
# floats, and numpy fields whose products leave the floats mid-run
ORACLE_PAST_THE_FLOATS = {
    f"{system}-{name}": (system, {**params, "F": F}, y0, 10 * 0.01, 0.01,
                         (ValueError, NonFiniteStateError))
    for system, (params, y0) in F_TAKING_FIELD_STARTS.items()
    for name, F in (("inf", math.inf), ("nan", math.nan), ("1e308", 1e308))
}
ORACLE_PAST_THE_FLOATS.update({
    "rotator_p_5e16": ("rotator", {"p": [0.0, 5.4536980589028184e16, 1.0],
                                   "F": 5.4536980589028184e16},
                       np.eye(3).ravel(), 0.05, 1e-3, NonFiniteStateError),
    "action_angle_matrix_-5e16": ("action_angle", {"I0": [1.0], "freq": None,
                                                   "matrix": [[-4.527586280420433e16]]},
                                  [1.0, -4.859842261504629e16], 0.05, 1e-3,
                                  NonFiniteStateError),
})


@pytest.mark.parametrize("case", ORACLE_PAST_THE_FLOATS)
def test_oracle_fields_past_the_floats_raise_typed_errors_without_a_numpy_warning(case):
    # momenta_su2 (NaN, 1e308) and rotator (inf, 1e308) once raised numpy's
    # RuntimeWarning here, and without -W error stepped on inf or NaN rates;
    # the rotator's and action_angle's overflowing products warned mid-run
    system, params, y0, t1, h, error = ORACLE_PAST_THE_FLOATS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            rk4_integrate(SYSTEMS[system].field(params), y0, 0.0, t1, h)


def su2_of(s, w):
    """The su2 element -(i/2)[[s, w], [conj(w), -s]] that legendre_invert reads s and w from."""
    return AlgebraElement("su2", -0.5j * np.array([[s, w], [np.conj(w), -s]], dtype=complex))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rotator_flow_rejects_a_non_finite_g0(bad):
    # a NaN g0 passed the rotation check (a NaN defect is not > tol) and an
    # infinite one failed it only after a numpy warning
    g0 = np.eye(3)
    g0[0, 0] = bad
    with pytest.raises(MembershipError, match="^g0 must be finite$"):
        rotator_flow(g0, [0.0, 0.0, 1.0], 1.0)
    with pytest.raises(MembershipError, match="^g0 must be a 3x3 rotation matrix$"):
        rotator_flow(np.eye(2), [0.0, 0.0, 1.0], 1.0)


@pytest.mark.parametrize("r0, nu0", [(1.0, 1e-170), (1e-200, 1e-100), (1e-300, 1e-5)])
def test_noncasimir_flow_rejects_a_divisor_past_the_normal_floats(r0, nu0):
    # r0·|nu0|^2 that underflows to 0 was a ZeroDivisionError; one that is
    # subnormal divides by a number with fewer significant bits
    with pytest.raises(ValueError, match="^nu0 must be 0 or have r0 [|]nu0[|]"):
        noncasimir_flow(SB2Element(r0, 0.0), 1.0, nu0)
    # the smallest normal divisor still builds a flow with finite rows
    st = noncasimir_flow(SB2Element(1.0, 0.0), 1.0, math.sqrt(np.finfo(float).tiny) * 2)(1.0)
    assert cmath.isfinite(st.u.gamma) and cmath.isfinite(st.alpha)


def test_su2_rows_check_the_exponential_once(monkeypatch):
    # at(t) checks alpha and nu of exp(t·L) finite itself; building the
    # element must not check them again
    checked = []
    finite_complex = groups._finite_complex
    monkeypatch.setattr(groups, "_finite_complex",
                        lambda z, name: checked.append(name) or finite_complex(z, name))
    at = casimir_flow(SU2Element.identity(), SB2Element(1.3, 0.2 - 0.4j), 0.7)
    checked.clear()
    st = at(0.5)
    assert checked == []
    assert abs(abs(st.g.alpha) ** 2 + abs(st.g.nu) ** 2 - 1.0) < 1e-15


def takes_small_angle_branch(system, p):
    """Whether the grid's tiny t reach the rotator's and sinhc's series branches."""
    if system == "rotator":
        return np.linalg.norm(p["F"] * np.asarray(p["p"])) * 1e-9 < 1e-8
    if system in ("casimir_sl2c", "perturbed"):
        L = legendre_map(p["u0"], p["F"]).value
        return abs(cmath.sqrt(-np.linalg.det(2e-8 * L))) < 1e-6
    if system == "momenta_su2":
        return abs(2e-8 * _momenta_su2_generator(p["alpha"], p["nu"], p["F"])[0, 0]) < 1e-6
    return True


def test_sampler_checks_its_inputs_once_and_each_t():
    bad_g0 = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(MembershipError, match="g0 fails the rotation check"):
        SYSTEMS["rotator"].sample({"g0": bad_g0, "p": [0.0, 0.0, 1.0], "F": 1.0})
    with pytest.raises(MembershipError, match="g0 fails the rotation check"):
        rotator_flow(bad_g0, [0.0, 0.0, 1.0], 1.0)(0.5)
    u0 = random_element("sb2", 3)
    with pytest.raises(MembershipError):
        SYSTEMS["momenta_su2"].sample({"u0": u0, "alpha": 1.0, "nu": 1.0, "F": 1.0})
    with pytest.raises(MembershipError):
        momenta_su2_flow(u0, 1.0, 1.0, 1.0)(0.5)
    with pytest.raises(MembershipError):
        SYSTEMS["noncasimir_h"].sample({"u0": u0, "alpha0": 0.5, "nu0": 0.5})
    with pytest.raises(MembershipError):
        noncasimir_flow(u0, 0.5, 0.5)(0.5)
    # the SU2Element unit check, when the flow is built: a NaN alpha (rows
    # of NaN alpha, or a "non-finite gamma" at the first row, before), and a
    # pair whose squares overflow (an OverflowError before)
    for build in (lambda: noncasimir_flow(u0, math.nan, 0.0),
                  lambda: noncasimir_flow(u0, math.nan, 0.5),
                  lambda: momenta_su2_flow(u0, 1e200, 0.0, 1.0),
                  lambda: momenta_su2_flow(u0, 0.6, complex(0.0, math.inf), 1.0)):
        with pytest.raises(MembershipError):
            build()
    # the rotator's p and F when the flow is built: |p|^2 past the normal
    # floats made p_norm 0 (p1 = 1e-200) or inf, and |F p|^2 past the floats
    # an inf rotation rate; p = 0 stays valid
    for p, F, name in (([1e-200, 0.0, 0.0], 1e300, "p"), ([1e-160, 0.0, 0.0], 1.0, "p"),
                       ([1e200] * 3, 1.0, "p"), ([1.0, 0.0, 0.0], 1e300, "F"),
                       ([0.0, 0.0, 1.0], math.nan, "F"), ([0.0] * 3, math.inf, "F")):
        with pytest.raises(ValueError, match=f"^{name} must "):
            rotator_flow(np.eye(3), p, F)
    assert rotator_flow(np.eye(3), [0.0] * 3, 1e300)(2.0).p_norm == 0.0
    # per t: a t·L that overflows, a non-finite t, an exponential that overflows
    g0 = random_element("su2", 3)
    for flow in (lambda t: casimir_flow(g0, u0, 1.0)(t),
                 lambda t: perturbed_flow(g0, u0, 1.0, 0.2)(t),
                 lambda t: momenta_su2_flow(u0, 0.6, 0.8j, 10.0)(t)):
        for t in (1e308, math.nan):
            with pytest.raises(ValueError, match="non-finite matrix entry"):
                flow(t)
    # the rotator's angle, the frequency variant's bound on phi, the fiber
    # variant's phi after expm, at an infinite or NaN t too (simpson_rule's
    # "t0, t1 and t1 - t0 must be finite" before, as the other two now read)
    rotator = rotator_flow(np.eye(3), [0.0, 0.0, 1.0], 1.0)
    freq = action_angle_flow([1.0], [0.5], freq=[2.0])
    fiber = action_angle_flow([1.0], [0.5], matrix=[[0.3]])
    for flow, ts in ((rotator, (math.inf, -math.inf, math.nan, 1e308, -1e308)),
                     (freq, (math.inf, -math.inf, math.nan)),
                     (fiber, (1e308, math.inf, math.nan))):
        for t in ts:
            with pytest.raises(ValueError, match="^the flow leaves the finite floats$"), \
                    np.errstate(over="ignore", invalid="ignore"):
                flow(t)
    # past the frequency variant's bound, a finite phi is still a row
    assert action_angle_flow([1.0], [1e308], freq=[-1e308])(1.0).phi.tolist() == [0.0]
    with pytest.raises(ValueError, match=r"^t0, t1 and t1 - t0 must be finite$"):
        simpson_rule(0.0, math.nan, 2)
    for t in (math.nan, math.inf, 1e308):
        with pytest.raises(ValueError, match=r"^t \* lam \* r must be finite$"):
            perturbed_velocity(u0, 1.0, 1e10 if t == 1e308 else 0.1, t)
    with pytest.raises(ValueError, match="non-finite matrix entry"), \
            np.errstate(over="ignore", invalid="ignore"):
        casimir_flow(g0, u0, 1e300)(10.0)
    with pytest.raises(ValueError, match="^non-finite matrix entry$"):
        momenta_su2_flow(u0, 0.6, 0.8j, 1e10)(0.05)
    # finite t: a phase lam r0 t / 2 past the floats ("math domain error" from
    # cmath.exp before), and an exp(t L) u0 past the floats with exp(t L)
    # finite (a MembershipError naming r or gamma before)
    with pytest.raises(ValueError, match="^non-finite matrix entry$"):
        perturbed_flow(SU2Element.identity(), SB2Element(1.0, 0.5), 1.0, 1e300)(1e10)
    for t in (1000.0, -1000.0):
        with pytest.raises(ValueError, match="^the flow leaves the finite floats$"):
            momenta_su2_flow(SB2Element(1e-300, 0.5), 0.6, 0.8j, 1.0)(t)
