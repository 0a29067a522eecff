import cmath
import math

import numpy as np
import pytest
import scipy.linalg

from doubleflow.dynamics import (
    SYSTEMS,
    CommutativityError,
    FlowState,
    InteractionPictureData,
    SystemSpec,
    _commutator_guard,
    _sl2c_rates,
    action_angle_flow,
    casimir_flow,
    commuting_quadrature_flow,
    flat_to_z,
    free_hamiltonian,
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
    run_system,
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
from doubleflow.mat2 import frobenius
from doubleflow.quadrature import drift_report, rk4_integrate

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def su2_product_matrix(st):
    return st.g.as_matrix() @ st.u.as_matrix()


def flat_of_double(alpha, nu, u):
    return SYSTEMS["noncasimir_h"].flat(FlowState(0.0, u=u, alpha=alpha, nu=nu))


def test_free_hamiltonian_forms():
    a = SL2Element(2.0, 0.5, 0.0, 0.5)
    assert free_hamiltonian(a) == pytest.approx(0.5 * (4 + 0.25 + 0.25))
    u = SB2Element(2.0, 1j)
    assert free_hamiltonian(u) == pytest.approx(0.5 * (1 + 4 + 0.25))
    assert free_hamiltonian({"z1": 1, "z2": 0, "z3": 0, "z4": 1}) == pytest.approx(1.0)
    assert free_hamiltonian({"r": 2.0, "gamma": 1j}) == pytest.approx(free_hamiltonian(u))
    with pytest.raises(TypeError):
        free_hamiltonian([1, 2, 3])


def test_sl2c_vf_fixed_values():
    a = SL2Element.identity()
    rates = _sl2c_rates(a.z1, a.z2, a.z3, a.z4, 1.0)
    assert max(abs(r) for r in rates) == 0.0
    a = random_element("sl2", 0)
    rates = _sl2c_rates(a.z1, a.z2, a.z3, a.z4, 0.0)
    assert max(abs(r) for r in rates) == 0.0
    a = SL2Element(2.0, 0.0, 0.0, 0.5)
    rates = _sl2c_rates(a.z1, a.z2, a.z3, a.z4, 1.0)
    assert rates[0] == pytest.approx(-15j / 8)


def test_casimir_flow_defaults_and_fixed_points():
    g0, u0 = random_element("su2", 1), random_element("sb2", 1)
    st = casimir_flow(g0, u0, 1.0, 0.0)
    assert st.g.alpha == pytest.approx(g0.alpha) and st.u is u0
    st = casimir_flow(g0, SB2Element.identity(), 1.0, 7.0)
    assert abs(st.g.alpha - g0.alpha) < 1e-14 and abs(st.g.nu - g0.nu) < 1e-14


def test_casimir_flow_diagonal_example():
    u0 = SB2Element(2.0, 0.0)
    for t in (0.5, 2.0, 9.0):
        st = casimir_flow(SU2Element.identity(), u0, 1.0, t)
        m = st.g.as_matrix()
        assert m[0, 0] == pytest.approx(cmath.exp(-15j * t / 16))
        assert m[1, 1] == pytest.approx(cmath.exp(15j * t / 16))
        assert abs(m[0, 1]) < 1e-15


def test_casimir_flow_matches_rk4_oracle():
    worst = 0.0
    for k in range(3):
        rng = np.random.default_rng(k)
        g0, u0 = random_element("su2", rng), random_element("sb2", rng)
        a0 = SL2Element.from_matrix(g0.as_matrix() @ u0.as_matrix())
        traj = rk4_integrate(sl2c_flat_field(1.0), z_to_flat(a0.z1, a0.z2, a0.z3, a0.z4),
                             0.0, 5.0, 1e-3)
        for t, y in zip(traj.times[::250], traj.states[::250]):
            st = casimir_flow(g0, u0, 1.0, t)
            z = flat_to_z(y)
            worst = max(worst, float(np.max(np.abs(
                su2_product_matrix(st) - np.array([[z[0], z[1]], [z[2], z[3]]])))))
    assert worst < 1e-6


def test_casimir_flow_callable_conformal_factor():
    g0, u0 = random_element("su2", 2), random_element("sb2", 2)
    Fv = 1.0 / (1.0 + abs(u0.gamma) ** 2)
    st_callable = casimir_flow(g0, u0, lambda gamma, r: 1.0 / (1.0 + abs(gamma) ** 2), 3.0)
    st_const = casimir_flow(g0, u0, Fv, 3.0)
    np.testing.assert_allclose(st_callable.g.as_matrix(), st_const.g.as_matrix(), atol=1e-14)


def test_legendre_map_fixed_values():
    assert np.max(np.abs(legendre_map(SB2Element.identity(), 1.0).value)) == 0.0
    v = legendre_map(SB2Element(2.0, 0.0), 1.0).value
    np.testing.assert_allclose(v, np.diag([-15j / 16, 15j / 16]), atol=1e-15)
    v = legendre_map(SB2Element(1.0, 2.0), 1.0).value
    np.testing.assert_allclose(v, -1j * np.array([[1.0, 1.0], [1.0, -1.0]]), atol=1e-15)


def test_legendre_map_lands_in_su2():
    for k in range(100):
        m = legendre_map(random_element("sb2", k), 1.7).value
        assert np.max(np.abs(m + np.conj(m.T))) < 1e-12
        assert abs(m[0, 0] + m[1, 1]) < 1e-12


def test_legendre_round_trip():
    worst = 0.0
    for k in range(100):
        u = random_element("sb2", k)
        u2 = legendre_invert(legendre_map(u, 1.0))
        worst = max(worst, abs(u2.r - u.r), abs(u2.gamma - u.gamma))
    assert worst < 1e-10


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
    st = momenta_su2_flow(u0, 0.6, 0.8j, 0.0, 5.0)
    assert st.u.r == pytest.approx(u0.r) and st.u.gamma == pytest.approx(u0.gamma)
    st = momenta_su2_flow(SB2Element.identity(), 0.0, 1.0, 1.0, 2.0)
    assert st.u.r == pytest.approx(math.exp(-1.0))
    assert abs(st.u.gamma) < 1e-15
    st = momenta_su2_flow(u0, 1.0, 0.0, 1.0, 4.0)  # nu = 0 freezes u
    assert st.u.r == pytest.approx(u0.r) and st.u.gamma == pytest.approx(u0.gamma)
    with pytest.raises(MembershipError):
        momenta_su2_flow(u0, 1.0, 1.0, 1.0, 1.0)


def test_momenta_su2_flow_matches_rk4():
    rng = np.random.default_rng(4)
    g = random_element("su2", rng)
    u0 = random_element("sb2", rng)
    traj = rk4_integrate(momenta_su2_flat_field(g.alpha, g.nu, 1.3),
                         np.array([u0.r, u0.gamma.real, u0.gamma.imag]), 0.0, 4.0, 1e-3)
    worst = 0.0
    for t, y in zip(traj.times[::200], traj.states[::200]):
        st = momenta_su2_flow(u0, g.alpha, g.nu, 1.3, t)
        worst = max(worst, abs(st.u.r - y[0]), abs(st.u.gamma - complex(y[1], y[2])))
    assert worst < 1e-6
    assert all(s[0] > 0 for s in traj.states)  # membership along the oracle too


def test_noncasimir_flow_against_rk4():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(3):
        g = random_element("su2", rng)
        u0 = random_element("sb2", rng)
        y0 = flat_of_double(g.alpha, g.nu, u0)
        traj = rk4_integrate(noncasimir_flat_field(), y0, 0.0, 5.0, 1e-3)
        for t, y in zip(traj.times[::250], traj.states[::250]):
            st = noncasimir_flow(u0, g.alpha, g.nu, t)
            worst = max(worst, float(np.max(np.abs(
                flat_of_double(st.alpha, st.nu, st.u) - y))))
    assert worst < 1e-6


def test_noncasimir_flow_invariants_and_period():
    g = random_element("su2", 6)
    u0 = random_element("sb2", 6)
    w = abs(g.nu) ** 2
    for t in np.linspace(0.0, 12.0, 7):
        st = noncasimir_flow(u0, g.alpha, g.nu, t)
        assert abs(abs(st.alpha) - abs(g.alpha)) < 1e-14
        assert st.nu == g.nu
        assert st.u.r == u0.r
    # the phase loop closes after t = 4*pi/|nu|^2
    period = 4.0 * math.pi / w
    st = noncasimir_flow(u0, g.alpha, g.nu, period)
    assert abs(st.alpha - g.alpha) < 1e-12
    assert abs(st.u.gamma - u0.gamma) < 1e-12


def test_noncasimir_flow_nu_zero_branch():
    u0 = SB2Element(2.0, 1.0 - 1.0j)
    st = noncasimir_flow(u0, 1.0, 0.0, 123.0)
    assert st.alpha == 1.0 and st.nu == 0.0
    assert st.u.r == u0.r and st.u.gamma == u0.gamma
    with pytest.raises(MembershipError):
        noncasimir_flow(u0, 0.3, 0.0, 1.0)


def test_perturbed_flow_momenta_and_reduction():
    g0, u0 = random_element("su2", 7), SB2Element(2.0, 1.0)
    lam = 0.3
    for t in (0.0, 1.5, 6.0):
        st = perturbed_flow(g0, u0, 1.0, lam, t)
        assert st.u.r == u0.r
        assert abs(st.u.gamma) == pytest.approx(abs(u0.gamma))
        assert abs(st.u.gamma - u0.gamma * cmath.exp(-0.5j * lam * u0.r * t)) < 1e-14
    # lambda = 0 collapses onto the Casimir flow
    st0 = perturbed_flow(g0, u0, 1.0, 0.0, 2.0)
    stc = casimir_flow(g0, u0, lambda gamma, r: 1.0, 2.0)
    np.testing.assert_allclose(st0.g.as_matrix(), stc.g.as_matrix(), atol=1e-13)
    assert st0.u.gamma == pytest.approx(u0.gamma)


def test_perturbed_flow_diagonal_case():
    # gamma0 = 0 makes all generators diagonal: g(t) = g0 exp(t A0)
    g0, u0, lam = random_element("su2", 8), SB2Element(1.5, 0.0), 0.4
    a0 = legendre_map(u0, 1.0).value - np.diag([-0.25j * lam * u0.r, 0.25j * lam * u0.r])
    for t in (0.5, 3.0):
        st = perturbed_flow(g0, u0, 1.0, lam, t)
        expect = g0.as_matrix() @ scipy.linalg.expm(t * a0)
        np.testing.assert_allclose(st.g.as_matrix(), expect, atol=1e-13)


def test_perturbed_flow_ode_residual():
    # central difference of the closed form against the rotating generator
    g0, u0, lam, eps = random_element("su2", 9), SB2Element(2.0, 1.0), 0.3, 1e-5
    worst = 0.0
    for t in np.linspace(0.25, 5.0, 12):
        gp = perturbed_flow(g0, u0, 1.0, lam, t + eps).g.as_matrix()
        gm = perturbed_flow(g0, u0, 1.0, lam, t - eps).g.as_matrix()
        gc = perturbed_flow(g0, u0, 1.0, lam, t).g.as_matrix()
        vel = np.linalg.inv(gc) @ ((gp - gm) / (2.0 * eps))
        worst = max(worst, float(np.max(np.abs(vel - perturbed_velocity(u0, 1.0, lam, t)))))
    assert worst < 1e-6


def test_perturbed_flow_matches_rk4():
    rng = np.random.default_rng(10)
    g0, u0, lam = random_element("su2", rng), random_element("sb2", rng), 0.25
    y0 = flat_of_double(g0.alpha, g0.nu, u0)
    traj = rk4_integrate(perturbed_flat_field(1.0, lam), y0, 0.0, 4.0, 1e-3)
    worst = 0.0
    for t, y in zip(traj.times[::200], traj.states[::200]):
        st = perturbed_flow(g0, u0, 1.0, lam, t)
        worst = max(worst, float(np.max(np.abs(
            flat_of_double(st.g.alpha, st.g.nu, st.u) - y))))
    assert worst < 1e-6


def perturbed_field_reference(F, lam, st):
    """The perturbed rates built from group and algebra objects."""
    alpha, nu = complex(st[0], st[1]), complex(st[2], st[3])
    r, gamma = st[4], complex(st[5], st[6])
    Fv = F(r) if callable(F) else F
    gen = (legendre_map(SB2Element(r, gamma), Fv).value
           - np.diag([-0.25j * lam * r, 0.25j * lam * r]))
    gdot = SU2Element(alpha, nu).as_matrix() @ gen
    gammadot = -0.5j * lam * r * gamma
    return np.array([gdot[0, 0].real, gdot[0, 0].imag, gdot[1, 0].real, gdot[1, 0].imag,
                     0.0, gammadot.real, gammadot.imag])


@pytest.mark.parametrize("F", [1.3, lambda r: 1.0 + 0.5 * r * r])
def test_perturbed_flat_field_matches_object_reference(F):
    # The scalar transcription may differ from the 2x2 matrix product in the
    # last bit (BLAS may fuse multiply-adds), hence 1e-15 relative to the rates.
    rng = np.random.default_rng(31)
    lam = 0.35
    field = perturbed_flat_field(F, lam)
    for _ in range(200):
        g, u = random_element("su2", rng), random_element("sb2", rng)
        st = flat_of_double(g.alpha, g.nu, u)
        want = perturbed_field_reference(F, lam, st)
        got = field(st)
        assert np.max(np.abs(got - want)) <= 1e-15 * max(1.0, np.max(np.abs(want)))
        assert got[4:].tobytes() == want[4:].tobytes()


def test_sl2c_flat_field_is_bitwise_the_complex_rates():
    rng = np.random.default_rng(32)
    for F in (1.0, -0.7, 2.5):
        field = sl2c_flat_field(F)
        for _ in range(200):
            y = rng.standard_normal(8)
            want = z_to_flat(*_sl2c_rates(*flat_to_z(y), F))
            assert field(y).tobytes() == want.tobytes()


def test_rotator_flow_examples():
    g0 = np.eye(3)
    st = rotator_flow(g0, np.zeros(3), 1.0, 5.0)
    np.testing.assert_allclose(st.g, g0)
    st = rotator_flow(g0, (0.0, 0.0, 1.0), 1.0, 0.7)
    c, s = math.cos(0.7), math.sin(0.7)
    np.testing.assert_allclose(st.g, [[c, -s, 0], [s, c, 0], [0, 0, 1]], atol=1e-14)
    st2 = rotator_flow(g0, (0.0, 0.0, 1.0), 2.0, 0.35)
    np.testing.assert_allclose(st2.g, st.g, atol=1e-14)  # F scales the angle
    with pytest.raises(MembershipError):
        rotator_flow(np.diag([2.0, 1.0, 0.5]), (1.0, 0.0, 0.0), 1.0, 1.0)


def test_rotator_flow_orthogonality_and_period():
    p = np.array([0.4, -0.3, 0.8])
    for t in np.linspace(0.0, 100.0, 21):
        st = rotator_flow(np.eye(3), p, 1.0, t)
        assert np.max(np.abs(st.g.T @ st.g - np.eye(3))) < 1e-10
        np.testing.assert_array_equal(st.p, p)
    st = rotator_flow(np.eye(3), (0.0, 0.0, 1.0), 1.0, 2.0 * math.pi)
    assert np.max(np.abs(st.g - np.eye(3))) < 1e-10


def test_rotator_flow_matches_rk4():
    rng = np.random.default_rng(11)
    p = rng.standard_normal(3)
    traj = rk4_integrate(rotator_flat_field(p, 1.0), np.eye(3).ravel(), 0.0, 5.0, 1e-3)
    worst = 0.0
    for t, y in zip(traj.times[::250], traj.states[::250]):
        st = rotator_flow(np.eye(3), p, 1.0, t)
        worst = max(worst, float(np.max(np.abs(st.g.ravel() - y))))
    assert worst < 1e-6


def test_interaction_picture_examples():
    g0 = random_element("su2", 12)
    a0 = AlgebraElement("su2", np.array([[0.6j, 0.2 + 0.1j], [-0.2 + 0.1j, -0.6j]]))
    x0 = AlgebraElement("su2", np.zeros((2, 2)))
    lhs = interaction_picture_flow(g0, InteractionPictureData(x0, a0), 2.0)
    rhs = g0 @ exp_group(AlgebraElement("su2", 2.0 * a0.value))
    np.testing.assert_allclose(lhs.as_matrix(), rhs.as_matrix(), atol=1e-13)
    x = AlgebraElement("su2", np.diag([0.4j, -0.4j]))
    lhs = interaction_picture_flow(g0, InteractionPictureData(x, x0), 3.0)
    np.testing.assert_allclose(lhs.as_matrix(), g0.as_matrix(), atol=1e-13)
    # commuting X and A0 collapse to a single exponential
    a_diag = AlgebraElement("su2", np.diag([-0.7j, 0.7j]))
    lhs = interaction_picture_flow(g0, InteractionPictureData(x, a_diag), 2.5)
    rhs = g0 @ exp_group(AlgebraElement("su2", 2.5 * a_diag.value))
    np.testing.assert_allclose(lhs.as_matrix(), rhs.as_matrix(), atol=1e-12)
    with pytest.raises(MembershipError):
        InteractionPictureData(x, AlgebraElement("sb2", np.array([[0.1, 0], [0, -0.1]])))


def test_interaction_picture_matches_perturbed_factorization():
    g0, u0, lam = random_element("su2", 13), SB2Element(2.0, 1.0 - 0.5j), 0.2
    X = np.diag([-0.25j * lam * u0.r, 0.25j * lam * u0.r])
    a0 = AlgebraElement("su2", legendre_map(u0, 1.0).value - X)
    for t in (0.5, 2.0):
        lhs = interaction_picture_flow(
            g0, InteractionPictureData(AlgebraElement("su2", X), a0), t)
        rhs = perturbed_flow(g0, u0, 1.0, lam, t).g
        np.testing.assert_allclose(lhs.as_matrix(), rhs.as_matrix(), atol=1e-13)


def test_commuting_quadrature_constant_path():
    g0 = random_element("su2", 14)
    L = AlgebraElement("su2", np.array([[0.3j, 0.4], [-0.4, -0.3j]]))
    got = commuting_quadrature_flow(g0, lambda s: L, 2.5)
    want = g0 @ exp_group(AlgebraElement("su2", 2.5 * L.value))
    assert np.max(np.abs(got.as_matrix() - want.as_matrix())) < 1e-10


def test_commuting_quadrature_matches_noncasimir():
    rng = np.random.default_rng(15)
    g = random_element("su2", rng)
    u0 = random_element("sb2", rng)
    w = abs(g.nu) ** 2

    def path(s):
        ac = np.conj(g.alpha) * cmath.exp(-0.5j * w * s)
        return AlgebraElement("sb2", 0.5j * ac * np.conj(g.nu) * E12)

    got = commuting_quadrature_flow(SB2Element.identity(), path, 4.0) @ u0
    st = noncasimir_flow(u0, g.alpha, g.nu, 4.0)
    assert abs(got.r - st.u.r) < 1e-8
    assert abs(got.gamma - st.u.gamma) < 1e-8


def test_commuting_quadrature_so3_matches_rotator():
    p = np.array([0.4, -0.3, 0.8])
    got = commuting_quadrature_flow(np.eye(3), lambda s: AlgebraElement("so3", p), 3.0)
    want = rotator_flow(np.eye(3), p, 1.0, 3.0).g
    assert np.max(np.abs(got - want)) < 1e-10


def test_commuting_quadrature_rejects_twisted_path():
    def twisted(s):
        m = np.array([[0.5j * math.cos(s), 0.3 * math.sin(s)],
                      [-0.3 * math.sin(s), -0.5j * math.cos(s)]], dtype=complex)
        return AlgebraElement("su2", m)

    with pytest.raises(CommutativityError) as err:
        commuting_quadrature_flow(SU2Element.identity(), twisted, 3.0)
    assert err.value.max_norm > 1e-9
    t0, t1 = err.value.pair
    assert 0.0 <= t0 < t1 <= 3.0


def brute_force_guard(mats, nodes):
    worst, pair = 0.0, (0.0, 0.0)
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            nrm = frobenius(mats[i] @ mats[j] - mats[j] @ mats[i])
            if nrm > worst:
                worst, pair = nrm, (nodes[i], nodes[j])
    return worst, pair


def test_commutator_guard_matches_brute_force_loop():
    def twisted(s):
        return np.array([[0.5j * math.cos(s), 0.3 * math.sin(s) + 0.1j * s],
                         [-0.3 * math.sin(s) + 0.1j * s, -0.5j * math.cos(s)]])

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
    # commuting samples (real 3x3, as in the so3 and action-angle paths)
    _commutator_guard([k * np.eye(3) for k in range(5)], nodes[:5], 0.0)


def test_commuting_quadrature_argument_validation():
    L = AlgebraElement("su2", np.diag([0.1j, -0.1j]))
    with pytest.raises(ValueError):
        commuting_quadrature_flow(SU2Element.identity(), lambda s: L, 1.0, samples=4)
    with pytest.raises(ValueError):
        commuting_quadrature_flow(SU2Element.identity(), lambda s: L, 1.0, samples=1)

    def mixed(s):
        if s < 0.5:
            return AlgebraElement("su2", np.diag([0.1j, -0.1j]))
        return AlgebraElement("sb2", np.array([[0.1, 0.0], [0.0, -0.1]]))

    with pytest.raises(MembershipError):
        commuting_quadrature_flow(SU2Element.identity(), mixed, 1.0)


def test_action_angle_frequency_variant():
    st = action_angle_flow({"I0": [0.7, 1.1], "phi0": [0.2, 0.4],
                            "freq": lambda I: 2.0 * I}, 3.0)
    np.testing.assert_allclose(st.I, [0.7, 1.1])
    np.testing.assert_allclose(st.phi, np.array([0.2, 0.4]) + 6.0 * np.array([0.7, 1.1]))
    np.testing.assert_allclose(st.phi_mod, np.mod(st.phi, 2 * np.pi))
    assert np.all(st.phi_mod >= 0) and np.all(st.phi_mod < 2 * np.pi)
    # a constant frequency vector works without a callable
    st = action_angle_flow({"I0": [1.0], "phi0": [0.0], "freq": [0.5]}, 4.0)
    assert st.phi[0] == pytest.approx(2.0)


def test_action_angle_constant_matrix():
    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    st = action_angle_flow({"I0": [1.0], "phi0": [1.0, 0.0], "matrix": lambda I: a}, 2.0)
    np.testing.assert_allclose(st.phi, scipy.linalg.expm(2.0 * a) @ [1.0, 0.0], atol=1e-12)
    # diagonal constant matrix: componentwise exponential growth
    d = np.diag([0.3, -0.2])
    st = action_angle_flow({"I0": [1.0], "phi0": [1.0, 2.0], "matrix": lambda I: d}, 1.5)
    np.testing.assert_allclose(st.phi, [math.exp(0.45), 2.0 * math.exp(-0.3)], atol=1e-12)


def test_action_angle_drift_variant_closed_form():
    # I' = -I, A(I) = I[0]*J: phi rotates by angle I0*(1 - e^-t)
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    params = {
        "I0": [0.8],
        "phi0": [1.0, 0.0],
        "matrix": lambda I: I[0] * j,
        "drift": lambda I: -I,
    }
    for t in (0.5, 2.0):
        st = action_angle_flow(params, t)
        theta = 0.8 * (1.0 - math.exp(-t))
        np.testing.assert_allclose(st.phi, [math.cos(theta), math.sin(theta)], atol=1e-8)
        assert st.I[0] == pytest.approx(0.8 * math.exp(-t), abs=1e-9)


def test_action_angle_rejects_noncommuting_family():
    params = {
        "I0": [1.0, 2.0],
        "phi0": [1.0, 0.0],
        "matrix": lambda I: np.array([[0.0, -I[0]], [I[1], 0.0]]),
        "drift": lambda I: np.array([-I[0], 0.0]),
    }
    with pytest.raises(CommutativityError):
        action_angle_flow(params, 3.0)


def test_action_angle_argument_validation():
    base = {"I0": [1.0], "phi0": [0.0], "matrix": lambda I: np.zeros((1, 1))}
    with pytest.raises(ValueError):
        action_angle_flow(base, -1.0)
    with pytest.raises(ValueError):
        action_angle_flow({**base, "samples": 4}, 1.0)
    st = action_angle_flow(base, 0.0)
    assert st.phi[0] == 0.0


def test_run_system_dispatch():
    g0, u0 = random_element("su2", 16), random_element("sb2", 16)
    st = run_system(SystemSpec("casimir_sl2c", {"g0": g0, "u0": u0, "F": 1.0}), 1.0)
    assert st.u is u0
    st = run_system(SystemSpec("rotator", {"p": [0.0, 0.0, 1.0]}), 0.5)
    assert st.g.shape == (3, 3)
    st = run_system(SystemSpec("momenta_su2", {"alpha": 0.0, "nu": 1.0}), 1.0)
    assert st.u.r == pytest.approx(math.exp(-0.5))
    st = run_system(SystemSpec("noncasimir_h", {"u0": u0, "alpha0": g0.alpha,
                                                "nu0": g0.nu}), 1.0)
    assert st.u.r == u0.r
    st = run_system(SystemSpec("perturbed", {"u0": u0, "lam": 0.1}), 1.0)
    assert st.u.r == u0.r
    st = run_system(SystemSpec("action_angle", {"I0": [1.0], "phi0": [0.0],
                                                "freq": [2.0]}), 1.5)
    assert st.phi[0] == pytest.approx(3.0)
    with pytest.raises(ValueError):
        SystemSpec("nonsense", {})


def test_conservation_along_oracle_with_projection():
    # H0 and det drift below 1e-8, and the projected momenta stay frozen
    rng = np.random.default_rng(17)
    a0 = random_element("sl2", rng)
    traj = rk4_integrate(sl2c_flat_field(1.0), z_to_flat(a0.z1, a0.z2, a0.z3, a0.z4),
                         0.0, 10.0, 1e-3)

    def h0(y):
        return 0.5 * sum(abs(c) ** 2 for c in flat_to_z(y))

    def det_dev(y):
        z = flat_to_z(y)
        return abs(z[0] * z[3] - z[1] * z[2])

    rep = drift_report(traj, {"H0": h0, "det": det_dev})
    assert rep.drift("H0") < 1e-8
    assert rep.drift("det") < 1e-8
    _, u0 = iwasawa_gu(a0)
    for y in traj.states[::500]:
        _, u = iwasawa_gu(SL2Element(*flat_to_z(y)))
        assert abs(u.r - u0.r) < 1e-8
        assert abs(u.gamma - u0.gamma) < 1e-8
