import math

import numpy as np
import pytest
import scipy.linalg

from doubleflow.groups import (
    AlgebraElement,
    MembershipError,
    SB2Element,
    SL2Element,
    SU2Element,
    exp_group,
    exp_sb2,
    iwasawa_gu,
    iwasawa_ug,
    random_element,
)


def test_su2_constructor_normalizes_and_rejects():
    g = SU2Element(1.0 + 1e-9, 0.0)
    assert g.membership_defect() < 1e-15
    with pytest.raises(MembershipError):
        SU2Element(1.1, 0.0)
    with pytest.raises(MembershipError):
        SU2Element(np.nan, 0.0)


def test_su2_matrix_form_and_inverse():
    for k in range(50):
        g = random_element("su2", k)
        m = g.as_matrix()
        np.testing.assert_allclose(m @ np.conj(m.T), np.eye(2), atol=1e-14)
        assert abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] - 1.0) < 1e-14
        gi = g.inverse()
        np.testing.assert_allclose((g @ gi).as_matrix(), np.eye(2), atol=1e-14)


def test_su2_product_matches_matrices():
    for k in range(50):
        rng = np.random.default_rng(k)
        g1, g2 = random_element("su2", rng), random_element("su2", rng)
        np.testing.assert_allclose(
            (g1 @ g2).as_matrix(), g1.as_matrix() @ g2.as_matrix(), atol=1e-14)


def test_su2_from_matrix_rejects_non_su2():
    with pytest.raises(MembershipError):
        SU2Element.from_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_sb2_element_basics():
    u = SB2Element(2.0, 0.5 - 0.25j)
    m = u.as_matrix()
    assert m[1, 0] == 0 and m[0, 0].real * m[1, 1].real == pytest.approx(1.0)
    np.testing.assert_allclose((u @ u.inverse()).as_matrix(), np.eye(2), atol=1e-15)
    with pytest.raises(MembershipError):
        SB2Element(-1.0, 0.0)
    with pytest.raises(MembershipError):
        SB2Element(0.0, 0.0)


def test_sb2_product_matches_matrices():
    for k in range(50):
        rng = np.random.default_rng(k)
        u1, u2 = random_element("sb2", rng), random_element("sb2", rng)
        np.testing.assert_allclose(
            (u1 @ u2).as_matrix(), u1.as_matrix() @ u2.as_matrix(), atol=1e-13)


def test_sb2_from_matrix_checks_shape():
    with pytest.raises(MembershipError):
        SB2Element.from_matrix(np.array([[1.0, 0.0], [0.5, 1.0]]))
    u = SB2Element.from_matrix(np.array([[2.0, 1.0 + 1j], [0.0, 0.5]]))
    assert u.r == 2.0 and u.gamma == 1.0 + 1j


def test_sl2_det_rescale_and_reject():
    a = SL2Element(1.0 + 5e-9, 0.0, 0.0, 1.0)
    assert a.membership_defect() < 1e-14
    with pytest.raises(MembershipError):
        SL2Element(2.0, 0.0, 0.0, 1.0)
    b = SL2Element(2.0, 0.0, 1j, 0.5)
    np.testing.assert_allclose((b @ b.inverse()).as_matrix(), np.eye(2), atol=1e-14)


def test_iwasawa_gu_recomposes():
    for k in range(200):
        a = random_element("sl2c", k)
        g, u = iwasawa_gu(a)
        np.testing.assert_allclose(
            g.as_matrix() @ u.as_matrix(), a.as_matrix(), atol=1e-12)
        assert g.membership_defect() < 1e-12
        assert u.r > 0


def test_iwasawa_ug_recomposes():
    for k in range(200):
        a = random_element("sl2c", 10_000 + k)
        u, g = iwasawa_ug(a)
        np.testing.assert_allclose(
            u.as_matrix() @ g.as_matrix(), a.as_matrix(), atol=1e-12)
        assert g.membership_defect() < 1e-12


def test_iwasawa_uniqueness():
    # refactorizing a known product returns the original factors
    for k in range(100):
        rng = np.random.default_rng(k)
        g, u = random_element("su2", rng), random_element("sb2", rng)
        a = SL2Element.from_matrix(g.as_matrix() @ u.as_matrix())
        g2, u2 = iwasawa_gu(a)
        assert abs(g2.alpha - g.alpha) < 1e-12 and abs(g2.nu - g.nu) < 1e-12
        assert abs(u2.r - u.r) < 1e-12 and abs(u2.gamma - u.gamma) < 1e-12


def test_iwasawa_on_triangular_and_unitary_inputs():
    u = SB2Element(3.0, 1.0 - 2.0j)
    a = SL2Element.from_matrix(u.as_matrix())
    g2, u2 = iwasawa_gu(a)
    assert abs(g2.alpha - 1.0) < 1e-14 and abs(g2.nu) < 1e-14
    g = random_element("su2", 5)
    a = SL2Element.from_matrix(g.as_matrix())
    g3, u3 = iwasawa_gu(a)
    assert abs(u3.r - 1.0) < 1e-14 and abs(u3.gamma) < 1e-14


# scalar arithmetic past the floats: each case raised OverflowError or
# ZeroDivisionError, or a MembershipError about the wrong thing
@pytest.mark.parametrize("call", [
    lambda: exp_sb2(1e3, 1.0),
    lambda: exp_sb2(-1e3, 1.0),
    lambda: exp_sb2(700.0, 1e10),  # e^d finite, y*sinhc(d) inf: "non-finite gamma" before
    lambda: exp_group(AlgebraElement("sb2", [[800, 0], [0, -800]])),
    lambda: iwasawa_gu(SL2Element(1e200, 0, 0, 1e-200)),
    lambda: iwasawa_ug(SL2Element(1e-200, 0, 0, 1e200)),
    lambda: iwasawa_gu(SL2Element(1e-200, -1e200, 1e-200, 0)),
    lambda: iwasawa_ug(SL2Element(0, -1e200, 1e-200, 1e-200)),
    # |z1|^2 + |z3|^2 overflows though each square is finite
    lambda: iwasawa_gu(SL2Element(1.3e154, 0, 1.3e154, 1 / 1.3e154)),
    lambda: iwasawa_ug(SL2Element(1 / 1.3e154, 0, 1.3e154, 1.3e154)),
], ids=["exp_sb2_d_1e3", "exp_sb2_d_-1e3", "exp_sb2_gamma_1e10", "exp_group_sb2_800", "gu_z1_1e200", "ug_z4_1e200",
        "gu_norm_underflows", "ug_norm_underflows", "gu_norm_sum_overflows",
        "ug_norm_sum_overflows"])
def test_arithmetic_past_the_floats_is_a_value_error(call):
    with pytest.raises(ValueError, match="^non-finite matrix entry$"):
        call()


def test_algebra_element_validation():
    AlgebraElement("su2", np.array([[0.5j, 1 + 1j], [-1 + 1j, -0.5j]]))
    with pytest.raises(MembershipError):
        AlgebraElement("su2", np.array([[0.5j, 1.0], [1.0, -0.5j]]))
    AlgebraElement("sb2", np.array([[0.3, 1 - 2j], [0.0, -0.3]]))
    with pytest.raises(MembershipError):
        AlgebraElement("sb2", np.array([[0.3j, 0.0], [0.0, -0.3j]]))


def test_exp_group_su2_matches_expm():
    for k in range(50):
        rng = np.random.default_rng(k)
        w = rng.standard_normal(3)
        m = np.array([[1j * w[0], w[1] + 1j * w[2]], [-w[1] + 1j * w[2], -1j * w[0]]])
        g = exp_group(AlgebraElement("su2", m))
        np.testing.assert_allclose(g.as_matrix(), scipy.linalg.expm(m), atol=1e-12)


def test_exp_group_sb2_matches_expm():
    for k in range(50):
        rng = np.random.default_rng(k)
        x = float(rng.standard_normal())
        y = complex(rng.standard_normal(), rng.standard_normal())
        m = np.array([[x, y], [0.0, -x]])
        u = exp_group(AlgebraElement("sb2", m))
        np.testing.assert_allclose(u.as_matrix(), scipy.linalg.expm(m), atol=1e-12)
        assert u.r == pytest.approx(math.exp(x))


def test_random_element_deterministic_per_seed():
    for kind in ("su2", "sb2", "sl2c"):
        a = random_element(kind, 123)
        b = random_element(kind, 123)
        np.testing.assert_array_equal(a.as_matrix(), b.as_matrix())
    with pytest.raises(MembershipError):
        random_element("nonsense", 0)


def test_complex_2x2_dot_pinned_bitwise_matches_matmul():
    # ndarray.dot and @ make the same zgemm call on 2x2 complex operands, so
    # random_element("sl2c") and the decompositions suite keep their bits under
    # every OpenBLAS kernel; 20,000 pairs at scales 1e-8 to 1e8, with signed zeros
    rng = np.random.default_rng(23)
    got, want = [], []
    for k in range(20000):
        a, b = (rng.standard_normal((2, 2, 2)) * 10.0 ** rng.integers(-8, 9, (2, 2, 2))
                for _ in range(2))
        a, b = a[0] + 1j * a[1], b[0] + 1j * b[1]
        if k % 4 == 0:
            a[rng.integers(2), rng.integers(2)] = complex(rng.choice([0.0, -0.0]),
                                                          rng.choice([0.0, -0.0]))
            b[1, 0] = rng.choice([0.0, -0.0])
        got.append(a.dot(b))
        want.append(a @ b)
    assert np.array(got).tobytes() == np.array(want).tobytes()
