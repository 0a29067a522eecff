import cmath
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from doubleflow.dynamics import _perturbed_x, legendre_map
from doubleflow.groups import (
    AlgebraElement,
    MembershipError,
    SB2Element,
    SL2Element,
    SU2Element,
    _inverse_norm,
    check_finite,
    exp_group,
    exp_sb2,
    expm2_kernel,
    gu_products,
    iwasawa_gu,
    iwasawa_gu_kernel,
    iwasawa_ug,
    iwasawa_ug_kernel,
    mul2,
    random_element,
    random_elements,
    sinhc,
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


def test_sl2_product_has_the_outcome_of_from_matrix_of_matmul():
    # the bits of from_matrix(a @ b), or its error type and message when the
    # product leaves the floats or its det cancels to 0
    def outcome(f):
        try:
            c = f()
        except ValueError as e:
            return type(e), str(e)
        return repr((c.z1, c.z2, c.z3, c.z4))

    rng = np.random.default_rng(3)
    pairs = [(random_element("sl2c", rng), random_element("sl2c", rng)) for _ in range(300)]
    big, x, y = SL2Element(1e200, 0, 0, 1e-200), SL2Element(1, 1e150, 0, 1), SL2Element(1, 0, 1e150, 1)
    pairs += [(big, big), (big.inverse(), big.inverse()), (x, y), (y, x)]
    with np.errstate(over="ignore", invalid="ignore"):
        got = [outcome(lambda: a @ b) for a, b in pairs]
        want = [outcome(lambda: SL2Element.from_matrix(a.as_matrix() @ b.as_matrix())) for a, b in pairs]
    assert got == want
    assert got[-4:] == [(ValueError, "non-finite matrix entry")] * 2 + [(MembershipError, "det = 0j is not 1")] * 2


def test_products_past_the_floats_leave_the_check_to_the_caller_without_a_warning():
    # numpy's "overflow encountered in dot" (or in matmul) came first, and
    # under warnings as errors it was raised in place of the ValueError
    big = SL2Element(1e200, 0, 0, 1e-200)
    rows = [[big.z1, big.z2, big.z3, big.z4]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^non-finite matrix entry$"):
            big @ big
        for n in (1, 3):
            assert not np.isfinite(mul2(rows * n, rows * n)).all()


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


def ref_iwasawa_gu(a):
    """iwasawa_gu as it was, through the element constructors: (alpha, nu, r, gamma)."""
    s = _inverse_norm(a.z1, a.z3)
    g = SU2Element(s * a.z1, s * a.z3)
    u = SB2Element(1.0 / s, s * (a.z1.conjugate() * a.z2 + a.z3.conjugate() * a.z4))
    return g.alpha, g.nu, u.r, u.gamma


def ref_iwasawa_ug(a):
    """iwasawa_ug as it was, through the element constructors: (r, gamma, alpha, nu)."""
    t = _inverse_norm(a.z3, a.z4)
    u = SB2Element(t, t * (a.z1 * a.z3.conjugate() + a.z2 * a.z4.conjugate()))
    g = SU2Element(t * a.z4.conjugate(), t * a.z3)
    return u.r, u.gamma, g.alpha, g.nu


def unchecked_sl2(z1, z2, z3, z4):
    """An SL2Element holding the four entries as given, without the det check."""
    a = object.__new__(SL2Element)
    a.z1, a.z2, a.z3, a.z4 = complex(z1), complex(z2), complex(z3), complex(z4)
    return a


def iwasawa_outcomes(a):
    """repr of the parts of both factorizations of a, as each kernel, its element wrapper and
    its reference gives them, or of the type and message of what each raises."""
    def parts(f, *args):
        try:
            return repr(tuple(f(*args)))
        except Exception as e:  # noqa: BLE001 - the type and message are the comparison
            return repr((type(e), str(e)))

    def gu_elements(a):
        g, u = iwasawa_gu(a)
        return g.alpha, g.nu, u.r, u.gamma

    def ug_elements(a):
        u, g = iwasawa_ug(a)
        return u.r, u.gamma, g.alpha, g.nu

    z = (a.z1, a.z2, a.z3, a.z4)
    return ([parts(iwasawa_gu_kernel, *z), parts(gu_elements, a), parts(ref_iwasawa_gu, a)],
            [parts(iwasawa_ug_kernel, *z), parts(ug_elements, a), parts(ref_iwasawa_ug, a)])


def test_iwasawa_kernels_bitwise_match_the_constructor_path():
    # seeded draws, and entries from 1e-200 to 1e200 with exact zeros of either
    # sign: both factorizations in all three forms agree to the zero's sign,
    # or raise the same exception with the same message
    rng = np.random.default_rng(35)
    draws = [(a.z1, a.z2, a.z3, a.z4) for a in random_elements("sl2c", 500, rng)]
    for _ in range(3000):
        parts = rng.standard_normal(8) * 10.0 ** rng.uniform(-200, 200, 8)
        parts[rng.random(8) < 0.3] = 0.0
        parts = (parts * rng.choice([1.0, -1.0], 8)).tolist()  # a zero of either sign
        draws.append([complex(parts[2 * i], parts[2 * i + 1]) for i in range(4)])
    seen = set()
    for z in draws:
        for forms in iwasawa_outcomes(unchecked_sl2(*z)):
            assert forms[0] == forms[1] == forms[2], z
            seen.add(forms[0].split(",")[0] if forms[0].startswith("(<class") else "parts")
    # the draws reach the parts and both exception types
    assert seen == {"parts", "(<class 'ValueError'>", "(<class 'doubleflow.groups.MembershipError'>"}


@pytest.mark.parametrize("z, gu_error, ug_error", [
    # |z1|^2 + |z3|^2 and |z3|^2 + |z4|^2 overflow
    ((1e200, 0, 1e200, 1e200), (ValueError, "non-finite matrix entry"), (ValueError, "non-finite matrix entry")),
    # ... or underflow to 0
    ((1e-170, 1, 1e-170, 1e-170), (ValueError, "non-finite matrix entry"), (ValueError, "non-finite matrix entry")),
    # gamma past the floats; the other factorization's |z4|^2 or |z1|^2 overflows
    ((1, 1e308, 1, 1e308), (MembershipError, "non-finite gamma"), (ValueError, "non-finite matrix entry")),
    ((1e308, 1e308, 1, 1), (ValueError, "non-finite matrix entry"), (MembershipError, "non-finite gamma")),
    # a subnormal |z1|^2 or |z4|^2: the SU(2) factor misses its norm by 3e-5
    ((1.234e-160, 0, 0, 1), (MembershipError, "|alpha|^2 + |nu|^2 = 1.00002999882293 is not 1"), None),
    ((1, 0, 0, 1.234e-160), None, (MembershipError, "|alpha|^2 + |nu|^2 = 1.00002999882293 is not 1")),
], ids=["norm_overflows", "norm_underflows", "gu_gamma_overflows", "ug_gamma_overflows",
        "gu_norm_off_by_3e-5", "ug_norm_off_by_3e-5"])
def test_iwasawa_kernels_raise_what_the_constructors_raise(z, gu_error, ug_error):
    for forms, error in zip(iwasawa_outcomes(unchecked_sl2(*z)), (gu_error, ug_error)):
        assert forms[0] == forms[1] == forms[2]
        assert forms[0] == repr(error) if error else not forms[0].startswith("(<class")


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


def test_gu_products_pinned_bitwise_matches_matmul():
    # the one numeric home of the product a = g·u has the bits of g @ u under
    # every OpenBLAS kernel, pair by pair and as one stack; 20,000 pairs with
    # r from 1e-8 to 1e8 and signed zeros in gamma and nu
    rng = np.random.default_rng(29)
    gs, us, got, want = [], [], [], []
    for k in range(20000):
        x = rng.standard_normal(4)
        if k % 4 == 0:
            x[2:] = rng.choice([0.0, -0.0], 2)
        elif k % 4 == 1:
            x[rng.integers(2, 4)] = rng.choice([0.0, -0.0])
        x = x / math.sqrt(x.dot(x))
        g = SU2Element(complex(x[0], x[1]), complex(x[2], x[3]))
        gamma = rng.standard_normal(2) * 10.0 ** rng.integers(-8, 9)
        if k % 3 == 0:
            gamma[rng.integers(2)] = rng.choice([0.0, -0.0])
        elif k % 3 == 1:
            gamma[:] = rng.choice([0.0, -0.0], 2)
        u = SB2Element(10.0 ** rng.uniform(-8.0, 8.0), complex(gamma[0], gamma[1]))
        gs.append(g)
        us.append(u)
        got.append(gu_products([(g.alpha, g.nu, u.r, u.gamma)])[0])
        want.append((g.as_matrix() @ u.as_matrix()).ravel())
    assert np.array(got).tobytes() == np.array(want).tobytes()
    parts = [(g.alpha, g.nu, u.r, u.gamma) for g, u in zip(gs, us)]
    assert np.array(gu_products(parts)).tobytes() == np.array(want).tobytes()


def exp2x2(m):
    """expm2_kernel on the entries of the 2x2 matrix m, as a 2x2 array."""
    return np.array(expm2_kernel(*np.asarray(m, dtype=complex).ravel().tolist())).reshape(2, 2)



def test_check_finite_rejects():
    bad = (
        np.array([1.0, np.nan]),
        np.array([[np.inf, 0], [0, 1]], dtype=complex),
        np.array([complex(np.nan, 0.0), 1.0]),
        np.array([complex(-np.inf, 0.0), 1.0]),
        # only the imaginary part is non-finite
        np.array([[1.0, complex(0.0, np.nan)], [0.0, 1.0]]),
        np.array([complex(2.0, np.inf), 1.0]),
        np.array(np.nan),
        np.array(complex(0.0, np.inf)),
        [[1.0, 0.0], [0.0, np.inf]],
    )
    for a in bad:
        with pytest.raises(ValueError, match="^non-finite matrix entry$"):
            check_finite(a)


def test_check_finite_returns_finite_input_as_ndarray():
    a = check_finite([[1.0, 2.0], [3.0, 4.0]])
    assert isinstance(a, np.ndarray) and a.shape == (2, 2)
    assert a.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    z = check_finite([complex(1.0, -2.0)])
    assert isinstance(z, np.ndarray) and z.dtype == complex
    m = np.array([[1.0, 2j], [0.5, 1.0]])
    assert check_finite(m) is m
    # 0-d and transposed complex input is checked, not refused for its layout
    assert check_finite(np.array(3.0)).shape == ()
    assert check_finite(np.array(1.0 + 2j)).shape == ()
    assert check_finite(m.T).tolist() == m.T.tolist()


def test_sinhc_series_matches_direct():
    # values straddling the series cutoff agree through it
    for x in (1e-9, 1e-7, 9.9e-7, 1.1e-6, 1e-3, 0.5, 2.0 + 1.0j):
        direct = np.sinh(complex(x)) / complex(x)
        assert abs(sinhc(x) - direct) < 1e-14
    assert sinhc(0.0) == 1.0


def test_expm2_matches_scipy():
    worst = 0.0
    for k in range(100):
        rng = np.random.default_rng(k)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        worst = max(worst, float(np.max(np.abs(exp2x2(m) - scipy.linalg.expm(m)))))
    assert worst < 1e-12


def test_expm2_traceless_determinant_one():
    # traceless generators exponentiate into SL(2,C)
    for k in range(100):
        rng = np.random.default_rng(1000 + k)
        a, b, c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        m = np.array([[a, b], [c, -a]])
        assert abs(np.linalg.det(exp2x2(m)) - 1.0) < 1e-12


def test_expm2_nilpotent_and_zero():
    np.testing.assert_allclose(exp2x2(np.zeros((2, 2))), np.eye(2))
    n = np.array([[0, 3.5 - 1j], [0, 0]], dtype=complex)
    np.testing.assert_allclose(exp2x2(n), np.eye(2) + n)  # n^2 = 0


def expm2_array_reference(m):
    """The 2x2 exponential as elementwise numpy arithmetic on the complex array m."""
    mu = complex(m[0, 0] + m[1, 1]) / 2.0
    n = m - mu * np.eye(2)
    delta = cmath.sqrt(-complex(n[0, 0] * n[1, 1] - n[0, 1] * n[1, 0]))
    return cmath.exp(mu) * (cmath.cosh(delta) * np.eye(2, dtype=complex) + sinhc(delta) * n)


def assert_kernel_bits(m):
    """expm2_kernel on m's entries has the reference's bytes (so ±0 too)."""
    want = expm2_array_reference(m).tobytes()
    assert exp2x2(m).tobytes() == want, m


def test_expm2_kernel_bitwise_matches_array_formula_on_su2_multiples():
    """Every s·m a closed-form row exponentiates, for s·m as the row forms it.

    m ranges over legendre_map generators, which the perturbed X + A0 is one
    of, and the perturbed X; the row multiplies each entry by complex(s), as
    numpy promotes s.
    """
    rng = np.random.default_rng(20)
    for k in range(20_000):
        u = random_element("sb2", rng)
        F, lam = rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0)
        gens = [legendre_map(u, F).value]
        if k % 10 == 0:
            gens.append(_perturbed_x(lam, u.r))
        for m in gens:
            for s in ([rng.uniform(-50.0, 50.0)] if k % 50 else [0.0, -0.0, 1e-9, -2e-8]):
                sm = s * m
                row = [complex(s) * z for z in m.ravel().tolist()]
                assert np.array(row).tobytes() == sm.ravel().tobytes()
                assert_kernel_bits(sm)


def test_exp_group_su2_bitwise_matches_array_formula():
    # general su2 elements [[i·a, b], [-conj(b), -i·a]], zero entries included
    rng = np.random.default_rng(21)
    for k in range(2_000):
        a, b = rng.standard_normal(), complex(*rng.standard_normal(2))
        if k % 4 == 0:
            a, b = (0.0, b) if k % 8 else (a, 0j)
        x = AlgebraElement("su2", rng.uniform(-5.0, 5.0) * np.array(
            [[1j * a, b], [-b.conjugate(), -1j * a]]))
        got = exp_group(x)
        want = SU2Element.from_matrix(expm2_array_reference(x.value))
        assert np.array([got.alpha, got.nu]).tobytes() == np.array([want.alpha, want.nu]).tobytes()
        assert_kernel_bits(x.value)
