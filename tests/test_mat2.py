import cmath

import numpy as np
import pytest
import scipy.linalg

from doubleflow.dynamics import _perturbed_x, legendre_map
from doubleflow.groups import AlgebraElement, SU2Element, exp_group, random_element
from doubleflow.mat2 import (
    check_finite,
    expm2,
    expm2_kernel,
    hat3,
    rodrigues3_kernel,
    sinhc,
)


def rodrigues3(p, t):
    """The rotation by angle |p|·t about p/|p|, as the rotator's flow forms it."""
    p = np.asarray(p, dtype=float)
    return rodrigues3_kernel(hat3(p), float(np.linalg.norm(p)), t)


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
        worst = max(worst, float(np.max(np.abs(expm2(m) - scipy.linalg.expm(m)))))
    assert worst < 1e-12


def test_expm2_traceless_determinant_one():
    # traceless generators exponentiate into SL(2,C)
    for k in range(100):
        rng = np.random.default_rng(1000 + k)
        a, b, c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        m = np.array([[a, b], [c, -a]])
        assert abs(np.linalg.det(expm2(m)) - 1.0) < 1e-12


def test_expm2_nilpotent_and_zero():
    np.testing.assert_allclose(expm2(np.zeros((2, 2))), np.eye(2))
    n = np.array([[0, 3.5 - 1j], [0, 0]], dtype=complex)
    np.testing.assert_allclose(expm2(n), np.eye(2) + n)  # n^2 = 0


def expm2_array_reference(m):
    """The 2x2 exponential as elementwise numpy arithmetic on the complex array m."""
    mu = complex(m[0, 0] + m[1, 1]) / 2.0
    n = m - mu * np.eye(2)
    delta = cmath.sqrt(-complex(n[0, 0] * n[1, 1] - n[0, 1] * n[1, 0]))
    return cmath.exp(mu) * (cmath.cosh(delta) * np.eye(2, dtype=complex) + sinhc(delta) * n)


def assert_kernel_bits(m):
    """expm2_kernel on m's entries, and expm2 on m, have the reference's bytes (so ±0 too)."""
    want = expm2_array_reference(m).tobytes()
    assert np.array(expm2_kernel(*m.ravel().tolist())).tobytes() == want, m
    assert expm2(m).tobytes() == want, m


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
            rodrigues3(p, t) - scipy.linalg.expm(hat3(p) * t)))))
    assert worst < 1e-12


def test_rodrigues3_small_angle_series():
    p = np.array([1e-5, -2e-5, 3e-5])
    r = rodrigues3(p, 1e-5)
    np.testing.assert_allclose(r, scipy.linalg.expm(hat3(p) * 1e-5), atol=1e-15)
    np.testing.assert_allclose(rodrigues3(np.zeros(3), 2.0), np.eye(3))


def test_rodrigues3_is_rotation():
    for k in range(50):
        rng = np.random.default_rng(k)
        r = rodrigues3(rng.standard_normal(3), float(rng.uniform(0, 10)))
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-13)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-13)
