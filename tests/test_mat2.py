import math

import numpy as np
import pytest
import scipy.linalg

from doubleflow.mat2 import (
    check_finite,
    det2,
    expm2,
    frobenius,
    hat3,
    rodrigues3,
    sinhc,
    trace2,
)


def test_mat2_basic_ops():
    m = np.array([[1 + 2j, 3], [4j, -1]], dtype=complex)
    assert det2(m) == (1 + 2j) * (-1) - 3 * 4j
    assert trace2(m) == (1 + 2j) + (-1)
    assert frobenius(m) == pytest.approx(math.sqrt(abs(1 + 2j) ** 2 + 9 + 16 + 1))


def test_check_finite_rejects():
    with pytest.raises(ValueError):
        check_finite(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        check_finite(np.array([1.0 + 1j * np.inf, 0.0]))
    with pytest.raises(ValueError):
        check_finite(np.array([[np.inf, 0], [0, 1]], dtype=complex))


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
        assert abs(det2(expm2(m)) - 1.0) < 1e-12


def test_expm2_nilpotent_and_zero():
    np.testing.assert_allclose(expm2(np.zeros((2, 2))), np.eye(2))
    n = np.array([[0, 3.5 - 1j], [0, 0]], dtype=complex)
    np.testing.assert_allclose(expm2(n), np.eye(2) + n)  # n^2 = 0


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
