"""Property tests of the library kernels: expm2_kernel, the Iwasawa factorizations
and the Legendre round trip, on generated inputs with fixed seeds."""

import cmath
import math

import numpy as np
import pytest
import scipy.linalg

from doubleflow.dynamics import legendre_invert, legendre_map
from doubleflow.groups import (
    SB2Element,
    SL2Element,
    SU2Element,
    expm2_kernel,
    iwasawa_gu,
    iwasawa_ug,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
DERANDOMIZED = hypothesis.settings(max_examples=200, derandomize=True, database=None,
                                   deadline=None)

ANGLE = st.floats(0.0, 2.0 * math.pi)
UNIT = st.floats(-1.0, 1.0)
# the SB(2,C) domain: r in [1/8, 8], |gamma| <= 4
SB2 = st.builds(lambda log2r, rho, psi: SB2Element(2.0 ** log2r, cmath.rect(rho, psi)),
                st.floats(-3.0, 3.0), st.floats(0.0, 4.0), ANGLE)
SU2 = st.builds(lambda theta, p1, p2: SU2Element(cmath.rect(math.cos(theta), p1),
                                                  cmath.rect(math.sin(theta), p2)),
                st.floats(0.0, 0.5 * math.pi), ANGLE, ANGLE)


# m = mu*I + delta*R with R traceless and -det R = 1, so expm2_kernel sees the given
# delta; |delta| from 1e-9 to 1e-4 straddles the 1e-6 cutoff of the sinhc series
@DERANDOMIZED
@hypothesis.given(log_delta=st.floats(-9.0, -4.0), theta=ANGLE, mu=st.tuples(UNIT, UNIT),
                  a=st.tuples(UNIT, UNIT), b_abs=st.floats(0.5, 2.0), b_arg=ANGLE)
def test_expm2_matches_scipy_near_singular_delta(log_delta, theta, mu, a, b_abs, b_arg):
    a, b = complex(*a), cmath.rect(b_abs, b_arg)
    r = np.array([[a, b], [(1.0 - a * a) / b, -a]])
    m = complex(*mu) * np.eye(2) + cmath.rect(10.0 ** log_delta, theta) * r
    want = scipy.linalg.expm(m)
    got = np.array(expm2_kernel(*m.ravel().tolist())).reshape(2, 2)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@DERANDOMIZED
@hypothesis.given(g=SU2, u=SB2)
def test_iwasawa_recomposes_and_returns_the_factors(g, u):
    am = g.as_matrix() @ u.as_matrix()
    a = SL2Element.from_matrix(am)
    g2, u2 = iwasawa_gu(a)
    assert np.max(np.abs(g2.as_matrix() @ u2.as_matrix() - am)) < 1e-12
    u3, g3 = iwasawa_ug(a)
    assert np.max(np.abs(u3.as_matrix() @ g3.as_matrix() - am)) < 1e-12
    assert max(abs(g2.alpha - g.alpha), abs(g2.nu - g.nu),
               abs(u2.r - u.r), abs(u2.gamma - u.gamma)) < 1e-10


def legendre_round_trip_error(u):
    back = legendre_invert(legendre_map(u, 1.0))
    return max(abs(back.r - u.r), abs(back.gamma - u.gamma))


@DERANDOMIZED
@hypothesis.given(u=SB2)
def test_legendre_round_trip(u):
    assert legendre_round_trip_error(u) < 1e-10


# s = r^2 - 1/r^2 + |gamma|^2 is about -1e6 at r = 1e-3, and s + sqrt(s^2 + |w|^2 + 1)
# cancels: the FOUND line on legendre_invert in CHANGES.md
@pytest.mark.xfail(strict=True, reason="legendre_invert loses r to cancellation for s << 0")
def test_legendre_round_trip_small_r():
    assert legendre_round_trip_error(SB2Element(1e-3, 0.0)) < 1e-10
