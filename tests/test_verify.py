"""The decompositions and legendre suites, random_element, random_point and
legendre_map against their per-sample forms, kept verbatim below as bit references.

The suites draw a block of samples with one generator call, take its 2x2
products as one stacked np.matmul and reduce each residual once per block
with numpy; both suites work on the draw's coordinate tuples through the
scalar kernels, with no element per sample, and legendre_map forms its
entries on Python scalars and skips AlgebraElement's su2 check.  None of
that may move a bit of a draw, a value or a report.
"""

import math
import tracemalloc
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from doubleflow import dynamics as dyn
from doubleflow import groups as grp
from doubleflow import poisson as poi
from doubleflow import verify as ver
from doubleflow.groups import (
    AlgebraElement,
    SB2Element,
    SL2Element,
    SU2Element,
    _algebra_defect,
    _as_rng,
    gu_products,
    iwasawa_gu,
    iwasawa_ug,
    mul2,
    random_element,
    random_elements,
    random_parts,
)
from doubleflow.verify import _check
from test_dynamics import count_element_builds

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def ref_random_element(kind: str, seed):
    """random_element as it was, through np.linalg.norm and @."""
    rng = _as_rng(seed)
    if kind == "su2":
        v = rng.standard_normal(4)
        v = v / np.linalg.norm(v)
        return SU2Element(complex(v[0], v[1]), complex(v[2], v[3]))
    if kind == "sb2":
        r = math.exp(0.5 * rng.standard_normal())
        gamma = complex(rng.standard_normal(), rng.standard_normal()) / math.sqrt(2.0)
        return SB2Element(r, gamma)
    if kind == "sl2c":
        g = ref_random_element("su2", rng)
        u = ref_random_element("sb2", rng)
        return SL2Element(*(g.as_matrix() @ u.as_matrix()).ravel().tolist())


def ref_random_point(system: str, rng, on_surface=True) -> dict:
    """random_point as it was: one element per group kind, or four real and then four
    imaginary normals, through poisson_point and its checks."""
    if not on_surface:
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        return poi.poisson_point("sl2c", {f"z{i+1}": z[i] for i in range(4)})
    names = {SL2Element: ("z1", "z2", "z3", "z4"), SU2Element: ("alpha", "nu"),
             SB2Element: ("r", "gamma")}
    elements = [random_element(kind, rng) for kind in {"double": ("su2", "sb2")}.get(system, (system,))]
    return poi.poisson_point(system, {name: getattr(x, name) for x in elements for name in names[type(x)]})


POINT_KINDS = [("sl2c", True), ("sl2c", False), ("su2", True), ("sb2", True), ("double", True)]


def ref_algebra_defect(kind: str, m: np.ndarray) -> float:
    """_algebra_defect as it was, of one 2x2 matrix."""
    if kind == "su2":
        return float(max(np.abs(m + np.conj(m.T)).max(), abs(m[0, 0] + m[1, 1])))
    return float(max(abs(m[1, 0]), abs(m[0, 0] + m[1, 1]), abs(m[0, 0].imag), abs(m[1, 1].imag)))


def ref_legendre_map(u: SB2Element, F_value: float) -> AlgebraElement:
    """legendre_map as it was, through AlgebraElement's su2 check."""
    r, g = u.r, u.gamma
    try:
        d = r * r - 1.0 / (r * r) + abs(g) ** 2
    except (ZeroDivisionError, OverflowError):  # r^2 underflows or |gamma|^2 overflows
        raise ValueError("non-finite matrix entry") from None
    off = 2.0 * g / r
    with np.errstate(over="ignore", invalid="ignore"):  # AlgebraElement rejects inf and NaN
        m = (-0.25j * float(F_value)) * np.array(
            [[d, off], [off.conjugate(), -d]], dtype=complex
        )
    return AlgebraElement("su2", m)


def ref_suite_decompositions(seed, samples):
    """suite_decompositions as it was: one numpy reduction per sample."""
    rng = np.random.default_rng(seed)
    rec_gu = rec_ug = member = uniq = 0.0
    for _ in range(samples):
        a = ref_random_element("sl2c", rng)
        am = a.as_matrix()
        g, u = iwasawa_gu(a)
        gu = g.as_matrix() @ u.as_matrix()
        rec_gu = max(rec_gu, float(np.abs(gu - am).max()))
        member = max(member, g.membership_defect(), a.membership_defect())
        u2, g2 = iwasawa_ug(a)
        rec_ug = max(rec_ug, float(np.abs(u2.as_matrix() @ g2.as_matrix() - am).max()))
        member = max(member, g2.membership_defect())
        # uniqueness: refactorizing the product returns the factors
        g3, u3 = iwasawa_gu(dyn.SL2Element.from_matrix(gu))
        uniq = max(uniq, abs(g3.alpha - g.alpha), abs(g3.nu - g.nu),
                   abs(u3.r - u.r), abs(u3.gamma - u.gamma))
    return [
        _check("iwasawa_gu_recompose", rec_gu, 1e-12, samples, seed),
        _check("iwasawa_ug_recompose", rec_ug, 1e-12, samples, seed),
        _check("factor_membership", member, 1e-12, samples, seed),
        _check("factor_uniqueness", uniq, 1e-10, samples, seed),
    ]


def ref_suite_legendre(seed, samples):
    """suite_legendre as it was: one numpy reduction per sample."""
    rng = np.random.default_rng(seed)
    in_su2 = round_trip = unreduced_hits = 0.0
    for _ in range(samples):
        u = ref_random_element("sb2", rng)
        v = ref_legendre_map(u, 1.0)
        m = v.value
        in_su2 = max(in_su2, ref_algebra_defect("su2", m))
        u2 = dyn.legendre_invert(v)
        round_trip = max(round_trip, abs(u2.r - u.r), abs(u2.gamma - u.gamma))
        u3 = dyn.legendre_invert(v, unreduced=True)
        v3 = ref_legendre_map(u3, 1.0)
        if float(np.abs(v3.value - m).max()) < 1e-8:
            unreduced_hits += 1.0
    return [
        _check("legendre_lands_in_su2", in_su2, 1e-12, samples, seed),
        _check("legendre_round_trip", round_trip, 1e-10, samples, seed),
        # counts samples where the unreduced inverse accidentally satisfies
        # the round trip; the documented expectation is zero
        _check("legendre_unreduced_inverse_mismatch", unreduced_hits, 0.0, samples, seed),
    ]


SEEDS = [0, 1, 7, 12345, 2**31 - 1]
# across, at and one past a block boundary
SAMPLES = [1, 2, 7, 100, 2000, ver.BLOCK, ver.BLOCK + 1]


def rows(checks):
    return repr([asdict(c) for c in checks])


@pytest.mark.parametrize("seed", SEEDS)
def test_suite_decompositions_pinned_bitwise_matches_reference(seed):
    for samples in SAMPLES:
        got = ver.suite_decompositions(seed, samples)
        assert rows(got) == rows(ref_suite_decompositions(seed, samples)), samples


@pytest.mark.parametrize("seed", SEEDS)
def test_suite_legendre_bitwise_matches_reference(seed):
    for samples in SAMPLES:
        got = ver.suite_legendre(seed, samples)
        assert rows(got) == rows(ref_suite_legendre(seed, samples)), samples


@pytest.mark.parametrize("suite", ["decompositions", "legendre"])
def test_suites_hold_one_block_of_samples(suite):
    # the traced peak does not grow with the sample count; held per sample,
    # four times the samples took 3.5 to 4 times the memory; every check
    # passes with its residuals folded across the blocks
    run = getattr(ver, f"suite_{suite}")
    peaks = []
    for samples in (ver.BLOCK, 4 * ver.BLOCK):
        tracemalloc.start()
        try:
            assert all(check.passed for check in run(0, samples))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]


def test_suite_decompositions_builds_no_element_per_factor(monkeypatch):
    # 2,000 samples cross the block boundary; the draws, the Iwasawa factors and
    # the refactorized products stay Python scalars
    made = Counter()
    count_element_builds(monkeypatch, made, *[(module, name) for module in (grp, ver)
                                               for name in ("iwasawa_gu", "iwasawa_ug")
                                               if hasattr(module, name)])
    ver.suite_decompositions(0, 2000)
    assert made == {}


def test_suite_legendre_makes_no_array_check_per_map(monkeypatch):
    # each of the 4,000 maps forms its four entries on Python scalars, and
    # no sample builds an SB2Element or an AlgebraElement
    made = Counter()
    count_element_builds(monkeypatch, made)
    check_finite = grp.check_finite

    def counted_check(a):
        made["check_finite"] += 1
        return check_finite(a)

    class CountedErrstate(np.errstate):
        def __enter__(self):
            made["errstate"] += 1
            return super().__enter__()

    for module in (grp, dyn, ver):
        if hasattr(module, "check_finite"):
            monkeypatch.setattr(module, "check_finite", counted_check)
    monkeypatch.setattr(np, "errstate", CountedErrstate)
    ver.suite_legendre(0, 2000)
    assert made == {}


def element_bits(*elements):
    """The parts of elements, in order, as one repr."""
    return repr([getattr(x, name) for x in elements for name in type(x).__slots__])


@pytest.mark.parametrize("kind", ["su2", "sb2", "sl2c"])
def test_random_element_pinned_bitwise_matches_reference(kind):
    # the same draws from the generator, and the same bits from them
    for seed in range(300):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [element_bits(random_element(kind, rng)) for _ in range(50)]
        assert got == [element_bits(ref_random_element(kind, ref)) for _ in range(50)], seed
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("system, on_surface", POINT_KINDS)
def test_random_point_pinned_bitwise_matches_reference(system, on_surface):
    # the same draws, the same coordinates in the same order, with the same bits
    for seed in range(100):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [list(poi.random_point(system, rng, on_surface).items()) for _ in range(20)]
        assert repr(got) == repr([list(ref_random_point(system, ref, on_surface).items())
                                  for _ in range(20)]), seed
        assert rng.bit_generator.state == ref.bit_generator.state


def random_matrices(rng, n):
    """n 2x2 complex matrices: su2 and sb2 ones with round-off-sized defects, and
    general ones, at scales from 1e-8 to 1e8."""
    out = []
    for k in range(n):
        z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * 10.0 ** rng.integers(-8, 9)
        if k % 3 == 0:
            z = z - np.conj(z.T)
            z[1, 1] = -z[0, 0] + 1e-13 * rng.standard_normal()
        elif k % 3 == 1:
            z[1, 0] = 1e-14 * rng.standard_normal()
            z[0, 0], z[1, 1] = z[0, 0].real + 1e-13j, -z[0, 0].real
        out.append(z)
    return out


@pytest.mark.parametrize("n", [1, 2, 7, ver.BLOCK, ver.BLOCK + 1])
def test_block_products_and_draws_pinned_bitwise_match_one_at_a_time(n):
    # mul2 against ndarray.dot, pair by pair: on general matrices and on
    # su2·sb2 and sb2·su2 pairs; gu_products against @, pair by pair
    rng = np.random.default_rng(n)
    ms = random_matrices(rng, 2 * n)
    gs, us = random_elements("su2", n, rng), random_elements("sb2", n, rng)
    gu = [g.as_matrix() for g in gs], [u.as_matrix() for u in us]
    for xs, ys in [(ms[:n], ms[n:]), gu, gu[::-1]]:
        got = mul2([x.ravel().tolist() for x in xs], [y.ravel().tolist() for y in ys])
        assert np.array(got).tobytes() == np.array([x.dot(y).ravel() for x, y in zip(xs, ys)]).tobytes()
    parts = [(g.alpha, g.nu, u.r, u.gamma) for g, u in zip(gs, us)]
    assert np.array(gu_products(parts)).tobytes() == np.array([x @ y for x, y in zip(*gu)]).tobytes()
    # a block of n draws as parts (its SU(2) dots one stacked matmul) and as elements,
    # against n single draws, generator state included
    for kind in ("su2", "sb2", "sl2c", "double"):
        rng, wrapped, ref = (np.random.default_rng(n) for _ in range(3))
        got = [repr(list(p)) for p in random_parts(kind, n, rng)]
        kinds = ("su2", "sb2") if kind == "double" else (kind,)
        assert got == [element_bits(*(x if kind == "double" else (x,)))
                       for x in random_elements(kind, n, wrapped)], kind
        assert got == [element_bits(*(random_element(k, ref) for k in kinds)) for _ in range(n)], kind
        assert rng.bit_generator.state == wrapped.bit_generator.state == ref.bit_generator.state
    for system, on_surface in POINT_KINDS:
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        got = [list(p.items()) for p in poi.random_points(system, n, rng, on_surface)]
        assert repr(got) == repr([list(poi.random_point(system, ref, on_surface).items())
                                  for _ in range(n)]), system
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("kind", ["su2", "sb2"])
def test_algebra_defect_of_a_stack_is_the_largest_of_its_matrices(kind):
    rng = np.random.default_rng(5)
    ms = random_matrices(rng, 3000)
    each = [ref_algebra_defect(kind, m) for m in ms]
    assert repr([_algebra_defect(kind, m) for m in ms]) == repr(each)
    for start in range(0, 3000, 300):
        stack = np.array(ms[start:start + 300])
        assert repr(_algebra_defect(kind, stack)) == repr(max(each[start:start + 300]))


SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                           -1e-300, 1e300, -1e300, 1e308, -1e308, math.inf, -math.inf,
                           math.nan])
ANY_FLOAT = st.one_of(SPECIAL, st.floats(), st.floats(-10.0, 10.0))


def outcome(f, *args):
    """f's value bits, or its exception's type and message."""
    try:
        v = f(*args)
    except Exception as e:  # noqa: BLE001 - the type is the comparison
        return type(e), str(e)
    return v.kind, v.value.dtype, v.value.shape, v.value.tobytes()


@hypothesis.settings(max_examples=1500, derandomize=True, database=None, deadline=None)
@hypothesis.given(r=ANY_FLOAT, gamma=st.tuples(ANY_FLOAT, ANY_FLOAT), F=ANY_FLOAT)
def test_legendre_map_matches_reference_and_lands_exactly_in_su2(r, gamma, F):
    # u is built without SB2Element's checks, so the map also sees r <= 0,
    # an infinite r and NaN
    u = object.__new__(SB2Element)
    u.r, u.gamma = r, complex(*gamma)
    got = outcome(dyn.legendre_map, u, F)
    assert got == outcome(ref_legendre_map, u, F)
    if got[0] == "su2":
        assert _algebra_defect("su2", dyn.legendre_map(u, F).value) == 0.0


@pytest.mark.parametrize("F, gamma, want", [
    (1.0, 0.0, "[[-0.9375j, 0j], [-0j, 0.9375j]]"),
    (-1.0, 0.0, "[[0.9375j, 0j], [0j, (-0-0.9375j)]]"),
    (1.0, complex(-0.0, 0.0), "[[-0.9375j, 0j], [-0j, 0.9375j]]"),
    (-1.0, complex(-0.0, 0.0), "[[0.9375j, 0j], [0j, (-0-0.9375j)]]"),
    (1.0, complex(0.0, -0.0), "[[-0.9375j, 0j], [-0j, 0.9375j]]"),
    (-1.0, complex(0.0, -0.0), "[[0.9375j, 0j], [0j, (-0-0.9375j)]]"),
    (1.0, complex(-0.0, -0.0), "[[-0.9375j, -0j], [0j, 0.9375j]]"),
    (-1.0, complex(-0.0, -0.0), "[[0.9375j, 0j], [0j, (-0-0.9375j)]]"),
    (1.0, 0.5 - 0.25j, "[[-1.015625j, (-0.0625-0.125j)], [(0.0625-0.125j), 1.015625j]]"),
    (-1.0, 0.5 - 0.25j, "[[1.015625j, (0.0625+0.125j)], [(-0.0625+0.125j), (-0-1.015625j)]]"),
])
def test_legendre_map_zero_signs_are_pinned(F, gamma, want):
    # c = complex(0.0, -F/4) times each entry, and off = complex(2, 0)·gamma/complex(r, 0),
    # complex x complex: the zero signs of numpy's array product, whatever a Python
    # version does with a float times or over a complex
    assert repr(dyn.legendre_map(SB2Element(2.0, gamma), F).value.tolist()) == want
