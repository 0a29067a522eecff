"""Coordinate Poisson structures as explicit tables of polynomial structure functions.

Structure functions are Laurent polynomials in the coordinates (negative
powers occur only on the real coordinate r), so antisymmetry and reality are
checkable at the coefficient level and the derivatives feeding the Jacobi
identity are exact.  Each complex coordinate and its conjugate are independent
indices (Wirtinger convention); the conjugate half of every table is generated
once from the reality rule {conj a, conj b} = conj {a, b}, never hand-entered.

Four systems are built: "sl2c" (z1..z4 and conjugates), "su2" (alpha, nu and
conjugates), "sb2" (r, gamma, conj gamma), and "double" (su2 + sb2 coordinates
with the cross entries coupling them).

Polynomials are values: no method changes a Poly after it is built, so each
one keeps its evaluation form and its partial derivatives once computed.  Each
table likewise memoizes the polynomials that do not depend on the sample point
(Jacobi cyclic sums, reality and inversion images, Casimir functions), and
sampled checks only evaluate them.  The memo is bounded, because the tables and
the coordinate triples, entries and named functions it is keyed by are fixed.
"""

import itertools
import json
import math

import numpy as np

from .groups import _as_rng, random_element

__all__ = [
    "CoordinateSystem",
    "COORD_SYSTEMS",
    "Poly",
    "BracketTable",
    "get_table",
    "named_function",
    "poisson_point",
    "random_point",
    "point_of_element",
    "gradient_covector",
]

CONJ_TOL = 1e-12


class CoordinateSystem:
    """Ordered coordinate names, conjugation pairing, Laurent-allowed names."""

    __slots__ = ("name", "coords", "conj", "laurent", "_index")

    def __init__(self, name, coords, conj, laurent=()):
        self.name = name
        self.coords = tuple(coords)
        self.conj = dict(conj)
        self.laurent = frozenset(laurent)
        self._index = {c: i for i, c in enumerate(self.coords)}

    def index(self, coord: str) -> int:
        try:
            return self._index[coord]
        except KeyError:
            raise KeyError(f"{coord!r} is not a coordinate of system {self.name!r}") from None


def _pairs(*bases):
    m = {}
    for b in bases:
        m[b] = b + "c"
        m[b + "c"] = b
    return m

_SU2_CONJ = _pairs("alpha", "nu")
_SB2_CONJ = {"r": "r", **_pairs("gamma")}

COORD_SYSTEMS = {
    "sl2c": CoordinateSystem(
        "sl2c",
        ("z1", "z2", "z3", "z4", "z1c", "z2c", "z3c", "z4c"),
        _pairs("z1", "z2", "z3", "z4"),
    ),
    "su2": CoordinateSystem("su2", ("alpha", "nu", "alphac", "nuc"), _SU2_CONJ),
    "sb2": CoordinateSystem("sb2", ("r", "gamma", "gammac"), _SB2_CONJ, laurent=("r",)),
    "double": CoordinateSystem(
        "double",
        ("alpha", "nu", "alphac", "nuc", "r", "gamma", "gammac"),
        {**_SU2_CONJ, **_SB2_CONJ},
        laurent=("r",),
    ),
}


class Poly:
    """Laurent polynomial with complex coefficients over one coordinate system.

    terms maps an exponent tuple (aligned with the system's coordinate order,
    possibly negative on Laurent coordinates) to its coefficient.  The
    monomials in evaluation form and the partial derivatives are built on first
    use and kept.
    """

    __slots__ = ("cs", "terms", "_monomials", "_diffs")

    def __init__(self, cs: CoordinateSystem, terms=None):
        self.cs = cs
        self._monomials = None
        self._diffs = {}
        clean = {}
        for exps, c in (terms or {}).items():
            c = complex(c)
            if c != 0:
                exps = tuple(exps)
                acc = clean.get(exps, 0j) + c
                if acc == 0:
                    clean.pop(exps, None)
                else:
                    clean[exps] = acc
        self.terms = clean

    @classmethod
    def zero(cls, cs):
        return cls(cs)

    @classmethod
    def const(cls, cs, c):
        return cls(cs, {(0,) * len(cs.coords): c})

    @classmethod
    def var(cls, cs, name):
        e = [0] * len(cs.coords)
        e[cs.index(name)] = 1
        return cls(cs, {tuple(e): 1.0})

    @classmethod
    def from_monomials(cls, cs, monomials):
        """monomials: iterable of (coeff, {name: exponent})."""
        terms = {}
        for c, powers in monomials:
            e = [0] * len(cs.coords)
            for name, k in powers.items():
                e[cs.index(name)] = int(k)
            exps = tuple(e)
            terms[exps] = terms.get(exps, 0j) + complex(c)
        return cls(cs, terms)

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0j) + c
        return Poly(self.cs, terms)

    def __neg__(self):
        return Poly(self.cs, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly(self.cs, {e: c * other for e, c in self.terms.items()})
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0j) + c1 * c2
        return Poly(self.cs, terms)

    __rmul__ = __mul__

    def conj(self):
        """Complex conjugate: conjugate coefficients, swap conjugate-pair names."""
        perm = [self.cs.index(self.cs.conj[name]) for name in self.cs.coords]
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * len(e)
            for i, k in enumerate(e):
                ne[perm[i]] = k
            terms[tuple(ne)] = terms.get(tuple(ne), 0j) + c.conjugate()
        return Poly(self.cs, terms)

    def diff(self, name):
        """Formal partial derivative (Wirtinger derivative for complex names)."""
        d = self._diffs.get(name)
        if d is None:
            i = self.cs.index(name)
            terms = {}
            for e, c in self.terms.items():
                if e[i] == 0:
                    continue
                ne = e[:i] + (e[i] - 1,) + e[i + 1:]
                terms[ne] = terms.get(ne, 0j) + c * e[i]
            d = self._diffs[name] = Poly(self.cs, terms)
        return d

    def evaluate(self, point) -> complex:
        monomials = self._monomials
        if monomials is None:
            # (coeff, ((name, k), ...)) with the zero exponents dropped,
            # factors in coordinate order
            coords = self.cs.coords
            monomials = self._monomials = tuple(
                (c, tuple((name, k) for name, k in zip(coords, e) if k))
                for e, c in self.terms.items()
            )
        total = 0j
        for c, powers in monomials:
            v = c
            for name, k in powers:
                v *= complex(point[name]) ** k
            total += v
        return total

    def max_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def is_zero(self, tol=0.0) -> bool:
        return self.max_coeff() <= tol

    def __repr__(self):
        return f"Poly({self.cs.name}, {len(self.terms)} terms)"


def _canonical(cs, a, b, poly):
    if cs.index(a) <= cs.index(b):
        return a, b, poly
    return b, a, -poly


def _complete_table(cs, seeds):
    """Close seed entries under the reality rule, with consistency checks."""
    entries = {}
    pending = []
    for (a, b), monomials in seeds.items():
        if a == b:
            raise ValueError(f"diagonal seed ({a},{a}) is forbidden")
        pending.append(_canonical(cs, a, b, Poly.from_monomials(cs, monomials)))
    while pending:
        a, b, poly = pending.pop()
        key = (a, b)
        if key in entries:
            if not (entries[key] - poly).is_zero(1e-12):
                raise ValueError(f"inconsistent entries for ({a},{b})")
            continue
        entries[key] = poly
        pending.append(_canonical(cs, cs.conj[a], cs.conj[b], poly.conj()))
    return {k: v for k, v in entries.items() if not v.is_zero()}


_I2 = 0.5j

_SL2C_SEEDS = {
    ("z1", "z2"): [(-_I2, {"z1": 1, "z2": 1})],
    ("z1", "z3"): [(+_I2, {"z1": 1, "z3": 1})],
    ("z1", "z4"): [],
    ("z2", "z3"): [(1j, {"z1": 1, "z4": 1})],
    ("z2", "z4"): [(+_I2, {"z2": 1, "z4": 1})],
    ("z3", "z4"): [(-_I2, {"z3": 1, "z4": 1})],
    ("z1", "z1c"): [(-_I2, {"z1": 1, "z1c": 1}), (-1j, {"z3": 1, "z3c": 1})],
    ("z2", "z2c"): [(-_I2, {"z2": 1, "z2c": 1}), (-1j, {"z1": 1, "z1c": 1}), (-1j, {"z4": 1, "z4c": 1})],
    ("z3", "z3c"): [(-_I2, {"z3": 1, "z3c": 1})],
    ("z4", "z4c"): [(-_I2, {"z4": 1, "z4c": 1}), (-1j, {"z3": 1, "z3c": 1})],
    ("z1", "z2c"): [(-1j, {"z3": 1, "z4c": 1})],
    ("z1", "z3c"): [],
    ("z1", "z4c"): [(+_I2, {"z1": 1, "z4c": 1})],
    ("z2", "z3c"): [(+_I2, {"z2": 1, "z3c": 1})],
    ("z2", "z4c"): [(-1j, {"z1": 1, "z3c": 1})],
    ("z3", "z4c"): [],
}

_SU2_SEEDS = {
    ("alpha", "alphac"): [(-1j, {"nu": 1, "nuc": 1})],
    ("nu", "nuc"): [],
    ("alpha", "nu"): [(+_I2, {"alpha": 1, "nu": 1})],
    ("alphac", "nuc"): [(-_I2, {"alphac": 1, "nuc": 1})],
    ("alpha", "nuc"): [(+_I2, {"alpha": 1, "nuc": 1})],
    ("alphac", "nu"): [(-_I2, {"alphac": 1, "nu": 1})],
}

_SB2_SEEDS = {
    ("gamma", "r"): [(+_I2, {"gamma": 1, "r": 1})],
    ("gammac", "gamma"): [(1j, {"r": 2}), (-1j, {"r": -2})],
}

_CROSS_SEEDS = {
    ("nu", "gamma"): [(-0.25j, {"nu": 1, "gamma": 1}), (-1j, {"alphac": 1, "r": -1})],
    ("alpha", "gamma"): [(-0.25j, {"alpha": 1, "gamma": 1}), (1j, {"nuc": 1, "r": -1})],
    ("nuc", "gamma"): [(0.25j, {"nuc": 1, "gamma": 1})],
    ("alphac", "gamma"): [(0.25j, {"alphac": 1, "gamma": 1})],
    ("nu", "r"): [(-0.25j, {"nu": 1, "r": 1})],
    ("alpha", "r"): [(-0.25j, {"alpha": 1, "r": 1})],
}


class BracketTable:
    """Antisymmetric table of structure functions over one coordinate system."""

    __slots__ = ("system", "cs", "entries", "_cache")

    def __init__(self, system, entries):
        self.system = system
        self.cs = COORD_SYSTEMS[system]
        self.entries = dict(entries)
        self._cache = {}

    def _memo(self, key, build):
        """The point-independent object stored under key, built on first use."""
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build()
        return value

    def entry(self, a, b) -> Poly:
        """The structure polynomial {a, b}; antisymmetry is applied on lookup."""
        ia, ib = self.cs.index(a), self.cs.index(b)
        if ia == ib:
            return Poly.zero(self.cs)
        if ia < ib:
            return self.entries.get((a, b), Poly.zero(self.cs))
        p = self.entries.get((b, a))
        return -p if p is not None else Poly.zero(self.cs)

    def bracket_eval(self, a, b, point) -> complex:
        return self.entry(a, b).evaluate(point)

    def poly_bracket(self, f: Poly, g: Poly) -> Poly:
        """{f, g} by the Leibniz rule, exact in the coefficients."""
        out = Poly.zero(self.cs)
        for (a, b), t in self.entries.items():
            fa, gb = f.diff(a), g.diff(b)
            fb, ga = f.diff(b), g.diff(a)
            if fa.terms and gb.terms:
                out = out + t * (fa * gb)
            if fb.terms and ga.terms:
                out = out - t * (fb * ga)
        return out

    def hamiltonian_field(self, eta, point):
        """Per-coordinate rates of the field Λ(η): rate(a) = Σ_b {a,b}(p)·η_b.

        eta must supply a component for every coordinate of the system
        (Wirtinger components in conjugate pairs for real 1-forms).
        """
        missing = [c for c in self.cs.coords if c not in eta]
        if missing:
            raise ValueError(f"missing covector components: {missing}")
        rates = {c: 0j for c in self.cs.coords}
        for (a, b), t in self.entries.items():
            v = t.evaluate(point)
            rates[a] += v * complex(eta[b])
            rates[b] -= v * complex(eta[a])
        return rates

    def jacobi_poly(self, a, b, c) -> Poly:
        """{{a,b},c} + {{b,c},a} + {{c,a},b} as an exact polynomial."""
        def build():
            pa, pb, pc = (Poly.var(self.cs, x) for x in (a, b, c))
            return (
                self.poly_bracket(self.poly_bracket(pa, pb), pc)
                + self.poly_bracket(self.poly_bracket(pb, pc), pa)
                + self.poly_bracket(self.poly_bracket(pc, pa), pb)
            )

        return self._memo(("jacobi", a, b, c), build)

    def jacobi_residual(self, a, b, c, point) -> float:
        return abs(self.jacobi_poly(a, b, c).evaluate(point))

    def jacobi_max_residual(self, points):
        """Max |Jacobi| over all coordinate triples and the given points."""
        worst = 0.0
        for a, b, c in itertools.combinations(self.cs.coords, 3):
            poly = self.jacobi_poly(a, b, c)
            if not poly.terms:
                continue
            for p in points:
                worst = max(worst, abs(poly.evaluate(p)))
        return worst

    def casimir_residual(self, fname, point) -> float:
        """max_a |{f, a}|(p) for the named function, via η = df."""
        f = self._memo(("function", fname), lambda: named_function(self.system, fname))
        rates = self.hamiltonian_field(gradient_covector(f, point), point)
        return max(abs(v) for v in rates.values())

    def table_symmetry_checks(self, point):
        """Residuals of the reality rule and (on sl2c) the inversion symmetry."""
        reality = 0.0
        for lhs, rhs in self._memo("reality", self._reality_pairs):
            reality = max(reality, abs(lhs.evaluate(point) - rhs.evaluate(point)))
        report = {"reality": reality}
        if self.system == "sl2c":
            inversion = 0.0
            for lhs, sign, rhs in self._memo("inversion", self._inversion_triples):
                inversion = max(inversion, abs(lhs.evaluate(point) - sign * rhs.evaluate(point)))
            report["inversion"] = inversion
        return report

    def _reality_pairs(self):
        """(conj {a,b}, {conj a, conj b}) for every stored entry."""
        conj = self.cs.conj
        return [(t.conj(), self.entry(conj[a], conj[b])) for (a, b), t in self.entries.items()]

    def _inversion_triples(self):
        """(σ{a,b}, s_a·s_b, {σa, σb}) for every coordinate pair, σ the inversion."""
        out = []
        for a, b in itertools.combinations(self.cs.coords, 2):
            sa, na = _SIGMA[a]
            sb, nb = _SIGMA[b]
            out.append((_sigma_poly(self.entry(a, b)), sa * sb, self.entry(na, nb)))
        return out

    def to_json(self) -> str:
        doc = {"system": self.system, "entries": []}
        for (a, b) in sorted(self.entries, key=lambda k: (self.cs.index(k[0]), self.cs.index(k[1]))):
            t = self.entries[(a, b)]
            doc["entries"].append({
                "a": a,
                "b": b,
                "terms": [
                    {"c": [t.terms[e].real, t.terms[e].imag], "e": list(e)}
                    for e in sorted(t.terms)
                ],
            })
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, s: str) -> "BracketTable":
        doc = json.loads(s)
        cs = COORD_SYSTEMS[doc["system"]]
        entries = {}
        for ent in doc["entries"]:
            terms = {tuple(t["e"]): complex(t["c"][0], t["c"][1]) for t in ent["terms"]}
            entries[(ent["a"], ent["b"])] = Poly(cs, terms)
        return cls(doc["system"], entries)

    def __repr__(self):
        return f"BracketTable({self.system!r}, {len(self.entries)} entries)"


# Inversion a -> a^(-1) on SL(2,C): z1 <-> z4, z2 -> -z2, z3 -> -z3.
_SIGMA = {
    "z1": (1, "z4"), "z4": (1, "z1"), "z2": (-1, "z2"), "z3": (-1, "z3"),
    "z1c": (1, "z4c"), "z4c": (1, "z1c"), "z2c": (-1, "z2c"), "z3c": (-1, "z3c"),
}


def _sigma_poly(p: Poly) -> Poly:
    cs = p.cs
    perm = [cs.index(_SIGMA[name][1]) for name in cs.coords]
    signs = [_SIGMA[name][0] for name in cs.coords]
    terms = {}
    for e, c in p.terms.items():
        ne = [0] * len(e)
        s = 1
        for i, k in enumerate(e):
            ne[perm[i]] = k
            if k % 2 and signs[i] < 0:
                s = -s
        ne = tuple(ne)
        terms[ne] = terms.get(ne, 0j) + s * c
    return Poly(cs, terms)


_SEEDS = {
    "sl2c": _SL2C_SEEDS,
    "su2": _SU2_SEEDS,
    "sb2": _SB2_SEEDS,
    "double": {**_SU2_SEEDS, **_SB2_SEEDS, **_CROSS_SEEDS},
}

_TABLES = {}


def get_table(system: str) -> BracketTable:
    """The cached bracket table for one of sl2c, su2, sb2, double."""
    table = _TABLES.get(system)
    if table is None:
        if system not in _SEEDS:
            raise KeyError(f"unknown bracket system {system!r}")
        entries = _complete_table(COORD_SYSTEMS[system], _SEEDS[system])
        table = _TABLES[system] = BracketTable(system, entries)
    return table


def named_function(system: str, name: str) -> Poly:
    """Named polynomial observables used in Casimir and conservation checks."""
    cs = COORD_SYSTEMS[system]
    if system == "sl2c":
        if name == "det":
            return Poly.from_monomials(cs, [(1, {"z1": 1, "z4": 1}), (-1, {"z2": 1, "z3": 1})])
        if name == "conj_det":
            return named_function(system, "det").conj()
        if name == "h0":
            return Poly.from_monomials(
                cs, [(0.5, {f"z{i}": 1, f"z{i}c": 1}) for i in range(1, 5)]
            )
    if system in ("su2", "double"):
        if name == "h_su2_norm":
            return Poly.from_monomials(
                cs, [(1, {"alpha": 1, "alphac": 1}), (1, {"nu": 1, "nuc": 1})]
            )
        if name == "h_nu":
            return Poly.from_monomials(cs, [(0.5, {"nu": 1, "nuc": 1})])
    if system in ("sb2", "double"):
        if name == "h0":
            return Poly.from_monomials(
                cs, [(0.5, {"gamma": 1, "gammac": 1}), (0.5, {"r": 2}), (0.5, {"r": -2})]
            )
    raise KeyError(f"unknown function {name!r} for system {system!r}")


def gradient_covector(f: Poly, point):
    """All Wirtinger components of df at the point, keyed by coordinate name."""
    return {c: f.diff(c).evaluate(point) for c in f.cs.coords}


def poisson_point(system: str, values) -> dict:
    """Build a conjugate-consistent point; missing conjugates are filled in.

    Raises if supplied conjugate pairs disagree beyond 1e-12 or r <= 0.
    """
    cs = COORD_SYSTEMS[system]
    point = {k: complex(v) for k, v in values.items()}
    for name in point:
        cs.index(name)
    for name in cs.coords:
        partner = cs.conj[name]
        if name in point and partner not in point:
            point[partner] = point[name].conjugate()
    missing = [c for c in cs.coords if c not in point]
    if missing:
        raise ValueError(f"missing coordinates: {missing}")
    for name in cs.coords:
        if not (math.isfinite(point[name].real) and math.isfinite(point[name].imag)):
            raise ValueError(f"non-finite value for {name}")
        partner = cs.conj[name]
        if abs(point[partner] - point[name].conjugate()) > CONJ_TOL:
            raise ValueError(f"conjugate mismatch between {name} and {partner}")
    if "r" in cs._index:
        r = point["r"]
        if abs(r.imag) > CONJ_TOL or r.real <= 0:
            raise ValueError("r must be real and positive")
        point["r"] = complex(r.real, 0.0)
    return point


def point_of_element(x, u=None) -> dict:
    """Coordinates of a group element (or an SU2, SB2 pair) as a point dict."""
    from .groups import SL2Element, SU2Element, SB2Element

    if isinstance(x, SL2Element):
        return poisson_point("sl2c", {"z1": x.z1, "z2": x.z2, "z3": x.z3, "z4": x.z4})
    if isinstance(x, SU2Element) and u is None:
        return poisson_point("su2", {"alpha": x.alpha, "nu": x.nu})
    if isinstance(x, SB2Element):
        return poisson_point("sb2", {"r": x.r, "gamma": x.gamma})
    if isinstance(x, SU2Element):
        return poisson_point(
            "double", {"alpha": x.alpha, "nu": x.nu, "r": u.r, "gamma": u.gamma}
        )
    raise TypeError(f"cannot map {type(x).__name__} to a Poisson point")


# Group element kinds drawn for a random point of each bracket system, in order.
_POINT_KINDS = {"sl2c": ("sl2",), "su2": ("su2",), "sb2": ("sb2",), "double": ("su2", "sb2")}


def random_point(system: str, seed, on_surface=True) -> dict:
    """Seeded sample point.  For sl2c, on_surface=False skips the det = 1
    normalization and returns a generic point of C^4."""
    rng = _as_rng(seed)
    if system == "sl2c" and not on_surface:
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        return poisson_point("sl2c", {f"z{i+1}": z[i] for i in range(4)})
    if system not in _POINT_KINDS:
        raise KeyError(f"unknown bracket system {system!r}")
    return point_of_element(*(random_element(kind, rng) for kind in _POINT_KINDS[system]))
