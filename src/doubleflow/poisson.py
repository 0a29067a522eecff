"""Coordinate Poisson structures as explicit tables of polynomial structure functions.

Structure functions are Laurent polynomials in the coordinates (negative
powers occur only on the real coordinate r), so antisymmetry and reality are
checkable at the coefficient level and the derivatives feeding the Jacobi
identity are exact.  Each complex coordinate and its conjugate are independent
indices (Wirtinger convention); the conjugate half of every table is generated
once from the reality rule {conj a, conj b} = conj {a, b}, never hand-entered.

Four systems are declared, one CoordinateSystem record each: "sl2c" (z1..z4
and conjugates), "su2" (alpha, nu and conjugates), "sb2" (r, gamma, conj
gamma), and "double", built from the su2 and sb2 records plus the cross
entries coupling them.

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

from .groups import SB2Element, SL2Element, SU2Element, _as_rng, random_parts

__all__ = [
    "CoordinateSystem",
    "COORD_SYSTEMS",
    "Poly",
    "BracketTable",
    "get_table",
    "named_function",
    "poisson_point",
    "random_point",
    "random_points",
    "point_of_element",
    "gradient_covector",
]

CONJ_TOL = 1e-12


class CoordinateSystem:
    """The one declaration of a bracket system.

    Ordered coordinate names, their conjugation pairing, and the Laurent
    names (negative powers allowed; real and positive at a point).  seeds
    maps coordinate pairs to the monomials of their seed brackets, which
    get_table closes under the reality rule; functions maps observable names
    to monomial lists; sigma is the inversion map name -> (sign, image), or None.
    """

    __slots__ = ("name", "coords", "conj", "laurent", "seeds", "functions", "sigma", "_index")

    def __init__(self, name, coords, conj, laurent=(), *, seeds, functions, sigma=None):
        self.name = name
        self.coords = tuple(coords)
        self.conj = dict(conj)
        self.laurent = frozenset(laurent)
        self.seeds = seeds
        self.functions = functions
        self.sigma = sigma
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


_I2 = 0.5j

# Inversion a -> a^(-1) on SL(2,C): z1 <-> z4, z2 -> -z2, z3 -> -z3.
_SIGMA = {
    "z1": (1, "z4"), "z4": (1, "z1"), "z2": (-1, "z2"), "z3": (-1, "z3"),
    "z1c": (1, "z4c"), "z4c": (1, "z1c"), "z2c": (-1, "z2c"), "z3c": (-1, "z3c"),
}

_SL2C = CoordinateSystem(
    "sl2c",
    ("z1", "z2", "z3", "z4", "z1c", "z2c", "z3c", "z4c"),
    _pairs("z1", "z2", "z3", "z4"),
    seeds={
        ("z1", "z2"): [(-_I2, {"z1": 1, "z2": 1})],
        ("z1", "z3"): [(+_I2, {"z1": 1, "z3": 1})],
        ("z1", "z4"): [],
        ("z2", "z3"): [(1j, {"z1": 1, "z4": 1})],
        ("z2", "z4"): [(+_I2, {"z2": 1, "z4": 1})],
        ("z3", "z4"): [(-_I2, {"z3": 1, "z4": 1})],
        ("z1", "z1c"): [(-_I2, {"z1": 1, "z1c": 1}), (-1j, {"z3": 1, "z3c": 1})],
        ("z2", "z2c"): [(-_I2, {"z2": 1, "z2c": 1}), (-1j, {"z1": 1, "z1c": 1}),
                        (-1j, {"z4": 1, "z4c": 1})],
        ("z3", "z3c"): [(-_I2, {"z3": 1, "z3c": 1})],
        ("z4", "z4c"): [(-_I2, {"z4": 1, "z4c": 1}), (-1j, {"z3": 1, "z3c": 1})],
        ("z1", "z2c"): [(-1j, {"z3": 1, "z4c": 1})],
        ("z1", "z3c"): [],
        ("z1", "z4c"): [(+_I2, {"z1": 1, "z4c": 1})],
        ("z2", "z3c"): [(+_I2, {"z2": 1, "z3c": 1})],
        ("z2", "z4c"): [(-1j, {"z1": 1, "z3c": 1})],
        ("z3", "z4c"): [],
    },
    functions={
        "det": [(1, {"z1": 1, "z4": 1}), (-1, {"z2": 1, "z3": 1})],
        "conj_det": [(1, {"z1c": 1, "z4c": 1}), (-1, {"z2c": 1, "z3c": 1})],
        "h0": [(0.5, {f"z{i}": 1, f"z{i}c": 1}) for i in range(1, 5)],
    },
    sigma=_SIGMA,
)

_SU2 = CoordinateSystem(
    "su2",
    ("alpha", "nu", "alphac", "nuc"),
    _pairs("alpha", "nu"),
    seeds={
        ("alpha", "alphac"): [(-1j, {"nu": 1, "nuc": 1})],
        ("nu", "nuc"): [],
        ("alpha", "nu"): [(+_I2, {"alpha": 1, "nu": 1})],
        ("alphac", "nuc"): [(-_I2, {"alphac": 1, "nuc": 1})],
        ("alpha", "nuc"): [(+_I2, {"alpha": 1, "nuc": 1})],
        ("alphac", "nu"): [(-_I2, {"alphac": 1, "nu": 1})],
    },
    functions={
        "h_su2_norm": [(1, {"alpha": 1, "alphac": 1}), (1, {"nu": 1, "nuc": 1})],
        "h_nu": [(0.5, {"nu": 1, "nuc": 1})],
    },
)

_SB2 = CoordinateSystem(
    "sb2",
    ("r", "gamma", "gammac"),
    {"r": "r", **_pairs("gamma")},
    laurent=("r",),
    seeds={
        ("gamma", "r"): [(+_I2, {"gamma": 1, "r": 1})],
        ("gammac", "gamma"): [(1j, {"r": 2}), (-1j, {"r": -2})],
    },
    functions={"h0": [(0.5, {"gamma": 1, "gammac": 1}), (0.5, {"r": 2}), (0.5, {"r": -2})]},
)

# The brackets between the su2 and the sb2 coordinates of the double group.
_CROSS_SEEDS = {
    ("nu", "gamma"): [(-0.25j, {"nu": 1, "gamma": 1}), (-1j, {"alphac": 1, "r": -1})],
    ("alpha", "gamma"): [(-0.25j, {"alpha": 1, "gamma": 1}), (1j, {"nuc": 1, "r": -1})],
    ("nuc", "gamma"): [(0.25j, {"nuc": 1, "gamma": 1})],
    ("alphac", "gamma"): [(0.25j, {"alphac": 1, "gamma": 1})],
    ("nu", "r"): [(-0.25j, {"nu": 1, "r": 1})],
    ("alpha", "r"): [(-0.25j, {"alpha": 1, "r": 1})],
}

# SU(2)·SB(2,C): both factors' records, the cross seeds and the entries z1..z4 of a = g·u.
_DOUBLE = CoordinateSystem(
    "double",
    _SU2.coords + _SB2.coords,
    {**_SU2.conj, **_SB2.conj},
    laurent=_SU2.laurent | _SB2.laurent,
    seeds={**_SU2.seeds, **_SB2.seeds, **_CROSS_SEEDS},
    functions={**_SU2.functions, **_SB2.functions,
               "z1": [(1, {"alpha": 1, "r": 1})],
               "z2": [(1, {"alpha": 1, "gamma": 1}), (-1, {"nuc": 1, "r": -1})],
               "z3": [(1, {"nu": 1, "r": 1})],
               "z4": [(1, {"nu": 1, "gamma": 1}), (1, {"alphac": 1, "r": -1})]},
)

COORD_SYSTEMS = {cs.name: cs for cs in (_SL2C, _SU2, _SB2, _DOUBLE)}


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
        # 0j + c makes a -0.0 part 0.0, as the table JSON has it
        self.terms = {e: 0j + c for e, c in (terms or {}).items() if c != 0}

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
        return self._relabel(self.cs.conj, lambda e, c: c.conjugate())

    def _relabel(self, image, coeff):
        """Each name's exponent moved to image[name]; a term's coefficient becomes coeff(e, c)."""
        perm = [self.cs.index(image[name]) for name in self.cs.coords]
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * len(e)
            for i, k in enumerate(e):
                ne[perm[i]] = k
            terms[tuple(ne)] = terms.get(tuple(ne), 0j) + coeff(e, c)
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
        """Value at a point of Python complex values, as poisson_point builds it."""
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
                v *= point[name] ** k
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


def _complete_table(cs):
    """Close the seed entries under the reality rule, with consistency checks."""
    entries = {}
    pending = []
    for (a, b), monomials in cs.seeds.items():
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
            return Poly(self.cs)
        if ia < ib:
            return self.entries.get((a, b), Poly(self.cs))
        p = self.entries.get((b, a))
        return -p if p is not None else Poly(self.cs)

    def bracket_eval(self, a, b, point) -> complex:
        return self.entry(a, b).evaluate(point)

    def poly_bracket(self, f: Poly, g: Poly) -> Poly:
        """{f, g} by the Leibniz rule, exact in the coefficients."""
        out = Poly(self.cs)
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

        eta must supply a number for every coordinate of the system
        (Wirtinger components in conjugate pairs for real 1-forms).
        """
        missing = [c for c in self.cs.coords if c not in eta]
        if missing:
            raise ValueError(f"missing covector components: {missing}")
        rates = {c: 0j for c in self.cs.coords}
        for (a, b), t in self.entries.items():
            v = t.evaluate(point)
            rates[a] += v * eta[b]
            rates[b] -= v * eta[a]
        return rates

    def jacobi_poly(self, a, b, c) -> Poly:
        """{{a,b},c} + {{b,c},a} + {{c,a},b} as an exact polynomial."""
        def build():
            pa, pb, pc = (Poly.from_monomials(self.cs, [(1, {x: 1})]) for x in (a, b, c))
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
        if self.cs.sigma is not None:
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
        sigma = self.cs.sigma
        out = []
        for a, b in itertools.combinations(self.cs.coords, 2):
            sa, na = sigma[a]
            sb, nb = sigma[b]
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


def _sigma_poly(p: Poly) -> Poly:
    """σp: names to their inversion images; each odd power of a sign -1 name flips the term."""
    sigma = p.cs.sigma
    flips = [sigma[name][0] < 0 for name in p.cs.coords]
    return p._relabel({name: im for name, (_, im) in sigma.items()},
                      lambda e, c: (-1) ** sum(k % 2 for k, f in zip(e, flips) if f) * c)


_TABLES = {}


def get_table(system: str) -> BracketTable:
    """The cached bracket table for one of sl2c, su2, sb2, double."""
    table = _TABLES.get(system)
    if table is None:
        if system not in COORD_SYSTEMS:
            raise KeyError(f"unknown bracket system {system!r}")
        table = _TABLES[system] = BracketTable(system, _complete_table(COORD_SYSTEMS[system]))
    return table


def named_function(system: str, name: str) -> Poly:
    """Named polynomials: Casimirs, conserved quantities and, on "double", z1..z4 of g·u."""
    cs = COORD_SYSTEMS[system]
    if name not in cs.functions:
        raise KeyError(f"unknown function {name!r} for system {system!r}")
    return Poly.from_monomials(cs, cs.functions[name])


def gradient_covector(f: Poly, point):
    """All Wirtinger components of df at the point, keyed by coordinate name."""
    return {c: f.diff(c).evaluate(point) for c in f.cs.coords}


def poisson_point(system: str, values) -> dict:
    """Build a conjugate-consistent point; missing conjugates are filled in.

    Raises if supplied conjugate pairs disagree beyond 1e-12 or r <= 0.
    """
    cs = COORD_SYSTEMS[system]
    point = _with_conjugates(system, values)
    for name in values:
        cs.index(name)
    missing = [c for c in cs.coords if c not in point]
    if missing:
        raise ValueError(f"missing coordinates: {missing}")
    for name in cs.coords:
        if not (math.isfinite(point[name].real) and math.isfinite(point[name].imag)):
            raise ValueError(f"non-finite value for {name}")
        partner = cs.conj[name]
        if abs(point[partner] - point[name].conjugate()) > CONJ_TOL:
            raise ValueError(f"conjugate mismatch between {name} and {partner}")
    for name in cs.laurent:
        v = point[name]
        if abs(v.imag) > CONJ_TOL or v.real <= 0:
            raise ValueError(f"{name} must be real and positive")
        point[name] = complex(v.real, 0.0)
    return point


def _with_conjugates(system, values) -> dict:
    """values as complex numbers, each missing conjugate filled in, in coordinate order, unchecked:
    for values an element has checked (finite, r > 0), or before poisson_point's checks."""
    cs = COORD_SYSTEMS[system]
    point = {k: complex(v) for k, v in values.items()}
    for name in cs.coords:
        if name in point and cs.conj[name] not in point:
            point[cs.conj[name]] = point[name].conjugate()
    return point


def point_of_element(*elements) -> dict:
    """Coordinates of an SL2, SU2 or SB2 element, or of an (SU2, SB2) pair, as a point dict."""
    match elements:
        case (SL2Element() as a,):
            return _with_conjugates("sl2c", {"z1": a.z1, "z2": a.z2, "z3": a.z3, "z4": a.z4})
        case (SU2Element() as g,):
            return _with_conjugates("su2", {"alpha": g.alpha, "nu": g.nu})
        case (SB2Element() as u,):
            return _with_conjugates("sb2", {"r": u.r, "gamma": u.gamma})
        case (SU2Element() as g, SB2Element() as u):
            return _with_conjugates("double", {"alpha": g.alpha, "nu": g.nu, "r": u.r, "gamma": u.gamma})
    names = ", ".join(type(x).__name__ for x in elements)
    raise TypeError(f"cannot map ({names}) to a Poisson point")


def random_points(system: str, n: int, seed, on_surface=True) -> list:
    """n seeded sample points from one block draw, with the bits and generator state of n
    random_point calls.  For sl2c, on_surface=False skips the det = 1 normalization: generic
    points of C^4, four real then four imaginary parts; other systems have only on-surface points."""
    if system not in COORD_SYSTEMS:
        raise KeyError(f"unknown bracket system {system!r}")
    rng = _as_rng(seed)
    if on_surface:  # the draw's parts, named as point_of_element names an element's
        names = {"sl2c": SL2Element.__slots__, "su2": SU2Element.__slots__,
                 "sb2": SB2Element.__slots__}.get(system, SU2Element.__slots__ + SB2Element.__slots__)
        return [_with_conjugates(system, dict(zip(names, x))) for x in random_parts(system, n, rng)]
    if system != "sl2c":
        raise ValueError(f"on_surface=False is defined only for sl2c, not {system!r}")
    x = rng.standard_normal((n, 8))
    return [_with_conjugates("sl2c", dict(zip(("z1", "z2", "z3", "z4"), z)))
            for z in (x[:, :4] + 1j * x[:, 4:]).tolist()]


def random_point(system: str, seed, on_surface=True) -> dict:
    """One seeded sample point: random_points' n = 1 case."""
    return random_points(system, 1, seed, on_surface)[0]
