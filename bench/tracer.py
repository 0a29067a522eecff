"""Spans and counters recorded around calls into doubleflow.

The program itself is not modified: `Tracer.install` replaces selected public
functions and methods with timing wrappers in every loaded doubleflow module
(the modules import each other's functions by name, so each reference is
patched) and `uninstall` puts the originals back.  A span is (id, parent,
call, name, start, end); a layer's self time is its span's duration minus
that of its child spans.  Very hot leaves (RK4 field evaluations,
Poly.evaluate) are counted and timed like spans but not stored one by one.
"""

import sys
from collections import Counter
from time import perf_counter

# (span name, module, attribute) for plain functions.
FUNCTIONS = (
    ("cli", "cli", "run_simulate"),
    ("cli", "cli", "run_verify"),
    ("dynamics.run_system", "dynamics", "run_system"),
    ("dynamics.casimir_flow", "dynamics", "casimir_flow"),
    ("dynamics.rotator_flow", "dynamics", "rotator_flow"),
    ("dynamics.momenta_su2_flow", "dynamics", "momenta_su2_flow"),
    ("dynamics.noncasimir_flow", "dynamics", "noncasimir_flow"),
    ("dynamics.perturbed_flow", "dynamics", "perturbed_flow"),
    ("dynamics.interaction_picture_flow", "dynamics", "interaction_picture_flow"),
    ("dynamics.action_angle_flow", "dynamics", "action_angle_flow"),
    ("dynamics.commuting_quadrature_flow", "dynamics", "commuting_quadrature_flow"),
    ("dynamics.legendre", "dynamics", "legendre_map"),
    ("dynamics.legendre", "dynamics", "legendre_invert"),
    ("quadrature.drift_report", "quadrature", "drift_report"),
    ("groups.exp_group", "groups", "exp_group"),
    ("groups.iwasawa", "groups", "iwasawa_gu"),
    ("groups.iwasawa", "groups", "iwasawa_ug"),
    ("mat2.expm2", "mat2", "expm2"),
    ("mat2.rodrigues3", "mat2", "rodrigues3"),
    ("verify.suite.brackets", "verify", "suite_brackets"),
    ("verify.suite.decompositions", "verify", "suite_decompositions"),
    ("verify.suite.legendre", "verify", "suite_legendre"),
    ("verify.suite.flows", "verify", "suite_flows"),
)

PACKAGE = "doubleflow"
FIELD = "dynamics.field"
EVALUATE = "poisson.evaluate"
RK4 = "quadrature.rk4_integrate"
GUARD = "dynamics.guard"

# (span name, class in poisson, method).
METHODS = (
    ("poisson.poly_bracket", "BracketTable", "poly_bracket"),
    ("poisson.hamiltonian_field", "BracketTable", "hamiltonian_field"),
    (EVALUATE, "Poly", "evaluate"),
)


class Tracer:
    """In-memory spans, per-name totals and counters for one traced pass."""

    def __init__(self):
        self.stack = []       # open frames: [name, start, child_s, id, guard window]
        self.spans = []       # (id, parent, call, name, start, end)
        self.stats = {}       # name -> [calls, total_s, self_s]
        self.counts = Counter()
        self.call = -1        # index of the CLI call in the pass, shared by its spans
        self._ids = 0
        self._patched = []

    # -- recording -----------------------------------------------------------

    def _open(self, name):
        self._ids += 1
        frame = [name, perf_counter(), 0.0, self._ids, None]
        self.stack.append(frame)
        return frame

    def _close(self, frame, store=True):
        end = perf_counter()
        self.stack.pop()
        name, start, child, sid, guard = frame
        if guard is not None:
            # the commutator guard is the loop between the first and the last
            # pairwise frobenius call of one flow evaluation
            g0, g1 = guard
            self._add(GUARD, g1 - g0, g1 - g0)
            self._ids += 1
            self.spans.append((self._ids, sid, self.call, GUARD, g0, g1))
            child += g1 - g0
        dur = end - start
        self._add(name, dur, dur - child)
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        if store:
            self.spans.append((sid, parent[3] if parent else 0, self.call, name, start, end))

    def _add(self, name, total, self_s):
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = [0, 0.0, 0.0]
        s[0] += 1
        s[1] += total
        s[2] += self_s

    def wrap(self, name, fn, store=True):
        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, store)
        return traced

    def _rk4(self, fn):
        def traced(field, *args, **kwargs):
            frame = self._open(RK4)
            try:
                traj = fn(self.wrap(FIELD, field, store=False), *args, **kwargs)
                self.counts[RK4 + ".steps"] += len(traj.times) - 1
                return traj
            finally:
                self._close(frame)
        return traced

    def _jacobi(self, fn):
        def traced(*args, **kwargs):
            before = self.stats.get("poisson.poly_bracket", (0,))[0]
            frame = self._open("poisson.jacobi_poly")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)
                self.counts["poisson.jacobi_poly.calls"] += 1
                if self.stats.get("poisson.poly_bracket", (0,))[0] == before:
                    self.counts["poisson.jacobi_poly.hits"] += 1
        return traced

    def _guard_pair(self, fn):
        def counted(*args):
            t0 = perf_counter()
            out = fn(*args)
            t1 = perf_counter()
            self.counts[GUARD + ".pairs"] += 1
            if self.stack:
                frame = self.stack[-1]
                if frame[4] is None:
                    frame[4] = [t0, t1]
                else:
                    frame[4][1] = t1
            return out
        return counted

    # -- patching ------------------------------------------------------------

    def _modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _replace_everywhere(self, original, wrapper):
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def install(self):
        """Wrap every traced function that exists; a missing one reads 0."""
        mod = {m: sys.modules.get(f"{PACKAGE}.{m}")
               for m in ("cli", "dynamics", "quadrature", "groups", "mat2", "poisson", "verify")}
        for name, module, attr in FUNCTIONS:
            original = getattr(mod[module], attr, None)
            if original is not None:
                self._replace_everywhere(original, self.wrap(name, original))
        rk4 = getattr(mod["quadrature"], "rk4_integrate", None)
        if rk4 is not None:
            self._replace_everywhere(rk4, self._rk4(rk4))
        # pairwise commutator norms: only the guard loops in dynamics call it
        frob = getattr(mod["dynamics"], "frobenius", None)
        if frob is not None:
            self._patch(mod["dynamics"], "frobenius", self._guard_pair(frob))
        poisson = mod["poisson"]
        for name, cls_name, meth in METHODS:
            cls = getattr(poisson, cls_name, None)
            if cls is not None and meth in cls.__dict__:
                self._patch(cls, meth, self.wrap(name, cls.__dict__[meth], store=name != EVALUATE))
        table = getattr(poisson, "BracketTable", None)
        if table is not None and "jacobi_poly" in table.__dict__:
            self._patch(table, "jacobi_poly", self._jacobi(table.__dict__["jacobi_poly"]))

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def dump(self):
        """Spans, totals and counters as one JSON-ready object."""
        return {
            "span_fields": ["id", "parent", "call", "name", "start", "end"],
            "spans": self.spans,
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
        }
