"""Command line interface: simulate, verify, legendre.

simulate reads a JSON run config (file or stdin), samples the closed-form flow
on a uniform grid, and writes a CSV trajectory; with --oracle it integrates
the same field with fixed-step RK4 and records the per-row deviation.  Exit
codes: 0 success, 1 verification failure, 2 usage or config error, 3 oracle
deviation above --max-dev, whose stderr line adds RK4's own error there by
step doubling.
"""

import argparse
import cmath
import functools
import itertools
import json
import math
import operator
import os
import sys
import tempfile

import numpy as np

from . import dynamics as dyn
from . import verify as ver
from .groups import AlgebraElement, MembershipError, SB2Element, SU2Element
from .quadrature import NonFiniteStateError, rk4_integrate

__all__ = ["main", "ConfigError", "MAX_ROWS", "MAX_SAMPLES", "run_simulate", "run_verify",
           "run_legendre"]

_CONFIG_FIELDS = {"system", "params", "t1", "dt", "oracle", "max_dev", "seed", "out"}

# Largest t1 / dt, since every row is held in memory until the CSV is written,
# and largest RK4 step count of --oracle, which bounds its run time (RK4 keeps one state a row).
MAX_ROWS = 1_000_000
# Largest verify --samples: the brackets suite holds five lists of that many
# points, about 2.5 KB per sample; decompositions and legendre hold one block.
MAX_SAMPLES = 100_000
# CSV rows joined into one string per write; 1,024 took the writer's peak
# memory past a tenth of the file's size at 20,000 rows
_CHUNK = 64


class ConfigError(ValueError):
    """Bad run config; the message names the offending field."""


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _finite(a, field):
    if not cmath.isfinite(a):
        raise ConfigError(f"{field} must be finite (no NaN or Infinity)")
    return a


def _number(v):
    """float(v) for a JSON number (int or float, not bool), else None.

    An int beyond the floats becomes inf, which _finite then rejects.
    """
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return None
    try:
        return float(v)
    except OverflowError:
        return math.inf


def _cplx(v, field):
    parts = [_number(c) for c in (v if isinstance(v, (list, tuple)) and len(v) == 2 else [v])]
    if None in parts:
        raise ConfigError(f"{field} must be a number or a [re, im] pair")
    return _finite(complex(*parts), field)


def _float(v, field, positive=False):
    v = _number(v)
    if v is None:
        raise ConfigError(f"{field} must be a number")
    v = _finite(v, field)
    if positive and v <= 0:
        raise ConfigError(f"{field} must be positive")
    return v


def _vector(v, field):
    xs = [_number(c) for c in v] if isinstance(v, list) else []
    if not xs or None in xs:
        raise ConfigError(f"{field} must be a non-empty list of numbers")
    return np.asarray([_finite(x, field) for x in xs])


def _matrix(v, field):
    rows = ([_vector(row, f"{field}[{i}]") for i, row in enumerate(v)]
            if isinstance(v, list) else [])
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise ConfigError(f"{field} must be a non-empty list of equal-length rows")
    return np.array(rows)


def _su2_param(v, field):
    if not isinstance(v, dict) or set(v) != {"alpha", "nu"}:
        raise ConfigError(f"{field} must be an object with alpha and nu")
    try:
        return SU2Element(_cplx(v["alpha"], f"{field}.alpha"), _cplx(v["nu"], f"{field}.nu"))
    except MembershipError as e:
        raise ConfigError(f"{field}: {e}") from None


def _sb2_param(v, field):
    if not isinstance(v, dict) or set(v) != {"r", "gamma"}:
        raise ConfigError(f"{field} must be an object with r and gamma")
    r = _float(v["r"], f"{field}.r", positive=True)
    return SB2Element(r, _cplx(v["gamma"], f"{field}.gamma"))


def _momenta_param(params, akey, nkey):
    if akey not in params or nkey not in params:
        raise ConfigError(f"params.{akey} and params.{nkey} must be given together")
    alpha = _cplx(params[akey], f"params.{akey}")
    nu = _cplx(params[nkey], f"params.{nkey}")
    try:
        SU2Element(alpha, nu)  # the unit check; the flows take alpha, nu as given
    except MembershipError:
        raise ConfigError(f"params.{akey}, params.{nkey} must satisfy "
                          "|alpha|^2 + |nu|^2 = 1") from None
    return alpha, nu


# How each parse kind of dyn.SYSTEMS reads a given value; a "momenta" pair
# is read by _momenta_param.  A parser checks only the JSON types and
# finiteness; each domain rule (a rotation g0, a 3-vector p, the
# action_angle shapes) is checked once, by the flow that takes the value.
_PARSERS = {"float": _float, "su2": _su2_param, "sb2": _sb2_param, "vector": _vector,
            "matrix": _matrix}


def _parse_params(system, params, seed):
    """Typed params of a system; an omitted one whose default is a draw is drawn
    from one Generator of seed, made at the first draw."""
    if system not in dyn.SYSTEMS:
        raise ConfigError(f"system must be one of: {', '.join(dyn.SYSTEMS)}")
    extra = set(params) - set(dyn.SYSTEMS[system].names())
    if extra:
        raise ConfigError(f"unknown params for {system}: {', '.join(sorted(extra))}")
    rng = functools.cache(lambda: np.random.default_rng(seed))
    out = {}
    for name, kind, default in dyn.SYSTEMS[system].params:
        if kind == "momenta":
            out.update(zip(name, default(rng()) if params.keys().isdisjoint(name)
                           else _momenta_param(params, *name)))
        elif name in params:
            out[name] = _PARSERS[kind](params[name], f"params.{name}")
        elif default is dyn.REQUIRED:
            raise ConfigError(f"params.{name} is required for {system}")
        else:
            out[name] = default(rng()) if callable(default) else default
    return out


def _load_config(path):
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(sorted(unknown))}")
    return doc


def _write_csv(out, header, rows):
    # one %-format per row, written _CHUNK rows a string; "%.17g" % x is the string _fmt(x)
    # gives.  A column of one nonzero value in every row is formatted once, into the format:
    # equal nonzero floats have the same bits, but 0.0 == -0.0 and '0' != '-0'
    fields = ["%.17g"] * len(header)
    for k, v in enumerate(rows[0] if len(rows) > 1 else ()):
        if v == rows[-1][k] != 0 and all(map(operator.eq, itertools.repeat(v),
                                             map(operator.itemgetter(k), rows))):
            fields[k] = "%.17g" % v
    varying = [k for k, f in enumerate(fields) if f == "%.17g"]
    pick = (tuple if len(varying) == len(fields)
            else operator.itemgetter(*varying) if varying else lambda row: ())
    row_format = ",".join(fields) + "\n"
    lines = itertools.chain([",".join(header) + "\n"], (
        "".join(map(row_format.__mod__, map(pick, rows[i:i + _CHUNK])))
        for i in range(0, len(rows), _CHUNK)))
    if out is None:
        sys.stdout.writelines(lines)
        return
    directory = os.path.dirname(os.path.abspath(out))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".doubleflow_", suffix=".csv")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
                f.writelines(lines)
            os.replace(tmp, out)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as e:
        raise ConfigError(f"out: cannot write {out}: {e.strerror or e}") from None


def run_simulate(args) -> int:
    doc = _load_config(args.config)
    system = doc.get("system")
    if not isinstance(system, str):
        raise ConfigError("system is required and must be a string")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object")
    t1 = _float(doc.get("t1", 10.0), "t1", positive=True)
    dt = _float(doc.get("dt", 0.01), "dt", positive=True)
    if dt > t1:
        raise ConfigError("dt must not exceed t1")
    if t1 / dt > MAX_ROWS:
        raise ConfigError(f"dt is too small: t1 / dt must not exceed MAX_ROWS = {MAX_ROWS}")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    oracle = doc.get("oracle", False)
    if not isinstance(oracle, bool):
        raise ConfigError("oracle must be a JSON boolean (true or false)")
    oracle = oracle or args.oracle
    max_dev = args.max_dev if args.max_dev is not None else doc.get("max_dev", 1e-5)
    max_dev = _float(max_dev, "max_dev", positive=True)
    out = args.out if args.out is not None else doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out must be a path string")
    n = int(math.floor(t1 / dt + 1e-9))
    # RK4 steps per row, at most 1e-3 long; the min keeps a huge dt from overflowing
    substeps = max(1, math.ceil(min(dt / 1e-3 - 1e-12, MAX_ROWS + 1)))
    if oracle and n * substeps > MAX_ROWS:
        raise ConfigError(f"t1 is too large for the oracle: its (t1 / dt) * ceil(dt / 1e-3) "
                          f"RK4 steps must not exceed MAX_ROWS = {MAX_ROWS}")

    params = _parse_params(system, params, seed)
    sysdef = dyn.SYSTEMS[system]

    times = [j * dt for j in range(n + 1)]
    try:
        sample = sysdef.sample(params)
    except ValueError as e:
        raise ConfigError(f"params: {e}") from None
    flat_columns, invariant_columns = sysdef.columns(params)
    header = ["t", *flat_columns, *invariant_columns]
    rows = []
    try:
        # a block's rows come from one sampler call; they are checked in one
        # pass, and a block that fails it row by row, so its first bad row is
        # named, before the error of the t its sampler stopped at
        for start in range(0, n + 1, ver.BLOCK):
            block = times[start:start + ver.BLOCK]
            block_rows, err = sample(block)
            block_rows = [[t, *row] for t, row in zip(block, block_rows)]
            if not all(map(math.isfinite, itertools.chain.from_iterable(block_rows))):
                t = next(row[0] for row in block_rows if not all(map(math.isfinite, row)))
                raise ValueError("the flow leaves the finite floats")
            rows += block_rows
            if err is not None:
                t = block[len(block_rows)]
                raise err
    except ValueError as e:
        raise ConfigError(f"params: {e} at t = {_fmt(t)}") from None

    worst = 0.0
    if oracle:
        header.append("oracle_dev")
        d = len(flat_columns)
        flats = np.array([r[1:d + 1] for r in rows])  # a row is [t, *flat, *invariants]
        field = sysdef.field(params)
        try:
            traj = rk4_integrate(field, flats[0], 0.0, times[-1], dt / substeps, substeps)
        except NonFiniteStateError as e:
            raise ConfigError(f"params: the oracle leaves the finite floats "
                              f"at t = {_fmt(e.time)}") from None
        # a stored state a row; flats, no longer needed, holds |flats - states|
        devs = np.abs(np.subtract(flats, traj.states, out=flats), out=flats).max(axis=1).tolist()
        worst = max(devs)
        for r, dev in zip(rows, devs):
            r.append(dev)

    _write_csv(out, header, rows)
    if oracle and worst > max_dev:
        row = devs.index(worst)
        print(f"oracle deviation {worst:.6e} exceeds max-dev {max_dev:.6e}; at its worst row, "
              f"t = {_fmt(times[row])}, "
              f"{_oracle_error(field, traj, row, dt / substeps, substeps)}", file=sys.stderr)
        return 3
    return 0


def _oracle_error(field, traj, row, h, substeps) -> str:
    """The RK4 oracle's own error at its stored row, by step doubling: |y_h - y_{h/2}|·16/15.

    traj holds every substeps-th state of its steps of h.  RK4's error falls
    2^4-fold per halving of h, so the two runs differ by 15/16 of the error
    of the run at h.  Run only on a missed bound, so a passing run pays nothing.
    """
    steps = (len(traj) - 1) * substeps
    if 2 * steps > MAX_ROWS:
        return (f"the oracle's own error is not estimated: twice its {steps} "
                f"RK4 steps would exceed MAX_ROWS = {MAX_ROWS}")
    try:
        half = rk4_integrate(field, traj.states[0], 0.0, traj.times[-1], 0.5 * h, 2 * substeps)
    except NonFiniteStateError as e:
        return (f"the oracle's own error is not estimated: RK4 at h/2 leaves the "
                f"finite floats at t = {_fmt(e.time)}")
    est = float(np.abs(traj.states[row] - half.states[row]).max()) * 16.0 / 15.0
    return f"the oracle's own error is about {est:.6e} by step doubling"


def run_verify(args) -> int:
    if args.seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    if args.samples < 1:
        raise ConfigError("samples must be a positive integer")
    if args.samples > MAX_SAMPLES:
        raise ConfigError(f"samples must not exceed MAX_SAMPLES = {MAX_SAMPLES}")
    doc = ver.report_doc(args.suite, args.seed, args.samples)
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if doc["all_pass"] else 1


def _print_pairs(pairs):
    for k, v in pairs:
        print(f"{k} = {_fmt(v)}")


def _blame(flag, fn, *args):
    """fn(*args); an arithmetic failure is a config error naming flag."""
    try:
        return fn(*args)
    except ValueError:
        raise ConfigError(f"{flag} is out of range: the Legendre map or its round trip "
                          "overflows or underflows") from None


def run_legendre(args) -> int:
    # the flags join the arithmetic one at a time (--r alone, then --gamma,
    # then --f; --s, then --w), so an overflow names the first flag causing it
    if args.action == "map":
        r = _float(args.r, "--r", positive=True)
        gamma, f = _cplx(args.gamma, "--gamma"), _float(args.f, "--f")

        def round_trip(g):
            u = SB2Element(r, g)
            back = dyn.legendre_invert(dyn.legendre_map(u, 1.0))
            return u, max(abs(back.r - u.r), abs(back.gamma - u.gamma))

        _blame("--r", round_trip, 0.0)
        u, residual = _blame("--gamma", round_trip, gamma)
        m = _blame("--f", dyn.legendre_map, u, f).value
        _print_pairs([
            ("v11_re", m[0, 0].real), ("v11_im", m[0, 0].imag),
            ("v12_re", m[0, 1].real), ("v12_im", m[0, 1].imag),
            ("v21_re", m[1, 0].real), ("v21_im", m[1, 0].imag),
            ("v22_re", m[1, 1].real), ("v22_im", m[1, 1].imag),
            ("roundtrip_residual", residual),
        ])
        return 0
    s, w = _float(args.s, "--s"), _cplx(args.w, "--w")

    def invert(w):
        m = -0.5j * np.array([[s, w], [np.conj(w), -s]], dtype=complex)
        u = dyn.legendre_invert(AlgebraElement("su2", m), unreduced=args.unreduced)
        return u, float(np.max(np.abs(dyn.legendre_map(u, 1.0).value - m)))

    _blame("--s", invert, 0.0)
    u, residual = _blame("--w", invert, w)
    _print_pairs([
        ("r", u.r),
        ("gamma_re", u.gamma.real), ("gamma_im", u.gamma.imag),
        ("roundtrip_residual", residual),
    ])
    return 0


def _complex_arg(text):
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return float(parts[0])
        if len(parts) == 2:
            return [float(parts[0]), float(parts[1])]
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected RE or RE,IM, got {text!r}")


_NUMERIC_FLAGS = ("--r", "--gamma", "--f", "--s", "--w", "--max-dev")


@functools.cache  # built on the first main() call, then reused in the process
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="doubleflow",
        description="Closed-form flows on SU(2)xSB(2,C) with oracle checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="sample a closed-form trajectory to CSV")
    sim.add_argument("--config", metavar="FILE",
                     help="JSON run config; '-' or omitted reads stdin")
    sim.add_argument("--out", metavar="CSV", help="output path (default stdout)")
    sim.add_argument("--oracle", action="store_true",
                     help="integrate the field with RK4 and record deviations")
    sim.add_argument("--max-dev", type=float, dest="max_dev", metavar="EPS",
                     help="deviation threshold for exit code 3 (default 1e-5)")

    vfy = sub.add_parser("verify", help="run a named verification suite")
    vfy.add_argument("--suite", choices=ver.SUITES, required=True)
    vfy.add_argument("--seed", type=int, default=0)
    vfy.add_argument("--samples", type=int, default=100)

    leg = sub.add_parser("legendre", help="evaluate the Legendre map or its inverse")
    legsub = leg.add_subparsers(dest="action", required=True)
    lmap = legsub.add_parser("map", help="(r, gamma) to the velocity matrix")
    lmap.add_argument("--r", type=float, required=True)
    lmap.add_argument("--gamma", type=_complex_arg, default=(0.0, 0.0),
                      metavar="RE[,IM]")
    lmap.add_argument("--f", type=float, default=1.0,
                      help="conformal factor F (default 1)")
    linv = legsub.add_parser("invert", help="(s, w) data back to (r, gamma)")
    linv.add_argument("--s", type=float, required=True)
    linv.add_argument("--w", type=_complex_arg, default=(0.0, 0.0),
                      metavar="RE[,IM]")
    linv.add_argument("--unreduced", action="store_true",
                      help="use the unreduced inverse formula (documented mismatch)")
    return parser


def main(argv=None) -> int:
    # argparse reads a value such as -1e10 or -0.5,0.25 as a flag, so one after
    # a numeric flag is joined to it (--s=-1e10); a --flag or -h stays a flag
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(1, len(argv))):
        if argv[i - 1] in _NUMERIC_FLAGS and argv[i][:1] == "-" and argv[i][1:2] not in "-h":
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return run_simulate(args)
        if args.command == "verify":
            return run_verify(args)
        return run_legendre(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
