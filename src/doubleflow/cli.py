"""Command line interface: simulate, verify, legendre.

simulate reads a JSON run config (file or stdin), samples the closed-form flow
on a uniform grid, and writes a CSV trajectory; with --oracle it integrates
the same field with fixed-step RK4 and records the per-row deviation.  Exit
codes: 0 success, 1 verification failure, 2 usage or config error, 3 oracle
deviation above --max-dev.
"""

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import dynamics as dyn
from . import verify as ver
from .groups import AlgebraElement, MembershipError, SB2Element, SU2Element, random_element
from .quadrature import rk4_integrate

__all__ = ["main", "ConfigError", "run_simulate", "run_verify", "run_legendre"]

_CONFIG_FIELDS = {"system", "params", "t1", "dt", "oracle", "max_dev", "seed", "out"}

_PARAM_FIELDS = {
    "rotator": {"g0", "p", "F"},
    "casimir_sl2c": {"g0", "u0", "F"},
    "momenta_su2": {"u0", "alpha", "nu", "F"},
    "noncasimir_h": {"u0", "alpha0", "nu0"},
    "perturbed": {"g0", "u0", "F", "lam"},
    "action_angle": {"I0", "phi0", "freq", "matrix"},
}


class ConfigError(ValueError):
    """Bad run config; the message names the offending field."""


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _finite(a, field):
    if not np.isfinite(a).all():
        raise ConfigError(f"{field} must be finite (no NaN or Infinity)")
    return a


def _cplx(v, field):
    if isinstance(v, (int, float)):
        z = complex(v)
    elif isinstance(v, (list, tuple)) and len(v) == 2 and all(
            isinstance(c, (int, float)) for c in v):
        z = complex(v[0], v[1])
    else:
        raise ConfigError(f"{field} must be a number or a [re, im] pair")
    return _finite(z, field)


def _float(v, field, positive=False):
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(f"{field} must be a number")
    v = _finite(float(v), field)
    if positive and v <= 0:
        raise ConfigError(f"{field} must be positive")
    return v


def _vector(v, field):
    if not isinstance(v, list) or not v or not all(
            isinstance(c, (int, float)) for c in v):
        raise ConfigError(f"{field} must be a non-empty list of numbers")
    return _finite(np.asarray(v, dtype=float), field)


def _matrix(v, field):
    try:
        a = np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{field} must be a matrix of numbers") from None
    return _finite(a, field)


def _su2_param(params, key):
    if key not in params:
        return SU2Element.identity()
    v = params[key]
    if not isinstance(v, dict) or set(v) != {"alpha", "nu"}:
        raise ConfigError(f"params.{key} must be an object with alpha and nu")
    try:
        return SU2Element(_cplx(v["alpha"], f"params.{key}.alpha"),
                          _cplx(v["nu"], f"params.{key}.nu"))
    except MembershipError as e:
        raise ConfigError(f"params.{key}: {e}") from None


def _sb2_param(params, key, rng):
    if key not in params:
        return random_element("sb2", rng)
    v = params[key]
    if not isinstance(v, dict) or set(v) != {"r", "gamma"}:
        raise ConfigError(f"params.{key} must be an object with r and gamma")
    r = _float(v["r"], f"params.{key}.r", positive=True)
    return SB2Element(r, _cplx(v["gamma"], f"params.{key}.gamma"))


def _momenta_param(params, akey, nkey, rng):
    if akey in params or nkey in params:
        if akey not in params or nkey not in params:
            raise ConfigError(f"params.{akey} and params.{nkey} must be given together")
        alpha = _cplx(params[akey], f"params.{akey}")
        nu = _cplx(params[nkey], f"params.{nkey}")
    else:
        g = random_element("su2", rng)
        alpha, nu = g.alpha, g.nu
    if abs(abs(alpha) ** 2 + abs(nu) ** 2 - 1.0) > 1e-8:
        raise ConfigError(f"params.{akey}, params.{nkey} must satisfy "
                          "|alpha|^2 + |nu|^2 = 1")
    return alpha, nu


def _complex_cols(prefix):
    return [f"{prefix}_re", f"{prefix}_im"]


def _build_system(system, params, rng):
    """Return (spec, column names, row builder, oracle flat + field)."""
    if system not in _PARAM_FIELDS:
        raise ConfigError(f"system must be one of: {', '.join(_PARAM_FIELDS)}")
    extra = set(params) - _PARAM_FIELDS[system]
    if extra:
        raise ConfigError(f"unknown params for {system}: {', '.join(sorted(extra))}")

    if system == "casimir_sl2c":
        g0 = _su2_param(params, "g0")
        u0 = _sb2_param(params, "u0", rng)
        F = _float(params.get("F", 1.0), "params.F")
        spec = dyn.SystemSpec(system, {"g0": g0, "u0": u0, "F": F})
        names = sum((_complex_cols(f"z{i}") for i in range(1, 5)), [])
        names += ["H0", "det_re", "det_im"]

        def flat(st):
            m = st.g.as_matrix() @ st.u.as_matrix()
            return dyn.z_to_flat(m[0, 0], m[0, 1], m[1, 0], m[1, 1])

        def row(st):
            y = flat(st)
            z = dyn.flat_to_z(y)
            det = z[0] * z[3] - z[1] * z[2]
            h0 = 0.5 * sum(abs(c) ** 2 for c in z)
            return list(y) + [h0, det.real, det.imag]

        return spec, names, row, flat, dyn.sl2c_flat_field(F)

    if system == "rotator":
        g0 = np.eye(3)
        if "g0" in params:
            g0 = _matrix(params["g0"], "params.g0")
            if g0.shape != (3, 3):
                raise ConfigError("params.g0 must be a 3x3 matrix")
        p = _vector(params["p"], "params.p") if "p" in params else rng.standard_normal(3)
        if p.shape != (3,):
            raise ConfigError("params.p must have 3 components")
        F = _float(params.get("F", 1.0), "params.F")
        spec = dyn.SystemSpec(system, {"g0": g0, "p": p, "F": F})
        names = [f"g{i}{j}" for i in range(1, 4) for j in range(1, 4)]
        names += ["p1", "p2", "p3", "p_norm"]

        def flat(st):
            return np.asarray(st.g, dtype=float).ravel()

        def row(st):
            return list(flat(st)) + list(st.p) + [float(np.linalg.norm(st.p))]

        return spec, names, row, flat, dyn.rotator_flat_field(p, F)

    if system == "momenta_su2":
        u0 = _sb2_param(params, "u0", rng)
        alpha, nu = _momenta_param(params, "alpha", "nu", rng)
        F = _float(params.get("F", 1.0), "params.F")
        spec = dyn.SystemSpec(system, {"u0": u0, "alpha": alpha, "nu": nu, "F": F})
        names = ["r"] + _complex_cols("gamma") + ["h_su2_norm"]

        def flat(st):
            return np.array([st.u.r, st.u.gamma.real, st.u.gamma.imag])

        def row(st):
            return list(flat(st)) + [abs(st.alpha) ** 2 + abs(st.nu) ** 2]

        return spec, names, row, flat, dyn.momenta_su2_flat_field(alpha, nu, F)

    if system == "noncasimir_h":
        u0 = _sb2_param(params, "u0", rng)
        alpha0, nu0 = _momenta_param(params, "alpha0", "nu0", rng)
        spec = dyn.SystemSpec(system, {"u0": u0, "alpha0": alpha0, "nu0": nu0})
        names = _complex_cols("alpha") + _complex_cols("nu")
        names += ["r"] + _complex_cols("gamma") + ["h_nu"]

        def flat(st):
            return np.array([st.alpha.real, st.alpha.imag, st.nu.real, st.nu.imag,
                             st.u.r, st.u.gamma.real, st.u.gamma.imag])

        def row(st):
            return list(flat(st)) + [0.5 * abs(st.nu) ** 2]

        return spec, names, row, flat, dyn.noncasimir_flat_field()

    if system == "perturbed":
        g0 = _su2_param(params, "g0")
        u0 = _sb2_param(params, "u0", rng)
        F = _float(params.get("F", 1.0), "params.F")
        lam = _float(params.get("lam", 0.1), "params.lam")
        spec = dyn.SystemSpec(system, {"g0": g0, "u0": u0, "F": F, "lam": lam})
        names = _complex_cols("alpha") + _complex_cols("nu")
        names += ["r"] + _complex_cols("gamma") + ["gamma_abs"]

        def flat(st):
            return np.array([st.g.alpha.real, st.g.alpha.imag,
                             st.g.nu.real, st.g.nu.imag,
                             st.u.r, st.u.gamma.real, st.u.gamma.imag])

        def row(st):
            return list(flat(st)) + [abs(st.u.gamma)]

        return spec, names, row, flat, dyn.perturbed_flat_field(F, lam)

    # action_angle: constant frequency vector or constant fiber matrix
    for key in ("I0", "phi0"):
        if key not in params:
            raise ConfigError(f"params.{key} is required for action_angle")
    I0 = _vector(params["I0"], "params.I0")
    phi0 = _vector(params["phi0"], "params.phi0")
    n, m = len(I0), len(phi0)
    has_freq, has_matrix = "freq" in params, "matrix" in params
    if has_freq == has_matrix:
        raise ConfigError("action_angle needs exactly one of params.freq, params.matrix")
    run = {"I0": I0, "phi0": phi0}
    if has_freq:
        freq = _vector(params["freq"], "params.freq")
        if len(freq) != m:
            raise ConfigError("params.freq must match params.phi0 in length")
        run["freq"] = freq

        def field(y):
            return np.concatenate([np.zeros(n), freq])
    else:
        A = _matrix(params["matrix"], "params.matrix")
        if A.shape != (m, m):
            raise ConfigError("params.matrix must be square and match params.phi0")
        run["matrix"] = lambda _I: A

        def field(y):
            return np.concatenate([np.zeros(n), A @ y[n:]])

    spec = dyn.SystemSpec("action_angle", run)
    names = [f"I_{k}" for k in range(1, n + 1)]
    names += [f"phi_{k}" for k in range(1, m + 1)]
    names += [f"phimod_{k}" for k in range(1, m + 1)]

    def flat(st):
        return np.concatenate([st.I, st.phi])

    def row(st):
        return list(st.I) + list(st.phi) + list(st.phi_mod)

    return spec, names, row, flat, field


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
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".doubleflow_", suffix=".csv")
    try:
        with os.fdopen(fd, "w", newline="") as f:
            f.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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

    rng = np.random.default_rng(seed)
    spec, names, row, flat, field = _build_system(system, params, rng)

    n = int(math.floor(t1 / dt + 1e-9))
    times = [j * dt for j in range(n + 1)]
    try:
        states = [dyn.run_system(spec, t) for t in times]
    except (MembershipError, ValueError) as e:
        raise ConfigError(f"params: {e}") from None

    header = ["t"] + names
    rows = [[t] + row(st) for t, st in zip(times, states)]

    worst = 0.0
    if oracle:
        header.append("oracle_dev")
        substeps = max(1, int(math.ceil(dt / 1e-3 - 1e-12)))
        y0 = flat(states[0])
        if n > 0:
            traj = rk4_integrate(field, y0, 0.0, times[-1], dt / substeps)
            oracle_states = [traj.states[j * substeps] for j in range(n + 1)]
        else:
            oracle_states = [y0]
        for r, st, y in zip(rows, states, oracle_states):
            dev = float(np.max(np.abs(flat(st) - y)))
            worst = max(worst, dev)
            r.append(dev)

    _write_csv(out, header, rows)
    if oracle and worst > max_dev:
        print(f"oracle deviation {worst:.6e} exceeds max-dev {max_dev:.6e}",
              file=sys.stderr)
        return 3
    return 0


def run_verify(args) -> int:
    if args.samples < 1:
        raise ConfigError("samples must be a positive integer")
    doc = ver.report_doc(args.suite, args.seed, args.samples)
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if doc["all_pass"] else 1


def _print_pairs(pairs):
    for k, v in pairs:
        print(f"{k} = {_fmt(v)}")


def run_legendre(args) -> int:
    if args.action == "map":
        if args.r <= 0:
            raise ConfigError("r must be positive")
        u = SB2Element(args.r, _cplx(args.gamma, "gamma"))
        v = dyn.legendre_map(u, args.f)
        back = dyn.legendre_invert(dyn.legendre_map(u, 1.0))
        residual = max(abs(back.r - u.r), abs(back.gamma - u.gamma))
        m = v.value
        _print_pairs([
            ("v11_re", m[0, 0].real), ("v11_im", m[0, 0].imag),
            ("v12_re", m[0, 1].real), ("v12_im", m[0, 1].imag),
            ("v21_re", m[1, 0].real), ("v21_im", m[1, 0].imag),
            ("v22_re", m[1, 1].real), ("v22_im", m[1, 1].imag),
            ("roundtrip_residual", residual),
        ])
        return 0
    w = _cplx(args.w, "w")
    m = -0.5j * np.array([[args.s, w], [np.conj(w), -args.s]], dtype=complex)
    u = dyn.legendre_invert(AlgebraElement("su2", m), unreduced=args.unreduced)
    v2 = dyn.legendre_map(u, 1.0).value
    residual = float(np.max(np.abs(v2 - m)))
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
    lmap.add_argument("--gamma", type=_complex_arg, default=[0.0, 0.0],
                      metavar="RE[,IM]")
    lmap.add_argument("--f", type=float, default=1.0,
                      help="conformal factor F (default 1)")
    linv = legsub.add_parser("invert", help="(s, w) data back to (r, gamma)")
    linv.add_argument("--s", type=float, required=True)
    linv.add_argument("--w", type=_complex_arg, default=[0.0, 0.0],
                      metavar="RE[,IM]")
    linv.add_argument("--unreduced", action="store_true",
                      help="use the unreduced inverse formula (documented mismatch)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
