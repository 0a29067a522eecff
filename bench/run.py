"""doubleflow benchmark: closed-loop streams of in-process CLI calls.

    python3 bench/run.py --workload oracle --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed fresh

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  One process runs one workload: one
caller, no threads, each call `doubleflow.cli.main(argv)` on a generated
config file.  The workload's fixed, seeded call list is one pass.  A first
pass is the reference: every output is gated in full and digested; the timed
passes that follow must reproduce its bytes.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
separate run whose traced and untraced passes alternate.  The last line of
standard output is one JSON object; the lines before it explain it.  See
bench/README.md for the metrics, the prediction table and held-out seeds.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import secrets
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One caller, no threads: the matrices are 2x2 and 3x3, and OpenBLAS worker
# threads only add CPU contention that makes timings unsteady.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from calib import IMPORT_REF_CODE, REF_IMPORT_S, at_reference, sample  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_PAIRS = 6
# Every call of the list runs at least MIN_PASSES times.  The tail percentile
# is the one with TAIL_BEYOND calls beyond it in a run of MIN_PASSES passes,
# so every run has at least that many beyond it, and the percentile does not
# depend on how many passes fit into the run.
TAIL_BEYOND = 10
MIN_PASSES = 4
MAX_DEV = 1e-5          # the CLI's default --max-dev, which the calls keep
SPEED_SHARE = 0.1       # probe time after a call, as a share of the call's time

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.process_time()
import doubleflow.cli
from doubleflow import poisson
for name in ("sl2c", "su2", "sb2", "double"):
    poisson.get_table(name)
print(time.process_time() - t0)
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def cpu_seconds(code):
    """CPU seconds a fresh interpreter reports for running code."""
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"setup process failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout)


def measure_setup():
    """Import + table-build CPU seconds of a fresh interpreter, at reference speed.

    Each set-up process is paired with a reference process that imports
    doubleflow's dependencies alone (calib.IMPORT_REF_CODE), run right after
    it.  The result is the median over SETUP_PAIRS pairs of the set-up time
    over the reference time, times calib.REF_IMPORT_S.  One pair runs first
    and is not counted: it may still be compiling bytecode.
    """
    setup, ref = [], []
    for i in range(SETUP_PAIRS + 1):
        s, r = cpu_seconds(SETUP_CODE), cpu_seconds(IMPORT_REF_CODE)
        if i:
            setup.append(s)
            ref.append(r)
    print(f"setup, as measured: median {statistics.median(setup):.4f} s CPU over "
          f"{len(setup)} fresh interpreters; reference import median "
          f"{statistics.median(ref):.4f} s CPU")
    return REF_IMPORT_S * statistics.median(s / r for s, r in zip(setup, ref))


def load_cli():
    sys.path.insert(0, str(SRC))
    import doubleflow
    import doubleflow.cli
    if Path(doubleflow.__file__).resolve().parent != SRC / "doubleflow":
        raise BenchError(f"doubleflow imported from {doubleflow.__file__}, not {SRC}")
    return doubleflow.cli


def check_output(call, rc, text):
    """None if the call's output is correct, else the reason it is not."""
    if rc != 0:
        return f"exit code {rc}"
    if call.config is None:
        doc = json.loads(text)
        _, _, suite, _, seed, _, samples = call.argv
        if (doc.get("suite"), doc.get("seed"), doc.get("samples")) != (suite, int(seed), int(samples)):
            return "report does not echo suite, seed and samples"
        if doc.get("all_pass") is not True:
            failed = [c["name"] for c in doc.get("checks", []) if not c.get("passed")]
            return f"all_pass is false: {', '.join(failed)}"
        return None
    if not text.endswith("\n"):
        return "CSV does not end with a newline"
    lines = text[:-1].split("\n")
    if tuple(lines[0].split(",")) != call.header:
        return f"unexpected header {lines[0]!r}"
    if len(lines) - 1 != call.rows:
        return f"{len(lines) - 1} rows, expected {call.rows}"
    width = len(call.header)
    for line in lines[1:]:
        vals = line.split(",")
        if len(vals) != width:
            return f"row of {len(vals)} values, expected {width}"
        if not all(math.isfinite(float(v)) for v in vals):
            return f"non-finite value in row {line!r}"
        if call.oracle and float(vals[-1]) > MAX_DEV:
            return f"oracle_dev {vals[-1]} above {MAX_DEV}"
    return None


def closed_form_bytes(call, text):
    """The output without the oracle_dev column, which may move by round-off."""
    if call.config is None or not call.oracle:
        return text
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in text[:-1].split("\n"))


class Runner:
    """Makes the calls of one workload and gates their outputs."""

    def __init__(self, cli, calls, workdir):
        self.cli = cli
        self.calls = calls
        self.out = os.path.join(workdir, "out.csv")
        self.argvs = []
        for i, call in enumerate(calls):
            argv = list(call.argv)
            if call.config is not None:
                path = os.path.join(workdir, f"call{i}.json")
                with open(path, "w", encoding="utf-8") as f:
                    json.dump(call.config, f)
                argv += ["--config", path, "--out", self.out]
            self.argvs.append(argv)
        self.attempted = 0
        self.failures = []
        self.reference = None   # per call: hash of the first pass's output
        self.texts = None       # per call: first pass's output

    def invoke(self, i, tracer=None):
        """(seconds, exit code, output) of call i."""
        stdout, stderr = io.StringIO(), io.StringIO()
        if self.calls[i].config is not None and os.path.exists(self.out):
            os.unlink(self.out)
        if tracer is not None:
            tracer.call = i
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(self.argvs[i])
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 2
            except Exception as e:  # a traceback is a failed call, not a crash of the run
                rc = f"{type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
        if self.calls[i].config is None:
            text = stdout.getvalue()
        elif os.path.exists(self.out):
            with open(self.out, encoding="utf-8") as f:
                text = f.read()
        else:
            text = ""
        if rc != 0 and stderr.getvalue():
            rc = f"{rc} ({stderr.getvalue().strip()[-200:]})"
        return dt, rc, text

    def _fail(self, i, why):
        self.failures.append((f"call {i} ({' '.join(self.argvs[i][:6])} ...)", why))

    def check_digest(self, workload, seed):
        """On the seed digests.json records, a differing digest fails the run.

        The comparison counts as one attempted check."""
        recorded = json.loads((HERE / "digests.json").read_text()).get(workload, {})
        if recorded.get("seed") != seed:
            return
        self.attempted += 1
        if recorded["sha256"] == self.digest():
            print(f"digest matches the one recorded in bench/digests.json for seed {seed}")
        else:
            self.failures.append(("digest", "reference outputs differ from those recorded "
                                  f"in bench/digests.json for seed {seed}"))

    def reference_pass(self):
        """Gate every output in full and keep it as the reference."""
        self.reference, self.texts = [], []
        for i, call in enumerate(self.calls):
            _, rc, text = self.invoke(i)
            self.attempted += 1
            try:
                why = check_output(call, rc, text)
            except ValueError as e:     # unparsable JSON or number
                why = f"unparsable output: {e}"
            if why:
                self._fail(i, why)
            self.reference.append(hashlib.sha256(text.encode()).hexdigest())
            self.texts.append(text)

    def timed_pass(self, tracer=None):
        """Per-call seconds of one pass, as measured and at reference speed.

        Outputs must match the reference pass.  The speed probe runs before
        the first call and after each call, for at least one loop and about
        SPEED_SHARE of the call's time, so every call is bracketed by two
        measures of the CPU speed it had.
        """
        gc.collect()
        lat, cal = [], [sample(0.0)]
        for i in range(len(self.calls)):
            dt, rc, text = self.invoke(i, tracer)
            cal.append(sample(SPEED_SHARE * dt))
            self.attempted += 1
            lat.append(dt)
            if rc != 0:
                self._fail(i, f"exit code {rc}")
            elif hashlib.sha256(text.encode()).hexdigest() != self.reference[i]:
                self._fail(i, "output differs from the reference pass")
        ref = [at_reference(dt, a, b) for dt, a, b in zip(lat, cal, cal[1:])]
        return lat, ref

    def digest(self):
        h = hashlib.sha256()
        for call, text in zip(self.calls, self.texts):
            h.update(closed_form_bytes(call, text).encode())
        return h.hexdigest()

    def oracle_dev_max(self):
        """Worst finite oracle_dev of the --oracle outputs, calls that failed the
        gate included; 1.0 if there are none.  A non-finite value already fails
        its call."""
        devs = []
        for call, text in zip(self.calls, self.texts):
            if not call.oracle:
                continue
            for line in text[:-1].split("\n")[1:]:
                try:
                    dev = float(line.rsplit(",", 1)[-1])
                except ValueError:
                    continue
                if math.isfinite(dev):
                    devs.append(dev)
        return max(devs, default=1.0)

    def csv_bytes(self):
        return sum(len(t.encode()) for c, t in zip(self.calls, self.texts) if c.config)


def tail(latencies, per_pass):
    """(value, percentile, calls beyond) at the percentile that has
    TAIL_BEYOND calls beyond it in a run of MIN_PASSES passes of per_pass
    calls."""
    lat = sorted(latencies)
    k = max(0, len(lat) - len(lat) * TAIL_BEYOND // (MIN_PASSES * per_pass) - 1)
    return lat[k], 100.0 * (k + 1) / len(lat), len(lat) - k - 1


def shares(runner, passes):
    """Share of call time per system or suite over the given passes."""
    by_label = dict.fromkeys(wl.SYSTEMS + wl.SUITES, 0.0)
    for lat in passes:
        for call, dt in zip(runner.calls, lat):
            by_label[call.label] += dt
    total = sum(by_label.values())
    return {label: v / total for label, v in by_label.items()}


def end_to_end(runner, workload, seconds, setup):
    measured, passes, t0 = [], [], time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        raw, ref = runner.timed_pass()
        measured.append(raw)
        passes.append(ref)
    lat = [dt for p in passes for dt in p]
    raw = [dt for p in measured for dt in p]
    tail_s, pct, beyond = tail(lat, len(runner.calls))
    dev = runner.oracle_dev_max() if workload == "oracle" else probe_dev(runner)
    print(f"timed: {len(passes)} passes of {len(runner.calls)} calls, {len(lat)} calls "
          f"in {time.perf_counter() - t0:.1f} s")
    print(f"op_tail_ms is the p{pct:.2f} latency of {len(lat)} calls, {beyond} calls beyond it")
    print(f"as measured, before scaling to reference speed: ops_per_s "
          f"{len(raw) / sum(raw):.6g}, op_p50_ms {1e3 * statistics.median(raw):.6g}, "
          f"op_tail_ms {1e3 * tail(raw, len(runner.calls))[0]:.6g}; mean speed {sum(lat) / sum(raw):.4f} "
          f"of reference")
    for label, v in shares(runner, passes).items():
        if v:
            print(f"share of call time: {label} {v:.3f}")
    classes = {}
    for p in passes:
        for call, dt in zip(runner.calls, p):
            classes.setdefault(f"{call.label} {call.size}", []).append(dt)
    for name, v in sorted(classes.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"median latency {1e3 * statistics.median(v):9.2f} ms: {name} ({len(v)} calls)")
    ok = 1.0 - len(runner.failures) / runner.attempted
    return {
        "setup_s": (setup, "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (ok, "frac"),
        "oracle_dev_max": (dev, "abs"),
    }


def probe_dev(runner):
    """Run the accuracy probe once, outside the timed passes, and gate it."""
    probe = Runner(runner.cli, [wl.probe_call()], os.path.dirname(runner.out))
    probe.reference_pass()
    runner.attempted += probe.attempted
    runner.failures += probe.failures
    return probe.oracle_dev_max()


def per_layer(runner, workload, seconds, seed):
    """Alternate untraced and traced passes; counts come from one traced pass.

    Times are at reference speed: each traced pass's layer times are scaled
    by the pass's measured-to-reference ratio.
    """
    plain, traced, layers = [], [], []
    t0 = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - t0 < seconds:
        plain.append(runner.timed_pass()[1])
        tr = Tracer()
        tr.install()
        try:
            raw, ref = runner.timed_pass(tr)
        finally:
            tr.uninstall()
        traced.append(ref)
        scale = sum(ref) / sum(raw)
        layers.append({k: (v * scale if u in ("s", "us") else v, u)
                       for k, (v, u) in layer_metrics(tr).items()})
        if len(layers) == 1:
            first = tr
    counts = [{k: v for k, (v, u) in m.items() if u == "count"} for m in layers]
    if any(c != counts[0] for c in counts):
        runner.failures.append(("trace", "per-layer counts differ between traced passes"))
    metrics = {k: (v if u == "count" else statistics.median(m[k][0] for m in layers), u)
               for k, (v, u) in layers[0].items()}
    metrics["cli.csv_bytes"] = (runner.csv_bytes(), "bytes")
    overhead = statistics.median(map(sum, traced)) / statistics.median(map(sum, plain)) - 1
    metrics["trace.overhead_frac"] = (overhead, "frac")
    for label, v in shares(runner, plain).items():
        metrics[f"share.{label}"] = (v, "frac")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-{seed}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"workload": workload, "seed": seed,
                   "calls": [" ".join(a) for a in runner.argvs],
                   "trace": first.dump()}, f)
    print(f"traced: {len(traced)} traced and {len(plain)} untraced passes; "
          f"spans of the first traced pass in {path.relative_to(ROOT)}")
    return metrics


def layer_metrics(tr):
    """Per-layer metrics of one traced pass."""
    rk4, field = "quadrature.rk4_integrate", "dynamics.field"
    steps = tr.counts[rk4 + ".steps"]
    evals = tr.calls(field)
    rs = "dynamics.run_system"
    jac = tr.counts["poisson.jacobi_poly.calls"]
    m = {
        rk4 + ".calls": (tr.calls(rk4), "count"),
        rk4 + ".steps": (steps, "count"),
        rk4 + ".s": (tr.total(rk4), "s"),
        rk4 + ".self_s": (tr.self_time(rk4), "s"),
        rk4 + ".us_per_step": (1e6 * tr.total(rk4) / steps if steps else 0.0, "us"),
        field + ".evals": (evals, "count"),
        field + ".s": (tr.total(field), "s"),
        field + ".us_per_eval": (1e6 * tr.total(field) / evals if evals else 0.0, "us"),
        "dynamics.guard.pairs": (tr.counts["dynamics.guard.pairs"], "count"),
        "dynamics.guard.s": (tr.total("dynamics.guard"), "s"),
        rs + ".calls": (tr.calls(rs), "count"),
        rs + ".s": (tr.total(rs), "s"),
        rs + ".us_per_call": (1e6 * tr.total(rs) / tr.calls(rs) if tr.calls(rs) else 0.0, "us"),
        "poisson.jacobi_cache.hit_ratio": (
            tr.counts["poisson.jacobi_poly.hits"] / jac if jac else 0.0, "frac"),
        "cli.self_s": (tr.self_time("cli"), "s"),
    }
    for name in ("groups.exp_group", "mat2.expm2", "mat2.rodrigues3", "poisson.poly_bracket",
                 "poisson.evaluate", "poisson.hamiltonian_field", "groups.iwasawa",
                 "dynamics.legendre", "quadrature.drift_report"):
        m[name + ".calls"] = (tr.calls(name), "count")
        m[name + ".s"] = (tr.total(name), "s")
    for suite in wl.SUITES:
        m[f"verify.suite.{suite}.s"] = (tr.total(f"verify.suite.{suite}"), "s")
    return m


def check_manifest(metrics, manifest, trace):
    expected = manifest["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {k: u for k, (_, u) in metrics.items()}
    if want != got:
        raise BenchError(f"metrics do not match BENCHMARK.json: missing "
                         f"{sorted(set(want) - set(got))}, unexpected "
                         f"{sorted(set(got) - set(want))}, units {want} vs {got}")


def run_workload(workload, seed, seconds, trace):
    if not (SRC / "doubleflow" / "cli.py").is_file():
        raise BenchError(f"no doubleflow source under {SRC}; run from a source checkout")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        manifest = json.load(f)
    setup = None if trace else measure_setup()
    cli = load_cli()
    calls = wl.build(workload, seed)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        runner = Runner(cli, calls, workdir)
        runner.reference_pass()
        print(f"digest {workload} seed {seed}: sha256 {runner.digest()}")
        runner.check_digest(workload, seed)
        if trace:
            metrics = per_layer(runner, workload, seconds, seed)
        else:
            metrics = end_to_end(runner, workload, seconds, setup)
    check_manifest(metrics, manifest, trace)
    print(f"workload {workload}, seed {seed}: {runner.attempted} calls attempted, "
          f"{len(runner.failures)} failed, fail_frac {len(runner.failures) / runner.attempted:.6g}")
    for what, why in runner.failures[:20]:
        print(f"FAILED {what}: {why}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed, seconds, trace):
    """Each workload in its own fresh process; prints every metric."""
    rows, ok = [], True
    for workload in wl.WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        for name, m in result["metrics"].items():
            rows.append(f"{workload:12s} {name:40s} {m['value']:<14.6g} {m['unit']}")
    print("\n".join(rows))
    return 0 if ok else 1


def seed_arg(text):
    if text == "fresh":
        return secrets.randbelow(2**31)
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer or 'fresh', got {text!r}")
    return int(text)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=seed_arg,
                        help="non-negative integer, or 'fresh' to draw a held-out seed")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = args.seed
    print(f"seed {seed}")
    try:
        if args.workload == "all":
            return run_all(seed, args.seconds, args.trace)
        result = run_workload(args.workload, seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
