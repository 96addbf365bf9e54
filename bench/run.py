"""linflow benchmark: one seeded, closed-loop workload per invocation.

Usage, from the root of a checkout::

    python3 bench/run.py --workload ingest --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads: ingest, audit, verify, cli (see workloads.py for why each mix).
With ``--trace 0`` the run measures the end-to-end metrics with tracing
off; with ``--trace 1`` it records spans around the calls into each linflow
module and reports the per-layer metrics instead.  Every op's output is
checked.  Times are rescaled to a nominal host speed by a reference probe
timed between ops (hostspeed.py); raw values are printed beside them.
Human-readable lines come first; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A full record
(environment, raw and rescaled metrics, per-kind latencies and, when
traced, the spans) is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# set-up is repeated at least SETUP_ROUNDS times and until SETUP_MIN_S have
# passed, so that a set-up of a few tens of ms still gets a steady median
SETUP_ROUNDS = 5
SETUP_MIN_S = 1.5
SETUP_MAX_ROUNDS = 30
P90_MIN_OPS = 100  # p90 needs >= 10 samples beyond it
MODULES = ("blocks", "_ratlinalg", "classifier", "similarity", "invariants",
           "flows", "homeos", "probes", "cli")
RELATIONS = ("LinEquiv", "DiffEquiv", "LipEquiv", "HoelderEquiv", "PwLipEquiv",
             "TopEquiv", "LinConj", "DiffConj", "LipConj", "HoelderConj", "PwLipConj")
CLI_SUBCOMMANDS = ("classify", "audit", "invariants", "transform", "verify")
# host-speed probes (see hostspeed.py): (set-up, ops) per workload
PROBES = {"ingest": ("fractions", "fractions"), "audit": ("objects", "objects"),
          "verify": ("fractions", "fractions"), "cli": ("objects", "import_launch")}
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("p50_ms", "ms"),
              ("p90_ms", "ms"), ("peak_rss_mb", "MB"))


# ---------------------------------------------------------------------------
# environment


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest():
    """sha256 over linflow's sources, naming the code where git cannot."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "linflow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _environment(args):
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "linflow_sources_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# measurement


class Run:
    """Counters of one closed-loop run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.untraced = []  # per untraced op: (start, s; latency, ns; wall incl. check, ns)
        self.by_kind = {}  # kind -> raw latencies in ns
        self.wall_ns = {True: 0, False: 0}  # traced? -> raw op wall time
        self.ops = {True: 0, False: 0}
        self.window_calls = {}  # span name -> calls in the count window
        self.window_wall_ns = 0


def execute(wl, tracer, run, k, traced):
    """Run, time and check op k; count a failure on any exception."""
    op = wl.op(k)
    tracer.enabled = traced
    t0 = time.perf_counter_ns()
    t1 = None
    try:
        with tracer.op(op.kind):
            out = op.run()
        t1 = time.perf_counter_ns()
        tracer.enabled = False
        op.check(out)
    except Exception as exc:  # the op boundary: record, count, go on
        if t1 is None:
            t1 = time.perf_counter_ns()
        tracer.enabled = False
        run.failed += 1
        if len(run.errors) < 5:
            run.errors.append(f"op {k} ({op.kind}): {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
    t2 = time.perf_counter_ns()
    run.attempted += 1
    run.ops[traced] += 1
    run.wall_ns[traced] += t2 - t0
    if not traced:
        run.untraced.append((t0 / 1e9, t1 - t0, t2 - t0))
    run.by_kind.setdefault(op.kind, []).append(t1 - t0)


def _fresh_import():
    """Import linflow, and the benchmark modules built on it, afresh.

    numpy and scipy are imported before the first round, so each round
    times linflow's own import; their import cost shows in the cli
    workload, where every launch pays it.
    """
    for name in list(sys.modules):
        if name in ("linflow", "gen", "workloads") or name.startswith("linflow."):
            del sys.modules[name]
    return importlib.import_module("workloads")


def setup(args, speed):
    """Set up repeatedly, in this process: import linflow, generate the
    inputs, warm up.  Return the last round's workload and the round times,
    raw and rescaled to the nominal host speed."""
    raw, mid = [], []
    wl = None
    start = time.perf_counter()
    while len(raw) < SETUP_ROUNDS or (time.perf_counter() - start < SETUP_MIN_S
                                       and len(raw) < SETUP_MAX_ROUNDS):
        if wl is not None:
            wl.close()
        gc.collect()  # start every round from the same heap, not the last round's garbage
        speed.sample()
        t0 = time.perf_counter()
        workloads = _fresh_import()
        wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
        wl.generate()
        wl.warm_up()
        raw.append(time.perf_counter() - t0)
        mid.append(t0 + raw[-1] / 2)
        speed.sample()
    nominal = [t * speed.factor_at(m) for t, m in zip(raw, mid)]
    return wl, raw, nominal


def measure(wl, tracer, args, speed):
    """The closed loop; ``speed`` is the probe that rescales the ops.

    The probe is also sampled once after the loop, so that the last ops
    are rescaled by samples from both sides of them, like the others.
    """
    run = Run()
    k = 0
    if args.trace:
        # count window: a fixed prefix of the sequence, traced, whose exact
        # counts repeat for a given seed whatever the machine's speed
        wl.counting = True
        for k in range(wl.count_window):
            execute(wl, tracer, run, k, True)
        wl.counting = False
        k = wl.count_window
        for (name, _), a in tracer.agg.items():
            run.window_calls[name] = run.window_calls.get(name, 0) + a.calls
        run.window_wall_ns = run.wall_ns[True]
    k0 = k
    block = wl.count_window
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        # in a traced run, blocks of ops alternate untraced / traced so that
        # both halves see the same mix; the difference is the overhead
        traced = bool(args.trace) and ((k - k0) // block) % 2 == 1
        if traced and (k - k0) % block == 0:
            wl.traced_extras()
        speed.maybe_sample()
        execute(wl, tracer, run, k, traced)
        k += 1
    speed.sample()
    return run


def _quantile(sorted_values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    n = len(sorted_values)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def peak_rss_mb(wl):
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(wl, run, setup_times, speed=None):
    """The end-to-end metrics, from raw times or, given the probe ``speed``,
    from times rescaled to the nominal host speed."""
    factors = [speed.factor_at(t) if speed else 1.0 for t, _, _ in run.untraced]
    lat = sorted(f * ns / 1e6 for f, (_, ns, _) in zip(factors, run.untraced))
    wall_s = sum(f * ns for f, (_, _, ns) in zip(factors, run.untraced)) / 1e9
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(lat) / wall_s,
        "p50_ms": _quantile(lat, 0.5),
        "p90_ms": _quantile(lat, 0.9),
        "peak_rss_mb": peak_rss_mb(wl),
    }


# ---------------------------------------------------------------------------
# per-layer metrics from the traced run


def per_layer(wl, tracer, run):
    """Every per-layer metric, as (value, unit); idle layers read 0."""
    m = {}

    def mean(name, scale, kinds=None, self_time=False):
        a = tracer.stats(name, kinds)
        if not a.calls:
            return 0.0
        return (a.self_ns if self_time else a.total_ns) / a.calls / scale

    def per_point(name):
        a = tracer.stats(name)
        return a.total_ns / a.points / 1e3 if a.points else 0.0

    kinds = set(k for (_, k) in tracer.agg)
    window = run.window_calls
    counts = wl.counts

    # ingestion
    for fam in ("blockdiag", "dense", "numeric"):
        fk = {k for k in kinds if k and k.startswith(fam + ".")}
        m[f"blocks.spec_from_matrix.{fam}_ms"] = (mean("blocks.spec_from_matrix", 1e6, fk), "ms")
    for d in (4, 8, 12):
        m[f"blocks.spec_from_matrix.dense_d{d}_ms"] = (
            mean("blocks.spec_from_matrix", 1e6, {f"dense.d{d}"}), "ms")
    m["ratlinalg.charpoly_ms"] = (mean("_ratlinalg.charpoly", 1e6), "ms")
    m["ratlinalg.rank_sequence_ms"] = (mean("_ratlinalg.rank_sequence", 1e6), "ms")
    m["blocks.rooting_ms"] = (mean("blocks.spec_from_matrix", 1e6, self_time=True), "ms")
    share = counts.get("exact", 0) / counts["ops"] if wl.name == "ingest" and counts.get("ops") else 0.0
    m["blocks.exact_tier_share"] = (share, "ratio")
    m["ratlinalg.rank_sequence_calls"] = (window.get("_ratlinalg.rank_sequence", 0), "count")

    # classification
    for rel in RELATIONS:
        m[f"classifier.classify.{rel}_us"] = (mean("classifier.classify." + rel, 1e3), "us")
    m["classifier.implication_audit_ms"] = (mean("classifier.implication_audit", 1e6), "ms")
    m["similarity.scaling_candidates_us"] = (mean("similarity.scaling_candidates", 1e3), "us")
    pairs = counts.get("pairs", 0) if wl.name == "audit" else 0
    m["similarity.candidates_per_pair"] = (counts.get("candidates", 0) / pairs if pairs else 0.0, "count")
    m["classifier.trace_entries_per_audit"] = (
        counts.get("trace_entries", 0) / pairs if pairs else 0.0, "count")
    for dec in ("yes", "no", "undecided"):
        m[f"classifier.decisions.{dec}"] = (counts.get("decision." + dec, 0) if pairs else 0, "count")
    for fn in ("semisimple_collapse", "rotation_decouple", "lyapunov_spectrum",
               "partition_dims", "subspec"):
        m[f"invariants.{fn}_us"] = (mean("invariants." + fn, 1e3), "us")

    # maps and probes
    for group in ("pw_hyp", "closed_form", "unwind"):
        m[f"homeos.{group}.build_ms"] = (mean(f"homeos.{group}.build", 1e6), "ms")
        for part in ("forward", "inverse", "tau"):
            m[f"homeos.{group}.{part}_us_per_pt"] = (per_point(f"homeos.{group}.{part}"), "us")
    m["flows.apply_batch_us_per_pt"] = (per_point("flows.apply_batch"), "us")
    m["flows.apply_batch_calls"] = (window.get("flows.apply_batch", 0), "count")
    m["probes.verify_conjugacy_ms"] = (mean("probes.verify_conjugacy", 1e6), "ms")
    m["probes.lipschitz_probe_ms"] = (mean("probes.lipschitz_probe", 1e6), "ms")
    worst = getattr(wl, "worst", {})
    for group in ("pw_hyp", "closed_form", "unwind"):
        m[f"probes.worst_residual.{group}"] = (worst.get(group, 0.0), "rel")
    m["probes.worst_round_trip"] = (worst.get("round_trip", 0.0), "rel")

    # process launches
    for key, attr in (("interp_startup", "startup_s"), ("import_linflow", "import_s")):
        samples = getattr(wl, attr, [])
        m[f"cli.{key}_ms"] = (1e3 * statistics.median(samples) if samples else 0.0, "ms")
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}_ms"] = (mean("cli." + sub, 1e6), "ms")

    # where the time went, and what tracing cost
    traced_ops = run.ops[True]
    selfs = tracer.self_by_module()
    for mod in MODULES:
        # metric names start with a letter or digit: _ratlinalg -> ratlinalg
        m[f"{mod.lstrip('_')}.self_ms_per_op"] = (selfs.get(mod, 0) / traced_ops / 1e6 if traced_ops else 0.0, "ms")
    timed = run.ops[True] - wl.count_window
    traced_rate = timed / ((run.wall_ns[True] - run.window_wall_ns) / 1e9) if timed > 0 else 0.0
    plain_rate = run.ops[False] / (run.wall_ns[False] / 1e9) if run.ops[False] else 0.0
    overhead = 100.0 * (1.0 - traced_rate / plain_rate) if plain_rate and traced_rate else 0.0
    m["trace.overhead_pct"] = (overhead, "%")
    m["trace.spans"] = (sum(a.calls for a in tracer.agg.values()), "count")
    return m, {"traced_ops_per_s": traced_rate, "untraced_ops_per_s": plain_rate}


# ---------------------------------------------------------------------------


def _write_record(args, record):
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return os.path.relpath(path, ROOT)


def run_one(args):
    import hostspeed
    import scipy.linalg  # noqa: F401  (see _fresh_import)
    from spans import Tracer

    # one CPU for the ops, the host-speed probes and every child process
    cpu = hostspeed.pin_to_one_cpu()
    load_before = os.getloadavg()
    env = _environment(args)
    env["pinned_cpu"] = cpu
    t0 = time.perf_counter()
    # set-up runs in this process, so the workload's in-process probe
    # rescales it; a workload of launches brings its own probe for the ops
    setup_speed = hostspeed.host_speed(PROBES[args.workload][0])
    for _ in range(3):
        setup_speed.sample()
    wl, setup_raw, setup_nominal = setup(args, setup_speed)
    speed = setup_speed
    if PROBES[args.workload][1] != setup_speed.name:
        speed = hostspeed.host_speed(PROBES[args.workload][1])
        for _ in range(3):
            speed.sample()
    tracer = Tracer()
    if args.trace:
        wl.instrument(tracer)
    try:
        wl.settle()
        t_loop = time.perf_counter()
        run = measure(wl, tracer, args, speed)
    finally:
        tracer.unpatch()
        wl.close()
    env["loadavg_before"] = list(load_before)
    env["loadavg_after"] = list(os.getloadavg())
    env["workload"] = args.workload
    env["workload_order"] = [wl.op(k).kind for k in range(wl.count_window)]
    env["host_probes"] = {"setup": setup_speed.summary(), "ops": speed.summary()}

    p = print
    p(f"# linflow benchmark, workload {args.workload}, seed {args.seed}, "
      f"{'traced' if args.trace else 'untraced'} run")
    p(f"# env {json.dumps(env)}")
    fail_ratio = run.failed / run.attempted if run.attempted else 1.0
    record = {"env": env, "attempted": run.attempted, "failed": run.failed, "errors": run.errors}
    if args.trace:
        layers, rates = per_layer(wl, tracer, run)
        # per-layer times are rescaled by the run's mean probe time
        scale = speed.nominal_ms / statistics.fmean(speed.samples)
        layers = {k: (v * scale if u in ("ms", "us") else v, u) for k, (v, u) in layers.items()}
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        for name, (value, unit) in layers.items():
            p(f"{args.workload} {name} {value:.6g} {unit}")
        p(f"{args.workload} tracing overhead: traced {rates['traced_ops_per_s']:.4g} ops/s vs "
          f"untraced {rates['untraced_ops_per_s']:.4g} ops/s")
        p(f"{args.workload} self time per module (ms per traced op): " + ", ".join(
            f"{mod} {layers[mod.lstrip('_') + '.self_ms_per_op'][0]:.4g}" for mod in MODULES))
        record["trace"] = tracer.dump()
        record["rates"] = rates
    else:
        e2e = end_to_end(wl, run, setup_nominal, speed)
        raw = end_to_end(wl, run, setup_raw)
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
        n = len(run.untraced)
        for name, unit in END_TO_END:
            note = f"  (raw {raw[name]:.6g})" if name != "peak_rss_mb" else ""
            if name == "p90_ms":
                note += f"  (n={n} ops{'' if n >= P90_MIN_OPS else f'; below the {P90_MIN_OPS} needed for a valid p90'})"
            if name == "peak_rss_mb" and wl.name == "cli":
                note = "  (largest child process)"
            p(f"{args.workload} {name} {e2e[name]:.6g} {unit}{note}")
        p(f"{args.workload} fail_ratio {fail_ratio:.6g} ratio  ({run.failed} of {run.attempted} ops)")
        p(f"{args.workload} setup rounds (s, raw): " + ", ".join(f"{t:.4g}" for t in setup_raw))
        probe = env["host_probes"]["ops"]
        p(f"{args.workload} times above are rescaled to the nominal host speed: "
          f"{probe['probe']} probe median {probe['median_ms']:.4g} ms, "
          f"nominal {probe['nominal_ms']:g} ms")
        record["raw_metrics"] = raw
        record["setup_rounds_s"] = {"raw": setup_raw, "rescaled": setup_nominal}
        start = run.untraced[0][0] if run.untraced else 0.0
        record["ops_raw"] = [(t - start, ns / 1e6) for t, ns, _ in run.untraced]  # (s, ms)
        record["probe_samples"] = [(t - start, ms) for t, ms in zip(speed.times, speed.samples)]
    record["metrics"] = metrics
    record["latency_ms_by_kind"] = {
        kind: {"n": len(v), "median": statistics.median(v) / 1e6} for kind, v in sorted(run.by_kind.items())
    }
    for err in run.errors:
        p(f"# failed: {err}")
    p(f"# record written to {_write_record(args, record)}; total {time.perf_counter() - t0:.1f} s, "
      f"loop {time.perf_counter() - t_loop:.1f} s")
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def run_all(args):
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with code {proc.returncode}")
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    return combined


WORKLOAD_NAMES = ("ingest", "audit", "verify", "cli")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "linflow", "__init__.py")):
        print(f"error: no linflow sources under {SRC}; run from a linflow checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
