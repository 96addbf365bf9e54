"""The four benchmark workloads: inputs, op sequence, output checks.

Every workload is a closed loop with one client: the runner asks for op k,
times it, checks it, then asks for op k + 1.  Ops come from a fixed cycle
of strata (input kind and size), filled with seeded inputs, so that any
prefix of the sequence has nearly the same mix whatever the seed; this is
what keeps throughput and percentiles comparable from seed to seed.

An op's ``run`` is the timed part (the library call or the process
launch); its ``check`` runs afterwards, outside the latency, and raises
``Mismatch`` when the output is wrong.  Checks also feed the exact counts
reported by the traced run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

import linflow
from linflow import blocks, classifier, flows, homeos, probes, similarity
from linflow import _ratlinalg, invariants

import gen


SHAPE_SEED = 1


class Mismatch(Exception):
    """An op returned a wrong result."""


class Op:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def _require(cond, message):
    if not cond:
        raise Mismatch(message)


class Workload:
    """Base: subclasses fill ``cycle`` and implement ``generate``/``op``."""

    name = ""
    # ops traced before the timed loop; the exact counts come from these
    count_window = 0

    def __init__(self, root, seed):
        self.root = root
        self.seed = seed
        self.counts = {}
        self.counting = False

    def rng(self, stream):
        """Values of the inputs of one stratum: depend on --seed."""
        return np.random.default_rng([self.seed, stream])

    @staticmethod
    def shape_rng(stream):
        """Structure of the inputs of one stratum: the same for every seed."""
        return np.random.default_rng([SHAPE_SEED, stream])

    def count(self, key, n=1):
        if self.counting:
            self.counts[key] = self.counts.get(key, 0) + n

    def generate(self):
        raise NotImplementedError

    def warm_up(self):
        """Run a few ops on inputs outside the measured sequence."""
        for op in self.warm_ops():
            op.check(op.run())

    def warm_ops(self):
        return []

    def settle(self):
        """Untimed work after set-up, right before the timed loop."""

    def op(self, k):
        raise NotImplementedError

    def instrument(self, tracer):
        """Install the spans this workload's per-layer metrics read."""

    def traced_extras(self):
        """Extra measurements taken once per traced block of ops."""

    def close(self):
        """Release what generate() created outside memory."""


# ---------------------------------------------------------------------------
# ingest


class Ingest(Workload):
    """``spec_from_matrix`` on rational matrices at d = 4, 8 and 12.

    Why this mix: nearly all time goes to the exact Fraction kernel
    (charpoly, rank sequences) in ``blocks`` and ``_ratlinalg``; the
    classifier and the float maps stay idle.  Three input kinds drive the
    same ingestion layer three ways: block-diagonal normal forms, dense
    conjugates P J P^-1 (P = L U unimodular) that need real elimination,
    and one op in five a near-rational semisimple matrix that fails exact
    certification and falls through to the numeric tier.  A kernel change
    that helps dense inputs but slows the fall-through shows up here.  Each
    size contributes 2 block-diagonal, 2 dense and 1 near-rational op per
    cycle, so d = 12 ops dominate time and set p90.
    """

    name = "ingest"
    count_window = 15
    DIMS = (4, 8, 12)
    PER_DIM = ("blockdiag", "dense", "blockdiag", "dense", "numeric")
    POOL = 16  # inputs per (kind, d) stratum before the sequence repeats

    def generate(self):
        self.cycle = [(kind, d) for d in self.DIMS for kind in self.PER_DIM]
        self.pool = {}
        for si, (kind, d) in enumerate(sorted(set(self.cycle))):
            rng, shape = self.rng(si), self.shape_rng(si)
            self.pool[(kind, d)] = [self._make(rng, shape, kind, d) for _ in range(self.POOL)]
        rng, shape = self.rng(99), self.shape_rng(99)
        self.warm = [self._make(rng, shape, kind, 4) for kind in ("blockdiag", "dense", "numeric")]

    @staticmethod
    def _make(rng, shape, kind, d):
        spec = gen.spec_of_dim(rng, d, semisimple=(kind == "numeric"), shape_rng=shape, odd=True)
        if kind == "blockdiag":
            matrix = linflow.materialize(spec)
        elif kind == "dense":
            matrix = gen.dense_conjugate(shape, spec)
        else:
            matrix = gen.near_rational(shape, spec)
        return kind, spec, matrix

    def _op(self, item, tag):
        kind, spec, matrix = item

        def run():
            return blocks.spec_from_matrix(matrix)

        def check(approx):
            _require(approx.spec == spec, f"{tag}: recovered spec differs from the source")
            _require(approx.exact == (kind != "numeric"),
                     f"{tag}: exact={approx.exact} for a {kind} input")
            _require(approx.residual <= approx.tol, f"{tag}: residual above tol")
            self.count("ops")
            self.count("exact", int(approx.exact))

        return Op(tag, run, check)

    def warm_ops(self):
        return [self._op(item, "warm") for item in self.warm]

    def op(self, k):
        n = len(self.cycle)
        kind, d = self.cycle[k % n]
        # position of this op among the cycle's ops of the same stratum
        rank = self.cycle[: k % n].count((kind, d)) + (k // n) * self.cycle.count((kind, d))
        item = self.pool[(kind, d)][rank % self.POOL]
        return self._op(item, f"{kind}.d{d}")

    def instrument(self, tracer):
        tracer.patch(blocks, "spec_from_matrix", "blocks.spec_from_matrix")
        tracer.patch(_ratlinalg, "charpoly", "_ratlinalg.charpoly")
        tracer.patch(_ratlinalg, "rank_sequence", "_ratlinalg.rank_sequence")


# ---------------------------------------------------------------------------
# audit


class Audit(Workload):
    """``implication_audit(a, b)`` over pairs of equal dimension 2..6.

    Why this mix: all the work is exact work in ``classifier``,
    ``similarity`` and ``invariants``, with no float code.  Three in ten
    pairs are scalings b = alpha a (alpha in 1/2, -1, 2, 3/2), one in ten a
    semisimple_collapse relative, one in ten a rotation_decouple relative:
    related pairs end the candidate scan early, the five unrelated pairs in
    ten run it to the end, so a canonical-key change shows on both.  Pairs
    have equal dimension because pairs of different dimension end at the
    first check; every dimension 2..6 meets every relation kind once per
    50-pair cycle.  The pool is larger than the library's 4096-entry LRU
    caches, so when the sequence wraps it finds them cold again.
    """

    name = "audit"
    count_window = 200
    ALPHAS = (Fraction(1, 2), Fraction(-1), Fraction(2), Fraction(3, 2))
    RELATION_KINDS = ("scaled", "scaled", "scaled", "collapse", "decouple",
                      "independent", "independent", "independent",
                      "independent", "independent")
    DIMS = (2, 3, 4, 5, 6)
    POOL_CYCLES = 100  # 5000 pairs

    def generate(self):
        rng = self.rng(0)
        strata = [(rel, d) for rel in self.RELATION_KINDS for d in self.DIMS]
        self.pairs = []
        for _ in range(self.POOL_CYCLES):
            order = rng.permutation(len(strata))
            for i in order:
                self.pairs.append(self._make(rng, *strata[i]))
        rng = self.rng(99)
        self.warm = [self._make(rng, rel, 3) for rel in self.RELATION_KINDS]

    def _make(self, rng, rel, d):
        a = gen.spec_of_dim(rng, d)
        if rel == "scaled":
            b = linflow.scale_spec(a, self.ALPHAS[int(rng.integers(len(self.ALPHAS)))])
        elif rel == "collapse":
            b = linflow.semisimple_collapse(a)
        elif rel == "decouple":
            b = linflow.rotation_decouple(a)
        else:
            b = gen.spec_of_dim(rng, d)
        return rel, a, b

    def _op(self, item, tag):
        rel, a, b = item

        def run():
            return classifier.implication_audit(a, b)

        def check(report):
            _require(report.clean, f"{tag}: implication violations {report.violations}")
            _require(len(report.verdicts) == len(linflow.Relation), f"{tag}: missing verdicts")
            if rel == "scaled":
                for r, v in report.verdicts.items():
                    if r.value.endswith("Equiv"):
                        _require(v.decision is linflow.Decision.YES,
                                 f"{tag}: {r.value} is {v.decision.value} for a scaled pair")
            if self.counting:
                self.count("pairs")
                self.count("candidates", len(similarity.scaling_candidates(a, b)))
                for v in report.verdicts.values():
                    self.count("trace_entries", len(v.trace))
                    self.count("decision." + v.decision.value.lower())

        return Op(tag, run, check)

    def warm_ops(self):
        return [self._op(item, "warm") for item in self.warm]

    def op(self, k):
        item = self.pairs[k % len(self.pairs)]
        return self._op(item, f"{item[0]}.d{item[1].dim}")

    def instrument(self, tracer):
        tracer.patch(classifier, "implication_audit", "classifier.implication_audit")
        tracer.patch(classifier, "classify", 
                     lambda rel, *a, **k: "classifier.classify." + getattr(rel, "value", rel))
        tracer.patch(similarity, "scaling_candidates", "similarity.scaling_candidates")
        for fn in ("semisimple_collapse", "rotation_decouple", "lyapunov_spectrum",
                   "partition_dims", "subspec"):
            tracer.patch(invariants, fn, "invariants." + fn)


# ---------------------------------------------------------------------------
# verify

T_HYP = np.linspace(-5.0, 5.0, 7)  # the A08 grid for pw-hyp maps
T_WIDE = np.linspace(-20.0, 20.0, 11)  # the A08 wide grid for closed forms
T_UNWIND = np.linspace(-10.0, 10.0, 11)  # the A08 grid for the unwind map
# A08 residual bounds, unchanged
BOUND = {"pw_hyp": 1e-6, "closed_form": 1e-9, "unwind": 1e-7}


def _pw_hyp_spec(rng, shape, d_stable, d_unstable):
    """Hyperbolic spec with |growth rate| in [1/4, 4], as in the A08 gate."""
    def rate(sign):
        return lambda: sign * Fraction(int(rng.integers(1, 17)), 4)

    parts = []
    if d_stable:
        parts += gen.spec_of_dim(rng, d_stable, rate=rate(-1), shape_rng=shape).blocks
    if d_unstable:
        parts += gen.spec_of_dim(rng, d_unstable, rate=rate(1), shape_rng=shape).blocks
    return linflow.GeneratorSpec(tuple(parts))


class Verify(Workload):
    """Build a map and run ``verify_conjugacy`` on it; probe some maps.

    Why this mix: all the work is float work in ``homeos``, ``flows`` and
    ``probes``.  Per 28-op cycle, four pw-hyp maps on hyperbolic specs with
    both a stable and an unstable part (d = 2, 3) pay for nested bisection
    in the inverse; four with one part only (d = 3..6) bisect once per
    point; sixteen closed-form spiral, shear and uniform maps do not bisect
    at all, and two unwind maps bisect once.  Every fourth pw-hyp map (a
    one-sided one, d = 3 or 4) also gets ``lipschitz_probe(pairs=6)``, its
    own op, which calls only the forward map.  A Newton change in the root
    solves therefore has ops on both sides inside this workload.  The
    mixed-split maps are the slowest seventh of the ops, so they set p90;
    the closed-form maps are more than half, so they set p50.
    """

    name = "verify"
    count_window = 28
    tracer = None  # set by instrument()
    # per pw-hyp op: (d_stable, d_unstable), or "pureN" for a one-sided map
    # of dimension N; None marks the probe of the last map
    PW = ((1, 1), "pure5", (1, 2), "pure4", None, (1, 1), "pure6", (2, 1), "pure3", None)
    CLOSED = ("spiral", "shear", "uniform")
    POOL = 16

    def generate(self):
        cycle = []
        closed = 0
        for item in self.PW:
            if item is None:
                cycle += [("probe", None), ("unwind", None)]
                continue
            cycle.append(("pw_hyp", item))
            for _ in range(2):
                cycle.append((self.CLOSED[closed % len(self.CLOSED)], None))
                closed += 1
        self.cycle = cycle
        self.pool = {}
        keys = dict.fromkeys(key for key in cycle if key[0] != "probe")
        for si, key in enumerate(keys):
            rng, shape = self.rng(si), self.shape_rng(si)
            self.pool[key] = [self._make(rng, shape, *key) for _ in range(self.POOL)]
        rng, shape = self.rng(99), self.shape_rng(99)
        self.warm = ([self._make(rng, shape, "pw_hyp", (1, 1))]
                     + [self._make(rng, shape, c, None) for c in self.CLOSED + ("unwind",)])
        self.last_map = None
        self.worst = {}

    @staticmethod
    def _make(rng, shape, kind, split):
        if kind == "pw_hyp":
            if isinstance(split, str):  # one-sided: all stable or all unstable
                d = int(split[4:])
                split = (d, 0) if shape.random() < 0.5 else (0, d)
            return kind, _pw_hyp_spec(rng, shape, *split)
        if kind == "spiral":
            return kind, float(gen.rational(rng, 4, -2, 2, nonzero=True))
        if kind == "shear":
            return kind, float(gen.rational(rng, 4, -1, 1, nonzero=True))
        if kind == "uniform":
            a0 = -Fraction(int(rng.integers(2, 9)), 4)
            return kind, gen.spec_of_dim(rng, int(shape.integers(2, 7)), semisimple=True,
                                         rate=lambda: a0, shape_rng=shape)
        size = int(shape.integers(1, 4))
        growth = float(gen.rational(rng, 4, -2, 2, nonzero=True))
        if abs(growth) < 0.5:
            growth = 0.5 if growth > 0 else -0.5
        rotation = float(gen.rational(rng, 4, 0, 2, nonzero=True))
        return kind, (size, growth, rotation)

    def _build(self, kind, arg):
        if kind == "pw_hyp":
            return homeos.build_pw_conj_hyperbolic(arg), T_HYP, 12, "pw_hyp"
        if kind == "spiral":
            return homeos.build_spiral_map(arg), T_WIDE, 32, "closed_form"
        if kind == "shear":
            return homeos.build_parabola_shear(arg), T_WIDE, 32, "closed_form"
        if kind == "uniform":
            return homeos.build_uniform_exponent_map(arg), T_WIDE, 32, "closed_form"
        return homeos.build_rotation_unwind_map(*arg), T_UNWIND, 32, "unwind"

    def _verify_op(self, item, tag, keep):
        kind, arg = item

        def run():
            hmap, times, n_points, group = self._build(kind, arg)
            if self.tracer is not None:
                self._trace_map(hmap, group)
            return hmap, group, probes.verify_conjugacy(hmap, times=times, n_points=n_points)

        def check(out):
            hmap, group, rep = out
            _require(rep.residual < BOUND[group],
                     f"{tag}: residual {rep.residual:.3e} >= {BOUND[group]:g}")
            _require(np.isfinite(rep.round_trip), f"{tag}: round trip is not finite")
            self.worst[group] = max(self.worst.get(group, 0.0), rep.residual)
            self.worst["round_trip"] = max(self.worst.get("round_trip", 0.0), rep.round_trip)
            if keep:
                self.last_map = hmap
            self.count("ops")

        return Op(tag, run, check)

    def _probe_op(self, tag):
        hmap = self.last_map

        def run():
            return probes.lipschitz_probe(hmap, pairs=6)

        def check(rep):
            # the A08 check: the pointwise ratio at 0 stays bounded
            tail = np.asarray(rep.pointwise_ratios[-10:])
            grew = bool(np.all(np.diff(tail) > 0)) and tail[-1] > 1.25 * tail[0]
            _require(not grew, f"{tag}: pointwise ratio still growing: {tail}")
            self.count("ops")

        return Op(tag, run, check)

    def warm_ops(self):
        return [self._verify_op(item, "warm", False) for item in self.warm]

    def warm_up(self):
        super().warm_up()
        self.worst = {}

    def op(self, k):
        n = len(self.cycle)
        kind, split = self.cycle[k % n]
        if kind == "probe":
            return self._probe_op("probe")
        key = (kind, split)
        rank = self.cycle[: k % n].count(key) + (k // n) * self.cycle.count(key)
        item = self.pool[key][rank % self.POOL]
        tag = "pw_hyp.%s" % ("mixed" if isinstance(split, tuple) else "pure") if kind == "pw_hyp" else kind
        return self._verify_op(item, tag, kind == "pw_hyp")

    def instrument(self, tracer):
        self.tracer = tracer
        for fn, group in (("build_pw_conj_hyperbolic", "pw_hyp"),
                          ("build_spiral_map", "closed_form"),
                          ("build_parabola_shear", "closed_form"),
                          ("build_uniform_exponent_map", "closed_form"),
                          ("build_rotation_unwind_map", "unwind")):
            tracer.patch(homeos, fn, f"homeos.{group}.build")
        tracer.patch(flows.FlowEvaluator, "apply_batch", "flows.apply_batch",
                     points=lambda self, ts, X: len(ts))
        tracer.patch(probes, "verify_conjugacy", "probes.verify_conjugacy")
        tracer.patch(probes, "lipschitz_probe", "probes.lipschitz_probe")

    def _trace_map(self, hmap, group):
        rows = lambda X, *rest: len(np.atleast_2d(X))
        for attr in ("forward_batch", "inverse_batch", "tau_batch"):
            setattr(hmap, attr, self.tracer.wrap(
                getattr(hmap, attr), f"homeos.{group}.{attr.split('_')[0]}", points=rows))


# ---------------------------------------------------------------------------
# cli


def _launch(root, argv):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # every launch compiles linflow from source and writes no bytecode,
    # whatever the caller's environment says
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run(
        [sys.executable] + argv, cwd=root, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import linflow; "
    "print(time.perf_counter() - t)"
)


def child_import_seconds(root):
    """Time to import linflow in a fresh interpreter, measured inside it."""
    proc = _launch(root, ["-c", IMPORT_PROBE])
    if proc.returncode != 0:
        raise RuntimeError("importing linflow in a child failed:\n" + proc.stderr)
    return float(proc.stdout.strip())


class Cli(Workload):
    """One ``python -m linflow ...`` process per op.

    Why this mix: the only workload where interpreter start-up and module
    imports show; a launch is mostly the import of numpy and scipy.linalg
    even for the exact subcommands, which is what the lazy-import item
    targets.  Ops rotate through classify (two relations), audit,
    invariants of a dense 4x4 rational matrix, transform, verify spiral,
    and an Undecided TopEquiv pair under --strict that must exit 4.  Input
    files are written at set-up; stdout must equal the in-process result.
    """

    name = "cli"
    count_window = 7
    ROTATION = ("classify_lip", "audit", "invariants", "classify_hoelder",
                "transform", "verify", "classify_strict")
    VARIANTS = 3

    def generate(self):
        self.dir = os.path.join(self.root, ".bench_out", f"cli-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.items = {kind: [] for kind in self.ROTATION}
        for si, kind in enumerate(self.ROTATION):
            rng = self.rng(si)
            for v in range(self.VARIANTS):
                self.items[kind].append(self._make(rng, kind, f"{kind}-{v}"))

    def _write(self, name, doc):
        path = os.path.join(self.dir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return os.path.relpath(path, self.root)

    def _make(self, rng, kind, stem):
        """Return (argv, expected exit code, expected stdout JSON)."""
        ser = linflow.serialize_spec
        if kind in ("classify_lip", "classify_hoelder", "audit"):
            d = int(rng.integers(2, 7))
            a = gen.spec_of_dim(rng, d)
            b = linflow.scale_spec(a, Fraction(2)) if rng.random() < 0.5 else gen.spec_of_dim(rng, d)
            fa, fb = self._write(stem + "-a", ser(a)), self._write(stem + "-b", ser(b))
            if kind == "audit":
                return ["-m", "linflow", "audit", fa, fb], 0, linflow.implication_audit(a, b).to_json()
            rel = "LipEquiv" if kind == "classify_lip" else "HoelderConj"
            return (["-m", "linflow", "classify", rel, fa, fb], 0,
                    linflow.classify(rel, a, b).to_json())
        if kind == "classify_strict":
            # a central rotation beside a saddle, rotation rates p != q: no
            # complete criterion applies, so TopEquiv must stay Undecided
            r = Fraction(int(rng.integers(1, 9)), 4)
            p = Fraction(int(rng.integers(1, 9)), 4)
            q = p + Fraction(int(rng.integers(1, 5)), 4)
            a = linflow.GeneratorSpec((linflow.JordanBlock(1, 0, p), linflow.JordanBlock(1, -r, 0),
                                       linflow.JordanBlock(1, r, 0)))
            b = linflow.GeneratorSpec((linflow.JordanBlock(1, 0, q), linflow.JordanBlock(1, -r, 0),
                                       linflow.JordanBlock(1, r, 0)))
            verdict = linflow.classify("TopEquiv", a, b)
            if verdict.decision is not linflow.Decision.UNDECIDED:
                raise RuntimeError(f"generator bug: TopEquiv pair {a}, {b} is decided")
            fa, fb = self._write(stem + "-a", ser(a)), self._write(stem + "-b", ser(b))
            return ["-m", "linflow", "classify", "TopEquiv", fa, fb, "--strict"], 4, verdict.to_json()
        if kind == "invariants":
            spec = gen.spec_of_dim(rng, 4)
            matrix = gen.dense_conjugate(rng, spec)
            f = self._write(stem, linflow.serialize_matrix(matrix))
            return ["-m", "linflow", "invariants", f], 0, self._invariants(spec)
        if kind == "transform":
            spec = gen.spec_of_dim(rng, int(rng.integers(2, 7)))
            op = ("collapse", "decouple", "reverse", "scale:3/2")[int(rng.integers(4))]
            fn = {"collapse": linflow.semisimple_collapse, "decouple": linflow.rotation_decouple,
                  "reverse": linflow.time_reverse,
                  "scale:3/2": lambda s: linflow.scale_spec(s, Fraction(3, 2))}[op]
            f = self._write(stem, ser(spec))
            return ["-m", "linflow", "transform", op, f], 0, ser(fn(spec))
        # verify spiral at the CLI's defaults: 32 points, seed 0, 11 times on [-20, 20]
        rate = gen.rational(rng, 4, -2, 2, nonzero=True)
        hmap = linflow.build_spiral_map(float(rate))
        rep = linflow.verify_conjugacy(hmap, times=T_WIDE, n_points=32, seed=0)
        out = rep.to_json()
        out["map"] = {"name": hmap.name, "source": ser(hmap.source_spec), "target": ser(hmap.target_spec)}
        return ["-m", "linflow", "verify", f"spiral:{rate}"], 0, out

    @staticmethod
    def _invariants(spec):
        bounded = linflow.is_bounded(spec)
        try:
            distortion = linflow.distortion_subspace(spec).to_json()
        except linflow.NotStable:
            distortion = None
        return {
            "dim": spec.dim,
            "partition": linflow.partition_dims(spec).to_json(),
            "spectrum": [str(v) for v in linflow.lyapunov_spectrum(spec)],
            "growth": linflow.growth_profile(spec).to_json(),
            "generic": linflow.is_generic(spec),
            "bounded": bounded,
            "coincidence": linflow.class_coincidence(spec).to_json(),
            "minimal_period_over_two_pi": str(linflow.minimal_period(spec)) if bounded else None,
            "distortion_subspace": distortion,
        }

    def _op(self, item, tag):
        argv, code, expected = item

        def run():
            return self.launch(self.root, argv)

        def check(proc):
            _require(proc.returncode == code,
                     f"{tag}: exit {proc.returncode}, expected {code}: {proc.stderr[-400:]}")
            try:
                got = json.loads(proc.stdout)
            except json.JSONDecodeError as exc:
                raise Mismatch(f"{tag}: stdout is not JSON: {exc}") from exc
            _require(got == expected, f"{tag}: stdout differs from the in-process result")
            self.count("ops")

        return Op(tag, run, check)

    def op(self, k):
        n = len(self.ROTATION)
        kind = self.ROTATION[k % n]
        return self._op(self.items[kind][(k // n) % self.VARIANTS], kind)

    def settle(self):
        """Launch the first two ops untimed and checked: files that numpy,
        scipy and linflow load may have left the page cache while other
        processes ran, and the launches that read them back would
        otherwise sit in the measured tail."""
        for k in range(2):
            op = self.op(k)
            op.check(op.run())

    launch = staticmethod(_launch)

    def instrument(self, tracer):
        self.launch = tracer.wrap(_launch, lambda root, argv: "cli." + argv[2])
        self.startup_s = []
        self.import_s = []

    def traced_extras(self):
        t0 = time.perf_counter()
        proc = _launch(self.root, ["-c", "pass"])
        self.startup_s.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("a bare interpreter launch failed:\n" + proc.stderr)
        self.import_s.append(child_import_seconds(self.root))

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Ingest, Audit, Verify, Cli)}
