"""In-memory span recorder for the traced benchmark run.

Spans are opened and closed from the benchmark's own code: around each op,
and around calls into linflow by wrapping module attributes (``patch``) or
the batch callables of a built map (``wrap``).  Nothing under ``src/``
knows about tracing.  Each span has a name, a start, an end and a parent;
its self time is its duration minus the time covered by its children,
which on one thread is the sum of the children's durations.

Raw spans are kept in memory up to a cap and written out at the end; the
per-name aggregates used for the metrics are exact for every span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

_now = time.perf_counter_ns

RAW_SPAN_CAP = 200_000


class Agg:
    __slots__ = ("calls", "total_ns", "self_ns", "points")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.points = 0


class Tracer:
    """Single-threaded span stack with per-(name, op kind) aggregates."""

    def __init__(self):
        self.enabled = False
        self.stack = []  # open frames: [name, start_ns, child_ns, raw_index]
        self.kind = None  # op kind of the enclosing root span
        self.agg = defaultdict(Agg)  # (name, kind) -> Agg
        self.raw = []  # (name, start_ns, end_ns, parent_index)
        self.dropped = 0
        self._patches = []

    # -- spans -------------------------------------------------------------

    def begin(self, name):
        parent = self.stack[-1][3] if self.stack else -1
        idx = -1
        if len(self.raw) < RAW_SPAN_CAP:
            idx = len(self.raw)
            self.raw.append([name, 0, 0, parent])
        else:
            self.dropped += 1
        self.stack.append([name, _now(), 0, idx])

    def end(self, points=0):
        name, start, child, idx = self.stack.pop()
        stop = _now()
        dur = stop - start
        if idx >= 0:
            self.raw[idx][1] = start
            self.raw[idx][2] = stop
        if self.stack:
            self.stack[-1][2] += dur
        a = self.agg[(name, self.kind)]
        a.calls += 1
        a.total_ns += dur
        a.self_ns += dur - child
        a.points += points

    def op(self, kind):
        """Context manager for the root span of one benchmark op."""
        return _OpSpan(self, kind)

    # -- instrumentation ---------------------------------------------------

    def wrap(self, fn, name, points=None):
        """Return fn recording a span per call while the tracer is enabled.

        ``name`` is a string or a callable of the call's arguments;
        ``points`` maps the arguments to a batch size for per-point times.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.begin(name(*args, **kwargs) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(points(*args, **kwargs) if points else 0)

        return traced

    def patch(self, owner, attr, name, points=None):
        """Wrap ``owner.attr`` and every linflow module global bound to it.

        linflow modules import each other's functions by name, so a call made
        inside the library resolves through the importing module's globals;
        rebinding every alias makes internal calls visible as child spans.
        """
        orig = getattr(owner, attr)
        traced = self.wrap(orig, name, points)
        targets = [owner] + [
            mod for key, mod in list(sys.modules.items())
            if (key == "linflow" or key.startswith("linflow."))
            and mod is not owner
            and getattr(mod, attr, None) is orig
        ]
        for t in targets:
            self._patches.append((t, attr, orig))
            setattr(t, attr, traced)

    def unpatch(self):
        for target, attr, orig in reversed(self._patches):
            setattr(target, attr, orig)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def stats(self, name, kinds=None):
        """Summed Agg of a span name, optionally restricted to op kinds."""
        out = Agg()
        for (n, k), a in self.agg.items():
            if n == name and (kinds is None or k in kinds):
                out.calls += a.calls
                out.total_ns += a.total_ns
                out.self_ns += a.self_ns
                out.points += a.points
        return out

    def self_by_module(self):
        """Self time in ns summed per module (the span name's first part)."""
        out = defaultdict(int)
        for (name, _), a in self.agg.items():
            out[name.split(".", 1)[0]] += a.self_ns
        return dict(out)

    def dump(self):
        names = sorted({r[0] for r in self.raw})
        ids = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "columns": ["name_id", "start_ns", "end_ns", "parent"],
            "spans": [[ids[r[0]], r[1], r[2], r[3]] for r in self.raw],
            "dropped_after_cap": self.dropped,
            "aggregates": [
                {"name": n, "op_kind": k, "calls": a.calls, "total_ns": a.total_ns,
                 "self_ns": a.self_ns, "points": a.points}
                for (n, k), a in sorted(self.agg.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
            ],
        }


class _OpSpan:
    def __init__(self, tracer, kind):
        self.tracer = tracer
        self.kind = kind

    def __enter__(self):
        t = self.tracer
        if t.enabled:
            t.kind = self.kind
            t.begin("op." + self.kind)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        if t.enabled:
            t.end()
            t.kind = None
        return False
