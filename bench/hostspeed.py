"""Reference probes that track how fast the host runs during a benchmark.

On a shared VM the speed of a vCPU drifts with its neighbours' load: in
sizing, the same op sequence ran 25-50% slower for minutes at a time
(10-second medians of fixed work spread by 43-49% over three minutes)
while the code did not change.  The benchmark therefore times a fixed
reference probe, which never touches linflow, between ops, and after the
run rescales each op's wall time by ``nominal_ms`` over the mean time of
the probe samples nearest to the op, before and after it: the time the op
would have taken on a host where the probe takes ``nominal_ms``.  A change
to linflow cannot move the probe, so it moves rescaled times exactly as it
moves raw ones, while the host's drift cancels.  Raw times are kept in the
run record next to the rescaled ones.

Each workload names the probe that does the same kind of work as its ops:

* ``fractions`` eliminates a fixed 7x7 rational matrix with Fractions, the
  inner loop of exact ingestion.  In sizing, over 22 ten-second windows of
  a 3.7-minute run, dividing by it cut the spread (quartile distance over
  median) of the window means of ingest and verify ops from 19% and 25%
  to 4.6% and 3.0%, more than a dict-and-tuple probe or a small-numpy
  probe did.
* ``objects`` builds and hashes small tuples and Fractions, the work of the
  exact classifier.  Over a 5-seed and a 10-seed set of audit runs it left
  spreads of 2.8-7.4% where the fraction probe left 6.6-8.8%.
* ``import_launch`` starts a Python that imports numpy and scipy.linalg,
  the bulk of every linflow launch, and rescales work done in child
  processes, whose cost the in-process probes do not follow (their
  10-second medians correlated at about 0.4 in sizing).  A bare
  ``python -c pass`` followed it no better: its slowdowns were up to
  twice those of a full launch.  Single launches vary by 15-20% and the
  host's speed moves within seconds, so each op is rescaled by a few
  samples on both sides of it.  Over the 20- and 25-second windows of a
  10-minute run of cli ops with a probe every two ops, the spread
  (quartile distance over median) of the rescaled p90 was 0.10-0.13 when
  ops used a running mean of one sample every 3 s, and 0.05-0.09 when
  they used a centred mean of 4 to 8 of the samples.

The benchmark pins itself, and so the processes it launches, to one CPU:
the two vCPUs slow down independently, and a probe only tracks the speed
of the vCPU it runs on.
"""

from __future__ import annotations

import bisect
import gc
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# probe times on a quiet host of the reference VM
NOMINAL_MS = {"fractions": 2.5, "objects": 3.0, "import_launch": 300.0}


_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) + (i == j) for j in range(7)]
           for i in range(7)]


def _eliminate(matrix):
    rows = [list(r) for r in matrix]
    n = len(rows)
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] * inv
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return rows


def fractions_probe():
    for _ in range(5):
        _eliminate(_MATRIX)


def objects_probe():
    seen = {}
    for i in range(1500):
        key = (i % 97, Fraction(i % 13, 4), i & 7)
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def import_launch_probe():
    subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"],
                   env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"), check=True, timeout=60)


class HostSpeed:
    """One probe, sampled at most every interval; rescales by centred means."""

    def __init__(self, name, probe, interval_s, warm_call, window):
        self.name = name
        self.probe = probe
        self.warm_call = warm_call
        self.nominal_ms = NOMINAL_MS[name]
        self.interval_s = interval_s
        self.window = window  # samples averaged per factor
        self.samples = []  # every probe time in ms
        self.times = []  # perf_counter() at the start of each sample
        self.last = -1e9

    def sample(self):
        if self.warm_call:
            self.probe()  # the ops in between evict the probe's code and data
        # the ops' garbage must not be collected on the probe's clock
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.probe()
            ms = (time.perf_counter() - t0) * 1e3
        finally:
            gc.enable()
        self.samples.append(ms)
        self.times.append(t0)
        self.last = time.perf_counter()

    def maybe_sample(self):
        if time.perf_counter() - self.last >= self.interval_s:
            self.sample()

    def factor_at(self, t):
        """nominal_ms over the mean of the ``window`` samples taken nearest
        to time t, as many after it as before where the run allows."""
        n = len(self.samples)
        lo = max(0, min(bisect.bisect(self.times, t) - self.window // 2, n - self.window))
        return self.nominal_ms / statistics.fmean(self.samples[lo:lo + self.window])

    def summary(self):
        s = self.samples
        return {"probe": self.name, "nominal_ms": self.nominal_ms,
                "median_ms": statistics.median(s),
                "min_ms": min(s), "max_ms": max(s), "samples": len(s)}


def pin_to_one_cpu():
    """Pin this process and its future children to its lowest allowed CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def host_speed(name):
    """The probe of that name, with how often it is sampled and how many
    samples around an op rescale it.

    The host's speed moves within a tenth of a second.  In a 5-minute
    recording of ingest ops with the fractions probe timed before every op,
    the same input's rescaled latency varied (median coefficient of
    variation over inputs) by 0.29 unscaled, 0.15 when divided by the mean
    of the samples just before and just after the op, 0.16-0.25 with 4 to
    100 samples, and 0.21 with the two nearest of samples taken every
    0.2 s.  So the fractions probe is sampled before every op and the two
    samples around an op rescale it; it adds about 5 ms to each op's cycle,
    5-10% of an ingest or verify run.  Audit ops take about 1 ms, so its
    objects probe is sampled every 0.2 s and averaged over 5 samples.  A
    launch costs most of a linflow launch, so it is sampled every 1.5 s,
    about every third op, and averaged over 4 samples: in a 10-minute
    recording of cli ops, 2 to 8 samples varied the same launch by
    0.14-0.15, every sample of the run by 0.17."""
    if name == "import_launch":
        return HostSpeed(name, import_launch_probe, interval_s=1.5, warm_call=False, window=4)
    if name == "fractions":
        return HostSpeed(name, fractions_probe, interval_s=0.0, warm_call=True, window=2)
    return HostSpeed(name, objects_probe, interval_s=0.2, warm_call=True, window=5)
