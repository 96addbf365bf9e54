"""Numerical validation of exact verdicts.

Every probe reports what it measured; nothing here feeds back into the
exact decision procedures.  Probes evaluate flows through the closed-form
evaluator only, on explicit time grids, and never extrapolate beyond the
largest time they actually visited.

Each probe evaluates its grid as one batch per map.  `verify_conjugacy`,
`lipschitz_probe` and the off-subspace branch of `distortion_probe` stack
every grid time, scale or partner, and cut the stack only into chunks of
whole grid items under a fixed budget of `_ROWS` rows per call.  Every map
and flow treats its rows independently, so the batching moves no bit of
any report.  The decay and period probes flow one point over one capped
time grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lgamma, pi

import numpy as np

from .blocks import _layout
from .errors import LinFlowError, NotStable, PreconditionViolated
from .flows import FlowEvaluator
from .invariants import (
    distortion_subspace,
    minimal_period,
    top_rate,
    top_size,
)

__all__ = [
    "ConjugacyReport",
    "verify_conjugacy",
    "LipschitzReport",
    "lipschitz_probe",
    "DistortionReport",
    "distortion_probe",
    "DecayReport",
    "decay_rate_probe",
    "PeriodReport",
    "period_probe",
]

_PROBE_GUARD = 1e9
_ROWS = 1 << 14  # rows per map or flow call, unless one grid item has more


def _chunks(count, rows_each, budget):
    """Consecutive slices of range(count), each as many items of rows_each
    rows as fit in budget rows, and at least one."""
    step = max(1, budget // max(1, rows_each))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _sample_points(dim, n, seed, radii=(0.25, 4.0)):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, dim))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    scales = np.exp(rng.uniform(np.log(radii[0]), np.log(radii[1]), size=n))
    return X * scales[:, None]


# ---------------------------------------------------------------------------
# conjugacy / equivalence residual


@dataclass(frozen=True)
class ConjugacyReport:
    name: str
    residual: float
    round_trip: float
    n_points: int
    times: tuple
    worst_time: float

    def to_json(self):
        return {
            "name": self.name,
            "residual": self.residual,
            "round_trip": self.round_trip,
            "n_points": self.n_points,
            "times": list(self.times),
            "worst_time": self.worst_time,
        }


def _conjugacy_grid(hmap, X, times, budget):
    """The round trip of X and the residual at every grid time, with at
    most budget rows a map call unless n = len(X) rows exceed it."""
    n = len(X)
    HX, residuals = None, []
    # block 0 of the stacked grid is X itself and block k + 1 is Phi_t X at
    # t = times[k], so row k * n + i of a chunk's grid is (times[k], X[i])
    for blocks in _chunks(times.size + 1, n, budget):
        grid = times[max(blocks.start - 1, 0) : blocks.stop - 1]
        ts = np.repeat(grid, n)
        Xs = np.tile(X, (grid.size, 1))
        lhs = hmap.source_flow.apply_batch(ts, Xs)
        if HX is None:
            HX, lhs = np.split(hmap.forward_batch(np.vstack([X, lhs])), [n])
            back = hmap.inverse_batch(HX)
            round_trip = float(
                np.max(np.linalg.norm(back - X, axis=1) / (1.0 + np.linalg.norm(X, axis=1)))
            )
            if not np.isfinite(round_trip):
                raise PreconditionViolated("round trip h^-1(h(x)) is not finite")
            if not grid.size:  # X filled the first chunk alone
                continue
        else:
            lhs = hmap.forward_batch(lhs)
        rhs = hmap.target_flow.apply_batch(hmap.tau_batch(Xs, ts), np.tile(HX, (grid.size, 1)))
        err = np.linalg.norm(lhs - rhs, axis=1) / (1.0 + np.linalg.norm(rhs, axis=1))
        res = err.reshape(grid.size, n).max(axis=1)
        bad = ~np.isfinite(res)
        if bad.any():
            raise PreconditionViolated(
                f"conjugacy residual at t = {float(grid[bad.argmax()]):g} is not finite:"
                " the flows leave the float range"
            )
        residuals.append(res)
    return round_trip, np.concatenate(residuals)


@np.errstate(all="ignore")  # past the float range values turn inf or NaN; checked below
def verify_conjugacy(hmap, times=None, n_points=32, seed=0, radii=(0.25, 4.0)):
    """Relative defect of h(Phi_t x) = Psi_{tau(x,t)} h(x) over a sample.

    Also measures the round trip |h^{-1}(h(x)) - x|.  The residual is the
    max over points and grid times of |lhs - rhs| / (1 + |rhs|).  A round
    trip or residual that is not finite raises PreconditionViolated.
    """
    if n_points < 1:
        raise PreconditionViolated(f"need n_points >= 1, got {n_points}")
    if times is None:
        times = np.linspace(-5.0, 5.0, 11)
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise PreconditionViolated("need at least one time")
    X = _sample_points(hmap.source_flow.dim, n_points, seed, radii)
    try:
        round_trip, residuals = _conjugacy_grid(hmap, X, times, _ROWS)
    except LinFlowError:
        # one grid time a call raises what the loop over times meets first
        round_trip, residuals = _conjugacy_grid(hmap, X, times, 1)
    k = int(residuals.argmax())  # the first time with the largest residual
    worst = float(residuals[k])
    worst_t = float(times[k]) if worst > 0 else 0.0
    return ConjugacyReport(
        hmap.name, worst, round_trip, len(X), tuple(float(t) for t in times), worst_t
    )


# ---------------------------------------------------------------------------
# Lipschitz behaviour across shrinking scales


@dataclass(frozen=True)
class LipschitzReport:
    name: str
    radii: tuple
    uniform_ratios: tuple
    pointwise_ratios: tuple
    uniform_trend: str
    pointwise_trend: str

    def to_json(self):
        return {
            "name": self.name,
            "radii": list(self.radii),
            "uniform_ratios": list(self.uniform_ratios),
            "pointwise_ratios": list(self.pointwise_ratios),
            "uniform_trend": self.uniform_trend,
            "pointwise_trend": self.pointwise_trend,
        }


def _trend(values):
    n = len(values)
    if n < 6:
        return "inconclusive"
    k = n // 3
    first = float(np.mean(values[:k]))
    last = float(np.mean(values[-k:]))
    if last > 1.5 * first:
        return "growing"
    if last <= 1.2 * first:
        return "bounded"
    return "inconclusive"


def lipschitz_probe(hmap, n_scales=24, pairs=16, seed=0):
    """Difference quotients of h on spheres of radius 2^-k.

    uniform_ratios[k] ~ sup |h(x)-h(y)|/|x-y| with |x| = 2^-k and y near x;
    pointwise_ratios[k] ~ sup |h(x)|/|x| on the same sphere.  The trends
    separate Lipschitz maps (bounded) from merely log-Lipschitz ones
    (growing as the scale shrinks).
    """
    rng = np.random.default_rng(seed)
    d = hmap.source_flow.dim
    # coordinate-aligned base/offset pairs catch maps whose quotient only
    # blows up along thin cones that random directions never hit
    eye = np.eye(d)
    bases = np.repeat(eye, d, axis=0)
    offs = np.tile(eye, (d, 1))
    radii = [2.0 ** (-k) for k in range(n_scales)]
    Xs, Ys = [], []
    for r in radii:
        X = rng.standard_normal((pairs, d))
        X = r * X / np.linalg.norm(X, axis=1, keepdims=True)
        D = rng.standard_normal((pairs, d))
        D = (0.01 * r) * D / np.linalg.norm(D, axis=1, keepdims=True)
        Xs.append(np.vstack([X, r * bases]))
        Ys.append(np.vstack([X + D, r * bases + (0.01 * r) * offs]))
    rows = pairs + d * d  # per scale, of X and of Y each
    uni, ptw = [], []
    for scales in _chunks(n_scales, 2 * rows, _ROWS):
        X, Y = np.vstack(Xs[scales]), np.vstack(Ys[scales])
        HX, HY = np.split(hmap.forward_batch(np.vstack([X, Y])), 2)
        q = np.linalg.norm(HX - HY, axis=1) / np.linalg.norm(X - Y, axis=1)
        p = np.linalg.norm(HX, axis=1) / np.linalg.norm(X, axis=1)
        uni += q.reshape(-1, rows).max(axis=1).tolist()
        ptw += p.reshape(-1, rows).max(axis=1).tolist()
    return LipschitzReport(
        hmap.name, tuple(radii), tuple(uni), tuple(ptw), _trend(uni), _trend(ptw)
    )


# ---------------------------------------------------------------------------
# distortion of relative distances under time reparametrization


@dataclass(frozen=True)
class DistortionReport:
    member: bool
    branch: str
    estimate: float
    threshold: float
    passed: bool
    detail: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "member": self.member,
            "branch": self.branch,
            "estimate": self.estimate,
            "threshold": self.threshold,
            "passed": self.passed,
            "detail": self.detail,
        }


def _choose_witness_block(spec):
    """A largest block at the top growth rate and its half-chain starts;
    prefer one without rotation (its probe schedule needs no subsequence)."""
    lam = top_rate(spec)
    M = top_size(spec)
    layout = _layout((b.size, b.re, b.im) for b in spec.blocks)
    _, _, i = min(
        (b.im != 0, b.im, i) for i, b in enumerate(spec.blocks) if b.re == lam and b.size == M
    )
    return spec.blocks[i], layout[i]


def distortion_probe(
    spec,
    x,
    member_bound=0.45,
    outside_bound=0.05,
    eps=0.5,
    t_max=200.0,
    n_grid=400,
    seed=0,
):
    """Measures whether relative distances near x survive every time
    reparametrization of the comparison orbit.

    For x inside the distortion-carrying subspace the probe builds the
    explicit partner y at distance eps/2 and follows the documented
    schedule rho(s) = s - (M-1) log s + log (M-1)! in normalized time,
    reporting the max ratio |Phi_s x - Phi_rho y| / |Phi_rho y| over a log
    grid on [1, t_max] (plus the rotation-aligned subsequence when the
    witness block rotates).  Outside the subspace it checks that the ratio
    at equal times dies off on shrinking balls around x.
    """
    sub = distortion_subspace(spec)  # raises NotStable on non-stable input
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.dim,):
        raise PreconditionViolated(f"point must have shape ({spec.dim},)")
    scale = max(1.0, float(np.max(np.abs(x))) if x.size else 1.0)
    inside = set(sub.coords)
    member = all(
        abs(x[i]) <= 1e-12 * scale for i in range(spec.dim) if i not in inside
    )
    flow = FlowEvaluator.from_spec(spec, guard=_PROBE_GUARD)
    lam = abs(float(top_rate(spec)))
    M = top_size(spec)
    blk, halves = _choose_witness_block(spec)
    m = blk.size
    rot = float(blk.im) / lam  # rotation rate in normalized time

    if not member:
        rng = np.random.default_rng(seed)
        ts = np.geomspace(1.0, t_max, n_grid) / lam
        base = 0.1 * max(1.0, float(np.linalg.norm(x)))
        Y = []  # 6 shells of 8 partners each
        for k in range(6):
            for _ in range(8):
                eta = rng.standard_normal(spec.dim)
                eta /= np.linalg.norm(eta)
                Y.append(x + (base * 2.0**-k) * eta)
        Y = np.array(Y)
        fx = flow.apply_batch(ts, np.tile(x, (n_grid, 1)))
        ratios = []  # per partner
        for part in _chunks(len(Y), n_grid, _ROWS):
            fy = flow.apply_batch(np.tile(ts, len(Y[part])), np.repeat(Y[part], n_grid, axis=0))
            den = np.linalg.norm(fy, axis=1).reshape(-1, n_grid)
            num = np.linalg.norm(np.tile(fx, (len(den), 1)) - fy, axis=1).reshape(-1, n_grid)
            ratios += [float(np.max(nu[de > 0] / de[de > 0])) for nu, de in zip(num, den)]
        shells = [max(0.0, *ratios[8 * k : 8 * k + 8]) for k in range(6)]
        estimate = shells[-1]
        return DistortionReport(
            member=False,
            branch="outside",
            estimate=estimate,
            threshold=outside_bound,
            passed=estimate < outside_bound,
            detail={"shell_ratios": shells, "t_max": t_max},
        )

    # membership branch: build the explicit partner
    u, v = ([x[h : h + m] for h in halves] + [np.zeros(m)])[:2]  # a real block's v is 0
    support = [i for i in range(m) if u[i] != 0 or v[i] != 0]
    ends = [h + m - 1 for h in halves]  # the last coordinate of each half-chain
    y = x.copy()
    if not support:
        branch = "partner-axis"
        y[ends[0]] += eps / 2.0
    else:
        branch = "partner-rotated"
        lmax = max(support) + 1  # highest occupied chain position, 1-based
        theta = float(np.arctan2(v[lmax - 1], u[lmax - 1]))
        for end, w in zip(ends, (np.cos(theta), np.sin(theta))):
            y[end] -= (eps / 2.0) * w

    s_grid = np.geomspace(1.0, t_max, n_grid)
    snapped = []
    if rot != 0.0 and M >= 2:
        # rotation-aligned subsequence: rot * (rho(s) - s) in 2 pi Z
        c = lgamma(M)  # log (M-1)!
        n_lo = int(np.floor((c - (M - 1) * np.log(t_max)) * rot / (2 * pi))) - 1
        n_hi = int(np.ceil(c * rot / (2 * pi))) + 1
        for n in range(n_lo, n_hi + 1):
            s = float(np.exp((c - 2 * pi * n / rot) / (M - 1)))
            if 1.0 <= s <= t_max:
                snapped.append(s)
    s_all = np.unique(np.concatenate([s_grid, np.array(snapped)]))
    rho = s_all - (M - 1) * np.log(s_all) + lgamma(M)
    fx = flow.apply_batch(s_all / lam, np.tile(x, (len(s_all), 1)))
    fy = flow.apply_batch(rho / lam, np.tile(y, (len(s_all), 1)))
    den = np.linalg.norm(fy, axis=1)
    num = np.linalg.norm(fx - fy, axis=1)
    ok = den > 0
    ratios = num[ok] / den[ok]
    estimate = float(np.max(ratios))
    return DistortionReport(
        member=True,
        branch=branch,
        estimate=estimate,
        threshold=member_bound,
        passed=estimate >= member_bound,
        detail={
            "partner_distance": eps / 2.0,
            "t_max": t_max,
            "snapped_times": snapped,
            "witness_block": {"size": m, "rate": str(blk.re), "rotation": str(blk.im)},
        },
    )


# ---------------------------------------------------------------------------
# growth-rate and polynomial-degree recovery


@dataclass(frozen=True)
class DecayReport:
    rate_fit: float
    degree_fit: float
    rate: float
    degree: int
    expected_rate: float
    expected_degree: int
    match: bool

    def to_json(self):
        return {
            "rate_fit": self.rate_fit,
            "degree_fit": self.degree_fit,
            "rate": self.rate,
            "degree": self.degree,
            "expected_rate": self.expected_rate,
            "expected_degree": self.expected_degree,
            "match": self.match,
        }


def _expected_decay(spec, x):
    """Dominant (rate, degree) of |Phi_t x| from the block structure."""
    best = None
    layout = _layout((b.size, b.re, b.im) for b in spec.blocks)
    for b, halves in zip(spec.blocks, layout):
        support = [i for i in range(b.size) if any(x[h + i] != 0 for h in halves)]
        if support:
            cand = (float(b.re), max(support))
            if best is None or cand > best:
                best = cand
    if best is None:
        raise PreconditionViolated("decay probe needs a nonzero point")
    return best


def decay_rate_probe(spec, x, window=(5.0, 60.0), n=120):
    """Least-squares fit of log |Phi_t x| = rate * t + degree * log t + c
    over the window, snapped to the nearest block rate and integer degree
    and compared with the structural prediction."""
    if any(b.re >= 0 for b in spec.blocks):
        raise NotStable("decay probe requires a stable generator")
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.dim,):
        raise PreconditionViolated(f"point must have shape ({spec.dim},)")
    exp_rate, exp_deg = _expected_decay(spec, x)
    flow = FlowEvaluator.from_spec(spec, guard=_PROBE_GUARD)
    ts = np.linspace(window[0], window[1], n)
    Z = flow.apply_batch(ts, np.tile(x, (n, 1)))
    vals = np.log(np.linalg.norm(Z, axis=1))
    design = np.column_stack([ts, np.log(ts), np.ones(n)])
    (rate_fit, deg_fit, _), *_ = np.linalg.lstsq(design, vals, rcond=None)
    rates = sorted({float(b.re) for b in spec.blocks})
    rate = min(rates, key=lambda r: abs(r - rate_fit))
    degree = max(0, int(round(deg_fit)))
    match = rate == exp_rate and degree == exp_deg
    return DecayReport(
        float(rate_fit), float(deg_fit), rate, degree, exp_rate, exp_deg, match
    )


# ---------------------------------------------------------------------------
# period recovery for bounded flows


@dataclass(frozen=True)
class PeriodReport:
    period: float
    predicted: float
    residual: float
    match: bool

    def to_json(self):
        return {
            "period": self.period,
            "predicted": self.predicted,
            "residual": self.residual,
            "match": self.match,
        }


def period_probe(spec, x, t_max=None, tol=1e-9):
    """Recovers the minimal period of the orbit of x by grid search plus
    derivative-sign refinement, and compares with the exact prediction."""
    x = np.asarray(x, dtype=float)
    q = minimal_period(spec, x)  # raises NotBounded on unbounded input
    predicted = float(q) * 2.0 * pi
    flow = FlowEvaluator.from_spec(spec, guard=_PROBE_GUARD)
    nx = float(np.linalg.norm(x))
    if q == 0:
        drift = float(np.linalg.norm(flow.apply(0.7, x) - x))
        return PeriodReport(0.0, 0.0, drift, drift <= tol * (1.0 + nx))
    rates = [abs(float(b.im)) for b in spec.blocks if b.im != 0]
    fastest = max(rates)
    horizon = t_max if t_max is not None else 1.25 * predicted
    step = (2.0 * pi / fastest) / 64.0
    n = min(1 << 16, max(64, int(np.ceil(horizon / step))))
    # the minimal period is at least the fastest carrier period, so the
    # search may skip the initial stretch where the orbit has barely moved
    ts = np.linspace(0.45 * (2.0 * pi / fastest), horizon, n)
    Z = flow.apply_batch(ts, np.tile(x, (n, 1)))
    gap = np.linalg.norm(Z - x[None, :], axis=1)
    A = flow.generator_matrix()

    def dgap(t):
        z = flow.apply(t, x)
        return float((z - x) @ (A @ z))

    period = None
    order = np.argsort(gap)
    tried = []
    for idx in order[:12]:
        lo = ts[max(0, idx - 1)]
        hi = ts[min(n - 1, idx + 1)]
        if dgap(lo) >= 0 or dgap(hi) <= 0:
            t_star = ts[idx]
        else:
            for _ in range(90):
                mid = 0.5 * (lo + hi)
                if dgap(mid) < 0:
                    lo = mid
                else:
                    hi = mid
            t_star = 0.5 * (lo + hi)
        resid = float(np.linalg.norm(flow.apply(t_star, x) - x))
        tried.append((t_star, resid))
        if resid <= tol * (1.0 + nx):
            period = min(period, t_star) if period is not None else t_star
    if period is None:
        t_star, resid = min(tried, key=lambda p: p[1])
        return PeriodReport(float(t_star), predicted, resid, False)
    resid = float(np.linalg.norm(flow.apply(period, x) - x))
    match = abs(period - predicted) <= 1e-6 * max(1.0, predicted)
    return PeriodReport(float(period), predicted, resid, match)
