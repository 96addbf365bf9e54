"""Numerical validation of exact verdicts.

Every probe reports what it measured; nothing here feeds back into the
exact decision procedures.  Probes evaluate flows through the closed-form
evaluator only, on explicit time grids, and never extrapolate beyond the
largest time they actually visited.

Each probe evaluates its grid as one batch per map.  `verify_conjugacy`,
`lipschitz_probe` and `_worst_deviation`, which measures both branches of
`distortion_probe`, stack every grid time, scale or partner, and cut the
stack only into chunks of whole grid items under a fixed budget of `_ROWS`
rows per call.  Every map and flow treats its rows independently, so the
batching moves no bit of any report.  The decay and period probes flow one
point over one capped time grid, and the period probe refines its candidate
times together, one flow call per bisection step; it refuses an orbit whose
exact period lies beyond its evaluator's time guard before any float of the
period is taken.  The distortion, decay and period probes take their point
through `errors._point`: dim entries, each a finite real number.
"""

from __future__ import annotations

from fractions import Fraction
from math import lgamma, pi

import numpy as np

from ._record import factory, record
from .blocks import _fields_to_json, _require_spec
from .errors import LinFlowError, NotStable, PreconditionViolated, _above, _at_least, _point
from .flows import _INTERNAL_GUARD, FlowEvaluator
from .matrices import _layout, _reach

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


@record
class ConjugacyReport:
    name: str
    residual: float
    round_trip: float
    n_points: int
    times: tuple
    worst_time: float
    to_json = _fields_to_json


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
    if not isinstance(getattr(hmap, "source_flow", None), FlowEvaluator):
        raise PreconditionViolated(f"need a HomeoMap, got {type(hmap).__name__}")
    _at_least(n_points, 1, "n_points")
    _at_least(seed, 0, "seed")
    times = np.linspace(-5.0, 5.0, 11) if times is None else np.array(_point(times, None, "times"))
    if times.size == 0:
        raise PreconditionViolated("need at least one time")
    lo, hi = _point(radii, 2, "radii")
    if not 0 < lo <= hi:
        raise PreconditionViolated(f"need radii (lo, hi) with 0 < lo <= hi, got {radii}")
    X = _sample_points(hmap.source_flow.dim, n_points, seed, (lo, hi))
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


@record
class LipschitzReport:
    name: str
    radii: tuple
    uniform_ratios: tuple
    pointwise_ratios: tuple
    uniform_trend: str
    pointwise_trend: str
    to_json = _fields_to_json


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
    if not isinstance(getattr(hmap, "source_flow", None), FlowEvaluator):
        raise PreconditionViolated(f"need a HomeoMap, got {type(hmap).__name__}")
    _at_least(n_scales, 1, "n_scales")
    _at_least(pairs, 0, "pairs")
    _at_least(seed, 0, "seed")
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


@record
class DistortionReport:
    member: bool
    branch: str
    estimate: float
    threshold: float
    passed: bool
    detail: dict = factory(dict)
    to_json = _fields_to_json


def _choose_witness_block(spec, lam, M):
    """A largest block (size M) at the top growth rate lam and its
    half-chain starts; prefer one without rotation (its probe schedule needs
    no subsequence)."""
    layout = _layout((b.size, b.re, b.im) for b in spec.blocks)
    _, _, i = min(
        (b.im != 0, b.im, i) for i, b in enumerate(spec.blocks) if b.re == lam and b.size == M
    )
    return spec.blocks[i], layout[i]


def _worst_deviation(flow, x, tx, Y, ty):
    """Per partner y in Y, max |Phi_tx x - Phi_ty y| / |Phi_ty y| over Phi_ty y != 0, or 0."""
    n = len(tx)
    fx = flow.apply_batch(tx, np.tile(x, (n, 1)))
    out = []
    for part in _chunks(len(Y), n, _ROWS):
        fy = flow.apply_batch(np.tile(ty, len(Y[part])), np.repeat(Y[part], n, axis=0))
        den = np.linalg.norm(fy, axis=1).reshape(-1, n)
        num = np.linalg.norm(np.tile(fx, (len(den), 1)) - fy, axis=1).reshape(-1, n)
        out += [float(np.max(nu[de > 0] / de[de > 0], initial=0.0)) for nu, de in zip(num, den)]
    return out


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
    at equal times dies off on shrinking balls around x.  Either grid needs
    a finite t_max > 1; eps and both bounds must be finite and > 0.
    """
    from .summary import distortion_subspace  # here, so that `verify` launches skip it

    sub = distortion_subspace(spec)  # raises NotStable on non-stable input
    x = np.array(_point(x, spec.dim))
    _at_least(n_grid, 1, "n_grid")
    _at_least(seed, 0, "seed")
    _above(t_max, 1.0, "t_max")  # the grid starts at 1
    for value, what in ((eps, "eps"), (member_bound, "member_bound"),
                        (outside_bound, "outside_bound")):
        _above(value, 0.0, what)
    scale = max(1.0, float(np.max(np.abs(x))))
    inside = set(sub.coords)
    member = all(
        abs(x[i]) <= 1e-12 * scale for i in range(spec.dim) if i not in inside
    )
    flow = FlowEvaluator.from_spec(spec, guard=_INTERNAL_GUARD)
    lam = abs(float(sub.top_rate))
    M = sub.top_size
    blk, halves = _choose_witness_block(spec, sub.top_rate, M)
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
        ratios = _worst_deviation(flow, x, ts, np.array(Y), ts)  # per partner
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
    (estimate,) = _worst_deviation(flow, x, s_all / lam, y[None, :], rho / lam)
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


@record
class DecayReport:
    rate_fit: float
    degree_fit: float
    rate: float
    degree: int
    expected_rate: float
    expected_degree: int
    match: bool
    to_json = _fields_to_json


def _expected_decay(spec, x):
    """Dominant (rate, degree) of |Phi_t x| from the block structure."""
    reached = [(float(b.re), k - 1) for b, k in zip(spec.blocks, _reach(spec, x)) if k]
    if not reached:
        raise PreconditionViolated("decay probe needs a nonzero point")
    return max(reached)


def decay_rate_probe(spec, x, window=(5.0, 60.0), n=120):
    """Least-squares fit of log |Phi_t x| = rate * t + degree * log t + c
    over the window, snapped to the nearest block rate and integer degree
    and compared with the structural prediction."""
    if any(b.re >= 0 for b in _require_spec(spec).blocks):
        raise NotStable("decay probe requires a stable generator")
    x = np.array(_point(x, spec.dim))
    _at_least(n, 3, "n")  # samples for the 3 fitted parameters
    lo, hi = _point(window, 2, "a window")
    if not 0 < lo < hi:
        raise PreconditionViolated(f"need a window (lo, hi) with 0 < lo < hi, got {window}")
    flow = FlowEvaluator.from_spec(spec, guard=_INTERNAL_GUARD)  # refuses a rate past floats
    exp_rate, exp_deg = _expected_decay(spec, x)
    ts = np.linspace(lo, hi, n)
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


@record
class PeriodReport:
    period: float
    predicted: float
    residual: float
    match: bool
    to_json = _fields_to_json


def period_probe(spec, x, t_max=None, tol=1e-9):
    """Recovers the minimal period of the orbit of x by grid search plus
    derivative-sign refinement, and compares with the exact prediction.

    The grid runs from 0.45 times the fastest carrier period to t_max
    (default 1.25 times the predicted period), so a t_max given must be
    finite and past that start; tol must be finite and > 0."""
    from .summary import minimal_period  # here, so that `verify` launches skip it

    x = np.array(_point(x, _require_spec(spec).dim))
    q = minimal_period(spec, x)  # raises NotBounded on unbounded input
    _above(tol, 0.0, "tol")
    flow = FlowEvaluator.from_spec(spec, guard=_INTERNAL_GUARD)  # refuses a rate past floats
    # the exact period against the time guard, before float() of it could
    # overflow; the fastest carrier period below is at most this period
    if q * Fraction(2 * pi) > _INTERNAL_GUARD:
        raise PreconditionViolated(
            f"the period of the orbit lies beyond the time guard {_INTERNAL_GUARD:g}")
    rates = [abs(rot) for _, _, rot in flow.blocks if rot != 0]
    # the minimal period is at least the fastest carrier period, so the
    # search may skip the initial stretch where the orbit has barely moved
    carrier = 2.0 * pi / max(rates) if rates else 0.0
    start = 0.45 * carrier
    if t_max is not None:
        _above(t_max, start, "t_max")
    predicted = float(q) * 2.0 * pi
    nx = float(np.linalg.norm(x))
    if q == 0:
        drift = float(np.linalg.norm(flow.apply(0.7, x) - x))
        return PeriodReport(0.0, 0.0, drift, drift <= tol * (1.0 + nx))
    horizon = t_max if t_max is not None else 1.25 * predicted
    step = carrier / 64.0
    n = min(1 << 16, max(64, int(np.ceil(horizon / step))))
    ts = np.linspace(start, horizon, n)
    Z = flow.apply_batch(ts, np.tile(x, (n, 1)))
    gap = np.linalg.norm(Z - x[None, :], axis=1)
    A = flow.generator_matrix()

    def dgap(t):
        # the derivative of |Phi_t x - x|^2 / 2 at the times t, one flow call
        Z = flow.apply_batch(t, np.tile(x, (len(t), 1)))
        return np.einsum("ni,ni->n", Z - x, Z @ A.T)

    # the 12 closest grid times, each refined by bisection on the sign of
    # dgap between its neighbours where that changes sign, all together
    idx = np.argsort(gap)[:12]
    lo, hi = ts[np.maximum(idx - 1, 0)], ts[np.minimum(idx + 1, n - 1)]
    ends = dgap(np.concatenate([lo, hi]))
    sign_change = ~((ends[:len(idx)] >= 0) | (ends[len(idx):] <= 0))
    lo, hi = lo[sign_change], hi[sign_change]
    for _ in range(90 if sign_change.any() else 0):
        mid = 0.5 * (lo + hi)
        neg = dgap(mid) < 0
        lo, hi = np.where(neg, mid, lo), np.where(neg, hi, mid)
    t_star = ts[idx]
    t_star[sign_change] = 0.5 * (lo + hi)
    Z = flow.apply_batch(t_star, np.tile(x, (len(idx), 1)))
    resid = np.array([float(np.linalg.norm(z - x)) for z in Z])
    close = resid <= tol * (1.0 + nx)
    if not close.any():
        k = int(np.argmin(resid))
        return PeriodReport(float(t_star[k]), predicted, float(resid[k]), False)
    period = float(t_star[close].min())
    resid = float(np.linalg.norm(flow.apply(period, x) - x))
    match = bool(abs(period - predicted) <= 1e-6 * max(1.0, predicted))
    return PeriodReport(float(period), predicted, resid, match)
