"""Explicit homeomorphisms realizing exact verdicts between linear flows.

Each builder returns a HomeoMap h with a time change tau such that

    h(Phi_t x) = Psi_{tau(x, t)} h(x)

where Phi is the source flow and Psi the target flow.  Conjugacies have
tau(x, t) = t.  All maps come with inverses and vectorized variants; the
only numerics involved are monotone or convex one-dimensional root solves
on closed-form norm profiles, solved by safeguarded Newton steps on their
closed-form derivatives to machine-level tolerance.  The Lyapunov
metrics of the pw-hyp map are closed forms too, with no matrix solver.

Every root has a certified bracket, and no bracket is grown: the slopes
of the solved log profiles are Rayleigh quotients of fixed matrix
pencils, whose ranges each factor computes once at build time, so one
evaluation at the start places the root.  The mixed pw-hyp inverse starts
each inner minimum from the previous outer step.  A factor's forms G, S
and C are one stacked product, and each pw-hyp and unwind batch map runs
under one np.errstate (`_quiet`), so no solver step enters one.

Each concept has one routine that every builder shares: `_newton` solves
every root (`_solve_norm_time` for a norm level, `_solve_min_time` for a
minimum), `_NormProfile` gives a factor's norm, its derivatives and
their slope ranges, `_turn_planes` does the log-spiral turning of the
spiral and uniform-exponent maps, and `_chain_weights` with `_definite`
drives the metric searches of the pw-hyp and unwind maps.  Inside the
pw-hyp map, one `_split` sorts the rows of a batch into zero,
pure-stable, pure-unstable and mixed, one loop over the (stable,
unstable) factors serves both pure kinds, and one `_cone` serves the
mixed rows of the forward map and of tau.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .blocks import GeneratorSpec, JordanBlock, _layout
from .errors import (
    DefinitenessCheckFailed,
    InternalCheckError,
    MonotonicityNotAchieved,
    PreconditionViolated,
)
from .flows import FlowEvaluator, _rotate_pairs
from .invariants import partition_dims

__all__ = [
    "HomeoMap",
    "build_spiral_map",
    "build_parabola_shear",
    "build_uniform_exponent_map",
    "build_pw_conj_hyperbolic",
    "build_rotation_unwind_map",
]

_INTERNAL_GUARD = 1e9  # internal evaluators are not time-limited
_SOLVE_CAP = 300  # bisection alone needs ~100 steps across the time guard
_SLACK = 1e-2  # relative widening of the slope bounds behind a certified bracket
_F_PAD = 1e-10  # rounding allowance on a log value that places a certified bracket
_PADS = np.array([-_F_PAD, _F_PAD])


def _same_time(X, ts):
    return np.asarray(ts, dtype=float)


def _quiet(batch_map, *args):
    """batch_map(*args) under one np.errstate; the maps check every result."""
    with np.errstate(all="ignore"):
        return batch_map(*args)


@dataclass
class HomeoMap:
    """A homeomorphism between the phase spaces of two linear flows.

    Builders give the vectorized maps; the single-point forward, inverse
    and tau are derived from them."""

    name: str
    source_flow: FlowEvaluator
    target_flow: FlowEvaluator
    forward_batch: Callable
    inverse_batch: Callable
    # tau_batch(X, ts) -> reparametrized target times; conjugacies keep t
    tau_batch: Callable = _same_time
    source_spec: Optional[GeneratorSpec] = None
    target_spec: Optional[GeneratorSpec] = None
    metadata: dict = field(default_factory=dict)

    def forward(self, x):
        return self.forward_batch(x)[0]

    def inverse(self, w):
        return self.inverse_batch(w)[0]

    def tau(self, x, t):
        return float(self.tau_batch(x, np.array([t], dtype=float))[0])


# ---------------------------------------------------------------------------
# batched monotone root solving


def _bracket(x, f, kmin, kmax):
    """[lo, hi] holding the root of an increasing function with value f at
    x whose slope lies in [kmin, kmax] > 0: x - f / [kmin, kmax] in interval
    arithmetic, with the slopes widened by _SLACK and f by _F_PAD."""
    k = np.array([kmin * (1.0 - _SLACK), kmax * (1.0 + _SLACK)])
    q = ((f + _PADS[:, None, None]) / k[:, None]).reshape(4, -1)  # by pad, then slope
    return x - q.max(axis=0), x - q.min(axis=0)


def _newton(fg, x, stats, slopes=None, lo=-np.inf, hi=np.inf, restart=None, cap=_SOLVE_CAP):
    """Roots of len(x) elementwise increasing functions, started at x;
    fg(x, rows) -> (f, f') for the given rows of the batch.

    The roots lie in [lo, hi].  With slopes = (kmin, kmax) bounding f',
    the first evaluation at x narrows that to the certified
    `_bracket(x, f(x), kmin, kmax)`, so no bracket is ever grown; a point
    whose f(x) is not finite keeps [lo, hi] and moves to `restart` where
    that lies inside, else bisects.  A start, or a bracket after the first
    evaluation, that is not finite cannot be used.

    Safeguarded Newton (rtsafe, Press et al., Numerical Recipes): keep the
    bracket, take the Newton step only if it lands inside it and, from the
    third step on, is at most half the step before last; bisect otherwise.
    A point stops once its step or its bracket is within
    1e-13 * max(1, |x|); one still running after `cap` iterations is a
    bug, never a result.  Every f here is a difference of logs, so a point
    that stops with |f| above 1e-6 * max(1, |x|) stopped at a jump, where a
    flow left the float range, not at a root.
    """
    n = len(x)
    lo, hi = (np.full(n, b, dtype=float) for b in (lo, hi))
    x = np.clip(np.asarray(x, dtype=float), lo, hi)
    if not np.isfinite(x).all():
        raise PreconditionViolated("monotone time bracket could not be established")
    out = np.empty(n)
    step_old = step = np.full(n, np.inf)
    rows = np.arange(n)
    stats["solves"] += n
    for it in range(cap):
        f, df = fg(x, rows)
        if it == 0:
            if slopes is not None:
                a, b = _bracket(x, f, *slopes)
                ok = np.isfinite(f)
                lo, hi = np.where(ok, np.maximum(lo, a), lo), np.where(ok, np.minimum(hi, b), hi)
            if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
                raise PreconditionViolated("monotone time bracket could not be established")
        neg = f < 0
        lo, hi = np.where(neg, np.maximum(lo, x), lo), np.where(neg, hi, np.minimum(hi, x))
        dn = f / np.where(np.isfinite(df) & (df > 0), df, np.nan)
        adn = np.abs(dn)
        xn = x - dn
        tol = 1e-13 * np.maximum(1.0, np.abs(x))
        # a step within tolerance is taken even when rounding puts it on
        # the bracket's end
        newton = (adn <= tol) | ((xn > lo) & (xn < hi) & (2.0 * adn <= np.abs(step_old)))
        mid = 0.5 * (lo + hi)
        if it == 0 and restart is not None:
            mid = np.where((restart > lo) & (restart < hi), restart, mid)
        step_old, step = step, np.where(newton, dn, x - mid)
        x = np.where(newton, xn, mid)
        done = (np.abs(step) <= tol) | (hi - lo <= tol)
        if (done > (np.abs(f) <= 1e7 * tol)).any():  # a point stopped away from its root
            raise PreconditionViolated("a root of a norm profile lies beyond the float range")
        stats["iterations"] += rows.size
        stats["bisect_steps"] += rows.size - int(np.count_nonzero(newton))
        n_done = np.count_nonzero(done)
        if n_done == rows.size:
            out[rows] = x
            return out
        if n_done:
            out[rows[done]] = x[done]
            keep = ~done
            rows = rows[keep]
            x, lo, hi, step, step_old = np.array((x, lo, hi, step, step_old))[:, keep]
    raise InternalCheckError(
        "root solve did not converge in %d iterations (%d points)" % (cap, rows.size)
    )


def _slope_ranges(G, S, C, sign):
    """The ranges of V'/V = <S z, z> / <G z, z> and of
    V''/(sign V') = <C z, z> / <sign S z, z> over z != 0: the extreme
    eigenvalues of the pencils (S, G) and (C, sign S).  None unless G,
    sign S and C are strictly definite.  One eigh call certifies G and
    sign S and gives their inverse square roots R, and one eigvalsh call
    gives the spectra of the R M R and certifies C."""
    w, U = np.linalg.eigh(np.array((G, sign * S)))
    if not (_margin(w[0]) and _margin(w[1])):
        return None
    R = (U / np.sqrt(w)[:, None, :]) @ U.transpose(0, 2, 1)
    ev = np.linalg.eigvalsh(np.array((R[0] @ S @ R[0], R[1] @ C @ R[1], C)))
    if not _margin(ev[2]):
        return None
    return (ev[0, 0], ev[0, -1]), (ev[1, 0], ev[1, -1])


class _NormProfile:
    """V(t) = |Phi_t x|_G^2 along one factor flow with its closed-form
    derivatives V' = <S z, z> and V'' = <C z, z> at z = Phi_t x, where
    S = G A + A^T G and C = A^T S + S A.  `sign` is the sign of S.

    `rates` bounds V'/V = <S z, z>/<G z, z> and `curvatures` bounds
    V''/(sign V') = <C z, z>/<sign S z, z> over every z != 0: the ranges of
    the pencils (S, G) and (C, sign S) from `_slope_ranges`, computed once
    per build.  A profile whose convexity is not used has C None and no
    curvatures."""

    def __init__(self, flow, G, S, C, sign, ranges):
        self.flow, self.G, self.S, self.sign = flow, G, S, sign
        # (G, S, C) stacked, and the value of each definite form on a row that overflows
        self.mats = np.array((G, S) if C is None else (G, S, C))
        self.overflow = np.array([np.inf, sign * np.inf, np.inf])[:len(self.mats), None]
        self.rates, self.curvatures = ranges

    def forms(self, ts, X, k):
        """[V, V', V''][:k] at times ts as one (k, n) array, from one flow
        evaluation, or none when every time is 0.  A row of Phi_t x that is
        not finite gives forms that are not finite, as each form is definite.
        einsum sums a single row of stacked 2 x 2 forms in another order than
        one form alone, so a single row takes the forms one at a time."""
        Z = self.flow.apply_batch(ts, X) if ts.any() else X
        if len(Z) == 1:
            q = np.array([np.einsum("ni,ij,nj->n", Z, M, Z) for M in self.mats[:k]])
        else:
            q = np.einsum("ni,kij,nj->kn", Z, self.mats[:k], Z)
        return np.where(np.isfinite(q), q, self.overflow[:k])

    def log_speed(self, X):
        """log |V'(0)| at the points X, on max-abs-scaled rows so that it
        neither overflows nor underflows."""
        m = np.abs(X).max(axis=1)
        Xs = X / m[:, None]
        return np.log(self.sign * np.einsum("ni,ij,nj->n", Xs, self.S, Xs)) + 2.0 * np.log(m)


def _solve_norm_time(prof, X, stats, targets=1.0):
    """Times s with V(s) == target on a strictly monotone norm profile,
    solved in log V from s = 0, whose slope V'/V lies within the rates."""
    logt = np.log(np.broadcast_to(targets, X.shape[:1]))

    def fg(s, r):
        V, dV = prof.forms(s, X[r], 2)
        return prof.sign * (np.log(V) - logt[r]), prof.sign * dV / V

    slopes = np.sort(prof.sign * np.array(prof.rates))
    return _newton(fg, np.zeros(X.shape[0]), stats, slopes)


def _solve_min_time(pS, pU, Y, Z, shift, stats, start=None, speeds=None):
    """Argmin s of the strictly convex V_S(s) + V_U(s + shift) with stable
    pS and unstable pU, where the growth V_U' > 0 meets the decay -V_S' > 0;
    solved in log V_U' - log(-V_S'), increasing with slope in the sum of
    the curvature ranges since V'' > 0.

    The two logs move from their values L_U, L_S at time 0 at mean slopes
    k_U, k_S within the curvature ranges, so the root is a balance point
    (L_S - L_U - k_U shift) / (k_U + k_S), bracketed by the corners of
    those ranges.  `speeds` gives (L_S, L_U) where the caller has them.  s
    starts at `start` where that is finite and restarts at the balance
    point of the midpoints where f(start) is not; without a start, it
    starts there."""
    LS, LU = (pS.log_speed(Y), pU.log_speed(Z)) if speeds is None else speeds
    (cS0, cS1), (cU0, cU1) = pS.curvatures, pU.curvatures
    # the corners, ordered by pad, then k_U, then k_S
    kU = np.array([cU0 * (1.0 - _SLACK), cU1 * (1.0 + _SLACK)])[:, None, None]
    kS = np.array([cS0 * (1.0 - _SLACK), cS1 * (1.0 + _SLACK)])[:, None]
    corners = ((LS - LU + _PADS[:, None, None, None] - kU * shift) / (kU + kS)).reshape(8, -1)
    s0 = (LS - LU - 0.5 * (cU0 + cU1) * shift) / (0.5 * (cU0 + cU1) + 0.5 * (cS0 + cS1))
    x0 = s0 if start is None else np.where(np.isfinite(start), start, s0)

    def fg(ts, r):
        _, dVs, d2Vs = pS.forms(ts, Y[r], 3)
        _, dVu, d2Vu = pU.forms(ts + shift[r], Z[r], 3)
        return np.log(dVu) - np.log(-dVs), d2Vu / dVu - d2Vs / dVs

    return _newton(fg, x0, stats, (cS0 + cU0, cS1 + cU1), corners.min(axis=0),
                   corners.max(axis=0), s0)


# ---------------------------------------------------------------------------
# planar spiral


def _turn_planes(planes):
    """Forward and inverse batch maps that turn each coordinate plane
    (i, j) by the logarithmic spiral R(rate * log r), r the point's radius
    in that plane; planes: ((i, j), rate) pairs."""

    def turn(X, sgn):
        X = np.atleast_2d(np.asarray(X, dtype=float)).copy()
        for (i, j), rate in planes:
            u, v = X[:, i], X[:, j]
            r = np.hypot(u, v)
            theta = np.where(r > 0, sgn * rate * np.log(np.where(r > 0, r, 1.0)), 0.0)
            X[:, i], X[:, j] = _rotate_pairs(theta, u, v)
        return X

    return (lambda X: turn(X, 1.0)), (lambda W: turn(W, -1.0))


def build_spiral_map(rate):
    """Logarithmic spiral h(y) = R(rate * log|y|) y on the plane.

    Conjugates the focus flow with growth -1 and signed rotation `rate`
    to the radial flow with growth -1; Lipschitz with constant 1 + |rate|
    on the unit ball, and a homeomorphism globally.
    """
    # the spec records the rate as given; a float rate records its binary value
    exact_rate = abs(Fraction(rate))
    rate = float(rate)
    forward_batch, inverse_batch = _turn_planes([((0, 1), rate)])
    node_spec = GeneratorSpec([JordanBlock(1, -1, 0), JordanBlock(1, -1, 0)])
    target = FlowEvaluator.from_spec(node_spec, guard=_INTERNAL_GUARD)
    # at rate 0 the focus is the node itself (two real blocks) and h = id;
    # otherwise the source turns by the signed rate, which a spec normalises
    if rate:
        source_spec = GeneratorSpec([JordanBlock(1, -1, exact_rate)])
        source = FlowEvaluator([(1, -1.0, rate)], guard=_INTERNAL_GUARD)
    else:
        source_spec, source = node_spec, target
    return HomeoMap(
        name="spiral",
        source_flow=source,
        target_flow=target,
        forward_batch=forward_batch,
        inverse_batch=inverse_batch,
        source_spec=source_spec,
        target_spec=node_spec,
        metadata={"rate": rate, "lipschitz_bound_unit_ball": 1.0 + abs(rate)},
    )


# ---------------------------------------------------------------------------
# parabola shear


def build_parabola_shear(shift):
    """Self-equivalence (x1, x2) -> (x1 + shift * x2^2, x2) of the node
    flow diag(-2, -1); exact conjugacy, maps the x2-axis to a parabola."""
    c = float(shift)

    def fwd(X, s):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.column_stack([X[:, 0] + s * X[:, 1] ** 2, X[:, 1]])

    spec = GeneratorSpec([JordanBlock(1, -2, 0), JordanBlock(1, -1, 0)])
    flow = FlowEvaluator.from_spec(spec, guard=_INTERNAL_GUARD)
    return HomeoMap(
        name="shear",
        source_flow=flow,
        target_flow=flow,
        forward_batch=lambda X: fwd(X, c),
        inverse_batch=lambda W: fwd(W, -c),
        source_spec=spec,
        target_spec=spec,
        metadata={
            "shift": c,
            "axis_image": "second coordinate axis maps onto x1 = shift * x2^2",
        },
    )


# ---------------------------------------------------------------------------
# uniform exponent: straighten every rotation at a single contraction rate


def build_uniform_exponent_map(spec):
    """For a semisimple generator whose blocks all share one negative
    growth rate, unwind each rotation plane by a spiral; the image flow is
    the uniform contraction at that rate."""
    blocks = spec.blocks
    if not blocks:
        raise PreconditionViolated("empty generator")
    a0 = blocks[0].re
    if any(b.size != 1 for b in blocks) or any(b.re != a0 for b in blocks):
        raise PreconditionViolated(
            "uniform-exponent map needs semisimple blocks with one shared rate"
        )
    if a0 >= 0:
        raise PreconditionViolated("shared growth rate must be negative")
    layout = _layout((b.size, b.re, b.im) for b in blocks)
    # the two size-1 half-chains of a rotation block span its plane
    plane = [(halves, float(b.im) / abs(float(a0)))
             for b, halves in zip(blocks, layout) if b.im != 0]
    forward_batch, inverse_batch = _turn_planes(plane)
    target_spec = GeneratorSpec([JordanBlock(1, a0, 0)] * spec.dim)
    return HomeoMap(
        name="uniform",
        source_flow=FlowEvaluator.from_spec(spec, guard=_INTERNAL_GUARD),
        target_flow=FlowEvaluator.from_spec(target_spec, guard=_INTERNAL_GUARD),
        forward_batch=forward_batch,
        inverse_batch=inverse_batch,
        source_spec=spec,
        target_spec=target_spec,
        metadata={"rate": float(a0), "planes_unwound": len(plane)},
    )


# ---------------------------------------------------------------------------
# Lyapunov metrics


def _chain_weights(flow, attempts):
    """The chain-weight schedule: (g, Q) for g = 1, 2, 4, ..., where the
    diagonal Q weights the coordinate at chain position i by g^i, for
    `attempts` gaps or until a weight leaves the float range."""
    for k in range(attempts):
        g = 2.0**k
        with np.errstate(over="ignore"):
            w = g**flow.chain_pos
        if not np.all(np.isfinite(w)):
            return
        yield g, np.diag(w)


def _margin(ev):
    """Whether the ascending eigenvalues ev of a symmetric matrix make it
    positive definite with margin 1e-10 relative to the largest one."""
    return ev[0] > 1e-10 * max(1.0, ev[-1])


def _definite(M):
    """Whether the symmetric M is strictly positive definite (`_margin`)."""
    return _margin(np.linalg.eigvalsh(M))


def _lyapunov_solutions(flow, sgn, attempts):
    """(g, G) for each chain weight (g, Q) of the schedule, where G solves
    A^T G + G A = -2 sgn Q in closed form.

    Write A = R + N + J: the diagonal R of rates, the chain shift N and the
    rotation coupling J.  Q and N act alike on both halves of a rotating
    block, so the unique G does too, and then J^T G + G J = 0.  What is left
    reads entrywise (r_i + r_j) G_ij + (N^T G + G N)_ij = -2 sgn Q_ij, where
    r_i + r_j != 0 since the rates of one factor share a sign.  N is
    nilpotent, so the Neumann series in T -> N^T T + T N ends after
    2 * max(chain_pos) terms of O(d^2) shifts, and G is exactly symmetric.
    Tiny rates on long chains overflow; such a G is not finite, and its
    series stops at the first term that is not.
    """
    pos = flow.chain_pos
    link = pos[1:] == pos[:-1] + 1  # coordinate i + 1 follows i on its chain
    inv = 1.0 / np.add.outer(flow.rates, flow.rates)
    for g, Q in _chain_weights(flow, attempts):
        with np.errstate(over="ignore", invalid="ignore"):
            G = T = -2.0 * sgn * Q * inv
            for _ in range(2 * pos.max()):
                L = np.zeros_like(T)
                L[1:] = link[:, None] * T[:-1]  # N^T T
                L[:, 1:] += T[:, :-1] * link  # T N
                T = -inv * L
                G = G + T
                if not np.isfinite(T).all():  # G is not finite, and stays so
                    break
        yield g, G


def _lyapunov_metric(flow, stable, attempts=8):
    """The norm profile of a metric G with monotone norms along the factor
    flow: the first of `_lyapunov_solutions`, over chain weights of growing
    gap, whose first and second derivative forms S and C of |Phi_t x|_G^2
    are strictly definite, with those same forms."""
    sgn = 1.0 if stable else -1.0  # the norm decreases (stable) or increases
    if flow.dim == 0:
        Z = np.zeros((0, 0))
        return _NormProfile(flow, Z, Z, Z, -sgn, (None, None)), {"attempts": 0, "gap": None}
    A = flow.generator_matrix()
    for k, (g, G) in enumerate(_lyapunov_solutions(flow, sgn, attempts)):
        if not np.all(np.isfinite(G)):
            continue
        S = G @ A + A.T @ G
        C = A.T @ S + S @ A
        ranges = _slope_ranges(G, S, C, -sgn)
        if ranges is not None:
            return _NormProfile(flow, G, S, C, -sgn, ranges), {"attempts": k + 1, "gap": g}
    raise DefinitenessCheckFailed(
        "no chain weight up to gap 2^%d produced strictly definite derivative forms" % k
    )


# ---------------------------------------------------------------------------
# hyperbolic flows: explicit equivalence with the standard saddle


def _stable_side(n2, rad, sgn, mu4):
    """n2 + sgn*rad without cancellation; n2^2 - rad^2 == mu4 exactly."""
    big = n2 + rad
    out = np.where(sgn >= 0, big, np.where(big > 0, mu4 / np.where(big > 0, big, 1.0), 0.0))
    return out


def _finite(out):
    """out, unless some row of it left the float range."""
    if not np.all(np.isfinite(out)):
        raise PreconditionViolated("pw-hyp map: a point's norm is beyond the float range")
    return out


def build_pw_conj_hyperbolic(spec):
    """Equivalence between a hyperbolic flow and the standard saddle
    diag(-1, ..., -1, +1, ..., +1) matching its stable/unstable split.

    The radial structure comes from factor-wise Lyapunov metrics; the map
    sends x to coordinates (stable sphere direction, unstable sphere
    direction) weighted so the image metric norm equals |x|.  Lipschitz on
    every compact set away from nothing (piecewise Lipschitz globally).
    A point whose norm, image, preimage or time change leaves the float
    range raises PreconditionViolated, also when it underflows: a norm that
    squares to zero, or a block of the image or preimage that comes out all
    zero.
    """
    dims = partition_dims(spec)
    if dims.central:
        raise PreconditionViolated("hyperbolic generator required")
    d, dS = spec.dim, dims.stable
    source = FlowEvaluator.from_spec(spec, guard=_INTERNAL_GUARD)
    # spec blocks are sorted by growth rate, so the stable coordinates come
    # first, and the image saddle keeps both factors where they are
    factors = []  # stable, unstable: (norm profile, coordinates)
    infos = []
    for stable, coords in ((True, slice(0, dS)), (False, slice(dS, d))):
        ev = FlowEvaluator([b for b in source.blocks if (b[1] < 0) == stable],
                           guard=_INTERNAL_GUARD)
        # the stable norm strictly decreases along the flow, the unstable one
        # strictly increases, and both are strictly convex in time
        prof, info = _lyapunov_metric(ev, stable=stable)
        factors.append((prof, coords))
        infos.append(info)
    (pS, _), (pU, _) = factors
    stats = dict.fromkeys(("solves", "iterations", "bisect_steps"), 0)

    tinysq = 1e-28  # squared relative threshold below which a factor is absent

    def _split(X):
        """X as a batch, its factor parts, their metric norms squared, the
        total, the pure-stable and pure-unstable row masks, the mixed mask
        and the zero mask."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        parts = [X[:, c] for _, c in factors]
        norms = [np.einsum("ni,ij,nj->n", P, p.G, P) for P, (p, _) in zip(parts, factors)]
        total = norms[0] + norms[1]
        if not np.all(np.isfinite(total)):
            raise PreconditionViolated("pw-hyp map: a point's norm is beyond the float range")
        zero = taken = total == 0
        if zero.any() and X[zero].any():
            raise PreconditionViolated("pw-hyp map: a point's norm is below the float range")
        pure = []
        for other in norms[::-1]:  # a factor is pure where the other one is absent
            pure.append(~taken & (other <= tinysq * total))
            taken = taken | pure[-1]
        return X, parts, norms, total, pure, ~taken, zero

    def _kept(X, Y, pure, mixed):
        """Y, unless a block of X is all zero in Y although its factor was
        mapped and the block is not absent within it (its largest entry
        above sqrt(tinysq) times the factor's): the block's exact image
        underflowed the float range."""
        if Y.all():  # the common case: no zero coordinate at all
            return Y
        for (prof, c), rows in zip(factors, pure):
            rows = rows | mixed
            if not rows.any():
                continue
            A = np.abs(X[rows, c])
            starts = prof.flow.offsets[:-1]
            top = tinysq**0.5 * A.max(axis=1, keepdims=True)
            present = np.maximum.reduceat(A, starts, axis=1) > top
            if np.any(present & ~np.logical_or.reduceat(Y[rows, c] != 0, starts, axis=1)):
                raise PreconditionViolated(
                    "pw-hyp map: a block of a point's image is below the float range")
        return Y

    def _vfull(ts, Y, Z, k=1):
        # V, V', V'' of the full norm; factor U runs at the same times
        return pS.forms(ts, Y, k) + pU.forms(ts, Z, k)

    def _min_time(Y, Z, shift, start=None, speeds=None):
        return _solve_min_time(pS, pU, Y, Z, shift, stats, start, speeds)

    def _cone(Y, Z, n2):
        """Time T of the minimum full norm mu^2 along each mixed trajectory,
        mu^4, and sqrt(n2^2 - mu^4) for the squared norms n2 at time 0."""
        T = _min_time(Y, Z, np.zeros(len(Y)))
        mu2 = _vfull(T, Y, Z)[0]
        mu4 = mu2 * mu2  # may overflow; _finite checks
        return T, mu4, np.sqrt(np.maximum(n2 * n2 - mu4, 0.0))

    def forward_batch(X):
        X, parts, _, n2, pure, mixed, _ = _split(X)
        W = np.zeros_like(X)
        for (prof, c), P, rows in zip(factors, parts, pure):
            if rows.any():
                T = _solve_norm_time(prof, P[rows], stats)
                W[rows, c] = np.sqrt(n2[rows])[:, None] * prof.flow.apply_batch(T, P[rows])
        if mixed.any():
            Q, n2 = [P[mixed] for P in parts], n2[mixed]
            T, mu4, rad = _cone(*Q, n2)
            for (prof, c), P in zip(factors, Q):
                c2 = 0.5 * _stable_side(n2, rad, -prof.sign * np.sign(T), mu4)
                T1 = _solve_norm_time(prof, P, stats)
                W[mixed, c] = np.sqrt(c2)[:, None] * prof.flow.apply_batch(T1, P)
        return _kept(X, _finite(W), pure, mixed)

    def tau_batch(X, ts):
        ts = np.asarray(ts, dtype=float)
        X, parts, _, n2, pure, mixed, zero = _split(X)
        out = np.zeros(len(ts))
        for (prof, _), P, rows in zip(factors, parts, pure):
            if rows.any():
                Vt = prof.forms(ts[rows], P[rows], 1)[0]
                # log of the ratio that grows with t: the stable norm decays
                out[rows] = 0.5 * np.log(n2[rows] / Vt if prof.sign < 0 else Vt / n2[rows])
        if mixed.any():
            Q, n2, tm = [P[mixed] for P in parts], n2[mixed], ts[mixed]
            T, mu4, rad0 = _cone(*Q, n2)
            Vt = _vfull(tm, *Q)[0]
            radt = np.sqrt(np.maximum(Vt * Vt - mu4, 0.0))
            num = _stable_side(n2, rad0, np.sign(T), mu4)
            den = _stable_side(Vt, radt, np.sign(T - tm), mu4)
            out[mixed] = 0.5 * np.log(num / den)
        out[zero] = ts[zero]
        return _finite(out)

    def inverse_batch(W):
        W, parts, norms, nw2, pure, mixed, _ = _split(W)
        X = np.zeros_like(W)
        for (prof, c), P, q2, rows in zip(factors, parts, norms, pure):
            if rows.any():
                ph = P[rows] / np.sqrt(q2[rows])[:, None]
                X[rows, c] = prof.flow.apply_batch(_solve_norm_time(prof, ph, stats, q2[rows]), ph)
        if mixed.any():
            nu, nv = (np.sqrt(q2[mixed]) for q2 in norms)
            uh, vh = (P[mixed] / q[:, None] for P, q in zip(parts, (nu, nv)))
            logmu2 = np.log(2.0 * nu * nv)
            speeds = np.array((pS.log_speed(uh), pU.log_speed(vh)))
            # each inner minimum starts from the row's previous outer step,
            # moved as the balance point moves with delta
            s_prev, d_prev = np.full(len(nu), np.nan), np.zeros(len(nu))
            (cS0, cS1), (cU0, cU1) = pS.curvatures, pU.curvatures
            lean = (cU0 + cU1) / (cU0 + cU1 + cS0 + cS1)

            def outer(deltas, r):
                # log of min_s V(s, delta) against log mu^2; by the envelope
                # theorem d/d delta min_s V = <S_U z, z> at the minimiser
                start = s_prev[r] - lean * (deltas - d_prev[r])
                s = s_prev[r] = _min_time(uh[r], vh[r], deltas, start, speeds[:, r])
                d_prev[r] = deltas
                Vs = pS.forms(s, uh[r], 1)[0]
                Vu, dVu = pU.forms(s + deltas, vh[r], 2)
                return np.log(Vs + Vu) - logmu2[r], dVu / (Vs + Vu)

            # at the minimiser -V_S' = V_U', so the slope is the harmonic
            # combination 1 / (1 / r_U + 1 / |r_S|) of the two factor rates
            (rS0, rS1), (rU0, rU1) = pS.rates, pU.rates
            slopes = (1.0 / (1.0 / rU0 - 1.0 / rS1), 1.0 / (1.0 / rU1 - 1.0 / rS0))
            delta = _newton(outer, np.zeros(len(nu)), stats, slopes)
            s_star = _min_time(uh, vh, delta, s_prev - lean * (delta - d_prev), speeds)
            qS = pS.flow.apply_batch(s_star, uh)
            qU = pU.flow.apply_batch(s_star + delta, vh)

            # slide along the trajectory of the cone point until the full
            # metric norm matches |w|; the side is set by which factor wins.
            # The winner alone takes the norm to |w|^2 within the time its
            # slowest rate needs.  The slide starts where the two factors,
            # each at its log-rate at the cone point, would reach |w|^2: two
            # fixed-point steps on the winner's share, no flow evaluated
            side = np.sign(nu - nv)
            nw2m = nw2[mixed]
            lognw2 = np.log(nw2m)
            cone = []  # each factor's V and V'/V at the cone point
            for prof, q in ((pS, qS), (pU, qU)):
                V0, dV0 = (np.einsum("ni,ij,nj->n", q, M, q) for M in (prof.G, prof.S))
                cone.append((V0, dV0 / V0))
            (VS, kS), (VU, kU) = cone
            win = side > 0  # V and V'/V of the winning and the losing factor
            Vw, kw, Vl, kl = (np.where(win, p, q)
                              for p, q in ((VS, VU), (kS, kU), (VU, VS), (kU, kS)))
            far = (lognw2 - np.log(Vw) + _F_PAD) / (np.where(win, rS1, rU0) * (1.0 - _SLACK))
            start = (lognw2 - np.log(Vw)) / kw
            for _ in range(2):
                start = np.log((nw2m - Vl * np.exp(kl * start)) / Vw) / kw
            far, start = (np.where(side == 0, 0.0, v) for v in (far, start))

            def slide(sig, r):
                # increasing toward the dominant factor's past/future
                Vf, dVf = _vfull(sig, qS[r], qU[r], 2)
                return side[r] * (lognw2[r] - np.log(Vf)), -side[r] * dVf / Vf

            sig = _newton(slide, start, stats, lo=np.minimum(far, 0.0), hi=np.maximum(far, 0.0))
            for (prof, c), q in zip(factors, (qS, qU)):
                X[mixed, c] = prof.flow.apply_batch(sig, q)
        return _kept(W, _finite(X), pure, mixed)

    target_spec = GeneratorSpec(
        [JordanBlock(1, -1, 0)] * dS + [JordanBlock(1, 1, 0)] * (d - dS)
    )
    return HomeoMap(
        name="pw-hyp",
        source_flow=source,
        target_flow=FlowEvaluator.from_spec(target_spec, guard=_INTERNAL_GUARD),
        forward_batch=lambda X: _quiet(forward_batch, X),
        inverse_batch=lambda W: _quiet(inverse_batch, W),
        tau_batch=lambda X, ts: _quiet(tau_batch, X, ts),
        source_spec=spec,
        target_spec=target_spec,
        metadata={
            "stable_coords": list(range(dS)),
            "unstable_coords": list(range(dS, d)),
            "stable_metric": pS.G.tolist(),
            "unstable_metric": pU.G.tolist(),
            "metric_retries": {"stable": infos[0], "unstable": infos[1]},
            "norm": "factor-wise Lyapunov metric; the image saddle preserves it",
            "solver": stats,
        },
    )


# ---------------------------------------------------------------------------
# single-block rotation unwind


def build_rotation_unwind_map(size, growth, rotation):
    """Unwinds one rotating block of the given size: the map R(b T(x)) x
    conjugates the flow of the (size, growth, rotation) block to the flow
    of two real blocks of the same size and growth.  T(x) is the metric
    unit-sphere hitting time; since the unwinding acts by rotations it is
    a Euclidean isometry pointwise, yet only log-Lipschitz overall."""
    m = int(size)
    a = float(growth)
    b = float(rotation)
    if m < 1:
        raise PreconditionViolated("block size must be >= 1")
    if a == 0 or b == 0:
        raise PreconditionViolated("unwinding needs nonzero growth and rotation")
    src = FlowEvaluator([(m, a, b)], guard=_INTERNAL_GUARD)
    A = src.generator_matrix()
    # diagonal chain metric; double the gap until the norm is monotone
    for g, G in _chain_weights(src, 40):
        S = G @ A + A.T @ G
        if _definite(np.sign(a) * S):
            break
    else:
        raise MonotonicityNotAchieved(
            "no diagonal chain metric made the norm strictly monotone"
        )

    # the pencil (S, G) of the diagonal G: the spectrum of G^(-1/2) S G^(-1/2)
    d = 1.0 / np.sqrt(np.diag(G))
    ev = np.linalg.eigvalsh(S * np.outer(d, d))
    prof = _NormProfile(src, G, S, None, np.sign(a), ((ev[0], ev[-1]), None))
    stats = dict.fromkeys(("solves", "iterations", "bisect_steps"), 0)

    def _map(X, sgn):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = X.copy()
        norm2 = np.einsum("ni,ij,nj->n", X, G, X)
        if not np.all(np.isfinite(norm2)):
            raise PreconditionViolated("unwind map: a point's norm is beyond the float range")
        nz = norm2 > 0
        if np.any(nz):
            T = _solve_norm_time(prof, X[nz], stats)
            theta = sgn * b * T
            U, V = X[nz, :m], X[nz, m:]
            RU, RV = _rotate_pairs(theta[:, None], U, V)
            out[nz, :m], out[nz, m:] = RU, RV
        return out

    fa = Fraction(a)
    target_spec = GeneratorSpec([JordanBlock(m, fa, 0), JordanBlock(m, fa, 0)])
    return HomeoMap(
        name="unwind",
        source_flow=src,
        target_flow=FlowEvaluator.from_spec(target_spec, guard=_INTERNAL_GUARD),
        forward_batch=lambda X: _quiet(_map, X, 1.0),
        inverse_batch=lambda W: _quiet(_map, W, -1.0),
        source_spec=GeneratorSpec([JordanBlock(m, fa, abs(Fraction(b)))]),
        target_spec=target_spec,
        metadata={
            "metric_gap": g,
            "metric_diagonal": [g**i for i in range(m)],
            "pointwise": "rotations are Euclidean isometries: |h(x)| == |x|",
            "solver": stats,
        },
    )
