"""Explicit homeomorphisms realizing exact verdicts between linear flows.

Each builder returns a HomeoMap h with a time change tau such that

    h(Phi_t x) = Psi_{tau(x, t)} h(x)

where Phi is the source flow and Psi the target flow.  Conjugacies have
tau(x, t) = t.  All maps come with inverses and vectorized variants; the
only numerics involved are monotone or convex one-dimensional root solves
on closed-form norm profiles, solved by safeguarded Newton steps on their
closed-form derivatives to machine-level tolerance.

Each concept has one routine that every builder shares: `_newton` solves
every root (`_solve_norm_time` for a norm level, `_solve_min_time` for a
minimum), `_NormProfile` gives a factor's norm and its derivatives,
`_turn_planes` does the log-spiral turning of the spiral and
uniform-exponent maps, and `_chain_weights` with `_definite` drives
the metric searches of the pw-hyp and unwind maps.  Inside the pw-hyp map,
one `_split` sorts the rows of a batch into zero, pure-stable,
pure-unstable and mixed, one loop over the (stable, unstable) factors
serves both pure kinds, and one `_cone` serves the mixed rows of the
forward map and of tau.
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
    LyapunovSolveFailed,
    MonotonicityNotAchieved,
    PreconditionViolated,
)
from .flows import FlowEvaluator
from .invariants import partition_dims, subspec

__all__ = [
    "HomeoMap",
    "build_spiral_map",
    "build_parabola_shear",
    "build_uniform_exponent_map",
    "build_pw_conj_hyperbolic",
    "build_rotation_unwind_map",
]

_INTERNAL_GUARD = 1e9  # internal evaluators are not time-limited
_BRACKET_CAP = 2.0**60
_SOLVE_CAP = 300  # bisection alone needs ~105 steps from the bracket cap


def _same_time(X, ts):
    return np.asarray(ts, dtype=float)


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


def _grow_bracket(fg, n, lo, hi):
    """Widens [lo, hi] per point until f(lo) <= 0 <= f(hi) for increasing
    f: a wrong-signed end becomes the other end and moves away 2x (to at
    least 1), or 1.2 Newton steps if farther, at most 16x.  Returns lo, hi
    and a start inside: the secant root of the ends, else the midpoint."""
    ends = [np.full(n, lo, dtype=float), np.full(n, hi, dtype=float)]
    fs = [np.full(n, np.nan), np.full(n, np.nan)]
    todo = np.ones(n, dtype=bool)
    for k, away in ((0, -1.0), (1, 1.0)):
        end, f_end, other, f_other = ends[k], fs[k], ends[1 - k], fs[1 - k]
        rows = np.flatnonzero(todo)
        while rows.size:
            f, df = fg(end[rows], rows)
            f_end[rows] = f
            bad = away * f < 0
            rows, f, df = rows[bad], f[bad], df[bad]
            if np.any(np.abs(end[rows]) > _BRACKET_CAP):
                raise PreconditionViolated("monotone time bracket could not be established")
            todo[rows] = False  # the old end brackets the root from the other side
            other[rows], f_other[rows] = end[rows], f_end[rows]
            m = away * end[rows]
            with np.errstate(all="ignore"):
                m_new = np.fmax(np.maximum(2.0 * m, 1.0), m + 1.2 * np.abs(f / df))
            end[rows] = away * np.minimum(m_new, 16.0 * np.maximum(m, 1.0))
    (lo, hi), (flo, fhi) = ends, fs
    with np.errstate(all="ignore"):
        x0 = lo - flo * (hi - lo) / (fhi - flo)
    return lo, hi, np.where((x0 > lo) & (x0 < hi), x0, 0.5 * (lo + hi))


def _newton(fg, n, stats, lo=-1.0, hi=1.0, cap=_SOLVE_CAP):
    """Roots of n elementwise increasing functions, bracketed by growing
    [lo, hi]; fg(x, rows) -> (f, f') for the given rows of the batch.

    Safeguarded Newton (rtsafe, Press et al., Numerical Recipes): keep the
    bracket, take the Newton step only if it lands inside it and is at most
    half the step before last, bisect otherwise.  A point stops once its
    step or its bracket is within 1e-13 * max(1, |x|); one still running
    after `cap` iterations is a bug, never a result.
    """
    lo, hi, x = _grow_bracket(fg, n, lo, hi)
    out = x.copy()
    step_old = step = hi - lo
    rows = np.arange(n)
    stats["solves"] += n
    for _ in range(cap):
        f, df = fg(x, rows)
        neg = f < 0
        lo, hi = np.where(neg, x, lo), np.where(neg, hi, x)
        with np.errstate(all="ignore"):
            dn = f / np.where(np.isfinite(df) & (df > 0), df, np.nan)
        xn = x - dn
        tol = 1e-13 * np.maximum(1.0, np.abs(x))
        # a step within tolerance is taken even when rounding puts it on
        # the bracket's end
        newton = (np.abs(dn) <= tol) | (
            (xn > lo) & (xn < hi) & (2.0 * np.abs(dn) <= np.abs(step_old))
        )
        mid = 0.5 * (lo + hi)
        step_old, step = step, np.where(newton, dn, x - mid)
        x = np.where(newton, xn, mid)
        done = (np.abs(step) <= tol) | (hi - lo <= tol)
        stats["iterations"] += rows.size
        stats["bisect_steps"] += int(np.count_nonzero(~newton))
        out[rows[done]] = x[done]
        if done.all():
            return out
        rows, x, lo, hi, step, step_old = (a[~done] for a in (rows, x, lo, hi, step, step_old))
    raise InternalCheckError(
        "root solve did not converge in %d iterations (%d points)" % (cap, rows.size)
    )


class _NormProfile:
    """V(t) = |Phi_t x|_G^2 along one factor flow with its closed-form
    derivatives V' = <S z, z> and V'' = <C z, z> at z = Phi_t x, where
    S = G A + A^T G and C = A^T S + S A.  `sign` is the sign of S."""

    def __init__(self, flow, G, sign):
        A = flow.generator_matrix()
        S = G @ A + A.T @ G
        self.flow, self.sign = flow, sign
        # a row that overflows reads as the value its definite form tends to
        self.quads = ((G, np.inf), (S, sign * np.inf), (A.T @ S + S @ A, np.inf))

    def forms(self, ts, X, k):
        """[V, V', V''][:k] at times ts, from one flow evaluation."""
        Z = self.flow.apply_batch(ts, X)
        bad = ~np.all(np.isfinite(Z), axis=1)
        out = []
        with np.errstate(all="ignore"):
            for M, overflow in self.quads[:k]:
                q = np.einsum("ni,ij,nj->n", Z, M, Z)
                out.append(np.where(bad | ~np.isfinite(q), overflow, q))
        return out


def _solve_norm_time(prof, X, stats, targets=1.0):
    """Times s with V(s) == target on a strictly monotone norm profile,
    solved in log V, whose derivative is V'/V."""
    logt = np.log(np.broadcast_to(targets, X.shape[:1]))

    def fg(s, r):
        V, dV = prof.forms(s, X[r], 2)
        with np.errstate(all="ignore"):
            return prof.sign * (np.log(V) - logt[r]), prof.sign * dV / V

    return _newton(fg, X.shape[0], stats)


def _solve_min_time(pS, pU, Y, Z, shift, stats):
    """Argmin s of the strictly convex V_S(s) + V_U(s + shift) with stable
    pS and unstable pU, where the growth V_U' > 0 meets the decay -V_S' > 0;
    solved in log V_U' - log(-V_S'), increasing since V'' > 0."""
    def fg(ts, r):
        _, dVs, d2Vs = pS.forms(ts, Y[r], 3)
        _, dVu, d2Vu = pU.forms(ts + shift[r], Z[r], 3)
        with np.errstate(all="ignore"):
            return np.log(dVu) - np.log(-dVs), d2Vu / dVu - d2Vs / dVs

    return _newton(fg, Y.shape[0], stats)


# ---------------------------------------------------------------------------
# planar spiral


def _rotate_pairs(theta, U, V):
    c, s = np.cos(theta), np.sin(theta)
    return c * U - s * V, s * U + c * V


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


def _definite(M):
    """Whether the symmetric M is positive definite with margin 1e-10
    relative to its largest eigenvalue."""
    ev = np.linalg.eigvalsh(M)
    return ev[0] > 1e-10 * max(1.0, ev[-1])


def _lyapunov_metric(flow, stable, attempts=8):
    """Metric G with monotone norms along the factor flow.

    Solves G A + A^T G = -+2Q and certifies strict definiteness of both
    the first and second derivative forms of |Phi_t x|_G^2.  Q is retried
    over chain weights with geometrically growing gap until both checks
    pass.
    """
    if flow.dim == 0:
        return np.zeros((0, 0)), {"attempts": 0, "gap": None}
    A = flow.generator_matrix()
    # scipy is imported here, its only use, so other maps never load it
    from scipy.linalg import solve_continuous_lyapunov

    # the norm along the flow is monotone decreasing (stable) or increasing
    # (unstable); solving against -A reuses the stable identity for the
    # unstable factor and flips the sign of the first derivative form
    sgn = 1.0 if stable else -1.0
    solve_errors = []
    for k, (g, Q) in enumerate(_chain_weights(flow, attempts)):
        try:
            G = solve_continuous_lyapunov(sgn * A.T, -2.0 * Q)
        except Exception as exc:  # singular Sylvester operator etc.
            solve_errors.append(str(exc))
            continue
        if not np.all(np.isfinite(G)):
            solve_errors.append("non-finite solution")
            continue
        G = 0.5 * (G + G.T)
        B = -sgn * (G @ A + A.T @ G)
        C = G @ (A @ A) + 2.0 * (A.T @ G @ A) + (A.T @ A.T) @ G
        if all(_definite(M) for M in (G, B, C)):
            return G, {"attempts": k + 1, "gap": g}
    if len(solve_errors) == k + 1:
        raise LyapunovSolveFailed(
            "every Lyapunov solve failed: " + "; ".join(solve_errors[:2])
        )
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
    # spec blocks are sorted by growth rate, so the stable coordinates come
    # first, and the image saddle keeps both factors where they are
    factors = []  # stable, unstable: (norm profile, flow, metric, coordinates)
    infos = []
    for stable, coords in ((True, slice(0, dS)), (False, slice(dS, d))):
        part = subspec(spec, "stable" if stable else "unstable")
        ev = FlowEvaluator.from_spec(part, guard=_INTERNAL_GUARD)
        G, info = _lyapunov_metric(ev, stable=stable)
        # the stable norm strictly decreases along the flow, the unstable one
        # strictly increases, and both are strictly convex in time
        factors.append((_NormProfile(ev, G, -1.0 if stable else 1.0), ev, G, coords))
        infos.append(info)
    (pS, evS, GS, _), (pU, evU, GU, _) = factors
    stats = dict.fromkeys(("solves", "iterations", "bisect_steps"), 0)

    tinysq = 1e-28  # squared relative threshold below which a factor is absent

    def _split(X):
        """X as a batch, its factor parts, their metric norms squared, the
        total, the pure-stable and pure-unstable row masks, the mixed mask
        and the zero mask."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        parts = [X[:, c] for *_, c in factors]
        norms = [np.einsum("ni,ij,nj->n", P, G, P) for P, (_, _, G, _) in zip(parts, factors)]
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
        for (_, ev, _, c), rows in zip(factors, pure):
            rows = rows | mixed
            if not rows.any():
                continue
            A = np.abs(X[rows, c])
            starts = ev.offsets[:-1]
            top = tinysq**0.5 * A.max(axis=1, keepdims=True)
            present = np.maximum.reduceat(A, starts, axis=1) > top
            if np.any(present & ~np.logical_or.reduceat(Y[rows, c] != 0, starts, axis=1)):
                raise PreconditionViolated(
                    "pw-hyp map: a block of a point's image is below the float range")
        return Y

    def _vfull(ts, Y, Z, k=1):
        # V, V', V'' of the full norm; factor U runs at the same times
        return [a + b for a, b in zip(pS.forms(ts, Y, k), pU.forms(ts, Z, k))]

    def _min_time(Y, Z, shift):
        return _solve_min_time(pS, pU, Y, Z, shift, stats)

    def _cone(Y, Z, n2):
        """Time T of the minimum full norm mu^2 along each mixed trajectory,
        mu^4, and sqrt(n2^2 - mu^4) for the squared norms n2 at time 0."""
        T = _min_time(Y, Z, np.zeros(len(Y)))
        mu2 = _vfull(T, Y, Z)[0]
        with np.errstate(over="ignore", invalid="ignore"):  # mu^4 may overflow; _finite checks
            mu4 = mu2 * mu2
            return T, mu4, np.sqrt(np.maximum(n2 * n2 - mu4, 0.0))

    def forward_batch(X):
        X, parts, _, n2, pure, mixed, _ = _split(X)
        W = np.zeros_like(X)
        for (prof, ev, _, c), P, rows in zip(factors, parts, pure):
            if rows.any():
                T = _solve_norm_time(prof, P[rows], stats)
                W[rows, c] = np.sqrt(n2[rows])[:, None] * ev.apply_batch(T, P[rows])
        if mixed.any():
            Q, n2 = [P[mixed] for P in parts], n2[mixed]
            T, mu4, rad = _cone(*Q, n2)
            for (prof, ev, _, c), P in zip(factors, Q):
                c2 = 0.5 * _stable_side(n2, rad, -prof.sign * np.sign(T), mu4)
                T1 = _solve_norm_time(prof, P, stats)
                W[mixed, c] = np.sqrt(c2)[:, None] * ev.apply_batch(T1, P)
        return _kept(X, _finite(W), pure, mixed)

    def tau_batch(X, ts):
        ts = np.asarray(ts, dtype=float)
        X, parts, _, n2, pure, mixed, zero = _split(X)
        out = np.zeros(len(ts))
        for (prof, *_), P, rows in zip(factors, parts, pure):
            if rows.any():
                Vt = prof.forms(ts[rows], P[rows], 1)[0]
                # log of the ratio that grows with t: the stable norm decays
                out[rows] = 0.5 * np.log(n2[rows] / Vt if prof.sign < 0 else Vt / n2[rows])
        if mixed.any():
            Q, n2, tm = [P[mixed] for P in parts], n2[mixed], ts[mixed]
            T, mu4, rad0 = _cone(*Q, n2)
            Vt = _vfull(tm, *Q)[0]
            with np.errstate(over="ignore", invalid="ignore"):  # as in _cone
                radt = np.sqrt(np.maximum(Vt * Vt - mu4, 0.0))
            num = _stable_side(n2, rad0, np.sign(T), mu4)
            den = _stable_side(Vt, radt, np.sign(T - tm), mu4)
            out[mixed] = 0.5 * np.log(num / den)
        out[zero] = ts[zero]
        return _finite(out)

    def inverse_batch(W):
        W, parts, norms, nw2, pure, mixed, _ = _split(W)
        X = np.zeros_like(W)
        for (prof, ev, _, c), P, q2, rows in zip(factors, parts, norms, pure):
            if rows.any():
                ph = P[rows] / np.sqrt(q2[rows])[:, None]
                X[rows, c] = ev.apply_batch(_solve_norm_time(prof, ph, stats, q2[rows]), ph)
        if mixed.any():
            nu, nv = (np.sqrt(q2[mixed]) for q2 in norms)
            uh, vh = (P[mixed] / q[:, None] for P, q in zip(parts, (nu, nv)))
            logmu2 = np.log(2.0 * nu * nv)

            def outer(deltas, r):
                # log of min_s V(s, delta) against log mu^2; by the envelope
                # theorem d/d delta min_s V = <S_U z, z> at the minimiser
                s = _min_time(uh[r], vh[r], deltas)
                Vs = pS.forms(s, uh[r], 1)[0]
                Vu, dVu = pU.forms(s + deltas, vh[r], 2)
                with np.errstate(all="ignore"):
                    return np.log(Vs + Vu) - logmu2[r], dVu / (Vs + Vu)

            delta = _newton(outer, len(nu), stats)
            s_star = _min_time(uh, vh, delta)
            qS = evS.apply_batch(s_star, uh)
            qU = evU.apply_batch(s_star + delta, vh)

            # slide along the trajectory of the cone point until the full
            # metric norm matches |w|; the side is set by which factor wins
            side = np.sign(nu - nv)
            lognw2 = np.log(nw2[mixed])

            def slide(sig, r):
                # increasing toward the dominant factor's past/future
                Vf, dVf = _vfull(sig, qS[r], qU[r], 2)
                with np.errstate(all="ignore"):
                    return side[r] * (lognw2[r] - np.log(Vf)), -side[r] * dVf / Vf

            lo = np.where(side > 0, -1.0, 0.0)
            sig = _newton(slide, len(nu), stats, lo, lo + 1.0)
            sig = np.where(side == 0, 0.0, sig)
            for (_, ev, _, c), q in zip(factors, (qS, qU)):
                X[mixed, c] = ev.apply_batch(sig, q)
        return _kept(W, _finite(X), pure, mixed)

    target_spec = GeneratorSpec(
        [JordanBlock(1, -1, 0)] * dS + [JordanBlock(1, 1, 0)] * (d - dS)
    )
    return HomeoMap(
        name="pw-hyp",
        source_flow=FlowEvaluator.from_spec(spec, guard=_INTERNAL_GUARD),
        target_flow=FlowEvaluator.from_spec(target_spec, guard=_INTERNAL_GUARD),
        forward_batch=forward_batch,
        inverse_batch=inverse_batch,
        tau_batch=tau_batch,
        source_spec=spec,
        target_spec=target_spec,
        metadata={
            "stable_coords": list(range(dS)),
            "unstable_coords": list(range(dS, d)),
            "stable_metric": GS.tolist(),
            "unstable_metric": GU.tolist(),
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
        if _definite(np.sign(a) * (G @ A + A.T @ G)):
            break
    else:
        raise MonotonicityNotAchieved(
            "no diagonal chain metric made the norm strictly monotone"
        )

    prof = _NormProfile(src, G, np.sign(a))
    stats = dict.fromkeys(("solves", "iterations", "bisect_steps"), 0)

    def _map(X, sgn):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = X.copy()
        nz = np.einsum("ni,ni->n", X, X) > 0
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
        forward_batch=lambda X: _map(X, 1.0),
        inverse_batch=lambda W: _map(W, -1.0),
        source_spec=GeneratorSpec([JordanBlock(m, fa, abs(Fraction(b)))]),
        target_spec=target_spec,
        metadata={
            "metric_gap": g,
            "metric_diagonal": [g**i for i in range(m)],
            "pointwise": "rotations are Euclidean isometries: |h(x)| == |x|",
            "solver": stats,
        },
    )
