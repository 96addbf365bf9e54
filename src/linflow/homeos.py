"""Explicit homeomorphisms realizing exact verdicts between linear flows.

Each builder returns a HomeoMap h with a time change tau such that

    h(Phi_t x) = Psi_{tau(x, t)} h(x)

where Phi is the source flow and Psi the target flow.  Conjugacies have
tau(x, t) = t.  All maps come with inverses and vectorized variants; the
only numerics involved are monotone or convex one-dimensional root solves
on closed-form norm profiles, bisected to machine-level tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .blocks import GeneratorSpec, JordanBlock
from .errors import (
    DefinitenessCheckFailed,
    LyapunovSolveFailed,
    MonotonicityNotAchieved,
    PreconditionViolated,
)
from .flows import FlowEvaluator
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
_BRACKET_CAP = 2.0**60


@dataclass
class HomeoMap:
    """A homeomorphism between the phase spaces of two linear flows."""

    name: str
    source_flow: FlowEvaluator
    target_flow: FlowEvaluator
    forward: Callable
    inverse: Callable
    tau: Callable  # tau(x, t) -> reparametrized target time
    forward_batch: Callable = None
    inverse_batch: Callable = None
    tau_batch: Callable = None
    source_spec: Optional[GeneratorSpec] = None
    target_spec: Optional[GeneratorSpec] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.forward_batch is None:
            self.forward_batch = lambda X: np.stack([self.forward(x) for x in X])
        if self.inverse_batch is None:
            self.inverse_batch = lambda W: np.stack([self.inverse(w) for w in W])
        if self.tau_batch is None:
            self.tau_batch = lambda X, ts: np.array(
                [self.tau(x, t) for x, t in zip(X, ts)]
            )


# ---------------------------------------------------------------------------
# batched monotone root solving


def _bisect_monotone(fn, lo, hi, iters=110):
    """Roots of an elementwise increasing fn with fn(lo) <= 0 <= fn(hi)."""
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        neg = fn(mid) < 0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
        if np.all(hi - lo <= 1e-13 * np.maximum(1.0, np.abs(mid))):
            break
    return 0.5 * (lo + hi)


def _grow_bracket(fn, n):
    """Doubles [-1, 1] per point until fn changes sign across the bracket."""
    lo = np.full(n, -1.0)
    hi = np.full(n, 1.0)
    for _ in range(80):
        flo = fn(lo)
        fhi = fn(hi)
        bad_lo = flo > 0
        bad_hi = fhi < 0
        if not (np.any(bad_lo) or np.any(bad_hi)):
            return lo, hi
        lo = np.where(bad_lo, lo * 2, lo)
        hi = np.where(bad_hi, hi * 2, hi)
        if np.any(np.abs(lo) > _BRACKET_CAP) or np.any(hi > _BRACKET_CAP):
            break
    raise PreconditionViolated("monotone time bracket could not be established")


def _gnorm_sq(flow, G, ts, X):
    """Squared metric norm of Phi_{ts} X rows; overflow reads as +inf."""
    Z = flow.apply_batch(ts, X)
    with np.errstate(all="ignore"):
        V = np.einsum("ni,ij,nj->n", Z, G, Z)
    bad = ~np.all(np.isfinite(Z), axis=1)
    V = np.where(bad | ~np.isfinite(V), np.inf, V)
    return V


def _quad_form(flow, S, ts, X, overflow):
    """<S Phi_t x, Phi_t x>; rows that overflow are read as +-inf with the
    sign the definite form S would give (a factor only overflows in the
    time direction where its norm blows up)."""
    Z = flow.apply_batch(ts, X)
    with np.errstate(all="ignore"):
        q = np.einsum("ni,ij,nj->n", Z, S, Z)
    bad = ~np.all(np.isfinite(Z), axis=1) | ~np.isfinite(q)
    if np.any(bad):
        q = np.where(bad, overflow, q)
    return q


def _solve_norm_time(flow, G, X, targets, decreasing):
    """Times s with |Phi_s x|_G^2 == target on a strictly monotone profile."""
    sign = -1.0 if decreasing else 1.0
    logt = np.log(targets)

    def f(ts):
        with np.errstate(divide="ignore"):
            return sign * (np.log(_gnorm_sq(flow, G, ts, X)) - logt)

    lo, hi = _grow_bracket(f, X.shape[0])
    return _bisect_monotone(f, lo, hi)


# ---------------------------------------------------------------------------
# planar spiral


def _rotate_pairs(theta, U, V):
    c, s = np.cos(theta), np.sin(theta)
    return c * U - s * V, s * U + c * V


def build_spiral_map(rate):
    """Logarithmic spiral h(y) = R(rate * log|y|) y on the plane.

    Conjugates the focus flow with growth -1 and signed rotation `rate`
    to the radial flow with growth -1; Lipschitz with constant 1 + |rate|
    on the unit ball, and a homeomorphism globally.
    """
    # the spec records the rate as given; a float rate records its binary value
    exact_rate = abs(Fraction(rate))
    rate = float(rate)

    def forward_batch(X, sgn=1.0):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        r = np.hypot(X[:, 0], X[:, 1])
        theta = np.where(r > 0, sgn * rate * np.log(np.where(r > 0, r, 1.0)), 0.0)
        u, v = _rotate_pairs(theta, X[:, 0], X[:, 1])
        return np.column_stack([u, v])

    def inverse_batch(W):
        return forward_batch(W, sgn=-1.0)

    node_blocks = [(1, -1.0, 0.0), (1, -1.0, 0.0)]
    node_spec = GeneratorSpec([JordanBlock(1, -1, 0), JordanBlock(1, -1, 0)])
    # at rate 0 the focus is the node itself (two real blocks) and h = id
    source_blocks = [(1, -1.0, rate)] if rate else node_blocks
    source_spec = GeneratorSpec([JordanBlock(1, -1, exact_rate)]) if rate else node_spec
    source = FlowEvaluator(source_blocks, guard=_INTERNAL_GUARD)
    target = FlowEvaluator(node_blocks, guard=_INTERNAL_GUARD)
    return HomeoMap(
        name="spiral",
        source_flow=source,
        target_flow=target,
        forward=lambda x: forward_batch(x)[0],
        inverse=lambda w: inverse_batch(w)[0],
        tau=lambda x, t: t,
        forward_batch=forward_batch,
        inverse_batch=inverse_batch,
        tau_batch=lambda X, ts: np.asarray(ts, dtype=float),
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
    flow = FlowEvaluator([(1, -2.0, 0.0), (1, -1.0, 0.0)], guard=_INTERNAL_GUARD)
    return HomeoMap(
        name="shear",
        source_flow=flow,
        target_flow=flow,
        forward=lambda x: fwd(x, c)[0],
        inverse=lambda w: fwd(w, -c)[0],
        tau=lambda x, t: t,
        forward_batch=lambda X: fwd(X, c),
        inverse_batch=lambda W: fwd(W, -c),
        tau_batch=lambda X, ts: np.asarray(ts, dtype=float),
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
    d = spec.dim
    plane = []  # (offset, spiral rate) for rotation blocks
    off = 0
    for b in blocks:
        if b.im != 0:
            plane.append((off, float(b.im) / abs(float(a0))))
        off += b.dim

    def fwd(X, sgn):
        X = np.atleast_2d(np.asarray(X, dtype=float)).copy()
        for off, rate in plane:
            u, v = X[:, off], X[:, off + 1]
            r = np.hypot(u, v)
            theta = np.where(r > 0, sgn * rate * np.log(np.where(r > 0, r, 1.0)), 0.0)
            X[:, off], X[:, off + 1] = _rotate_pairs(theta, u, v)
        return X

    return HomeoMap(
        name="uniform",
        source_flow=FlowEvaluator.from_spec(spec, guard=_INTERNAL_GUARD),
        target_flow=FlowEvaluator([(1, float(a0), 0.0)] * d, guard=_INTERNAL_GUARD),
        forward=lambda x: fwd(x, 1.0)[0],
        inverse=lambda w: fwd(w, -1.0)[0],
        tau=lambda x, t: t,
        forward_batch=lambda X: fwd(X, 1.0),
        inverse_batch=lambda W: fwd(W, -1.0),
        tau_batch=lambda X, ts: np.asarray(ts, dtype=float),
        source_spec=spec,
        target_spec=GeneratorSpec([JordanBlock(1, a0, 0)] * d),
        metadata={"rate": float(a0), "planes_unwound": len(plane)},
    )


# ---------------------------------------------------------------------------
# Lyapunov metrics


def _chain_weight_matrix(blocks, g):
    """Block-diagonal Q with diag(1, g, ..., g^{m-1}) per half-chain."""
    diags = []
    for m, _, b in blocks:
        w = [float(g) ** i for i in range(m)]
        diags.extend(w if b == 0.0 else w + w)
    return np.diag(diags)


def _lyapunov_metric(A, blocks, stable, attempts=8):
    """Metric G with monotone norms along the factor flow.

    Solves G A + A^T G = -+2Q and certifies strict definiteness of both
    the first and second derivative forms of |Phi_t x|_G^2.  Q is retried
    over chain weights with geometrically growing gap until both checks
    pass.
    """
    d = A.shape[0]
    if d == 0:
        return np.zeros((0, 0)), {"attempts": 0, "gap": None}
    # scipy is imported here, its only use, so other maps never load it
    from scipy.linalg import solve_continuous_lyapunov

    # the norm along the flow is monotone decreasing (stable) or increasing
    # (unstable); solving against -A reuses the stable identity for the
    # unstable factor and flips the sign of the first derivative form
    sgn = 1.0 if stable else -1.0
    solve_errors = []
    for k in range(attempts):
        g = 2.0**k
        Q = _chain_weight_matrix(blocks, g)
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
        ok = True
        for M in (G, B, C):
            ev = np.linalg.eigvalsh(M)
            if ev[0] <= 1e-10 * max(1.0, ev[-1]):
                ok = False
                break
        if ok:
            return G, {"attempts": k + 1, "gap": g}
    if len(solve_errors) == attempts:
        raise LyapunovSolveFailed(
            "every Lyapunov solve failed: " + "; ".join(solve_errors[:2])
        )
    raise DefinitenessCheckFailed(
        "no chain weight up to gap 2^%d produced strictly definite derivative forms"
        % (attempts - 1)
    )


# ---------------------------------------------------------------------------
# hyperbolic flows: explicit equivalence with the standard saddle


def _signed_blocks(blocks):
    return [(b.size, float(b.re), float(b.im)) for b in blocks]


def _stable_side(n2, rad, sgn, mu4):
    """n2 + sgn*rad without cancellation; n2^2 - rad^2 == mu4 exactly."""
    big = n2 + rad
    out = np.where(sgn >= 0, big, np.where(big > 0, mu4 / np.where(big > 0, big, 1.0), 0.0))
    return out


def build_pw_conj_hyperbolic(spec):
    """Equivalence between a hyperbolic flow and the standard saddle
    diag(-1, ..., -1, +1, ..., +1) matching its stable/unstable split.

    The radial structure comes from factor-wise Lyapunov metrics; the map
    sends x to coordinates (stable sphere direction, unstable sphere
    direction) weighted so the image metric norm equals |x|.  Lipschitz on
    every compact set away from nothing (piecewise Lipschitz globally).
    """
    parts = partition_dims(spec)
    if parts.central:
        raise PreconditionViolated("hyperbolic generator required")
    sblocks = [b for b in spec.blocks if b.re < 0]
    ublocks = [b for b in spec.blocks if b.re > 0]
    idxS, idxU = [], []
    off = 0
    for b in spec.blocks:
        rng = list(range(off, off + b.dim))
        (idxS if b.re < 0 else idxU).extend(rng)
        off += b.dim
    idxS = np.array(idxS, dtype=int)
    idxU = np.array(idxU, dtype=int)
    dS, dU = len(idxS), len(idxU)
    d = spec.dim

    evS = FlowEvaluator(_signed_blocks(sblocks), guard=_INTERNAL_GUARD)
    evU = FlowEvaluator(_signed_blocks(ublocks), guard=_INTERNAL_GUARD)
    GS, infoS = _lyapunov_metric(evS.generator_matrix(), evS.blocks, stable=True)
    GU, infoU = _lyapunov_metric(evU.generator_matrix(), evU.blocks, stable=False)
    SS = GS @ evS.generator_matrix() + evS.generator_matrix().T @ GS if dS else GS
    SU = GU @ evU.generator_matrix() + evU.generator_matrix().T @ GU if dU else GU

    tinysq = 1e-28  # squared relative threshold below which a factor is absent

    def _split(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return X[:, idxS], X[:, idxU]

    def _nsq(G, Y):
        if Y.shape[1] == 0:
            return np.zeros(Y.shape[0])
        return np.einsum("ni,ij,nj->n", Y, G, Y)

    def _vderiv(ts, Y, Z):
        # derivative of the squared norm along the flow; the stable term is
        # strictly negative, the unstable term strictly positive
        out = np.zeros(len(ts))
        if dS:
            out = out + _quad_form(evS, SS, ts, Y, -np.inf)
        if dU:
            out = out + _quad_form(evU, SU, ts, Z, np.inf)
        return out

    def _vfull(ts, Y, Z):
        out = np.zeros(len(ts))
        if dS:
            out = out + _gnorm_sq(evS, GS, ts, Y)
        if dU:
            out = out + _gnorm_sq(evU, GU, ts, Z)
        return out

    def _min_time(Y, Z):
        """Argmin of the strictly convex norm-square profile."""
        def f(ts):
            return _vderiv(ts, Y, Z)

        lo, hi = _grow_bracket(f, Y.shape[0])
        return _bisect_monotone(f, lo, hi)

    def _classify(ny2, nz2):
        tot = ny2 + nz2
        zero = tot == 0
        pure_s = (~zero) & (nz2 <= tinysq * tot)
        pure_u = (~zero) & (~pure_s) & (ny2 <= tinysq * tot)
        mixed = ~(zero | pure_s | pure_u)
        return zero, pure_s, pure_u, mixed

    def forward_batch(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y, Z = _split(X)
        ny2, nz2 = _nsq(GS, Y), _nsq(GU, Z)
        nx2 = ny2 + nz2
        zero, pure_s, pure_u, mixed = _classify(ny2, nz2)
        W = np.zeros_like(X)
        if np.any(pure_s):
            Ys = Y[pure_s]
            T = _solve_norm_time(evS, GS, Ys, np.ones(len(Ys)), decreasing=True)
            W[np.ix_(pure_s, np.arange(dS))] = (
                np.sqrt(nx2[pure_s])[:, None] * evS.apply_batch(T, Ys)
            )
        if np.any(pure_u):
            Zu = Z[pure_u]
            T = _solve_norm_time(evU, GU, Zu, np.ones(len(Zu)), decreasing=False)
            W[np.ix_(pure_u, dS + np.arange(dU))] = (
                np.sqrt(nx2[pure_u])[:, None] * evU.apply_batch(T, Zu)
            )
        if np.any(mixed):
            Ym, Zm = Y[mixed], Z[mixed]
            n2 = nx2[mixed]
            T = _min_time(Ym, Zm)
            mu2 = _vfull(T, Ym, Zm)
            mu4 = mu2 * mu2
            rad = np.sqrt(np.maximum(n2 * n2 - mu4, 0.0))
            cs2 = 0.5 * _stable_side(n2, rad, np.sign(T), mu4)
            cu2 = 0.5 * _stable_side(n2, rad, -np.sign(T), mu4)
            TS = _solve_norm_time(evS, GS, Ym, np.ones(len(Ym)), decreasing=True)
            TU = _solve_norm_time(evU, GU, Zm, np.ones(len(Zm)), decreasing=False)
            W[np.ix_(mixed, np.arange(dS))] = (
                np.sqrt(cs2)[:, None] * evS.apply_batch(TS, Ym)
            )
            W[np.ix_(mixed, dS + np.arange(dU))] = (
                np.sqrt(cu2)[:, None] * evU.apply_batch(TU, Zm)
            )
        return W

    def tau_batch(X, ts):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        ts = np.asarray(ts, dtype=float)
        Y, Z = _split(X)
        ny2, nz2 = _nsq(GS, Y), _nsq(GU, Z)
        nx2 = ny2 + nz2
        zero, pure_s, pure_u, mixed = _classify(ny2, nz2)
        out = np.zeros(len(ts))
        if np.any(pure_s):
            V0 = nx2[pure_s]
            Vt = _gnorm_sq(evS, GS, ts[pure_s], Y[pure_s])
            out[pure_s] = 0.5 * np.log(V0 / Vt)
        if np.any(pure_u):
            V0 = nx2[pure_u]
            Vt = _gnorm_sq(evU, GU, ts[pure_u], Z[pure_u])
            out[pure_u] = 0.5 * np.log(Vt / V0)
        if np.any(mixed):
            Ym, Zm = Y[mixed], Z[mixed]
            tm = ts[mixed]
            n2 = nx2[mixed]
            T = _min_time(Ym, Zm)
            mu2 = _vfull(T, Ym, Zm)
            mu4 = mu2 * mu2
            rad0 = np.sqrt(np.maximum(n2 * n2 - mu4, 0.0))
            Vt = _vfull(tm, Ym, Zm)
            radt = np.sqrt(np.maximum(Vt * Vt - mu4, 0.0))
            num = _stable_side(n2, rad0, np.sign(T), mu4)
            den = _stable_side(Vt, radt, np.sign(T - tm), mu4)
            out[mixed] = 0.5 * np.log(num / den)
        if np.any(zero):
            out[zero] = ts[zero]
        return out

    def inverse_batch(W):
        W = np.atleast_2d(np.asarray(W, dtype=float))
        U, V = W[:, :dS], W[:, dS:]
        nu2, nv2 = _nsq(GS, U), _nsq(GU, V)
        nw2 = nu2 + nv2
        zero, pure_s, pure_u, mixed = _classify(nu2, nv2)
        X = np.zeros((W.shape[0], d))
        if np.any(pure_s):
            Us = U[pure_s]
            nu = np.sqrt(nu2[pure_s])
            uh = Us / nu[:, None]
            s = _solve_norm_time(evS, GS, uh, nu2[pure_s], decreasing=True)
            X[np.ix_(pure_s, idxS)] = evS.apply_batch(s, uh)
        if np.any(pure_u):
            Vu = V[pure_u]
            nv = np.sqrt(nv2[pure_u])
            vh = Vu / nv[:, None]
            s = _solve_norm_time(evU, GU, vh, nv2[pure_u], decreasing=False)
            X[np.ix_(pure_u, idxU)] = evU.apply_batch(s, vh)
        if np.any(mixed):
            Um, Vm = U[mixed], V[mixed]
            nu = np.sqrt(nu2[mixed])
            nv = np.sqrt(nv2[mixed])
            uh = Um / nu[:, None]
            vh = Vm / nv[:, None]
            mu2 = 2.0 * nu * nv
            n = len(nu)

            def _vderiv_pair(ss, deltas):
                a = _quad_form(evS, SS, ss, uh, -np.inf)
                b = _quad_form(evU, SU, ss + deltas, vh, np.inf)
                return a + b

            def _vpair(ss, deltas):
                return _gnorm_sq(evS, GS, ss, uh) + _gnorm_sq(evU, GU, ss + deltas, vh)

            def inner_min(deltas):
                def g(ss):
                    return _vderiv_pair(ss, deltas)

                lo, hi = _grow_bracket(g, n)
                return _bisect_monotone(g, lo, hi, iters=80)

            def outer(deltas):
                s_star = inner_min(deltas)
                with np.errstate(divide="ignore"):
                    return np.log(_vpair(s_star, deltas)) - np.log(mu2)

            lo, hi = _grow_bracket(outer, n)
            delta = _bisect_monotone(outer, lo, hi, iters=80)
            s_star = inner_min(delta)
            qS = evS.apply_batch(s_star, uh)
            qU = evU.apply_batch(s_star + delta, vh)

            # slide along the trajectory of the cone point until the full
            # metric norm matches |w|; the side is set by which factor wins
            side = np.sign(nu - nv)

            def f_slide(sig):
                # increasing toward the dominant factor's past/future
                return side * (np.log(nw2[mixed]) - np.log(_vfull(sig, qS, qU)))

            lo2 = np.where(side > 0, -1.0, 0.0)
            hi2 = np.where(side > 0, 0.0, 1.0)
            # grow one-sided brackets
            for _ in range(80):
                flo = f_slide(lo2)
                fhi = f_slide(hi2)
                bad_lo = flo > 0
                bad_hi = fhi < 0
                if not (np.any(bad_lo) or np.any(bad_hi)):
                    break
                lo2 = np.where(bad_lo, np.minimum(lo2 * 2, -1.0), lo2)
                hi2 = np.where(bad_hi, np.maximum(hi2 * 2, 1.0), hi2)
            else:
                raise PreconditionViolated("slide bracket failed")
            sig = _bisect_monotone(f_slide, lo2, hi2)
            sig = np.where(side == 0, 0.0, sig)
            Xs = evS.apply_batch(sig, qS)
            Xu = evU.apply_batch(sig, qU)
            X[np.ix_(mixed, idxS)] = Xs
            X[np.ix_(mixed, idxU)] = Xu
        return X

    target_blocks = [(1, -1.0, 0.0)] * dS + [(1, 1.0, 0.0)] * dU
    target_spec = GeneratorSpec(
        [JordanBlock(1, -1, 0)] * dS + [JordanBlock(1, 1, 0)] * dU
    )
    return HomeoMap(
        name="pw-hyp",
        source_flow=FlowEvaluator.from_spec(spec, guard=_INTERNAL_GUARD),
        target_flow=FlowEvaluator(target_blocks, guard=_INTERNAL_GUARD),
        forward=lambda x: forward_batch(x)[0],
        inverse=lambda w: inverse_batch(w)[0],
        tau=lambda x, t: float(tau_batch(x, np.array([t]))[0]),
        forward_batch=forward_batch,
        inverse_batch=inverse_batch,
        tau_batch=tau_batch,
        source_spec=spec,
        target_spec=target_spec,
        metadata={
            "stable_coords": idxS.tolist(),
            "unstable_coords": idxU.tolist(),
            "stable_metric": GS.tolist(),
            "unstable_metric": GU.tolist(),
            "metric_retries": {"stable": infoS, "unstable": infoU},
            "norm": "factor-wise Lyapunov metric; the image saddle preserves it",
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
    g = 1.0
    G = None
    for _ in range(40):
        diag = np.array([g**i for i in range(m)] * 2)
        Gtry = np.diag(diag)
        S = Gtry @ A + A.T @ Gtry
        ev = np.linalg.eigvalsh(np.sign(a) * S)
        if ev[0] > 1e-10 * max(1.0, ev[-1]):
            G = Gtry
            break
        g *= 2.0
    if G is None:
        raise MonotonicityNotAchieved(
            "no diagonal chain metric made the norm strictly monotone"
        )

    def hit_time(X):
        return _solve_norm_time(src, G, X, np.ones(X.shape[0]), decreasing=(a < 0))

    def _map(X, sgn):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = X.copy()
        nz = np.einsum("ni,ni->n", X, X) > 0
        if np.any(nz):
            T = hit_time(X[nz])
            theta = sgn * b * T
            U, V = X[nz, :m], X[nz, m:]
            RU, RV = _rotate_pairs(theta[:, None], U, V)
            out[nz, :m], out[nz, m:] = RU, RV
        return out

    fa = Fraction(a)
    return HomeoMap(
        name="unwind",
        source_flow=src,
        target_flow=FlowEvaluator([(m, a, 0.0), (m, a, 0.0)], guard=_INTERNAL_GUARD),
        forward=lambda x: _map(x, 1.0)[0],
        inverse=lambda w: _map(w, -1.0)[0],
        tau=lambda x, t: t,
        forward_batch=lambda X: _map(X, 1.0),
        inverse_batch=lambda W: _map(W, -1.0),
        tau_batch=lambda X, ts: np.asarray(ts, dtype=float),
        source_spec=GeneratorSpec([JordanBlock(m, fa, abs(Fraction(b)))]),
        target_spec=GeneratorSpec([JordanBlock(m, fa, 0), JordanBlock(m, fa, 0)]),
        metadata={
            "metric_gap": g,
            "metric_diagonal": [g**i for i in range(m)],
            "pointwise": "rotations are Euclidean isometries: |h(x)| == |x|",
        },
    )
