"""The homeomorphism root solves with grown brackets: the oracle of the
certified-bracket solver in ``linflow.homeos``.

Every solve here starts from [-1, 1] and widens that bracket until it
holds a sign change (`grow_bracket`), then runs the same safeguarded
Newton inside it.  The mixed pw-hyp inverse nests a fully bracketed
minimum solve in every outer Newton step on the time shift, and slides
from a [-1, 0] or [0, 1] start.  The maps share only the factor metrics,
`_NormProfile.forms` and the closed-form `_stable_side` with linflow; no
slope bound, warm start or balance point is used.
"""

import numpy as np

from linflow import PreconditionViolated, homeos
from linflow.flows import FlowEvaluator
from linflow.invariants import partition_dims, subspec

BRACKET_CAP = 2.0**60
SOLVE_CAP = 300
TINYSQ = 1e-28  # as in the pw-hyp map: a factor below this share is absent


def grow_bracket(fg, n, lo, hi):
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
            if np.any(np.abs(end[rows]) > BRACKET_CAP):
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


def newton(fg, n, stats, lo=-1.0, hi=1.0, cap=SOLVE_CAP):
    """Roots of n elementwise increasing functions, bracketed by growing
    [lo, hi]; safeguarded Newton (rtsafe) inside the bracket, stopping at a
    step or bracket within 1e-13 * max(1, |x|)."""
    lo, hi, x = grow_bracket(fg, n, lo, hi)
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
        newton_ok = (np.abs(dn) <= tol) | (
            (xn > lo) & (xn < hi) & (2.0 * np.abs(dn) <= np.abs(step_old))
        )
        mid = 0.5 * (lo + hi)
        step_old, step = step, np.where(newton_ok, dn, x - mid)
        x = np.where(newton_ok, xn, mid)
        done = (np.abs(step) <= tol) | (hi - lo <= tol)
        stats["iterations"] += rows.size
        stats["bisect_steps"] += int(np.count_nonzero(~newton_ok))
        out[rows[done]] = x[done]
        if done.all():
            return out
        rows, x, lo, hi, step, step_old = (a[~done] for a in (rows, x, lo, hi, step, step_old))
    raise AssertionError("oracle root solve did not converge")


def fresh_stats():
    return dict.fromkeys(("solves", "iterations", "bisect_steps"), 0)


def solve_norm_time(prof, X, stats, targets=1.0):
    """Times s with V(s) == target, solved in log V."""
    logt = np.log(np.broadcast_to(targets, X.shape[:1]))

    def fg(s, r):
        V, dV = prof.forms(s, X[r], 2)
        with np.errstate(all="ignore"):
            return prof.sign * (np.log(V) - logt[r]), prof.sign * dV / V

    return newton(fg, X.shape[0], stats)


def solve_min_time(pS, pU, Y, Z, shift, stats):
    """Argmin s of V_S(s) + V_U(s + shift), solved in log V_U' - log(-V_S')."""
    def fg(ts, r):
        _, dVs, d2Vs = pS.forms(ts, Y[r], 3)
        _, dVu, d2Vu = pU.forms(ts + shift[r], Z[r], 3)
        with np.errstate(all="ignore"):
            return np.log(dVu) - np.log(-dVs), d2Vu / dVu - d2Vs / dVs

    return newton(fg, Y.shape[0], stats)


class PwHypOracle:
    """forward, inverse and tau of the pw-hyp map of `spec` by the nested
    grown-bracket route, on batches of pure-stable, pure-unstable and mixed
    rows (no zero rows)."""

    def __init__(self, spec):
        self.cut = partition_dims(spec).stable
        self.prof = [homeos._lyapunov_metric(
            FlowEvaluator.from_spec(subspec(spec, part), guard=1e9), stable=part == "stable")[0]
            for part in ("stable", "unstable")]
        self.stats = fresh_stats()

    def _split(self, X):
        parts = [X[:, :self.cut], X[:, self.cut:]]
        norms = [np.einsum("ni,ij,nj->n", P, p.G, P) for P, p in zip(parts, self.prof)]
        total = norms[0] + norms[1]
        pure = [norms[1] <= TINYSQ * total]
        pure.append(~pure[0] & (norms[0] <= TINYSQ * total))
        return parts, norms, total, pure, ~(pure[0] | pure[1])

    def _cone(self, Y, Z, n2):
        pS, pU = self.prof
        T = solve_min_time(pS, pU, Y, Z, np.zeros(len(Y)), self.stats)
        mu2 = pS.forms(T, Y, 1)[0] + pU.forms(T, Z, 1)[0]
        mu4 = mu2 * mu2
        return T, mu4, np.sqrt(np.maximum(n2 * n2 - mu4, 0.0))

    def _place(self, X, rows, k, block):
        c = slice(0, self.cut) if k == 0 else slice(self.cut, None)
        X[rows, c] = block

    def forward(self, X):
        parts, _, n2, pure, mixed = self._split(X)
        W = np.zeros_like(X)
        for k, (prof, P, rows) in enumerate(zip(self.prof, parts, pure)):
            if rows.any():
                T = solve_norm_time(prof, P[rows], self.stats)
                image = prof.flow.apply_batch(T, P[rows])
                self._place(W, rows, k, np.sqrt(n2[rows])[:, None] * image)
        if mixed.any():
            Q, m2 = [P[mixed] for P in parts], n2[mixed]
            T, mu4, rad = self._cone(*Q, m2)
            for k, (prof, P) in enumerate(zip(self.prof, Q)):
                c2 = 0.5 * homeos._stable_side(m2, rad, -prof.sign * np.sign(T), mu4)
                T1 = solve_norm_time(prof, P, self.stats)
                self._place(W, mixed, k, np.sqrt(c2)[:, None] * prof.flow.apply_batch(T1, P))
        return W

    def tau(self, X, ts):
        parts, _, n2, pure, mixed = self._split(X)
        out = np.zeros(len(ts))
        for prof, P, rows in zip(self.prof, parts, pure):
            if rows.any():
                Vt = prof.forms(ts[rows], P[rows], 1)[0]
                out[rows] = 0.5 * np.log(n2[rows] / Vt if prof.sign < 0 else Vt / n2[rows])
        if mixed.any():
            Q, m2, tm = [P[mixed] for P in parts], n2[mixed], ts[mixed]
            T, mu4, rad0 = self._cone(*Q, m2)
            Vt = sum(p.forms(tm, P, 1)[0] for p, P in zip(self.prof, Q))
            radt = np.sqrt(np.maximum(Vt * Vt - mu4, 0.0))
            num = homeos._stable_side(m2, rad0, np.sign(T), mu4)
            den = homeos._stable_side(Vt, radt, np.sign(T - tm), mu4)
            out[mixed] = 0.5 * np.log(num / den)
        return out

    def inverse(self, W):
        (pS, pU), st = self.prof, self.stats
        parts, norms, nw2, pure, mixed = self._split(W)
        X = np.zeros_like(W)
        for k, (prof, P, q2, rows) in enumerate(zip(self.prof, parts, norms, pure)):
            if rows.any():
                ph = P[rows] / np.sqrt(q2[rows])[:, None]
                T = solve_norm_time(prof, ph, st, q2[rows])
                self._place(X, rows, k, prof.flow.apply_batch(T, ph))
        if mixed.any():
            nu, nv = (np.sqrt(q2[mixed]) for q2 in norms)
            uh, vh = (P[mixed] / q[:, None] for P, q in zip(parts, (nu, nv)))
            logmu2 = np.log(2.0 * nu * nv)

            def outer(deltas, r):
                s = solve_min_time(pS, pU, uh[r], vh[r], deltas, st)
                Vs = pS.forms(s, uh[r], 1)[0]
                Vu, dVu = pU.forms(s + deltas, vh[r], 2)
                with np.errstate(all="ignore"):
                    return np.log(Vs + Vu) - logmu2[r], dVu / (Vs + Vu)

            delta = newton(outer, len(nu), st)
            s_star = solve_min_time(pS, pU, uh, vh, delta, st)
            qS = pS.flow.apply_batch(s_star, uh)
            qU = pU.flow.apply_batch(s_star + delta, vh)
            side = np.sign(nu - nv)
            lognw2 = np.log(nw2[mixed])

            def slide(sig, r):
                Vf = pS.forms(sig, qS[r], 2)
                Vf = [a + b for a, b in zip(Vf, pU.forms(sig, qU[r], 2))]
                with np.errstate(all="ignore"):
                    return side[r] * (lognw2[r] - np.log(Vf[0])), -side[r] * Vf[1] / Vf[0]

            lo = np.where(side > 0, -1.0, 0.0)
            sig = np.where(side == 0, 0.0, newton(slide, len(nu), st, lo, lo + 1.0))
            self._place(X, mixed, 0, pS.flow.apply_batch(sig, qS))
            self._place(X, mixed, 1, pU.flow.apply_batch(sig, qU))
        return X
