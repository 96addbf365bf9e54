"""The homeomorphism solver one numpy call at a time: the byte-level oracle
of the stacked forms, the broadcast brackets and the compacting Newton loop
in ``linflow.homeos``, and of the rotation skip in ``linflow.flows``.

Each routine here is the earlier form of its library counterpart, kept
verbatim apart from the names: `forms` takes the three forms one einsum
each (read from the profile's stacked `mats`, and returned stacked, as the
library's callers expect), `bracket` and `solve_min_time` take their
corners one `balance` call each, `newton` compacts each state vector on
its own and enters an errstate per step, and `unscaled` rotates through
empty index arrays when no coordinate pair turns.  `unstacked_route()`
swaps them into linflow, so that a map built inside it runs the old steps
around the same map code.
"""

import contextlib

import numpy as np
import pytest

from linflow import homeos
from linflow.errors import InternalCheckError, PreconditionViolated
from linflow.flows import FlowEvaluator, _rotate_pairs

_SOLVE_CAP = homeos._SOLVE_CAP
_SLACK = homeos._SLACK
_F_PAD = homeos._F_PAD


def quads(prof):
    """The (form, overflow value) pairs of a profile."""
    return tuple(zip(prof.mats, (np.inf, prof.sign * np.inf, np.inf)))


def forms(self, ts, X, k):
    """[V, V', V''][:k] at times ts, from one flow evaluation, or none
    when every time is 0."""
    Z = self.flow.apply_batch(ts, X) if np.any(ts) else X
    bad = ~np.all(np.isfinite(Z), axis=1)
    out = []
    with np.errstate(all="ignore"):
        for M, overflow in quads(self)[:k]:
            q = np.einsum("ni,ij,nj->n", Z, M, Z)
            out.append(np.where(bad | ~np.isfinite(q), overflow, q))
    return np.array(out)


def bracket(x, f, kmin, kmax):
    """[lo, hi] holding the root of an increasing function with value f at
    x whose slope lies in [kmin, kmax] > 0: x - f / [kmin, kmax] in interval
    arithmetic, with the slopes widened by _SLACK and f by _F_PAD."""
    with np.errstate(all="ignore"):
        q = [(f + e) / k for e in (-_F_PAD, _F_PAD)
             for k in (kmin * (1.0 - _SLACK), kmax * (1.0 + _SLACK))]
    return x - np.maximum.reduce(q), x - np.minimum.reduce(q)


def newton(fg, x, stats, slopes=None, lo=-np.inf, hi=np.inf, restart=None, cap=_SOLVE_CAP):
    """Roots of len(x) elementwise increasing functions, started at x;
    fg(x, rows) -> (f, f') for the given rows of the batch (see
    `homeos._newton`)."""
    n = len(x)
    lo, hi = (np.array(np.broadcast_to(b, (n,)), dtype=float) for b in (lo, hi))
    x = np.clip(np.asarray(x, dtype=float), lo, hi)
    if not np.all(np.isfinite(x)):
        raise PreconditionViolated("monotone time bracket could not be established")
    out = np.empty(n)
    step_old = step = np.full(n, np.inf)
    rows = np.arange(n)
    stats["solves"] += n
    for it in range(cap):
        f, df = fg(x, rows)
        if it == 0:
            if slopes is not None:
                a, b = bracket(x, f, *slopes)
                ok = np.isfinite(f)
                lo, hi = np.where(ok, np.maximum(lo, a), lo), np.where(ok, np.minimum(hi, b), hi)
            if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
                raise PreconditionViolated("monotone time bracket could not be established")
        neg = f < 0
        lo, hi = np.where(neg, np.maximum(lo, x), lo), np.where(neg, hi, np.minimum(hi, x))
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
        if it == 0 and restart is not None:
            mid = np.where((restart > lo) & (restart < hi), restart, mid)
        step_old, step = step, np.where(newton, dn, x - mid)
        x = np.where(newton, xn, mid)
        done = (np.abs(step) <= tol) | (hi - lo <= tol)
        if not np.all(np.abs(f[done]) <= 1e7 * tol[done]):
            raise PreconditionViolated("a root of a norm profile lies beyond the float range")
        stats["iterations"] += rows.size
        stats["bisect_steps"] += int(np.count_nonzero(~newton))
        out[rows[done]] = x[done]
        if done.all():
            return out
        rows, x, lo, hi, step, step_old = (a[~done] for a in (rows, x, lo, hi, step, step_old))
    raise InternalCheckError(
        "root solve did not converge in %d iterations (%d points)" % (cap, rows.size)
    )


def solve_norm_time(prof, X, stats, targets=1.0):
    """Times s with V(s) == target on a strictly monotone norm profile,
    solved in log V from s = 0, whose slope V'/V lies within the rates."""
    logt = np.log(np.broadcast_to(targets, X.shape[:1]))

    def fg(s, r):
        V, dV = prof.forms(s, X[r], 2)
        with np.errstate(all="ignore"):
            return prof.sign * (np.log(V) - logt[r]), prof.sign * dV / V

    slopes = np.sort(prof.sign * np.array(prof.rates))
    return homeos._newton(fg, np.zeros(X.shape[0]), stats, slopes)


def solve_min_time(pS, pU, Y, Z, shift, stats, start=None, speeds=None):
    """Argmin s of the strictly convex V_S(s) + V_U(s + shift), bracketed
    by the balance points at the corners of the curvature ranges; the log
    speeds at time 0 are computed here, whatever `speeds` holds."""
    LS, LU = pS.log_speed(Y), pU.log_speed(Z)
    (cS0, cS1), (cU0, cU1) = pS.curvatures, pU.curvatures

    def balance(kU, kS, e=0.0):
        return (LS - LU + e - kU * shift) / (kU + kS)

    corners = [balance(kU, kS, e) for e in (-_F_PAD, _F_PAD)
               for kU in (cU0 * (1.0 - _SLACK), cU1 * (1.0 + _SLACK))
               for kS in (cS0 * (1.0 - _SLACK), cS1 * (1.0 + _SLACK))]
    s0 = balance(0.5 * (cU0 + cU1), 0.5 * (cS0 + cS1))
    x0 = s0 if start is None else np.where(np.isfinite(start), start, s0)

    def fg(ts, r):
        _, dVs, d2Vs = pS.forms(ts, Y[r], 3)
        _, dVu, d2Vu = pU.forms(ts + shift[r], Z[r], 3)
        with np.errstate(all="ignore"):
            return np.log(dVu) - np.log(-dVs), d2Vu / dVu - d2Vs / dVs

    return newton(fg, x0, stats, (cS0 + cU0, cS1 + cU1), np.minimum.reduce(corners),
                  np.maximum.reduce(corners), s0)


def unscaled(self, ts, X):
    """The flow without its growth factors: the series over the powers
    of K, then the rotations."""
    P = 0.0 + X
    tp = np.ones_like(ts)
    for j, (dst, src) in enumerate(self._shifts, 1):
        tp = tp * ts / j
        P[:, dst] += tp[:, None] * X[:, src]
    U, V = P[:, self._rot_u], P[:, self._rot_v]
    P[:, self._rot_u], P[:, self._rot_v] = _rotate_pairs(ts[:, None] * self._rot_rates, U, V)
    return P


@contextlib.contextmanager
def unstacked_route():
    """linflow with the steps above in place of its own."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homeos._NormProfile, "forms", forms)
        mp.setattr(homeos, "_newton", newton)
        mp.setattr(homeos, "_solve_norm_time", solve_norm_time)
        mp.setattr(homeos, "_solve_min_time", solve_min_time)
        mp.setattr(FlowEvaluator, "_unscaled", unscaled)
        yield
