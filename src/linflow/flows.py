"""Closed-form evaluation of block-diagonal linear flows.

A block of size m with growth rate a and rotation rate b generates the flow

    e^{at} * R(bt) * sum_{j<m} (t^j / j!) K^j

on R^m (b == 0) or R^{2m} (b != 0), where K is the coordinate shift along
each half-chain and R(bt) rotates the two halves pairwise.  No integrator
is involved anywhere; everything is evaluated by this polynomial-plus-
rotation formula, vectorized over sample points.

An evaluator turns the block layout (see `matrices`) into a plan when it is
built: each coordinate's growth rate and chain position, the (destination,
source) indices of each power K^j, and the (u, v, rate) rotating pairs.  A
call then runs one series over the powers, one cos/sin (only when the layout
has rotating pairs) and one growth step.
"""

from __future__ import annotations

import math

import numpy as np

from .blocks import GeneratorSpec, _require_spec
from .errors import PreconditionViolated, RangeGuard, _at_least
from .matrices import _block_entries, _layout

__all__ = ["FlowEvaluator", "flow_apply", "FLOW_TIME_GUARD"]

FLOW_TIME_GUARD = 1e3
_INTERNAL_GUARD = 1e9  # the guard of the evaluators inside maps and probes: no time limit
_EXP_SAFE = 700.0  # e^x is finite for every x up to this
_NOT_RATES = (str, bytes, bool, np.bool_)  # float() takes them, but they are no rates


def _rate(r):
    """float(r) for a block rate: a real number, none of `_NOT_RATES`,
    whose float is finite, and nonzero unless r is 0 (a rotation rate that
    underflowed would lay its block out as a real one)."""
    f = math.nan if isinstance(r, _NOT_RATES) else float(r)
    if not math.isfinite(f):
        raise PreconditionViolated(f"need a finite real block rate, got {r!r}")
    if not f and r:
        raise PreconditionViolated("a block rate is below the float range")
    return f


def _rotate_pairs(theta, U, V):
    """(U, V) turned pairwise by the angles theta."""
    c, s = np.cos(theta), np.sin(theta)
    return c * U - s * V, s * U + c * V


class FlowEvaluator:
    """Evaluates x -> e^{tA} x for one block-diagonal generator.

    blocks: sequence of (size, growth, rotation) with float rates; rotation
    may be signed here (a spec normalizes it away, but the explicit
    homeomorphism constructions need the signed flow).  A rate beyond the
    float range, such as a spec's -10^400/3, or below it, such as 10^-400,
    raises PreconditionViolated, and so does a str, bytes, bool, numpy
    bool, NaN or infinite rate.
    """

    def __init__(self, blocks, guard=FLOW_TIME_GUARD):
        try:
            self.blocks = tuple((_at_least(m, 1, "block size"), _rate(a), _rate(b))
                                for m, a, b in blocks)
        except OverflowError:
            raise PreconditionViolated("a block rate is beyond the float range") from None
        except (TypeError, ValueError):  # a rate that float() refuses, or a block that is no triple
            raise PreconditionViolated("need blocks of (size, growth, rotation)"
                                       " with real rates") from None
        self.guard = float(guard)
        layout = _layout(self.blocks)
        rates, pos, u, v, rot = ([] for _ in range(5))
        for (m, a, b), halves in zip(self.blocks, layout):  # the half-chains tile 0..dim-1
            rates += [a] * (m * len(halves))
            pos += list(range(m)) * len(halves)
            if b != 0.0:  # coordinate i of the first half-chain turns with i of the second
                u += range(halves[0], halves[0] + m)
                v += range(halves[1], halves[1] + m)
                rot += [b] * m
        self.dim = len(pos)
        self.offsets = tuple(halves[0] for halves in layout) + (self.dim,)
        self.rates = np.array(rates, dtype=float)  # growth rate of every coordinate
        self.top_rate = float(np.abs(self.rates).max(initial=0.0))
        self.chain_pos = np.array(pos, dtype=int)  # position of every coordinate in its chain
        self._shifts = []  # K^j moves coordinate i + j into i where both lie on one chain
        for j in range(1, int(self.chain_pos.max(initial=0)) + 1):
            dst = np.flatnonzero(self.chain_pos[j:] == self.chain_pos[:-j] + j)
            self._shifts.append((dst, dst + j))
        self._rot_u, self._rot_v = np.array(u, dtype=int), np.array(v, dtype=int)
        self._rot_rates = np.array(rot, dtype=float)

    @classmethod
    def from_spec(cls, spec: GeneratorSpec, guard=FLOW_TIME_GUARD):
        return cls([(b.size, b.re, b.im) for b in _require_spec(spec).blocks], guard=guard)

    def _check_t(self, ts):
        """max |t|, once it is checked against the guard."""
        tmax = float(np.abs(ts).max(initial=0.0))
        if not tmax <= self.guard:  # a NaN time fails this too
            raise RangeGuard("a time is NaN" if tmax != tmax
                             else f"|t| exceeds the simulation guard {self.guard:g}")
        return tmax

    def apply_batch(self, ts, X):
        """Phi_{ts[i]} X[i] for every row i.  ts: (n,), X: (n, d).

        A coordinate whose polynomial-and-rotation part is exactly zero
        stays zero under any growth, also one past the float range, where
        inf * 0 would make it NaN.  A series term or a growth past the float
        range comes out inf without a floating-point warning; callers check
        the result.
        """
        ts = np.asarray(ts, dtype=float)
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise PreconditionViolated(f"points must have shape (n, {self.dim})")
        if ts.shape != (X.shape[0],):
            raise PreconditionViolated("need one time per point")
        tmax = self._check_t(ts)
        # t^j / j! <= e^|t|, so entries stay below 2 e^reach max|x|; NaN fails
        reach = tmax * (1.0 + self.top_rate)
        if reach <= _EXP_SAFE and np.abs(X).max(initial=0.0) <= math.exp(_EXP_SAFE - reach):
            return np.exp(ts[:, None] * self.rates) * self._unscaled(ts, X)
        with np.errstate(over="ignore", invalid="ignore"):  # a term may be inf, and inf * 0 NaN
            P = self._unscaled(ts, X)
            out = np.exp(ts[:, None] * self.rates) * P
        np.copyto(out, P, where=P == 0)
        return out

    def _unscaled(self, ts, X):
        """The flow without its growth factors: the series over the powers
        of K, then the rotations."""
        # the series starts from 0 + x, so a -0 entry comes out +0 (the
        # float golden file pins the sign)
        P = 0.0 + X
        tp = 1.0
        for j, (dst, src) in enumerate(self._shifts, 1):
            tp = tp * ts / j
            P[:, dst] += tp[:, None] * X[:, src]
        if self._rot_u.size:
            u, v = self._rot_u, self._rot_v
            P[:, u], P[:, v] = _rotate_pairs(ts[:, None] * self._rot_rates, P[:, u], P[:, v])
        return P

    def apply(self, t, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise PreconditionViolated(f"point must have shape ({self.dim},)")
        return self.apply_batch(np.array([t]), x[None, :])[0]

    def matrix(self, t):
        """Dense Phi_t, columns are images of basis vectors."""
        self._check_t(np.array([t]))
        eye = np.eye(self.dim)
        cols = self.apply_batch(np.full(self.dim, float(t)), eye)
        return cols.T

    def generator_matrix(self):
        """Dense A with e^{tA} = Phi_t."""
        A = np.zeros((self.dim, self.dim))
        for i, j, v in _block_entries(self.blocks):
            A[i, j] = v
        return A


def flow_apply(spec, t, x):
    """Public single-point evaluation, guarded to |t| <= 1e3."""
    return FlowEvaluator.from_spec(spec).apply(t, x)
