"""Closed-form evaluation of block-diagonal linear flows.

A block of size m with growth rate a and rotation rate b generates the flow

    e^{at} * R(bt) * sum_{j<m} (t^j / j!) K^j

on R^m (b == 0) or R^{2m} (b != 0), where K is the coordinate shift along
each half-chain and R(bt) rotates the two halves pairwise.  No integrator
is involved anywhere; everything is evaluated by this polynomial-plus-
rotation formula, vectorized over sample points.
"""

from __future__ import annotations

import numpy as np

from .blocks import GeneratorSpec, _block_entries
from .errors import PreconditionViolated, RangeGuard

__all__ = ["FlowEvaluator", "flow_apply", "FLOW_TIME_GUARD"]

FLOW_TIME_GUARD = 1e3
_EXP_SAFE = 700.0  # e^x is finite for every x up to this


class FlowEvaluator:
    """Evaluates x -> e^{tA} x for one block-diagonal generator.

    blocks: sequence of (size, growth, rotation) with float rates; rotation
    may be signed here (a spec normalizes it away, but the explicit
    homeomorphism constructions need the signed flow).
    """

    def __init__(self, blocks, guard=FLOW_TIME_GUARD):
        self.blocks = tuple((int(m), float(a), float(b)) for (m, a, b) in blocks)
        for m, _, _ in self.blocks:
            if m < 1:
                raise PreconditionViolated("block size must be >= 1")
        self.guard = float(guard)
        offs = [0]
        for m, _, b in self.blocks:
            offs.append(offs[-1] + (m if b == 0.0 else 2 * m))
        self.offsets = tuple(offs)
        self.dim = offs[-1]
        # growth rate of every coordinate
        self.rates = np.repeat([a for _, a, _ in self.blocks], np.diff(offs))
        self.top_rate = float(np.abs(self.rates).max(initial=0.0))

    @classmethod
    def from_spec(cls, spec: GeneratorSpec, guard=FLOW_TIME_GUARD):
        ev = cls(
            [(b.size, float(b.re), float(b.im)) for b in spec.blocks], guard=guard
        )
        ev.spec = spec
        return ev

    def _check_t(self, ts):
        """max |t|, once it is checked against the guard."""
        tmax = float(np.abs(ts).max(initial=0.0))
        if tmax > self.guard:
            raise RangeGuard(
                f"|t| exceeds the simulation guard {self.guard:g}"
            )
        return tmax

    def apply_batch(self, ts, X):
        """Phi_{ts[i]} X[i] for every row i.  ts: (n,), X: (n, d).

        A coordinate whose polynomial-and-rotation part is exactly zero
        stays zero under any growth, also one past the float range, where
        inf * 0 would make it NaN.
        """
        ts = np.asarray(ts, dtype=float)
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise PreconditionViolated(f"points must have shape (n, {self.dim})")
        if ts.shape != (X.shape[0],):
            raise PreconditionViolated("need one time per point")
        tmax = self._check_t(ts)
        P = np.empty_like(X)  # the flow without its growth factors
        for (m, a, b), off in zip(self.blocks, self.offsets):
            w = m if b == 0.0 else 2 * m
            Y = X[:, off : off + w]
            if b == 0.0:
                Z = np.zeros_like(Y)
                tp = np.ones_like(ts)
                for j in range(m):
                    if j:
                        tp = tp * ts / j
                    Z[:, : m - j] += tp[:, None] * Y[:, j:]
                P[:, off : off + w] = Z
            else:
                U, V = Y[:, :m], Y[:, m:]
                ZU = np.zeros_like(U)
                ZV = np.zeros_like(V)
                tp = np.ones_like(ts)
                for j in range(m):
                    if j:
                        tp = tp * ts / j
                    ZU[:, : m - j] += tp[:, None] * U[:, j:]
                    ZV[:, : m - j] += tp[:, None] * V[:, j:]
                c = np.cos(b * ts)[:, None]
                s = np.sin(b * ts)[:, None]
                P[:, off : off + m] = c * ZU - s * ZV
                P[:, off + m : off + w] = s * ZU + c * ZV
        out = np.exp(ts[:, None] * self.rates) * P
        if tmax * self.top_rate > _EXP_SAFE:  # a growth may be inf, and inf * 0 NaN
            np.copyto(out, P, where=P == 0)
        return out

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
