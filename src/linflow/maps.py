"""The homeomorphism type, and the maps that need no root solve.

A HomeoMap h comes with a time change tau such that h(Phi_t x) =
Psi_{tau(x, t)} h(x), where Phi is the source flow and Psi the target
flow; conjugacies have tau(x, t) = t.  The spiral, parabola-shear and
uniform-exponent maps here are closed forms.  `_turned` is the one route
that turns rotation planes: both half-chains of each rotating block turn
by a per-row angle that the map supplies, sgn c log r for the spiral and
uniform maps (`_log_spiral`) and sgn b T(x) for the unwind map of
`homeos`.  A `verify` launch of these maps loads neither `homeos`, whose
solvers it never runs, nor `invariants`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from ._record import factory, record
from .blocks import GeneratorSpec, JordanBlock, _require_spec
from .errors import PreconditionViolated, _above
from .flows import _INTERNAL_GUARD, FlowEvaluator, _rotate_pairs
from .matrices import _layout

__all__ = ["HomeoMap", "build_spiral_map", "build_parabola_shear", "build_uniform_exponent_map"]


def _same_time(X, ts):
    return np.asarray(ts, dtype=float)


@record(frozen=False)
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
    metadata: dict = factory(dict)

    def forward(self, x):
        return self.forward_batch(x)[0]

    def inverse(self, w):
        return self.inverse_batch(w)[0]

    def tau(self, x, t):
        return float(self.tau_batch(x, np.array([t], dtype=float))[0])


def _turned(planes, angles):
    """Forward and inverse batch maps that turn both half-chains U, V of
    each rotating block pairwise by the per-row angles angles(X)(k, U, V)
    of the batch X, k = sgn * c with sgn 1 forward and -1 inverse; planes
    holds (u, v, c): the columns U = X[:, u] and V = X[:, v], each an index
    or a slice, and the block's angle rate c.  The turn takes whole
    columns, so that no row mask slows it."""

    def turn(X, sgn):
        X = np.atleast_2d(np.asarray(X, dtype=float)).copy()
        angle = angles(X)
        for u, v, c in planes:
            U, V = X[:, u], X[:, v]
            X[:, u], X[:, v] = _rotate_pairs(angle(sgn * c, U, V), U, V)
        return X

    return (lambda X: turn(X, 1.0)), (lambda W: turn(W, -1.0))


def _log_spiral(k, U, V):
    """k log r, r the radius of each row in the plane of U and V; 0 at r = 0."""
    r = np.hypot(U, V)
    return np.where(r > 0, k * np.log(np.where(r > 0, r, 1.0)), 0.0)


def _uniform(name, spec, source, metadata):
    """The map of the size-1 blocks of spec, which share one negative
    growth rate a, onto the uniform contraction at a: each rotation plane
    of source, their flow with signed rotation rates b, turns by the
    logarithmic spiral R(b / -a * log r)."""
    rate = source.blocks[0][1]
    # the two size-1 half-chains of a rotation block span its plane
    planes = [(*halves, rot / -rate)
              for (_, _, rot), halves in zip(source.blocks, _layout(source.blocks)) if rot != 0]
    target_spec = GeneratorSpec([JordanBlock(1, spec.blocks[0].re, 0)] * spec.dim)
    target = FlowEvaluator.from_spec(target_spec, guard=_INTERNAL_GUARD)
    return HomeoMap(name, source, target, *_turned(planes, lambda X: _log_spiral),
                    source_spec=spec, target_spec=target_spec, metadata=metadata)


# ---------------------------------------------------------------------------
# planar spiral


def build_spiral_map(rate):
    """Logarithmic spiral h(y) = R(rate * log|y|) y on the plane.

    Conjugates the focus flow with growth -1 and signed rotation `rate`
    to the radial flow with growth -1; Lipschitz with constant 1 + |rate|
    on the unit ball, and a homeomorphism globally.  A nonzero rate whose
    float is 0 is refused, as `FlowEvaluator` refuses it.
    """
    # the spec records the rate as given; a float rate records its binary value
    rate, exact_rate = _above(rate, -np.inf, "rate"), abs(Fraction(rate))
    if exact_rate and not rate:  # the focus would turn at rate 0
        raise PreconditionViolated("a block rate is below the float range")
    # at rate 0 the focus is the node itself (two real blocks), with no
    # plane to turn, so h = id; otherwise the source turns by the signed
    # rate, which a spec normalises
    spec = GeneratorSpec([JordanBlock(1, -1, exact_rate)] if rate else [JordanBlock(1, -1, 0)] * 2)
    signed = [(1, -1.0, rate)] if rate else [(1, -1.0, 0.0)] * 2
    return _uniform("spiral", spec, FlowEvaluator(signed, guard=_INTERNAL_GUARD),
                    {"rate": rate, "lipschitz_bound_unit_ball": 1.0 + abs(rate)})


# ---------------------------------------------------------------------------
# parabola shear


def build_parabola_shear(shift):
    """Self-equivalence (x1, x2) -> (x1 + shift * x2^2, x2) of the node
    flow diag(-2, -1); exact conjugacy, maps the x2-axis to a parabola."""
    c = _above(shift, -np.inf, "shift")

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
    blocks = _require_spec(spec).blocks
    if not blocks:
        raise PreconditionViolated("empty generator")
    a0 = blocks[0].re
    if any(b.size != 1 for b in blocks) or any(b.re != a0 for b in blocks):
        raise PreconditionViolated(
            "uniform-exponent map needs semisimple blocks with one shared rate"
        )
    if a0 >= 0:
        raise PreconditionViolated("shared growth rate must be negative")
    source = FlowEvaluator.from_spec(spec, guard=_INTERNAL_GUARD)  # refuses a rate past floats
    return _uniform("uniform", spec, source, {"rate": source.blocks[0][1],
                                              "planes_unwound": sum(b.im != 0 for b in blocks)})
