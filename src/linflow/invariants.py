"""Similarity invariants of a block multiset.

Everything in this module is exact: inputs are GeneratorSpec objects and
outputs are Fractions, ints, and new specs.  The numerical side of the
package (flows, probes) checks these values by simulation.

This module is the one owner of the coarsening forms and canonical parts.
Each is defined once on sorted (re, im, size) block triples: `_spectrum`,
`_unrotated` and `_part` (by the `_PARTS` table).  The public functions
apply them to a spec's `_triples`; the classifier composes its forms from
them.  `_inverse_gcd` is the one gcd of rational rates, which
`summary.minimal_period` and the projective normaliser of `similarity`
share.  The summary that only the `invariants` subcommand prints (growth
filtration, distortion subspace, periods, genericity) lives in `summary`,
so that a launch that classifies or audits compiles none of it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm

from ._record import record
from .errors import PreconditionViolated
from .blocks import GeneratorSpec, JordanBlock, _fields_to_json, _require_spec

__all__ = [
    "PartitionDims",
    "lyapunov_spectrum",
    "partition_dims",
    "subspec",
    "PARTS",
    "semisimple_collapse",
    "rotation_decouple",
]

# part -> the (re, im, size) block triples lying in it
_PARTS = {
    "stable": lambda ts: tuple(t for t in ts if t[0] < 0),
    "central": lambda ts: tuple(t for t in ts if t[0] == 0),
    "unstable": lambda ts: tuple(t for t in ts if t[0] > 0),
    "hyperbolic": lambda ts: tuple(t for t in ts if t[0] != 0),
    "semisimple": lambda ts: tuple(t for t in ts if t[2] == 1),
    "defective": lambda ts: tuple(t for t in ts if t[2] >= 2),
}

PARTS = tuple(_PARTS)


@record
class PartitionDims:
    """Dimensions of the six canonical invariant subspaces."""

    stable: int
    central: int
    unstable: int
    hyperbolic: int
    semisimple: int
    defective: int
    to_json = _fields_to_json


def _triples(spec):
    """The sorted (re, im, size) triples of a spec's blocks."""
    return tuple(b.sort_key() for b in _require_spec(spec).blocks)


def _spec(triples):
    return GeneratorSpec(tuple(JordanBlock(size, re, im) for re, im, size in triples))


def _part(triples, part):
    """The triples lying in one canonical part."""
    try:
        select = _PARTS[part]
    except (KeyError, TypeError):
        raise PreconditionViolated(f"unknown part {part!r}; want one of {PARTS}") from None
    return select(triples)


def _spectrum(triples):
    """Growth rates with multiplicity, ascending (the triples are sorted)."""
    out = []
    for re, im, size in triples:
        out += [re] * (2 * size if im else size)
    return tuple(out)


def _unrotated(triples, max_size):
    """Each rotating block of size <= max_size as two real blocks, sorted."""
    out = []
    for re, im, size in triples:
        if im and size <= max_size:
            out += [(re, 0, size)] * 2
        else:
            out.append((re, im, size))
    return tuple(sorted(out))


def subspec(spec, part):
    """Sub-multiset of blocks lying in one canonical part."""
    return _spec(_part(_triples(spec), part))


def lyapunov_spectrum(spec):
    """Growth rates with multiplicity, sorted ascending; length == dim."""
    return _spectrum(_triples(spec))


def partition_dims(spec):
    """Dimensions of the six canonical parts, in one pass over the blocks.

    The fast path of the `_PARTS` table: the tests check it against the
    dimensions of the subspecs."""
    stable = central = unstable = semisimple = 0
    for b in _require_spec(spec).blocks:
        d = b.dim
        sign = b.re.numerator
        if sign < 0:
            stable += d
        elif sign > 0:
            unstable += d
        else:
            central += d
        if b.size == 1:
            semisimple += d
    return PartitionDims(
        stable=stable,
        central=central,
        unstable=unstable,
        hyperbolic=stable + unstable,
        semisimple=semisimple,
        defective=spec.dim - semisimple,
    )


# ---------------------------------------------------------------------------
# coarsening transforms


def semisimple_collapse(spec):
    """Forget rotation rates on size-1 blocks.

    (1, a, b>0) becomes two copies of (1, a, 0); larger blocks are kept.
    Two generators are similar after this transform exactly when their flows
    are bi-Lipschitz equivalent as linear maps, which is why it shows up in
    every Lipschitz-grade decision.  Idempotent; preserves dim and spectrum.
    """
    return _spec(_unrotated(_triples(spec), 1))


def rotation_decouple(spec):
    """Forget rotation rates on every block.

    (m, a, b>0) becomes two copies of (m, a, 0).  Two generators are similar
    after this transform exactly when a time-dependent bounded change of
    coordinates with bounded inverse carries one flow to the other.
    Idempotent; preserves dim and spectrum; absorbs semisimple_collapse.
    """
    return _spec(_unrotated(_triples(spec), inf))


# ---------------------------------------------------------------------------
# the gcd of rates


def _inverse_gcd(rates):
    """1 / gcd of nonzero rationals, the c > 0 that turns them into coprime
    integers: Fraction(D, g) for D the lcm of the denominators and g the
    gcd of the rates cleared to D (D and g are coprime)."""
    den = lcm(*(r.denominator for r in rates))
    return Fraction(den, gcd(*(r.numerator * (den // r.denominator) for r in rates)))
