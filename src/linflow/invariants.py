"""Similarity invariants of a block multiset.

Everything in this module is exact: inputs are GeneratorSpec objects and
outputs are Fractions, ints, and new specs.  The numerical side of the
package (flows, probes) checks these values by simulation.

This module is the one owner of the coarsening forms and canonical parts.
Each is defined once on sorted (re, im, size) block triples: `_spectrum`,
`_unrotated` and `_part` (by the `_PARTS` table).  The public functions
apply them to a spec's `_triples`; the classifier composes its forms from
them.  `_inverse_gcd` is the one gcd of rational rates, which
`minimal_period` and the projective normaliser of `similarity` share.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, lcm

from .errors import InternalCheckError, NotBounded, NotStable, PreconditionViolated
from .blocks import GeneratorSpec, JordanBlock, _layout

__all__ = [
    "PartitionDims",
    "GrowthProfile",
    "DistortionSubspace",
    "lyapunov_spectrum",
    "partition_dims",
    "subspec",
    "PARTS",
    "refined_dim",
    "max_block_size_at",
    "top_rate",
    "top_size",
    "growth_profile",
    "distortion_subspace",
    "semisimple_collapse",
    "rotation_decouple",
    "is_bounded",
    "minimal_period",
    "is_generic",
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


@dataclass(frozen=True)
class PartitionDims:
    """Dimensions of the six canonical invariant subspaces."""

    stable: int
    central: int
    unstable: int
    hyperbolic: int
    semisimple: int
    defective: int

    def to_json(self):
        return {
            "stable": self.stable,
            "central": self.central,
            "unstable": self.unstable,
            "hyperbolic": self.hyperbolic,
            "semisimple": self.semisimple,
            "defective": self.defective,
        }


def _triples(spec):
    """The sorted (re, im, size) triples of a spec's blocks."""
    return tuple(b.sort_key() for b in spec.blocks)


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
    for b in spec.blocks:
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
# growth filtration
#
# For a rate s and a degree index m >= 1, the subspace of initial conditions
# whose trajectory norm is O(e^{s t} t^{m-1}) has dimension
#
#     sum_{re_j < s} dim_j  +  sum_{re_j = s} min(m, m_j) * (1 or 2).
#
# The list of its dimensions over all (m, s) is a similarity invariant finer
# than the Lyapunov spectrum.


def refined_dim(spec, m, s):
    # m == 0 is the degenerate row: only the strictly-slower part survives.
    if m < 0:
        raise PreconditionViolated(f"refined_dim needs a degree index m >= 0, got {m}")
    s = Fraction(s)
    total = 0
    for b in spec.blocks:
        if b.re < s:
            total += b.dim
        elif b.re == s:
            width = 1 if b.im == 0 else 2
            total += min(m, b.size) * width
    return total


def max_block_size_at(spec, s):
    """Largest block size among blocks with growth rate exactly s (0 if none)."""
    s = Fraction(s)
    return max((b.size for b in spec.blocks if b.re == s), default=0)


def top_rate(spec):
    if not spec.blocks:
        raise PreconditionViolated("empty generator has no top growth rate")
    return max(b.re for b in spec.blocks)


def top_size(spec):
    return max_block_size_at(spec, top_rate(spec))


@dataclass(frozen=True)
class GrowthProfile:
    """Tabulated growth filtration of a generator.

    ``table[(m, s)]`` is the dimension of the space of trajectories bounded
    by e^{s t} t^{m-1}, for every breakpoint rate s and 1 <= m <= max size.
    """

    dim: int
    breakpoints: tuple
    table: tuple  # ((m, s, dim), ...) rows
    max_size_at: tuple  # ((s, m), ...) per breakpoint
    top_rate: Fraction
    top_size: int

    def to_json(self):
        return {
            "dim": self.dim,
            "breakpoints": [str(s) for s in self.breakpoints],
            "table": [
                {"m": m, "s": str(s), "dim": d} for (m, s, d) in self.table
            ],
            "max_size_at": [{"s": str(s), "m": m} for (s, m) in self.max_size_at],
            "top_rate": str(self.top_rate),
            "top_size": self.top_size,
        }


def growth_profile(spec):
    if not spec.blocks:
        raise PreconditionViolated("empty generator has no growth profile")
    breakpoints = tuple(sorted({b.re for b in spec.blocks}))
    max_m = max(b.size for b in spec.blocks)
    table = tuple(
        (m, s, refined_dim(spec, m, s))
        for s in breakpoints
        for m in range(1, max_m + 1)
    )
    return GrowthProfile(
        dim=spec.dim,
        breakpoints=breakpoints,
        table=table,
        max_size_at=tuple((s, max_block_size_at(spec, s)) for s in breakpoints),
        top_rate=top_rate(spec),
        top_size=top_size(spec),
    )


# ---------------------------------------------------------------------------
# distortion subspace
#
# For a stable generator with top rate L and largest top-rate block size M,
# the generic trajectory decays like e^{L t} t^{M-1}.  The points that decay
# strictly faster form the proper subspace below; arbitrarily close to any
# point OUTSIDE it, relative trajectory separation stays tame, while at
# points inside it a nearby witness can be distorted without bound.  Its
# coordinates, in block layout, are: all coordinates of blocks with rate
# < L, and the first min(M-1, m_j) coordinates of each half of every block
# with rate exactly L.


@dataclass(frozen=True)
class DistortionSubspace:
    dim: int
    coords: tuple  # global coordinate indices in block layout
    top_rate: Fraction
    top_size: int

    def to_json(self):
        return {
            "dim": self.dim,
            "coords": list(self.coords),
            "top_rate": str(self.top_rate),
            "top_size": self.top_size,
        }


def distortion_subspace(spec):
    if not spec.blocks:
        raise PreconditionViolated("empty generator")
    if any(b.re >= 0 for b in spec.blocks):
        raise NotStable("distortion subspace is defined for stable generators only")
    lam = top_rate(spec)
    mtop = top_size(spec)
    coords = []
    layout = _layout((b.size, b.re, b.im) for b in spec.blocks)
    for b, halves in zip(spec.blocks, layout):
        k = b.size if b.re < lam else min(mtop - 1, b.size)
        for h in halves:
            coords.extend(range(h, h + k))
    sub = DistortionSubspace(
        dim=len(coords), coords=tuple(coords), top_rate=lam, top_size=mtop
    )
    expected = refined_dim(spec, mtop - 1, lam)
    if sub.dim != expected:
        raise InternalCheckError(
            f"distortion subspace has dimension {sub.dim}, the growth filtration "
            f"gives {expected}"
        )
    return sub


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
# periods and genericity


def _inverse_gcd(rates):
    """1 / gcd of nonzero rationals, the c > 0 that turns them into coprime
    integers: Fraction(D, g) for D the lcm of the denominators and g the
    gcd of the rates cleared to D (D and g are coprime)."""
    den = lcm(*(r.denominator for r in rates))
    return Fraction(den, gcd(*(r.numerator * (den // r.denominator) for r in rates)))


def is_bounded(spec):
    """All trajectories bounded: every block is size 1 with zero growth."""
    return all(b.size == 1 and b.re == 0 for b in spec.blocks)


def minimal_period(spec, x=None):
    """Minimal period of the trajectory through x, as a multiple of 2*pi.

    Returns an exact Fraction q meaning the period is q * 2*pi; q == 0 means
    x is a fixed point.  With x omitted, the whole flow is considered (all
    blocks supported).  Raises NotBounded unless the flow is bounded.  With
    rational rotation rates an aperiodic bounded trajectory cannot occur, so
    no infinite sentinel is needed.
    """
    if not is_bounded(spec):
        raise NotBounded("minimal period needs a bounded flow")
    if x is not None and len(x) != spec.dim:
        raise PreconditionViolated(f"x has length {len(x)}, expected {spec.dim}")
    rates = []
    layout = _layout((b.size, b.re, b.im) for b in spec.blocks)
    for b, halves in zip(spec.blocks, layout):
        supported = x is None or any(
            float(x[h + i]) != 0.0 for h in halves for i in range(b.size)
        )
        if supported and b.im != 0:
            rates.append(b.im)
    if not rates:
        return Fraction(0)
    return _inverse_gcd(rates)


def is_generic(spec):
    """Open dense class: semisimple, no zero rates, pairwise distinct rates."""
    if any(b.size != 1 or b.re == 0 for b in spec.blocks):
        return False
    rates = [b.re for b in spec.blocks]
    return len(set(rates)) == len(rates)
