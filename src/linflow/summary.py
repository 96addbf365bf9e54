"""The invariant summary of a block multiset, as `linflow invariants` prints it.

Growth filtration (`refined_dim`, `growth_profile` and the top rate and
size), the distortion subspace of a stable generator, boundedness and
minimal periods, genericity and the class coincidence of a generic
generator.  Everything is exact, as in `invariants`, whose parts and gcd
of rates this module reads.  Only the `invariants` subcommand and the
float layer's probes import it, so that a launch that classifies, audits
or transforms compiles none of it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ._record import record
from .blocks import _fields_to_json, _require_spec
from .errors import InternalCheckError, NotBounded, NotStable, PreconditionViolated
from .errors import _at_least, _point, _rational
from .invariants import _inverse_gcd
from .matrices import _layout, _reach

__all__ = [
    "GrowthProfile",
    "DistortionSubspace",
    "CoincidenceReport",
    "refined_dim",
    "max_block_size_at",
    "top_rate",
    "top_size",
    "growth_profile",
    "distortion_subspace",
    "is_bounded",
    "minimal_period",
    "is_generic",
    "class_coincidence",
]


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
    _at_least(m, 0, "degree index m")
    s = _rational(s, "growth rate s")
    total = 0
    for b in _require_spec(spec).blocks:
        if b.re < s:
            total += b.dim
        elif b.re == s:
            width = 1 if b.im == 0 else 2
            total += min(m, b.size) * width
    return total


def max_block_size_at(spec, s):
    """Largest block size among blocks with growth rate exactly s (0 if none)."""
    s = _rational(s, "growth rate s")
    return max((b.size for b in _require_spec(spec).blocks if b.re == s), default=0)


def top_rate(spec):
    if not _require_spec(spec).blocks:
        raise PreconditionViolated("empty generator has no top growth rate")
    return max(b.re for b in spec.blocks)


def top_size(spec):
    return max_block_size_at(spec, top_rate(spec))


@record
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

    def to_json(self):  # the fields, with the rows as keyed objects
        return {
            **_fields_to_json(self),
            "table": [{"m": m, "s": str(s), "dim": d} for (m, s, d) in self.table],
            "max_size_at": [{"s": str(s), "m": m} for (s, m) in self.max_size_at],
        }


def growth_profile(spec):
    if not _require_spec(spec).blocks:
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


@record
class DistortionSubspace:
    dim: int
    coords: tuple  # global coordinate indices in block layout
    top_rate: Fraction
    top_size: int
    to_json = _fields_to_json


def distortion_subspace(spec):
    if not _require_spec(spec).blocks:
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
# periods and genericity


def is_bounded(spec):
    """All trajectories bounded: every block is size 1 with zero growth."""
    return all(b.size == 1 and b.re == 0 for b in _require_spec(spec).blocks)


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
    reach = [1] * len(spec.blocks) if x is None else _reach(spec, _point(x, spec.dim))
    rates = [b.im for b, k in zip(spec.blocks, reach) if k and b.im != 0]
    return _inverse_gcd(rates) if rates else Fraction(0)


def is_generic(spec):
    """Open dense class: semisimple, no zero rates, pairwise distinct rates."""
    if any(b.size != 1 or b.re == 0 for b in _require_spec(spec).blocks):
        return False
    rates = [b.re for b in spec.blocks]
    return len(set(rates)) == len(rates)


# ---------------------------------------------------------------------------
# class coincidence for generic generators


@record
class CoincidenceReport:
    generic: bool
    real_spectrum: Optional[bool]
    smooth_class_equals_lipschitz: Optional[bool]
    lipschitz_class_equals_hoelder: Optional[bool]
    to_json = _fields_to_json


def class_coincidence(spec):
    """For a generic generator the smooth, Lipschitz and Hoelder classes
    collapse together exactly when the spectrum is real; rotation splits
    them.  Outside the generic case the comparison is not determined by
    this criterion, so the fields stay None."""
    if not is_generic(spec):
        return CoincidenceReport(False, None, None, None)
    real = all(blk.im == 0 for blk in spec.blocks)
    return CoincidenceReport(True, real, real, real)
