"""Similarity predicates, canonical scaled keys, and the reference scan.

Similarity of block-diagonal generators is multiset equality, so all four
predicates reduce to comparisons of (transformed) block multisets.  The
classifier decides "form(a) == form(alpha * b) for some alpha != 0" by
comparing `canonical_key`s.  Such an alpha carries the rate vector of b
onto that of a, so it exists only when the two are projectively equal.
The one normaliser, `_projective`, picks a representative of that
projective class: it clears the denominators of the nonzero growth rates
(of the nonzero rotation rates when every growth rate is 0) to D and
divides by their gcd g, so that c = D/g (`invariants._inverse_gcd`) turns
the spec into (re, im, size) triples whose growth vector is a primitive
integer vector; only its sign is left, and the key takes the smaller form
over +c and -c.  The forms themselves, and the transforms and parts the
predicates below compare, are defined once in `invariants`.

`scaling_candidates` and `find_scaling` are the older scan over a finite
list of alphas: any usable alpha must match either a ratio of nonzero
growth rates (the spectra must align) or a ratio of nonzero rotation rates
(the central parts must align); when neither side has such data, scaling
acts trivially and alpha = 1 stands in for all.  The classifier no longer
calls them; they stay as the independent oracle its tests compare against.
`normalising_scalings`, the unit-size normaliser, serves `catalog2d`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .blocks import scale_spec, serialize_spec
from .errors import DimMismatch
from .invariants import (
    _inverse_gcd,
    _triples,
    lyapunov_spectrum,
    rotation_decouple,
    semisimple_collapse,
    subspec,
)

__all__ = [
    "ScalingCertificate",
    "similar",
    "lyapunov_similar",
    "lipschitz_similar",
    "lipschitz_similar_by_parts",
    "kinematic_similar",
    "normalising_scalings",
    "canonical_key",
    "scaling_candidates",
    "find_scaling",
]


def similar(a, b):
    """Linear similarity: equal block multisets."""
    return a.blocks == b.blocks


def lyapunov_similar(a, b):
    """Equal Lyapunov spectra (equal dims included, since lengths match)."""
    return lyapunov_spectrum(a) == lyapunov_spectrum(b)


def lipschitz_similar(a, b):
    """Similarity after forgetting rotation rates on size-1 blocks."""
    return similar(semisimple_collapse(a), semisimple_collapse(b))


def lipschitz_similar_by_parts(a, b):
    """Equivalent formulation: same spectrum and same defective part.

    Kept as an independent route.  The classifier compares the same data
    (spectrum, defective part) as its second Lipschitz key and cross-checks
    it against the collapse key on every decision.
    """
    return lyapunov_similar(a, b) and similar(
        subspec(a, "defective"), subspec(b, "defective")
    )


def kinematic_similar(a, b):
    """Similarity after forgetting rotation rates on every block."""
    return similar(rotation_decouple(a), rotation_decouple(b))


def normalising_scalings(spec):
    """Scalings c that bring spec to unit size, positive first.

    With some growth rate nonzero, let m = max|re|: c = 1/m if +m occurs and
    c = -1/m if -m occurs.  Otherwise c = 1/max im, or 1 when every rate is
    zero.  The set of scaled specs scale_spec(spec, c) is the same for spec
    and for every nonzero rescaling of it.
    """
    top = max((abs(blk.re) for blk in spec.blocks), default=0)
    if top:
        res = {blk.re for blk in spec.blocks}
        return tuple(sign / top for sign in (1, -1) if sign * top in res)
    top = max((blk.im for blk in spec.blocks), default=0)
    return (1 / top,) if top else (Fraction(1),)


def _projective(spec):
    """(c, triples, negated): the projective normalisation of spec.

    c = D/g > 0 is `invariants._inverse_gcd` of the nonzero growth
    rates (of the nonzero rotation rates when every growth rate is 0): D
    clears their denominators and g is the gcd of the cleared integers;
    c = 1 when every rate is 0.
    triples are the sorted (c*re, c*im, size) of the blocks, with every
    c*re an int; c*im is an int where it is whole and a Fraction
    otherwise.  negated are the sorted triples of -c, or None when every
    growth rate is 0 and -c gives the same triples.
    """
    blocks = spec.blocks
    growth = [blk.re for blk in blocks if blk.re]
    rates = growth or [blk.im for blk in blocks if blk.im]
    if not rates:
        return Fraction(1), _triples(spec), None
    c = _inverse_gcd(rates)
    den, g = c.numerator, c.denominator
    triples = []
    for blk in blocks:
        re, im = blk.re, blk.im
        if im:
            num, div = im.numerator * den, im.denominator * g
            im = num // div if num % div == 0 else Fraction(num, div)
        else:
            im = 0
        triples.append((re.numerator * (den // re.denominator) // g, im, blk.size))
    # c > 0 keeps the blocks' sort order; -c reverses it on re
    negated = tuple(sorted((-re, im, m) for re, im, m in triples)) if growth else None
    return c, tuple(triples), negated


def _projective_key(projective, form):
    """(key, c) of canonical_key from the data of `_projective`."""
    c, triples, negated = projective
    key = form(triples)
    if negated is not None:
        other = form(negated)
        if other < key:
            return other, -c
    return key, c


def canonical_key(spec, form):
    """(key, c): the smaller of form(c * spec) and form(-c * spec) for the
    projective normaliser c = D/g of `_projective`, with the c that
    reaches it.

    form maps the sorted (re, im, size) triples of a scaled spec to a
    comparable tuple.  It must keep every growth rate and, when all of them
    vanish, every rotation rate, and form(alpha * X) must depend only on
    alpha and form(X).  Then two specs have equal keys exactly when
    form(a) == form(scale_spec(b, alpha)) for some alpha != 0, and
    alpha = c_b / c_a is one.  -c is tried only when some growth rate is
    nonzero (otherwise it changes nothing), and ties go to +c, so that
    alpha is positive whenever -alpha matches too.
    """
    return _projective_key(_projective(spec), form)


def scaling_candidates(a, b):
    """Finite list of alphas that could make a relate to alpha * b.

    Ordered by ascending |alpha| with positive before negative, and
    deduplicated.  See the module docstring for the completeness argument;
    it is additionally fuzzed in the test suite.
    """
    if a.dim != b.dim:
        raise DimMismatch(f"dims differ: {a.dim} vs {b.dim}")
    res_a = {blk.re for blk in a.blocks if blk.re != 0}
    res_b = {blk.re for blk in b.blocks if blk.re != 0}
    ims_a = {blk.im for blk in a.blocks if blk.im != 0}
    ims_b = {blk.im for blk in b.blocks if blk.im != 0}
    if res_a and res_b:
        ratios = {r / s for r in res_a for s in res_b}
    elif ims_a and ims_b:
        ratios = {p / q for p in ims_a for q in ims_b}
    else:
        ratios = {Fraction(1)}
    cands = {x for r in ratios for x in (abs(r), -abs(r))}
    return tuple(sorted(cands, key=lambda f: (abs(f), f < 0)))


@dataclass(frozen=True)
class ScalingCertificate:
    """A verified alpha: predicate(a, scale_spec(b, alpha)) held."""

    alpha: Fraction
    predicate: str
    witness: dict

    def to_json(self):
        num, den = self.alpha.numerator, self.alpha.denominator
        return {
            "alpha": num if den == 1 else f"{num}/{den}",
            "predicate": self.predicate,
            "witness": self.witness,
        }


def find_scaling(a, b, predicate, name="predicate"):
    """First scaling candidate (by the documented order) passing predicate.

    predicate is called as predicate(a, scaled_b).  Returns None when no
    candidate passes; by the completeness argument this means no nonzero
    alpha passes at all, for every predicate the classifier uses.  This is
    the reference scan: the classifier decides by canonical keys and does
    not call it, and the tests check the two against each other.
    """
    for alpha in scaling_candidates(a, b):
        scaled = scale_spec(b, alpha)
        if predicate(a, scaled):
            return ScalingCertificate(
                alpha=alpha,
                predicate=name,
                witness={
                    "scaled_right_generator": serialize_spec(scaled),
                    "left_generator": serialize_spec(a),
                },
            )
    return None
