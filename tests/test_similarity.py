"""Similarity grades, candidate scalings, certified search."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from linflow import (
    DimMismatch,
    GeneratorSpec,
    JordanBlock,
    kinematic_similar,
    lipschitz_similar,
    lipschitz_similar_by_parts,
    lyapunov_similar,
    scale_spec,
    scaling_candidates,
    similar,
)
from linflow.similarity import canonical_key, normalising_scalings

from conftest import find_scaling


def S(*blks):
    return GeneratorSpec(tuple(JordanBlock(m, re, im) for m, re, im in blks))


rational_st = st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=6)
nonneg_st = st.fractions(min_value=Fraction(0), max_value=Fraction(3), max_denominator=6)
alpha_st = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=8
).filter(lambda q: q != 0)


@st.composite
def spec_st(draw, max_blocks=3, max_size=3):
    n = draw(st.integers(1, max_blocks))
    blocks = [
        JordanBlock(draw(st.integers(1, max_size)), draw(rational_st), draw(nonneg_st))
        for _ in range(n)
    ]
    return GeneratorSpec(tuple(blocks))


# ---------------------------------------------------------------------------
# the four grades


def test_similar_is_multiset_equality():
    assert similar(S((1, 1, 0), (2, -1, 1)), S((2, -1, 1), (1, 1, 0)))
    assert not similar(S((2, 1, 0)), S((1, 1, 0), (1, 1, 0)))


def test_lyapunov_similar_forgets_block_structure():
    assert lyapunov_similar(S((2, -1, 0)), S((1, -1, 0), (1, -1, 0)))
    assert lyapunov_similar(S((1, -1, 2)), S((2, -1, 0)))
    assert not lyapunov_similar(S((1, -1, 0)), S((1, 1, 0)))


def test_lipschitz_similar_forgets_semisimple_rotations_only():
    assert lipschitz_similar(S((1, -1, 2)), S((1, -1, 0), (1, -1, 0)))
    assert lipschitz_similar(S((1, -1, 2)), S((1, -1, 3)))
    assert not lipschitz_similar(S((2, -1, 0)), S((1, -1, 0), (1, -1, 0)))
    assert not lipschitz_similar(S((2, -1, 2)), S((2, -1, 3)))


def test_kinematic_similar_forgets_every_rotation():
    assert kinematic_similar(S((2, -1, 2)), S((2, -1, 3)))
    assert kinematic_similar(S((2, -1, 2)), S((2, -1, 0), (2, -1, 0)))
    assert not kinematic_similar(S((2, -1, 2)), S((1, -1, 0), (1, -1, 0), (2, -1, 0)))


@given(a=spec_st(), b=spec_st())
@settings(max_examples=150, deadline=None)
def test_lipschitz_routes_agree(a, b):
    assert lipschitz_similar(a, b) == lipschitz_similar_by_parts(a, b)


@given(a=spec_st())
@settings(max_examples=60, deadline=None)
def test_grades_coarsen_in_order(a):
    # each grade implies the next on identical pairs rebuilt through scaling
    b = scale_spec(scale_spec(a, Fraction(3, 2)), Fraction(2, 3))
    assert similar(a, b)
    assert lipschitz_similar(a, b)
    assert kinematic_similar(a, b)
    assert lyapunov_similar(a, b)


# ---------------------------------------------------------------------------
# candidate scalings


def test_candidates_from_growth_rates():
    a = S((1, 1, 0), (1, 2, 0))
    b = S((1, 3, 0), (1, 3, 0))
    assert scaling_candidates(a, b) == (
        Fraction(1, 3),
        Fraction(-1, 3),
        Fraction(2, 3),
        Fraction(-2, 3),
    )


def test_candidates_fall_back_to_rotation_rates():
    a = S((1, 0, 2))
    b = S((1, 0, 3))
    assert scaling_candidates(a, b) == (Fraction(2, 3), Fraction(-2, 3))


def test_candidates_fall_back_to_unit():
    a = S((2, 0, 0))
    b = S((1, 0, 0), (1, 0, 0))
    assert scaling_candidates(a, b) == (Fraction(1), Fraction(-1))


def test_candidates_require_equal_dims():
    with pytest.raises(DimMismatch):
        scaling_candidates(S((1, 1, 0)), S((2, 1, 0)))


def test_candidates_mix_rates_before_rotations():
    # one side has growth rates, the other only rotations: growth wins
    a = S((1, 1, 0), (1, 0, 2))
    b = S((1, -2, 0), (1, 0, 5))
    cands = scaling_candidates(a, b)
    assert cands == (Fraction(1, 2), Fraction(-1, 2))


@given(a=spec_st(), alpha=alpha_st)
@settings(max_examples=120, deadline=None)
def test_candidates_complete_for_planted_scalings(a, alpha):
    # b is a rescaled copy, so some candidate must reveal each grade
    b = scale_spec(a, 1 / alpha)
    for pred in (similar, lipschitz_similar, lyapunov_similar, kinematic_similar):
        cert = find_scaling(a, b, pred)
        assert cert is not None
        assert pred(a, scale_spec(b, cert.alpha))
        assert cert.alpha in scaling_candidates(a, b)


def test_find_scaling_returns_first_candidate_in_order():
    a = S((1, 1, 0), (1, -1, 0))
    cert = find_scaling(a, a, similar)
    # both +1 and -1 work on a symmetric spectrum; order prefers +1
    assert cert.alpha == 1


def test_find_scaling_reports_witness():
    a = S((1, 2, 0))
    b = S((1, 1, 0))
    cert = find_scaling(a, b, similar, name="linear")
    assert cert.alpha == 2
    assert cert.predicate == "linear"
    assert cert.witness["scaled_right_generator"] == {
        "blocks": [{"m": 1, "re": 2, "im": 0}]
    }
    assert cert.to_json()["alpha"] == 2


def test_find_scaling_none_when_no_candidate_works():
    assert find_scaling(S((1, 1, 0)), S((1, 1, 0)), lambda a, b: False) is None


# ---------------------------------------------------------------------------
# normalising scalings and canonical keys


def test_normalising_scalings_by_top_growth_rate():
    assert normalising_scalings(S((1, 2, 0), (1, -1, 3))) == (Fraction(1, 2),)
    assert normalising_scalings(S((1, -4, 0), (1, 1, 0))) == (Fraction(-1, 4),)
    # both signs of the top rate occur: positive first
    assert normalising_scalings(S((1, -2, 0), (2, 2, 1))) == (Fraction(1, 2), Fraction(-1, 2))


def test_normalising_scalings_fall_back_to_rotation_then_unit():
    assert normalising_scalings(S((1, 0, 3), (2, 0, Fraction(1, 2)))) == (Fraction(1, 3),)
    assert normalising_scalings(S((2, 0, 0), (1, 0, 0))) == (Fraction(1),)


def _linear(triples):
    return triples


@st.composite
def key_spec_st(draw):
    """Any spec, or one with zero growth, pure rotation, or a spectrum
    symmetric under negation (a tie between +c and -c)."""
    kind = draw(st.sampled_from(["any", "zero-growth", "rotation", "symmetric"]))
    a = draw(spec_st())
    if kind == "zero-growth":
        return GeneratorSpec(tuple(JordanBlock(blk.size, 0, blk.im) for blk in a.blocks))
    if kind == "rotation":
        return GeneratorSpec(tuple(JordanBlock(blk.size, 0, blk.im or 1) for blk in a.blocks))
    if kind == "symmetric":
        return GeneratorSpec(a.blocks + scale_spec(a, -1).blocks)
    return a


def _unit_key(spec):
    """The unit-size key that canonical keys replaced: (key, c) over the
    normalising scalings, ties to the first."""
    return min(
        ((tuple(blk.sort_key() for blk in scale_spec(spec, c).blocks), c)
         for c in normalising_scalings(spec)),
        key=lambda pair: pair[0],
    )


@given(a=key_spec_st(), alpha=alpha_st)
@settings(max_examples=200, deadline=None)
def test_canonical_key_is_scale_invariant_and_certifies(a, alpha):
    b = scale_spec(a, alpha)
    (key_a, c_a), (key_b, c_b) = canonical_key(a, _linear), canonical_key(b, _linear)
    assert key_a == key_b
    found = c_b / c_a
    assert similar(a, scale_spec(b, found))
    # the same alpha as the unit-size key, positive when -alpha matches too
    assert found == _unit_key(b)[1] / _unit_key(a)[1]
    if similar(a, scale_spec(b, -found)):
        assert found > 0
    # the key is the linear form of c_a * a, whose growth rates (else
    # rotation rates) form a primitive integer vector; c = 1 without rates
    unit = scale_spec(a, c_a)
    assert key_a == tuple(blk.sort_key() for blk in unit.blocks)
    rates = [blk.re for blk in unit.blocks if blk.re] or [blk.im for blk in unit.blocks if blk.im]
    if rates:
        assert all(r.denominator == 1 for r in rates)
        assert gcd(*(r.numerator for r in rates)) == 1
    else:
        assert c_a == 1
