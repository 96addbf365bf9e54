"""Spectra, growth filtration, transforms, periods, genericity."""

import os
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import linflow
from linflow import invariants
from linflow import (
    GeneratorSpec,
    InternalCheckError,
    JordanBlock,
    NotBounded,
    NotStable,
    PreconditionViolated,
    distortion_subspace,
    growth_profile,
    is_bounded,
    is_generic,
    lyapunov_spectrum,
    max_block_size_at,
    minimal_period,
    partition_dims,
    refined_dim,
    rotation_decouple,
    semisimple_collapse,
    subspec,
    time_reverse,
    top_rate,
    top_size,
)

from conftest import brute_force_period


def S(*blks):
    return GeneratorSpec(tuple(JordanBlock(m, re, im) for m, re, im in blks))


rational_st = st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=6)
nonneg_st = st.fractions(min_value=Fraction(0), max_value=Fraction(3), max_denominator=6)


@st.composite
def spec_st(draw, max_blocks=3, max_size=3):
    n = draw(st.integers(1, max_blocks))
    blocks = []
    for _ in range(n):
        m = draw(st.integers(1, max_size))
        re = draw(rational_st)
        im = draw(nonneg_st)
        blocks.append(JordanBlock(m, re, im))
    return GeneratorSpec(tuple(blocks))


# ---------------------------------------------------------------------------
# spectrum, parts


def test_lyapunov_spectrum_counts_rotation_blocks_twice():
    spec = S((2, -1, 1), (1, 3, 0))
    assert lyapunov_spectrum(spec) == (-1, -1, -1, -1, 3)


def test_partition_dims():
    spec = S((1, -1, 0), (2, 0, 1), (1, 2, 0), (1, 0, 0))
    parts = partition_dims(spec)
    assert parts.stable == 1
    assert parts.central == 5
    assert parts.unstable == 1
    assert parts.hyperbolic == 2
    assert parts.semisimple == 3
    assert parts.defective == 4


def test_subspec_selects_blocks():
    spec = S((1, -1, 0), (2, 0, 1), (1, 2, 0))
    assert subspec(spec, "stable") == S((1, -1, 0))
    assert subspec(spec, "central") == S((2, 0, 1))
    assert subspec(spec, "hyperbolic") == S((1, -1, 0), (1, 2, 0))
    assert subspec(spec, "defective") == S((2, 0, 1))
    for part in ("everything", None, ["stable"]):
        with pytest.raises(PreconditionViolated):
            subspec(spec, part)


def test_parts_partition_the_dimension():
    spec = S((2, -1, 1), (1, 0, 2), (3, 1, 0), (1, 0, 0))
    parts = partition_dims(spec)
    assert parts.stable + parts.central + parts.unstable == spec.dim
    assert parts.semisimple + parts.defective == spec.dim
    assert parts.hyperbolic == parts.stable + parts.unstable


@given(spec=spec_st(max_blocks=4))
@settings(max_examples=200, deadline=None)
def test_one_pass_partition_dims_match_the_subspecs(spec):
    want = {part: subspec(spec, part).dim for part in invariants.PARTS}
    assert partition_dims(spec).to_json() == want


@given(spec=spec_st(max_blocks=4))
@settings(max_examples=100, deadline=None)
def test_spec_dim_is_the_sum_of_block_dims(spec):
    assert spec.dim == sum(blk.size * (2 if blk.im else 1) for blk in spec.blocks)
    # fixed at construction, outside eq, hash and repr
    twin = GeneratorSpec(tuple(reversed(spec.blocks)))
    assert twin == spec and hash(twin) == hash(spec)
    assert repr(spec) == f"GeneratorSpec(blocks={spec.blocks!r})"


# ---------------------------------------------------------------------------
# growth filtration


FILTRATION = S((3, -1, 0), (1, -1, 2), (1, -2, 0))


@pytest.mark.parametrize(
    "m,s,expected",
    [
        (1, -2, 1),
        (0, -2, 0),
        (1, Fraction(-3, 2), 1),
        (1, -1, 4),
        (2, -1, 5),
        (3, -1, 6),
        (0, -1, 1),
        (1, 0, 6),
        (0, -3, 0),
    ],
)
def test_refined_dim_table(m, s, expected):
    assert refined_dim(FILTRATION, m, s) == expected


def test_refined_dim_rejects_negative_degree():
    with pytest.raises(PreconditionViolated, match="m >= 0"):
        refined_dim(FILTRATION, -1, 0)


def test_refined_dim_rejects_negative_degree_under_python_O():
    # -O strips assert statements; the check must not be one
    src = str(Path(linflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "from linflow import GeneratorSpec, JordanBlock, PreconditionViolated, refined_dim\n"
        "try:\n"
        "    refined_dim(GeneratorSpec((JordanBlock(1, -1, 0),)), -1, 0)\n"
        "except PreconditionViolated:\n"
        "    print('PreconditionViolated')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "PreconditionViolated\n"


@given(spec=spec_st(), m=st.integers(0, 4), s=rational_st)
@settings(max_examples=80, deadline=None)
def test_refined_dim_monotone(spec, m, s):
    d1 = refined_dim(spec, m, s)
    assert 0 <= d1 <= spec.dim
    assert d1 <= refined_dim(spec, m + 1, s)
    assert d1 <= refined_dim(spec, m, s + 1)
    # above the top rate with full degree the whole space is captured
    assert refined_dim(spec, max(b.size for b in spec.blocks), top_rate(spec)) == spec.dim


def test_top_rate_and_size():
    spec = S((2, -1, 1), (3, -1, 0), (1, -4, 0))
    assert top_rate(spec) == -1
    assert top_size(spec) == 3
    assert max_block_size_at(spec, -4) == 1
    assert max_block_size_at(spec, 7) == 0
    with pytest.raises(PreconditionViolated):
        top_rate(GeneratorSpec(()))


def test_growth_profile_tabulates_refined_dims():
    prof = growth_profile(FILTRATION)
    assert prof.dim == 6
    assert prof.breakpoints == (-2, -1)
    assert prof.top_rate == -1 and prof.top_size == 3
    for m, s, d in prof.table:
        assert d == refined_dim(FILTRATION, m, s)
    assert dict(prof.max_size_at) == {-2: 1, -1: 3}


# ---------------------------------------------------------------------------
# distortion subspace


def test_distortion_subspace_examples():
    assert distortion_subspace(S((2, -1, 0))).coords == (0,)
    assert distortion_subspace(S((3, -1, 0))).coords == (0, 1)
    assert distortion_subspace(S((2, -1, 1))).coords == (0, 2)
    assert distortion_subspace(S((1, -1, 0), (1, -1, 0))).coords == ()
    assert distortion_subspace(S((1, -2, 0), (1, -1, 0))).coords == (0,)


def test_distortion_subspace_dim_matches_filtration():
    spec = S((2, -1, 1), (3, -1, 0), (1, -4, 0))
    sub = distortion_subspace(spec)
    assert sub.dim == refined_dim(spec, sub.top_size - 1, sub.top_rate)


def test_distortion_subspace_cross_check_raises(monkeypatch):
    # the coordinate count is checked against the growth filtration by a
    # raise, not an assert; a disagreeing filtration must surface
    monkeypatch.setattr(invariants, "refined_dim", lambda spec, m, s: -1)
    with pytest.raises(InternalCheckError):
        distortion_subspace(S((2, -1, 0)))


@pytest.mark.parametrize("spec", [S((1, 0, 1)), S((1, 1, 0)), S((1, -1, 0), (1, 0, 0))])
def test_distortion_subspace_needs_stability(spec):
    with pytest.raises(NotStable):
        distortion_subspace(spec)


# ---------------------------------------------------------------------------
# coarsening transforms


def test_collapse_rewrites_only_semisimple_rotations():
    spec = S((1, -1, 2), (2, -1, 2), (1, 3, 0))
    out = semisimple_collapse(spec)
    assert out == S((1, -1, 0), (1, -1, 0), (2, -1, 2), (1, 3, 0))


def test_decouple_rewrites_every_rotation():
    spec = S((1, -1, 2), (2, -1, 2), (1, 3, 0))
    out = rotation_decouple(spec)
    assert out == S((1, -1, 0), (1, -1, 0), (2, -1, 0), (2, -1, 0), (1, 3, 0))


@given(spec=spec_st())
@settings(max_examples=80, deadline=None)
def test_transform_laws(spec):
    coll, deco = semisimple_collapse(spec), rotation_decouple(spec)
    # idempotent
    assert semisimple_collapse(coll) == coll
    assert rotation_decouple(deco) == deco
    # decouple absorbs collapse
    assert rotation_decouple(coll) == deco
    # dimension and growth spectrum preserved
    for out in (coll, deco):
        assert out.dim == spec.dim
        assert lyapunov_spectrum(out) == lyapunov_spectrum(spec)
    # both commute with time reversal
    assert semisimple_collapse(time_reverse(spec)) == time_reverse(coll)
    assert rotation_decouple(time_reverse(spec)) == time_reverse(deco)


# ---------------------------------------------------------------------------
# per-block references for the forms and parts that `invariants` defines
# once on block triples


def _ref_in_part(block, part):
    if part == "stable":
        return block.re < 0
    if part == "central":
        return block.re == 0
    if part == "unstable":
        return block.re > 0
    if part == "hyperbolic":
        return block.re != 0
    if part == "semisimple":
        return block.size == 1
    if part == "defective":
        return block.size >= 2
    raise PreconditionViolated(f"unknown part {part!r}")


def _ref_subspec(spec, part):
    return GeneratorSpec(tuple(b for b in spec.blocks if _ref_in_part(b, part)))


def _ref_lyapunov_spectrum(spec):
    out = []
    for b in spec.blocks:
        out.extend([b.re] * b.dim)
    return tuple(sorted(out))


def _ref_semisimple_collapse(spec):
    out = []
    for b in spec.blocks:
        if b.size == 1 and b.im != 0:
            out.append(JordanBlock(1, b.re, 0))
            out.append(JordanBlock(1, b.re, 0))
        else:
            out.append(b)
    return GeneratorSpec(tuple(out))


def _ref_rotation_decouple(spec):
    out = []
    for b in spec.blocks:
        if b.im != 0:
            out.append(JordanBlock(b.size, b.re, 0))
            out.append(JordanBlock(b.size, b.re, 0))
        else:
            out.append(b)
    return GeneratorSpec(tuple(out))


@given(spec=spec_st(max_blocks=4))
@settings(max_examples=200, deadline=None)
def test_shared_forms_match_the_per_block_references(spec):
    assert lyapunov_spectrum(spec) == _ref_lyapunov_spectrum(spec)
    assert all(type(v) is Fraction for v in lyapunov_spectrum(spec))
    assert semisimple_collapse(spec) == _ref_semisimple_collapse(spec)
    assert rotation_decouple(spec) == _ref_rotation_decouple(spec)
    for part in invariants.PARTS:
        assert subspec(spec, part) == _ref_subspec(spec, part)


# ---------------------------------------------------------------------------
# boundedness and periods


def test_is_bounded():
    assert is_bounded(S((1, 0, 1), (1, 0, 0)))
    assert not is_bounded(S((2, 0, 1)))
    assert not is_bounded(S((1, -1, 0)))


def test_minimal_period_needs_bounded_flow():
    with pytest.raises(NotBounded):
        minimal_period(S((1, -1, 0)))


def test_minimal_period_rejects_bad_point():
    with pytest.raises(PreconditionViolated):
        minimal_period(S((1, 0, 1)), x=[1.0])


@pytest.mark.parametrize(
    "spec,q",
    [
        (S((1, 0, 1)), 1),
        (S((1, 0, 2), (1, 0, 3)), 1),
        (S((1, 0, Fraction(2, 3)), (1, 0, Fraction(1, 2))), 6),
        (S((1, 0, 0)), 0),
    ],
)
def test_minimal_period_exact_values(spec, q):
    assert minimal_period(spec) == q


def test_minimal_period_sees_only_supported_blocks():
    spec = S((1, 0, 2), (1, 0, 3))
    assert minimal_period(spec, x=[1.0, 1.0, 0.0, 0.0]) == Fraction(1, 2)
    assert minimal_period(spec, x=[0.0, 0.0, 0.0, 0.0]) == 0


@pytest.mark.parametrize(
    "spec",
    [
        S((1, 0, 1)),
        S((1, 0, 2), (1, 0, 3)),
        S((1, 0, Fraction(2, 3)), (1, 0, Fraction(1, 2))),
    ],
)
def test_minimal_period_against_grid_search(spec):
    q = minimal_period(spec)
    predicted = float(q) * 2 * np.pi
    x = np.ones(spec.dim)
    found = brute_force_period(spec, x, predicted)
    assert abs(found - predicted) < 1e-4 * predicted


def _ref_minimal_period(spec, x=None):
    """1 / gcd of the supported rotation rates, the gcd of Fractions in
    lowest terms being gcd(numerators) / lcm(denominators)."""
    rates, off = [], 0
    for b in spec.blocks:
        if b.im and (x is None or any(v != 0 for v in x[off : off + b.dim])):
            rates.append(b.im)
        off += b.dim
    if not rates:
        return Fraction(0)
    return 1 / Fraction(gcd(*(r.numerator for r in rates)), lcm(*(r.denominator for r in rates)))


@st.composite
def bounded_spec_st(draw):
    n = draw(st.integers(1, 4))
    return GeneratorSpec(tuple(JordanBlock(1, 0, draw(nonneg_st)) for _ in range(n)))


@given(spec=bounded_spec_st(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_minimal_period_matches_the_one_over_gcd_formula(spec, data):
    assert minimal_period(spec) == _ref_minimal_period(spec)
    x = data.draw(st.lists(st.sampled_from([0.0, 1.0, -2.5]), min_size=spec.dim, max_size=spec.dim))
    assert minimal_period(spec, x) == _ref_minimal_period(spec, x)


# ---------------------------------------------------------------------------
# genericity


@pytest.mark.parametrize(
    "spec,expected",
    [
        (S((1, -1, 1)), True),
        (S((1, 1, 0), (1, 2, 0)), True),
        (S((1, 1, 0), (1, 1, 2)), False),  # shared growth rate
        (S((1, 0, 1)), False),  # central
        (S((2, 1, 0)), False),  # defective
        (S((1, 1, 2), (1, 2, 2)), True),
    ],
)
def test_is_generic(spec, expected):
    assert is_generic(spec) is expected
