"""Data model: parsing, serialization, transforms, materialize, ingestion."""

import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linflow import (
    ClusterAmbiguity,
    GeneratorSpec,
    JordanBlock,
    PreconditionViolated,
    RationalMatrix,
    SnapFailure,
    SpecParseError,
    materialize,
    parse_matrix,
    parse_rational,
    parse_spec,
    realify,
    scale_spec,
    serialize_matrix,
    serialize_spec,
    spec_from_matrix,
    time_reverse,
)

from linflow.matrices import _reach
from linflow.flows import FlowEvaluator

from conftest import random_spec


def S(*blks):
    return GeneratorSpec(tuple(JordanBlock(m, re, im) for m, re, im in blks))


# ---------------------------------------------------------------------------
# rationals and block validation


def test_parse_rational_accepts_ints_and_strings():
    assert parse_rational(3) == 3
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational(" 5 ") == 5


@pytest.mark.parametrize("bad", [True, 1.5, None, [1], "3/0", "x", ""])
def test_parse_rational_rejects(bad):
    with pytest.raises(SpecParseError):
        parse_rational(bad)


def test_block_normalizes_rotation_sign():
    assert JordanBlock(2, 1, -3) == JordanBlock(2, 1, 3)


@pytest.mark.parametrize("q", [Fraction(0), Fraction(5, 7), Fraction(10**30, 3)])
def test_block_keeps_a_nonnegative_fraction_rate_as_it_is(q):
    # scaled specs and pools build blocks from existing Fractions: no copy
    assert JordanBlock(1, 0, q).im is q
    flipped, kept = JordanBlock(2, -1, -q), JordanBlock(2, -1, q)
    assert flipped.im == q and type(flipped.im) is Fraction
    assert (flipped, hash(flipped), repr(flipped)) == (kept, hash(kept), repr(kept))


def test_block_dim():
    assert JordanBlock(3, 0, 0).dim == 3
    assert JordanBlock(3, 0, 1).dim == 6


@pytest.mark.parametrize("size", [0, -1, True, 1.0])
def test_block_rejects_bad_size(size):
    with pytest.raises(SpecParseError):
        JordanBlock(size, 1, 0)


def test_spec_is_order_free():
    a = S((1, 1, 0), (2, -1, 1))
    b = S((2, -1, 1), (1, 1, 0))
    assert a == b
    assert a.blocks == tuple(sorted(a.blocks, key=JordanBlock.sort_key))


# ---------------------------------------------------------------------------
# wire format


def test_spec_round_trip():
    spec = S((2, Fraction(-1, 2), 1), (1, 3, 0))
    again = parse_spec(json.dumps(serialize_spec(spec)))
    assert again == spec


def test_parse_spec_accepts_decoded_dict():
    spec = S((1, 0, Fraction(22, 7)))
    assert parse_spec(serialize_spec(spec)) == spec


def test_parse_spec_rejects_duplicate_keys():
    text = '{"blocks": [{"m": 1, "re": 0, "re": 1, "im": 0}]}'
    with pytest.raises(SpecParseError):
        parse_spec(text)


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        '{"blocks": "no"}',
        '{"blocks": [{"m": 0, "re": 1, "im": 0}]}',
        '{"blocks": [{"m": 1, "re": 1.5, "im": 0}]}',
        '{"blocks": [{"m": 1, "re": 1}]}',
        '{"blocks": [{"m": 1, "re": 1, "im": 0, "extra": 2}]}',
        "not json",
    ],
)
def test_parse_spec_rejects_malformed(text):
    with pytest.raises(SpecParseError):
        parse_spec(text)


# every refusal of the top-level wire object, and the first of its fields
WIRE_ERRORS = [
    (parse_spec, [], "generator: top level must be an object"),
    (parse_spec, 5, "generator: top level must be an object"),
    (parse_spec, {"blocks": [], "dim": 1, "b": 0}, "generator: unknown field(s) ['b', 'dim']"),
    (parse_spec, {}, "generator: missing 'blocks'"),
    (parse_spec, {"blocks": "no"}, "generator.blocks: must be a list"),
    (parse_matrix, [[1]], "matrix: top level must be an object"),
    (parse_matrix, None, "matrix: top level must be an object"),
    (parse_matrix, {"dim": 1, "rows": [[1]], "blocks": []}, "matrix: unknown field(s) ['blocks']"),
    (parse_matrix, {}, "matrix: missing 'dim'"),
    (parse_matrix, {"rows": [[1]]}, "matrix: missing 'dim'"),
    (parse_matrix, {"dim": 1}, "matrix: missing 'rows'"),
    (parse_matrix, {"dim": 0, "rows": []}, "matrix.dim: must be a positive integer"),
    (parse_matrix, {"dim": True, "rows": [[1]]}, "matrix.dim: must be a positive integer"),
    (parse_matrix, {"dim": 2, "rows": [[1, 0]]}, "matrix.rows: expected 2 rows"),
    (parse_matrix, {"dim": 2, "rows": [[1, 0], [0]]}, "matrix.rows[1]: expected 2 entries"),
]


@pytest.mark.parametrize("as_text", [False, True], ids=["dict", "text"])
@pytest.mark.parametrize("parse, doc, message", WIRE_ERRORS)
def test_wire_object_errors_keep_their_messages(parse, doc, message, as_text):
    with pytest.raises(SpecParseError) as info:
        parse(json.dumps(doc) if as_text else doc)
    assert str(info.value) == message


# a decoded dict, unlike JSON text, may mix key types: str keys come first
# in their order, then the others by repr, and no key is compared with
# one of another type
MIXED_KEYS = [
    (parse_spec, {1: 2, "x": 3}, "generator: unknown field(s) ['x', 1]"),
    (parse_matrix, {"dim": 1, "rows": [[1]], (0, "a"): 0, "b": 1, 2.5: 0},
     "matrix: unknown field(s) ['b', (0, 'a'), 2.5]"),
    (parse_spec, {"blocks": [{"m": 1, "re": 0, "im": 0, None: 1, "z": 2}]},
     "generator.blocks[0]: unknown field(s) ['z', None]"),
]


@pytest.mark.parametrize("parse, doc, message", MIXED_KEYS,
                         ids=["parse_spec", "parse_matrix", "_parse_block_obj"])
def test_unknown_keys_of_mixed_types_are_a_parse_error(parse, doc, message):
    with pytest.raises(SpecParseError) as info:
        parse(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("parse, what", [(parse_spec, "generator"), (parse_matrix, "matrix")])
def test_wire_text_errors_keep_their_messages(parse, what):
    with pytest.raises(SpecParseError) as info:
        parse("not json")
    assert str(info.value) == f"{what}: invalid JSON at line 1: Expecting value"
    with pytest.raises(SpecParseError) as info:
        parse(b'{"dim": 1,\n "dim": 2}')
    assert str(info.value) == "duplicate JSON key 'dim'"


@pytest.mark.parametrize("parse", [parse_spec, parse_matrix])
def test_deeply_nested_json_is_a_parse_error(parse):
    with pytest.raises(SpecParseError, match="nested too deeply"):
        parse("[" * 200000 + "]" * 200000)


def test_matrix_round_trip(rng):
    m = parse_matrix('{"dim": 2, "rows": [[0, "-1/3"], [1, 0]]}')
    assert m.rows[0][1] == Fraction(-1, 3)
    assert parse_matrix(serialize_matrix(m)) == m
    for _ in range(20):
        m = materialize(random_spec(rng, max_dim=6, denom=16))
        assert parse_matrix(serialize_matrix(m)) == m


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_fingerprint_hashes_the_sorted_key_wire_form(data):
    d = data.draw(st.integers(1, 4))
    entry = st.fractions(max_denominator=10**12) | st.integers(-10**40, 10**40).map(Fraction)
    rows = data.draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))
    m = RationalMatrix(tuple(map(tuple, rows)))
    payload = json.dumps(serialize_matrix(m), sort_keys=True)
    assert m.fingerprint() == hashlib.sha256(payload.encode()).hexdigest()[:16]


def test_parse_matrix_rejects_non_square():
    with pytest.raises(SpecParseError):
        parse_matrix('{"dim": 2, "rows": [[1, 2, 3], [0, 1, 0]]}')


def test_parse_matrix_rejects_dim_mismatch():
    with pytest.raises(SpecParseError):
        parse_matrix('{"dim": 3, "rows": [[1, 0], [0, 1]]}')


# ---------------------------------------------------------------------------
# spec transforms


@given(
    alpha=st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=8).filter(lambda q: q != 0),
    beta=st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=8).filter(lambda q: q != 0),
)
@settings(max_examples=60, deadline=None)
def test_scaling_is_a_group_action(alpha, beta):
    spec = S((2, Fraction(-1, 2), 1), (1, 3, 0), (1, 0, 2))
    assert scale_spec(scale_spec(spec, alpha), beta) == scale_spec(spec, alpha * beta)
    assert scale_spec(spec, 1) == spec


def test_scale_by_zero_rejected():
    with pytest.raises(PreconditionViolated):
        scale_spec(S((1, 1, 0)), 0)


def test_time_reverse_is_an_involution():
    spec = S((2, -1, 3), (1, 2, 0))
    assert time_reverse(time_reverse(spec)) == spec
    assert time_reverse(spec) == S((2, 1, 3), (1, -2, 0))


def test_realify_doubles_real_blocks_and_keeps_pairs():
    out = realify([(2, 1, 0), (1, -1, 2)])
    assert out == S((2, 1, 0), (2, 1, 0), (1, -1, 2))
    # rotation signs are orientation only
    assert realify([(1, 0, -3)]) == realify([(1, 0, 3)])


# ---------------------------------------------------------------------------
# materialize


def test_materialize_real_block_layout():
    m = materialize(S((2, -1, 0)))
    assert m.rows == ((Fraction(-1), Fraction(1)), (Fraction(0), Fraction(-1)))


def test_materialize_rotation_block_layout():
    a, b = Fraction(-1, 2), Fraction(3)
    m = materialize(S((2, a, b))).to_float()
    eye2 = np.eye(2)
    shift = np.diag([1.0], k=1)
    expected = np.block(
        [[float(a) * eye2 + shift, -float(b) * eye2],
         [float(b) * eye2, float(a) * eye2 + shift]]
    )
    assert np.array_equal(m, expected)


def _reach_oracle(spec, x):
    """1 + the largest chain position of a nonzero coordinate of x in each
    block, read from the evaluator's own layout (0 for none)."""
    flow = FlowEvaluator.from_spec(spec)
    out = []
    for lo, hi in zip(flow.offsets, flow.offsets[1:]):
        pos = flow.chain_pos[lo:hi][x[lo:hi] != 0]
        out.append(int(pos.max()) + 1 if pos.size else 0)
    return out


def test_reach_matches_the_evaluator_layout(rng):
    for _ in range(300):
        spec = random_spec(rng, max_dim=10, max_size=4)
        keep = rng.choice([0.1, 0.4, 0.8, 1.0])  # the share of coordinates drawn nonzero
        x = np.where(rng.random(spec.dim) < keep, rng.integers(-3, 4, spec.dim), 0.0)
        assert _reach(spec, x) == _reach_oracle(spec, x)
        assert _reach(spec, x.tolist()) == _reach(spec, x)
    assert _reach(S((3, -1, 2), (2, 0, 0)), [0, 0, 1, 0, 0, 0, 0, 0]) == [3, 0]
    assert _reach(S((3, -1, 2), (2, 0, 0)), [0, 0, 0, 0, 1, 0, 0, 0]) == [2, 0]
    assert _reach(S((3, -1, 2), (2, 0, 0)), [0, 0, 0, 0, 0, 0, 1, 0]) == [0, 1]


def test_materialize_is_block_diagonal_in_spec_order():
    spec = S((1, 1, 0), (1, -2, 0))
    m = materialize(spec).to_float()
    rates = sorted(np.diag(m))
    assert rates == [-2.0, 1.0]
    assert np.count_nonzero(m - np.diag(np.diag(m))) == 0


# ---------------------------------------------------------------------------
# ingestion


def test_round_trip_exact_tier(rng):
    for _ in range(40):
        spec = random_spec(rng, max_dim=8, denom=16)
        rec = spec_from_matrix(materialize(spec))
        assert rec.spec == spec
        assert rec.exact
        assert rec.residual == 0.0


def test_ingestion_survives_rational_conjugation():
    spec = S((2, -1, 0), (1, Fraction(1, 3), 2))
    a = materialize(spec)
    d = a.dim

    def shear(c):
        m = np.full((d, d), Fraction(0), dtype=object)
        for i in range(d):
            m[i, i] = Fraction(1)
        m[0, d - 1] = Fraction(c)
        return m

    af = np.array([[Fraction(x) for x in row] for row in a.rows], dtype=object)
    conj = shear(Fraction(3, 2)) @ af @ shear(Fraction(-3, 2))
    rec = spec_from_matrix(RationalMatrix(tuple(tuple(row) for row in conj)))
    assert rec.spec == spec
    assert rec.exact


def test_numeric_tier_on_nearly_rational_spectrum():
    eps = Fraction(1, 10**12)
    m = RationalMatrix(((Fraction(-1), 0), (0, Fraction(-1) + eps)))
    rec = spec_from_matrix(m)
    assert not rec.exact
    assert rec.spec == S((1, -1, 0), (1, -1, 0))
    assert rec.residual <= rec.tol


def test_snap_failure_on_irrational_spectrum():
    m = RationalMatrix(((0, 2), (1, 0)))  # eigenvalues +-sqrt(2)
    with pytest.raises(SnapFailure):
        spec_from_matrix(m)


@pytest.mark.parametrize(
    "kwargs",
    [{"tol": 0}, {"tol": -1.0}, {"tol": float("nan")}, {"max_denominator": 0}, {"tol": float("inf")}],
)
def test_ingestion_rejects_bad_tolerances(kwargs):
    with pytest.raises(PreconditionViolated):
        spec_from_matrix(RationalMatrix(((1, 0), (0, 2))), **kwargs)


@pytest.mark.parametrize(
    "rows, message",
    [
        # N +- sqrt(2) for N = 10^400: the numeric tier's float matrix overflows
        (((10**400, 1), (2, 10**400)), "float range"),
        # irrational spectrum: the numeric tier's float matrix overflows
        (((0, 1, 10**400), (2, 0, 0), (0, 0, 0)), "float range"),
        # N + 2^(1/3) w^k for N = 10^308: entries fit a float, but the numeric
        # tier's eigenvalues do not
        (((10**308, 1, 0), (0, 10**308, 1), (2, 0, 10**308)), "not finite"),
    ],
)
def test_entries_beyond_float_range_are_snap_failures(rows, message):
    with pytest.raises(SnapFailure, match=message):
        spec_from_matrix(RationalMatrix(rows))


@pytest.mark.parametrize(
    "rows, spec",
    [
        (((10**400, 0), (0, 1)), S((1, 1, 0), (1, 10**400, 0))),
        (((10**308, 0, 0), (0, 10**308, 1), (1, 0, 10**308)), S((3, 10**308, 0))),
    ],
)
def test_rational_spectra_beyond_float_range_are_certified(rows, spec):
    # the exact tier uses no float, so entries and charpoly coefficients
    # beyond the float range cost it nothing
    rec = spec_from_matrix(RationalMatrix(rows))
    assert (rec.spec, rec.residual, rec.exact) == (spec, 0.0, True)


def test_hostile_digit_entries_end_in_snap_failure():
    # a dense 4 x 4 of random 300-digit rationals has an irrational
    # spectrum; its characteristic polynomial is square-free, which the
    # modular test proves without a gcd over Q
    rng = random.Random(300)

    def entry():
        num = rng.randrange(10**299, 10**300) * rng.choice((-1, 1))
        return Fraction(num, rng.randrange(10**299, 10**300))

    m = RationalMatrix(tuple(tuple(entry() for _ in range(4)) for _ in range(4)))
    with pytest.raises(SnapFailure, match="no rational"):
        spec_from_matrix(m)


def test_cluster_ambiguity_between_tol_and_twice_tol():
    gap = Fraction(15, 10**10)  # 1.5e-9: above tol, below 2 tol
    m = RationalMatrix(((0, 0), (0, gap)))
    with pytest.raises(ClusterAmbiguity):
        spec_from_matrix(m, tol=1e-9)


def test_no_cluster_ambiguity_in_exact_tier():
    # the exact tier reads no tol: eigenvalues 0 and 1/1000, closer than
    # twice tol = 1e-3, are certified; ClusterAmbiguity is the numeric tier's
    m = RationalMatrix(((0, 0), (0, Fraction(1, 1000))))
    for tol in (1e-3, 1.0, 1e-300):
        rec = spec_from_matrix(m, tol=tol)
        assert (rec.spec, rec.residual, rec.exact) == (S((1, 0, 0), (1, Fraction(1, 1000), 0)), 0.0, True)


def test_defective_rotation_round_trip():
    # float eigenvalues of a defective block scatter far beyond tol; the
    # exact tier must still certify the structure
    spec = S((4, Fraction(-3, 7), Fraction(5, 3)))
    rec = spec_from_matrix(materialize(spec))
    assert rec.spec == spec
    assert rec.exact
