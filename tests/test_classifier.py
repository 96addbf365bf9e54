"""Relation decisions, planar catalog, coincidence report, implication audit."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linflow import (
    Decision,
    GeneratorSpec,
    IMPLICATION_EDGES,
    JordanBlock,
    Relation,
    ScalingCertificate,
    catalog2d,
    class_coincidence,
    classify,
    implication_audit,
    kinematic_similar,
    lipschitz_similar,
    lipschitz_similar_by_parts,
    lyapunov_similar,
    partition_dims,
    rotation_decouple,
    scale_spec,
    semisimple_collapse,
    serialize_spec,
    similar,
    subspec,
)
from linflow import similarity
from linflow.classifier import _topological_label_2d
from linflow.errors import DimMismatch, InternalCheckError, LinFlowError, UnknownRelation

from conftest import find_scaling, random_spec


def S(*blks):
    return GeneratorSpec(tuple(JordanBlock(m, re, im) for m, re, im in blks))


ALWAYS_DECIDED = (
    "LinEquiv", "DiffEquiv", "HoelderEquiv", "LipEquiv",
    "LinConj", "DiffConj", "HoelderConj", "LipConj", "PwLipConj",
)


# ---------------------------------------------------------------------------
# relation plumbing


def test_relation_from_string_is_forgiving():
    assert Relation.from_string("lipequiv") is Relation.LIP_EQUIV
    assert Relation.from_string("PwLipConj") is Relation.PW_LIP_CONJ
    with pytest.raises(ValueError):
        Relation.from_string("almostEquiv")


def test_an_unknown_relation_is_a_typed_value_error():
    # a LinFlowError for library callers, still a ValueError for the CLI's exit 1
    with pytest.raises(UnknownRelation, match=r"unknown relation 'Nope'; expected one of LinEquiv") as info:
        Relation.from_string("Nope")
    assert isinstance(info.value, LinFlowError) and isinstance(info.value, ValueError)
    with pytest.raises(UnknownRelation):
        classify("Nope", S((1, -1, 0)), S((1, -1, 0)))


def test_classify_accepts_relation_strings():
    a = S((1, -1, 0))
    v = classify("TopEquiv", a, a)
    assert v.relation is Relation.TOP_EQUIV
    assert v.decision is Decision.YES


def test_dim_mismatch_is_a_no_not_an_error():
    v = classify("LinEquiv", S((1, 1, 0)), S((2, 1, 0)))
    assert v.decision is Decision.NO
    assert v.trace[0].step == "dimension"
    assert v.scaling is None


def test_verdict_serializes():
    v = classify("LipEquiv", S((1, -1, 2)), S((1, -2, 0), (1, -2, 0)))
    payload = v.to_json()
    assert payload["relation"] == "LipEquiv"
    assert payload["decision"] == "Yes"
    assert payload["scaling"]["alpha"] == "1/2"
    assert payload["trace"] == [
        {"step": "dimension", "outcome": "ok", "detail": "2 == 2"},
        {
            "step": "lipschitz",
            "outcome": "pass",
            "detail": "alpha = 1/2, canonical scaled keys equal, both routes",
        },
    ]


# ---------------------------------------------------------------------------
# fixture verdicts


def test_defective_vs_diagonal_sits_between_lipschitz_and_hoelder():
    a, b = S((2, -1, 0)), S((1, -1, 0), (1, -1, 0))
    assert classify("HoelderEquiv", a, b).decision is Decision.YES
    assert classify("HoelderConj", a, b).decision is Decision.YES
    assert classify("LipEquiv", a, b).decision is Decision.NO
    assert classify("LipConj", a, b).decision is Decision.NO
    assert classify("LinEquiv", a, b).decision is Decision.NO


def test_pointwise_grade_separates_from_uniform():
    a, b = S((1, 1, 0), (1, 1, 0)), S((2, 1, 0))
    assert classify("PwLipEquiv", a, b).decision is Decision.YES
    assert classify("PwLipConj", a, b).decision is Decision.NO
    assert classify("LipEquiv", a, b).decision is Decision.NO


def test_rotation_speed_is_a_pointwise_conjugacy_invariant():
    rot = (1, 0, Fraction(355, 113))
    for a_rate, expected in [(1, Decision.YES), (2, Decision.NO), (Fraction(1, 2), Decision.NO)]:
        a = S((1, -a_rate, 0), rot)
        b = S((1, -1, 0), rot)
        assert classify("PwLipConj", a, b).decision is expected


def test_equivalences_allow_scaling_conjugacies_do_not():
    a, b = S((1, -2, 0)), S((1, -1, 0))
    assert classify("LinEquiv", a, b).decision is Decision.YES
    assert classify("LinConj", a, b).decision is Decision.NO
    assert classify("LinConj", a, scale_spec(b, 2)).decision is Decision.YES


def test_smooth_equals_linear_grade():
    pairs = [
        (S((1, -2, 0)), S((1, -1, 0))),
        (S((2, -1, 0)), S((1, -1, 0), (1, -1, 0))),
        (S((1, 0, 2)), S((1, 0, 3))),
    ]
    for a, b in pairs:
        assert (
            classify("DiffEquiv", a, b).decision
            is classify("LinEquiv", a, b).decision
        )
        assert (
            classify("DiffConj", a, b).decision
            is classify("LinConj", a, b).decision
        )


# ---------------------------------------------------------------------------
# decidability scope


def test_always_decided_relations_never_return_undecided(rng):
    for _ in range(60):
        a = random_spec(rng, max_dim=6)
        b = random_spec(rng, max_dim=6)
        for name in ALWAYS_DECIDED:
            assert classify(name, a, b).decision is not Decision.UNDECIDED


def test_hyperbolic_index_decides_pointwise_equivalence():
    a = S((1, -1, 0), (1, 2, 0), (1, 3, 0))
    b = S((1, -5, 0), (2, 1, 0))
    assert classify("PwLipEquiv", a, b).decision is Decision.YES
    c = S((1, 1, 0), (1, 2, 0), (1, 5, 0))
    assert classify("PwLipEquiv", a, c).decision is Decision.NO
    # time reversal swaps the two dimensions; the unordered pair matches
    d = S((2, -1, 0), (1, 5, 0))
    assert classify("PwLipEquiv", a, d).decision is Decision.YES


def test_kinematic_scan_decides_some_central_equivalences():
    a, b = S((2, 0, 1)), S((2, 0, 2))
    v = classify("PwLipEquiv", a, b)
    assert v.decision is Decision.YES
    assert v.scaling is not None and abs(v.scaling.alpha) == Fraction(1, 2)


def test_undecided_survives_when_no_criterion_applies():
    a = S((1, 0, 1), (1, -1, 0), (1, 1, 0))
    b = S((1, 0, 2), (1, -1, 0), (1, 1, 0))
    for name in ("PwLipEquiv", "TopEquiv"):
        v = classify(name, a, b)
        assert v.decision is Decision.UNDECIDED
        assert v.trace[-1].step == "scope"


# ---------------------------------------------------------------------------
# topological branch


def test_topological_line_flows():
    assert classify("TopEquiv", S((1, 0, 0)), S((1, 0, 0))).decision is Decision.YES
    assert classify("TopEquiv", S((1, 0, 0)), S((1, 5, 0))).decision is Decision.NO
    assert classify("TopEquiv", S((1, -2, 0)), S((1, 3, 0))).decision is Decision.YES


PLANAR_REPS = {
    "zero": S((1, 0, 0), (1, 0, 0)),
    "shear": S((2, 0, 0)),
    "center": S((1, 0, 3)),
    "saddle": S((1, -1, 0), (1, 2, 0)),
    "degenerate-line": S((1, 0, 0), (1, -3, 0)),
    "node": S((1, -1, 1)),
}


def test_topological_planar_labels_partition():
    names = list(PLANAR_REPS)
    for i, na in enumerate(names):
        for nb in names[i:]:
            v = classify("TopEquiv", PLANAR_REPS[na], PLANAR_REPS[nb])
            expected = Decision.YES if na == nb else Decision.NO
            assert v.decision is expected, (na, nb)


def test_topological_planar_same_label_pairs():
    assert classify("TopEquiv", S((1, -1, 1)), S((2, -2, 0))).decision is Decision.YES
    assert classify("TopEquiv", S((1, -1, 1)), S((1, 2, 0), (1, 3, 0))).decision is Decision.YES
    assert classify("TopEquiv", S((1, 0, 3)), S((1, 0, Fraction(1, 7)))).decision is Decision.YES


def test_topological_hyperbolic_dims_rule():
    a = S((1, -1, 0), (1, -2, 0), (1, 1, 0))
    b = S((2, -3, 0), (1, 7, 0))
    assert classify("TopEquiv", a, b).decision is Decision.YES
    c = S((1, -1, 0), (1, 1, 0), (1, 2, 0))
    assert classify("TopEquiv", a, c).decision is Decision.YES  # unordered
    d = S((1, 1, 0), (1, 2, 0), (1, 3, 0))
    assert classify("TopEquiv", a, d).decision is Decision.NO


def test_hoelder_scan_decides_central_rotation_pairs():
    a, b = S((2, 0, 1)), S((2, 0, 3))
    v = classify("TopEquiv", a, b)
    assert v.decision is Decision.YES


# ---------------------------------------------------------------------------
# planar catalog


def test_catalog_requires_dimension_two():
    with pytest.raises(DimMismatch):
        catalog2d(S((3, 1, 0)))


def test_catalog_rows_for_a_fast_spiral():
    rows = catalog2d(S((1, 2, 6)))
    assert rows["similar"].representative == S((1, 1, 3))
    assert rows["similar"].scaling == Fraction(1, 2)
    assert rows["lipschitz"].representative == S((1, 1, 0), (1, 1, 0))
    assert rows["lyapunov"].representative == S((1, 1, 0), (1, 1, 0))
    assert rows["topological"].label == "node"
    assert rows["topological"].scaling is None


def test_catalog_entry_serializes():
    entry = catalog2d(S((1, 2, 6)))["similar"]
    payload = entry.to_json()
    assert payload["row"] == "similar"
    assert payload["scaling"] == "1/2"


def test_catalog_is_idempotent_on_representatives(rng):
    for _ in range(40):
        spec = random_spec(rng, max_dim=2)
        if spec.dim != 2:
            continue
        rows = catalog2d(spec)
        for row in ("similar", "lipschitz", "lyapunov"):
            rep = rows[row].representative
            again = catalog2d(rep)
            assert again[row].representative == rep


def test_catalog_is_scale_stable(rng):
    for _ in range(40):
        spec = random_spec(rng, max_dim=2)
        if spec.dim != 2:
            continue
        beta = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        if rng.random() < 0.5:
            beta = -beta
        rows = catalog2d(spec)
        scaled_rows = catalog2d(scale_spec(spec, beta))
        for row in ("similar", "lipschitz", "lyapunov", "topological"):
            assert scaled_rows[row].representative == rows[row].representative


# ---------------------------------------------------------------------------
# coincidence report


def test_coincidence_generic_real_spectrum():
    rep = class_coincidence(S((1, -1, 0), (1, 2, 0)))
    assert rep.generic and rep.real_spectrum
    assert rep.smooth_class_equals_lipschitz
    assert rep.lipschitz_class_equals_hoelder


def test_coincidence_generic_rotating_spectrum():
    rep = class_coincidence(S((1, -1, 1), (1, 2, 0)))
    assert rep.generic and not rep.real_spectrum
    assert rep.smooth_class_equals_lipschitz is False
    assert rep.lipschitz_class_equals_hoelder is False


def test_coincidence_outside_generic_class():
    rep = class_coincidence(S((2, -1, 0)))
    assert rep == class_coincidence(S((1, 0, 1)))
    assert not rep.generic
    assert rep.real_spectrum is None


# ---------------------------------------------------------------------------
# implication audit


def test_edge_list_covers_every_relation():
    mentioned = {x for edge in IMPLICATION_EDGES for x in edge}
    assert mentioned == set(Relation)


def test_audit_reports_all_relations_clean():
    a, b = S((2, -1, 0)), S((1, -1, 0), (1, -1, 0))
    report = implication_audit(a, b)
    assert report.clean
    assert len(report.verdicts) == len(Relation)
    assert report.violations == ()
    payload = report.to_json()
    assert payload["clean"] is True


def test_audit_skips_undecided_edges():
    a = S((1, 0, 1), (1, -1, 0), (1, 1, 0))
    b = S((1, 0, 2), (1, -1, 0), (1, 1, 0))
    report = implication_audit(a, b)
    assert report.clean
    assert report.verdicts[Relation.TOP_EQUIV].decision is Decision.UNDECIDED
    assert report.to_json()["verdicts"]["TopEquiv"] == "Undecided"


# ---------------------------------------------------------------------------
# oracle: the reference candidate scan
#
# The classifier decides by canonical scaled keys.  The scan below is the
# older, independent route: it tries every alpha of scaling_candidates (by
# find_scaling) for equivalences and alpha = 1 for conjugacies, with the
# pairwise similarity predicates.  Decisions, certificate alphas, predicate
# names and witnesses must agree for every relation.


def _central_similar(a, b):
    return similar(subspec(a, "central"), subspec(b, "central"))


def _hoelder(a, b):
    return lyapunov_similar(a, b) and _central_similar(a, b)


def _lipschitz(a, b):
    via_collapse = lipschitz_similar(a, b) and _central_similar(a, b)
    via_parts = lipschitz_similar_by_parts(a, b) and _central_similar(a, b)
    assert via_collapse == via_parts
    return via_collapse


def _kinematic(a, b):
    return kinematic_similar(a, b) and _central_similar(a, b)


SCAN = {
    Relation.LIN_EQUIV: (similar, True, "linear"),
    Relation.DIFF_EQUIV: (similar, True, "linear"),
    Relation.LIP_EQUIV: (_lipschitz, True, "lipschitz"),
    Relation.HOELDER_EQUIV: (_hoelder, True, "hoelder"),
    Relation.PW_LIP_EQUIV: (_kinematic, True, "kinematic sufficient"),
    Relation.TOP_EQUIV: (_hoelder, True, "hoelder sufficient"),
    Relation.LIN_CONJ: (similar, False, "linear"),
    Relation.DIFF_CONJ: (similar, False, "linear"),
    Relation.LIP_CONJ: (_lipschitz, False, "lipschitz"),
    Relation.HOELDER_CONJ: (_hoelder, False, "hoelder"),
    Relation.PW_LIP_CONJ: (_kinematic, False, "piecewise-lipschitz-conjugacy"),
}


def scan_oracle(rel, a, b):
    """(decision, certificate) by the reference scan."""
    if a.dim != b.dim:
        return Decision.NO, None
    sufficient_only = rel in (Relation.PW_LIP_EQUIV, Relation.TOP_EQUIV)
    if sufficient_only:
        pa, pb = partition_dims(a), partition_dims(b)
        if pa.central == 0 and pb.central == 0:
            ok = sorted((pa.stable, pa.unstable)) == sorted((pb.stable, pb.unstable))
            return (Decision.YES if ok else Decision.NO), None
        if rel is Relation.TOP_EQUIV and a.dim <= 2:
            if a.dim == 1:
                ok = (a.blocks[0].re == 0) == (b.blocks[0].re == 0)
            else:
                ok = _topological_label_2d(a) == _topological_label_2d(b)
            return (Decision.YES if ok else Decision.NO), None
    pred, scaled, name = SCAN[rel]
    if scaled:
        cert = find_scaling(a, b, pred, name)
    else:
        witness = {"left_generator": serialize_spec(a), "scaled_right_generator": serialize_spec(b)}
        cert = ScalingCertificate(Fraction(1), name, witness) if pred(a, b) else None
    if cert is not None:
        return Decision.YES, cert
    return (Decision.UNDECIDED if sufficient_only else Decision.NO), None


def assert_matches_scan(a, b):
    for rel in Relation:
        v = classify(rel, a, b)
        decision, cert = scan_oracle(rel, a, b)
        assert v.decision is decision, (rel, a, b)
        if cert is None:
            assert v.scaling is None, (rel, a, b)
        else:
            assert v.scaling.alpha == cert.alpha, (rel, a, b)
            assert v.scaling.predicate == cert.predicate
            assert v.scaling.witness == cert.witness


ALPHAS = tuple(Fraction(p, q) for p in (-3, -2, -1, 1, 2, 3) for q in (1, 2, 3))
rate_st = st.sampled_from([Fraction(k, 4) for k in range(-12, 13)])
rot_st = st.sampled_from([Fraction(0)] * 3 + [Fraction(k, 4) for k in range(1, 13)])


@st.composite
def oracle_spec_st(draw, max_dim=6, central=False, nilpotent=False):
    """Spec of dimension 1..max_dim; optionally every re (and im) zero."""
    blocks, dim = [], 0
    target = draw(st.integers(1, max_dim))
    while dim < target:
        im = Fraction(0) if nilpotent else draw(rot_st)
        width = 2 if im else 1
        if dim + width > max_dim:
            im, width = Fraction(0), 1
        size = draw(st.integers(1, min(3, (max_dim - dim) // width)))
        re = Fraction(0) if (central or nilpotent) else draw(rate_st)
        blocks.append(JordanBlock(size, re, im))
        dim += width * size
    return GeneratorSpec(tuple(blocks))


def _symmetric(spec):
    return GeneratorSpec(spec.blocks + scale_spec(spec, -1).blocks)


@st.composite
def oracle_pair_st(draw):
    kind = draw(st.sampled_from([
        "independent", "negated", "scaled", "symmetric", "central",
        "nilpotent", "collapse", "decouple",
    ]))
    alpha = draw(st.sampled_from(ALPHAS))
    if kind == "independent":
        a, b = draw(oracle_spec_st()), draw(oracle_spec_st())
    elif kind == "symmetric":
        a = _symmetric(draw(oracle_spec_st(max_dim=3)))
        b = draw(st.sampled_from([scale_spec(a, alpha), _symmetric(draw(oracle_spec_st(max_dim=3)))]))
    elif kind in ("central", "nilpotent"):
        flags = {kind: True}
        a = draw(oracle_spec_st(**flags))
        b = draw(st.sampled_from([scale_spec(a, alpha), draw(oracle_spec_st(**flags))]))
    else:
        a = draw(oracle_spec_st())
        b = {
            "negated": lambda: scale_spec(a, -1),
            "scaled": lambda: scale_spec(a, alpha),
            "collapse": lambda: semisimple_collapse(scale_spec(a, alpha)),
            "decouple": lambda: rotation_decouple(scale_spec(a, alpha)),
        }[kind]()
    return (b, a) if draw(st.booleans()) else (a, b)


@given(pair=oracle_pair_st())
@settings(max_examples=400, deadline=None)
def test_keys_match_the_scan_for_every_relation(pair):
    assert_matches_scan(*pair)


def test_keys_match_the_scan_on_acceptance_style_pairs(rng):
    # the A10/A11 generators: scaled, collapse and decouple relatives, and
    # independent specs of dimension <= 6
    for _ in range(300):
        a = random_spec(rng, max_dim=6)
        r = rng.random()
        alpha = ALPHAS[int(rng.integers(len(ALPHAS)))]
        if r < 0.35:
            b = scale_spec(a, alpha)
        elif r < 0.5:
            b = semisimple_collapse(scale_spec(a, alpha))
        elif r < 0.6:
            b = rotation_decouple(scale_spec(a, alpha))
        else:
            b = random_spec(rng, max_dim=6)
        assert_matches_scan(a, b)


def test_classifier_no_longer_calls_the_scan(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the classifier called the reference scan")

    # rebind every linflow module's name for the scan's candidate list
    fn = similarity.scaling_candidates
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "linflow" and getattr(mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, refuse)
    a = S((1, -1, 2), (1, 2, 0), (1, 0, 1))
    for b in (scale_spec(a, Fraction(-3, 2)), semisimple_collapse(a), S((1, 0, 2), (2, 1, 0))):
        report = implication_audit(a, b)
        assert report.clean and len(report.verdicts) == len(Relation)
    with pytest.raises(AssertionError):
        similarity.scaling_candidates(a, a)


@pytest.mark.parametrize("rel", [Relation.LIP_EQUIV, Relation.LIP_CONJ])
def test_lipschitz_routes_are_cross_checked(monkeypatch, rel):
    from linflow import classifier

    forms, scaled, name = classifier._TABLE[rel]
    # a second route that ignores the defective part (it keeps only the
    # spectrum of the block triples) must be caught
    broken = (forms[0], lambda triples: forms[1](triples)[:1])
    monkeypatch.setitem(classifier._TABLE, rel, (broken, scaled, name))
    with pytest.raises(InternalCheckError, match="lipschitz criteria disagree"):
        classify(rel, S((2, -1, 0)), S((1, -1, 0), (1, -1, 0)))


def test_each_form_runs_once_per_sign_on_projective_triples(monkeypatch):
    # a conjugacy is the equivalence key at alpha = 1, so an audit evaluates
    # each form only on the +c and -c triples of `similarity._projective`,
    # at most twice per spec, and never on a spec's own triples
    from linflow import classifier

    calls = {}

    def counted(form):
        def wrapper(triples):
            calls.setdefault(form, []).append(triples)
            return form(triples)
        return wrapper

    wrapped = {}
    for rel, (forms, scaled, name) in list(classifier._TABLE.items()):
        forms = tuple(wrapped.setdefault(form, counted(form)) for form in forms)
        monkeypatch.setitem(classifier._TABLE, rel, (forms, scaled, name))
    # c = 2 for a and c = 6 for b, so no spec's own triples are projective
    a = S((1, Fraction(-1, 2), 2), (2, Fraction(3, 2), 0), (1, 0, Fraction(1, 3)))
    for b in (a, scale_spec(a, Fraction(1, 3)), scale_spec(a, Fraction(-1, 3))):
        calls.clear()
        report = implication_audit(a, b)
        assert report.clean
        projective = [similarity._projective(spec) for spec in (a, b)]
        allowed = [t for _, triples, negated in projective for t in (triples, negated)]
        assert set(calls) == set(wrapped)
        for form, seen in calls.items():
            assert len(seen) <= 4, form.__name__
            assert all(triples in allowed for triples in seen), form.__name__


# ---------------------------------------------------------------------------
# the serialized rows, once per pair and certified alpha
#
# An audit serializes the left generator once, and builds and serializes
# scale_spec(b, alpha) once per distinct certified alpha, keeping the rows
# on its pair; each Yes copies them into witness dicts of its own.  The
# oracle builds every witness fresh from the certificate's alpha.


def assert_witnesses_are_fresh(a, b):
    report = implication_audit(a, b)
    for rel, v in report.verdicts.items():
        if v.scaling is None:  # a No, an Undecided, or a Yes by index or catalog
            assert v.decision is not Decision.YES or rel in (Relation.PW_LIP_EQUIV, Relation.TOP_EQUIV)
            continue
        assert v.decision is Decision.YES
        fresh = {"left_generator": serialize_spec(a),
                 "scaled_right_generator": serialize_spec(scale_spec(b, v.scaling.alpha))}
        assert v.scaling.witness == fresh, (rel, a, b)
    return report


@given(pair=oracle_pair_st())
@settings(max_examples=200, deadline=None)
def test_audit_witnesses_match_a_fresh_scaling(pair):
    assert_witnesses_are_fresh(*pair)


def _seeded_pairs(rng, n):
    """Scaled (by negative and non-unit alphas too), negated, collapse,
    decouple and independent pairs of rotating, pure-central and nilpotent
    specs of dimension <= 6."""
    for i in range(n):
        kind = i % 4
        a = random_spec(rng, max_dim=6, rot_prob=0.6)
        if kind == 1:  # pure central, rotating
            a = GeneratorSpec(tuple(JordanBlock(blk.size, 0, blk.im) for blk in a.blocks))
        elif kind == 2:  # nilpotent
            a = GeneratorSpec(tuple(JordanBlock(blk.size, 0, 0) for blk in a.blocks))
        alpha = ALPHAS[int(rng.integers(len(ALPHAS)))]
        r = rng.random()
        if r < 0.5:
            b = scale_spec(a, alpha)
        elif r < 0.6:
            b = scale_spec(a, -1)
        elif r < 0.7:
            b = semisimple_collapse(scale_spec(a, alpha))
        elif r < 0.8:
            b = rotation_decouple(scale_spec(a, alpha))
        else:
            b = random_spec(rng, max_dim=6)
        yield (b, a) if rng.random() < 0.5 else (a, b)


def test_audit_witnesses_match_a_fresh_scaling_on_a_seeded_sweep(rng):
    alphas = set()
    for a, b in _seeded_pairs(rng, 400):
        report = assert_witnesses_are_fresh(a, b)
        alphas |= {v.scaling.alpha for v in report.verdicts.values() if v.scaling}
    # the sweep certifies negative and non-unit alphas
    assert any(x < 0 for x in alphas) and any(abs(x) not in (0, 1) for x in alphas)


def _containers(value):
    """Every dict and list inside value, value included."""
    if isinstance(value, dict):
        yield value
        for v in value.values():
            yield from _containers(v)
    elif isinstance(value, list):
        yield value
        for v in value:
            yield from _containers(v)


# b = -a: the linear and kinematic keys certify alpha = -1, the Hoelder key
# (a symmetric spectrum, no central part) alpha = 1
TWO_ALPHAS = (S((2, -1, 0), (1, 1, 0), (1, 1, 0)), S((2, 1, 0), (1, -1, 0), (1, -1, 0)))


@pytest.mark.parametrize("a, b", [
    TWO_ALPHAS,
    (S((1, -1, 2), (1, 2, 0)), S((1, -1, 2), (1, 2, 0))),
    (S((1, -1, 2), (2, 2, 0)), scale_spec(S((1, -1, 2), (2, 2, 0)), Fraction(-3, 2))),
    (S((1, 0, 1), (1, 0, 3)), S((1, 0, 2), (1, 0, 6))),
])
def test_audit_verdicts_share_no_witness_dict(a, b):
    report = implication_audit(a, b)
    yes = [v for v in report.verdicts.values() if v.scaling is not None]
    assert len(yes) >= 4
    seen = {}
    for v in yes:
        for obj in _containers(v.scaling.witness):
            assert seen.setdefault(id(obj), v.relation) is v.relation, v.relation
    before = {v.relation: v.to_json() for v in yes}
    for v in yes:
        witness = v.scaling.witness
        witness["left_generator"]["blocks"].append({"m": 9, "re": 9, "im": 9})
        witness["scaled_right_generator"]["blocks"][0]["re"] = "mutated"
        witness["extra"] = True
        for other in yes:
            if other is not v:
                assert other.to_json() == before[other.relation], (v.relation, other.relation)


def _counted_scale_spec(monkeypatch):
    from linflow import classifier

    calls = []

    def counted(spec, alpha):
        calls.append(alpha)
        return scale_spec(spec, alpha)

    monkeypatch.setattr(classifier, "scale_spec", counted)
    return calls


def test_audit_scales_once_per_distinct_certified_alpha(monkeypatch, rng):
    calls = _counted_scale_spec(monkeypatch)
    implication_audit(*TWO_ALPHAS)
    assert sorted(calls) == [-1, 1]
    for a, b in [(TWO_ALPHAS[0], TWO_ALPHAS[0])] + list(_seeded_pairs(rng, 200)):
        calls.clear()
        report = implication_audit(a, b)
        alphas = {v.scaling.alpha for v in report.verdicts.values() if v.scaling}
        assert sorted(calls) == sorted(alphas), (a, b)


def test_classify_scales_once_per_yes(monkeypatch, rng):
    calls = _counted_scale_spec(monkeypatch)
    for a, b in list(_seeded_pairs(rng, 50)) + [TWO_ALPHAS]:
        for rel in Relation:
            calls.clear()
            v = classify(rel, a, b)
            assert calls == ([v.scaling.alpha] if v.scaling else [])


# ---------------------------------------------------------------------------
# an audit's shared pair against a fresh pair per relation
#
# An audit decides its eleven relations on one pair, which keeps the keyed
# alphas, the serialized rows and the dimension entry; classify builds a
# fresh pair per call.  Each verdict of an audit must equal the one classify
# gives alone, and serialize to the same bytes.


def test_audit_verdicts_match_a_fresh_classify_on_a_seeded_sweep(rng):
    pairs = list(_seeded_pairs(rng, 400))
    # unequal dimensions: one more block on one side
    pairs += [(a, GeneratorSpec(b.blocks + (JordanBlock(1, 1, 0),))) if k % 2 else
              (GeneratorSpec(a.blocks + (JordanBlock(2, 0, 1),)), b)
              for k, (a, b) in enumerate(pairs[:40])]
    # two certified alphas per pair, as TWO_ALPHAS, at other rates and scalings
    for r, alpha, extra in [(1, 1, ()), (Fraction(1, 2), Fraction(3, 2), ((1, 0, 2),)),
                            (3, Fraction(1, 3), ((1, 0, 1),)), (2, 2, ((2, 0, 0),))]:
        a = S((2, -r, 0), (1, r, 0), (1, r, 0), *extra)
        pairs.append((a, scale_spec(S((2, r, 0), (1, -r, 0), (1, -r, 0), *extra), alpha)))
    seen, two_alphas = [], 0
    for a, b in pairs:
        report = implication_audit(a, b)
        two_alphas += len({v.scaling.alpha for v in report.verdicts.values() if v.scaling}) > 1
        for rel in Relation:
            alone = classify(rel, a, b)
            assert report.verdicts[rel] == alone, (rel, a, b)
            assert json.dumps(report.verdicts[rel].to_json()) == json.dumps(alone.to_json())
            seen.append((a.dim == b.dim, alone.decision, alone.scaling is not None))
    assert {(False, Decision.NO, False), (True, Decision.YES, True), (True, Decision.NO, False),
            (True, Decision.UNDECIDED, False)} <= set(seen)
    assert two_alphas >= 4


# ---------------------------------------------------------------------------
# report order
#
# Relation and Decision hash by identity, so a set of them could iterate in
# another order in another process; the report keeps the declaration order of
# Relation and the order of IMPLICATION_EDGES.


def test_audit_json_keeps_relation_and_edge_order(monkeypatch):
    from linflow import classifier

    order = list(Relation)

    def alternating(rel, pair):  # Yes at even declaration index, No at odd
        yes = order.index(rel) % 2 == 0
        return classifier.Verdict(rel, Decision.YES if yes else Decision.NO, pair.a, pair.b)

    a = S((1, -1, 0))
    assert list(implication_audit(a, a).to_json()["verdicts"]) == [r.value for r in order]
    monkeypatch.setattr(classifier, "_classify", alternating)
    out = implication_audit(a, a).to_json()
    assert list(out["verdicts"]) == [r.value for r in order]
    expected = [{"premise": p.value, "conclusion": c.value} for p, c in IMPLICATION_EDGES
                if order.index(p) % 2 == 0 and order.index(c) % 2 == 1]
    assert out["violations"] == expected and len(expected) >= 4
