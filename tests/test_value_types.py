"""The public value types against `dataclasses` mirrors.

linflow builds its value types with its own `_record` decorator instead of
`dataclasses`.  Each type here has a test-only dataclass mirror with the
same fields and options, the behaviour the types had when they were
dataclasses; repr, ==, hash and the constructor's signature must agree with
it, and instances must survive pickle, copy and deepcopy.

The types whose JSON is their field list get ``to_json`` from one encoder,
`blocks._fields_to_json`; its output must equal, byte for byte, that of the
hand-written methods it replaced (`hand_encoders`), on these instances and
on a seeded pool of verdicts, invariants, catalog rows and probe reports.
"""

import ast
import copy
import json
import pickle
from dataclasses import MISSING, dataclass, field
from fractions import Fraction

import numpy as np
import pytest

import linflow
from linflow import Decision, Relation, _record
from linflow.blocks import _fields_to_json
from linflow.maps import _same_time

from conftest import random_spec
from hand_encoders import GENERATED, REFERENCE, reference_json

# the mirrors below take the names of the types, so these use linflow.X
F = Fraction
SPEC_A = linflow.GeneratorSpec((linflow.JordanBlock(2, -1, 0), linflow.JordanBlock(1, F(1, 2), 3)))
SPEC_B = linflow.GeneratorSpec((linflow.JordanBlock(1, -1, 0),))
CERT = linflow.ScalingCertificate(F(2), "linear", {"k": [1, "1/2"]})


@dataclass(frozen=True, slots=True)
class JordanBlock:
    size: int
    re: Fraction
    im: Fraction


@dataclass(frozen=True, slots=True)
class GeneratorSpec:
    blocks: tuple
    dim: int = field(init=False, compare=False, repr=False)


@dataclass(frozen=True)
class RationalMatrix:
    rows: tuple


@dataclass(frozen=True)
class ApproxSpec:
    spec: object
    residual: float
    tol: float
    source: str
    exact: bool


@dataclass(frozen=True)
class TraceEntry:
    step: str
    outcome: str
    detail: str


@dataclass(frozen=True)
class Verdict:
    relation: object
    decision: object
    left: object
    right: object
    scaling: object = None
    trace: tuple = ()


@dataclass(frozen=True)
class CatalogEntry:
    row: str
    representative: object
    scaling: object
    label: object = None


@dataclass(frozen=True)
class CoincidenceReport:
    generic: bool
    real_spectrum: object
    smooth_class_equals_lipschitz: object
    lipschitz_class_equals_hoelder: object


@dataclass(frozen=True)
class AuditReport:
    verdicts: dict
    violations: tuple


@dataclass(frozen=True)
class PartitionDims:
    stable: int
    central: int
    unstable: int
    hyperbolic: int
    semisimple: int
    defective: int


@dataclass(frozen=True)
class GrowthProfile:
    dim: int
    breakpoints: tuple
    table: tuple
    max_size_at: tuple
    top_rate: Fraction
    top_size: int


@dataclass(frozen=True)
class DistortionSubspace:
    dim: int
    coords: tuple
    top_rate: Fraction
    top_size: int


@dataclass(frozen=True)
class ScalingCertificate:
    alpha: Fraction
    predicate: str
    witness: dict


@dataclass(frozen=True)
class ConjugacyReport:
    name: str
    residual: float
    round_trip: float
    n_points: int
    times: tuple
    worst_time: float


@dataclass(frozen=True)
class LipschitzReport:
    name: str
    radii: tuple
    uniform_ratios: tuple
    pointwise_ratios: tuple
    uniform_trend: str
    pointwise_trend: str


@dataclass(frozen=True)
class DistortionReport:
    member: bool
    branch: str
    estimate: float
    threshold: float
    passed: bool
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DecayReport:
    rate_fit: float
    degree_fit: float
    rate: float
    degree: int
    expected_rate: float
    expected_degree: int
    match: bool


@dataclass(frozen=True)
class PeriodReport:
    period: float
    predicted: float
    residual: float
    match: bool


@dataclass
class HomeoMap:
    name: str
    source_flow: object
    target_flow: object
    forward_batch: object
    inverse_batch: object
    tau_batch: object = _same_time
    source_spec: object = None
    target_spec: object = None
    metadata: dict = field(default_factory=dict)


MIRRORS = {cls.__name__: cls for cls in (
    JordanBlock, GeneratorSpec, RationalMatrix, ApproxSpec, TraceEntry, Verdict, CatalogEntry,
    CoincidenceReport, AuditReport, PartitionDims, GrowthProfile, DistortionSubspace,
    ScalingCertificate, ConjugacyReport, LipschitzReport, DistortionReport, DecayReport,
    PeriodReport, HomeoMap,
)}

# constructor arguments of two unequal instances of each type, in field
# order; the values are already in the form each constructor keeps them
ARGS = {
    "JordanBlock": [(2, F(-1), F(0)), (2, F(-1), F(1, 3))],
    "GeneratorSpec": [(SPEC_A.blocks,), (SPEC_B.blocks,)],
    "RationalMatrix": [(((F(1), F(2)), (F(0), F(-1, 3))),), (((F(1),),),)],
    "ApproxSpec": [(SPEC_A, 1e-12, 1e-9, "04419c77881a2037", True),
                   (SPEC_A, 1e-12, 1e-9, "04419c77881a2037", False)],
    "TraceEntry": [("dimension", "ok", "2 == 2"), ("linear", "pass", "alpha = 1")],
    "Verdict": [(Relation.LIP_EQUIV, Decision.YES, SPEC_A, SPEC_A, CERT,
                 (linflow.TraceEntry("a", "b", "c"),)),
                (Relation.LIP_EQUIV, Decision.NO, SPEC_A, SPEC_B)],
    "CatalogEntry": [("linear", SPEC_A, F(1, 2), "node"), ("topological", SPEC_B, None)],
    "CoincidenceReport": [(True, True, True, True), (False, None, None, None)],
    "AuditReport": [({Relation.LIN_EQUIV: "v"}, ()),
                    ({}, ((Relation.LIN_EQUIV, Relation.TOP_EQUIV),))],
    "PartitionDims": [(1, 2, 3, 4, 5, 1), (1, 2, 3, 4, 5, 0)],
    "GrowthProfile": [(3, (F(-1), F(1, 2)), ((1, F(-1), 2),), ((F(-1), 2),), F(1, 2), 1),
                      (1, (F(-1),), (), (), F(-1), 1)],
    "DistortionSubspace": [(2, (0, 1), F(-1), 2), (2, (1, 2), F(-1), 2)],
    "ScalingCertificate": [(F(2), "linear", {"k": [1]}), (F(-1), "lipschitz", {})],
    "ConjugacyReport": [("spiral", 1e-15, 2e-16, 32, (-1.0, 1.0), 1.0),
                        ("spiral", 1e-15, 2e-16, 32, (-1.0, 1.0), -1.0)],
    "LipschitzReport": [("pw-hyp", (1.0, 0.5), (2.0, 2.0), (1.5, 1.5), "bounded", "bounded"),
                        ("pw-hyp", (1.0,), (2.0,), (1.5,), "growing", "bounded")],
    "DistortionReport": [(True, "rate", 0.5, 1.0, True, {"n": 3}), (False, "rate", 0.5, 1.0, False)],
    "DecayReport": [(-1.0, 1.0, -1.0, 1, -1.0, 1, True), (-1.0, 2.0, -1.0, 2, -1.0, 1, False)],
    "PeriodReport": [(6.28, 6.28, 1e-12, True), (3.14, 6.28, 3.14, False)],
    "HomeoMap": [("spiral", "src", "dst", abs, len, round, SPEC_A, SPEC_B, {"rate": 1}),
                 ("shear", "src", "dst", abs, len)],
}
FROZEN = sorted(set(MIRRORS) - {"HomeoMap"})


def pair(name):
    """Instances of the type and of its mirror, one per argument tuple, and
    one more instance of the type from the first tuple: equal to the first,
    but another object."""
    ours = [getattr(linflow, name)(*args) for args in ARGS[name]]
    mirrors = [MIRRORS[name](*args) for args in ARGS[name]]
    if name == "GeneratorSpec":
        for m in mirrors:
            object.__setattr__(m, "dim", None)
    return ours, mirrors, getattr(linflow, name)(*ARGS[name][0])


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return type(exc)


def test_every_public_type_has_a_mirror():
    public = {n for n in linflow.__all__ if isinstance(getattr(linflow, n), type)
              and not issubclass(getattr(linflow, n), (Exception, Relation, Decision))}
    assert public - {"FlowEvaluator"} == set(MIRRORS)


@pytest.mark.parametrize("name", sorted(MIRRORS))
def test_repr_eq_and_hash_match_the_mirror(name):
    ours, mirrors, again = pair(name)
    for o, m in zip(ours, mirrors):
        assert repr(o) == repr(m)
    assert [a == b for a in ours for b in ours] == [a == b for a in mirrors for b in mirrors]
    assert [a != b for a in ours for b in ours] == [a != b for a in mirrors for b in mirrors]
    assert again == ours[0] and again is not ours[0]
    assert [hash_or_error(o) for o in ours] == [hash_or_error(m) for m in mirrors]
    assert (type(ours[0]).__hash__ is None) == (name not in FROZEN)


@pytest.mark.parametrize("name", sorted(MIRRORS))
def test_other_types_compare_not_implemented(name):
    ours, mirrors, _ = pair(name)
    assert ours[0].__eq__(mirrors[0]) is NotImplemented
    assert ours[0].__eq__(ARGS[name][0]) is NotImplemented
    assert ours[0] != mirrors[0] and ours[0] != object()


@pytest.mark.parametrize("name", sorted(MIRRORS))
@pytest.mark.parametrize("roundtrip", [
    lambda x: pickle.loads(pickle.dumps(x)),
    lambda x: pickle.loads(pickle.dumps(x, protocol=0)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "pickle0", "copy", "deepcopy"])
def test_round_trips_keep_type_and_value(name, roundtrip):
    ours, _, _ = pair(name)
    for o in ours:
        back = roundtrip(o)
        assert type(back) is type(o) and back == o and repr(back) == repr(o)


@pytest.mark.parametrize("name", sorted(MIRRORS))
def test_frozen_types_refuse_assignment(name):
    ours, _, _ = pair(name)
    obj = ours[0]
    first = next(iter(MIRRORS[name].__dataclass_fields__))
    if name not in FROZEN:
        obj.forward_batch = len  # the bench rebinds the batch maps of a map
        assert obj.forward_batch is len
        return
    for attr in (first, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(obj, attr, 1)
        with pytest.raises(AttributeError):
            delattr(obj, attr)
    assert getattr(obj, first) == ARGS[name][0][0]


@pytest.mark.parametrize("name", sorted(MIRRORS))
def test_constructor_rejects_missing_and_unknown_arguments(name):
    cls = getattr(linflow, name)
    args = ARGS[name][0]
    required = sum(1 for f in MIRRORS[name].__dataclass_fields__.values()
                   if f.init and f.default is MISSING and f.default_factory is MISSING)
    with pytest.raises(TypeError):
        cls(*args[: required - 1])
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*args, *args)
    fields = [f for f, spec in MIRRORS[name].__dataclass_fields__.items() if spec.init]
    assert cls(**dict(zip(fields, args))) == cls(*args)
    assert cls.__match_args__ == MIRRORS[name].__match_args__


def test_defaults_match_the_mirror():
    v = linflow.Verdict(Relation.LIN_EQUIV, Decision.NO, SPEC_A, SPEC_B)
    assert (v.scaling, v.trace) == (None, ())
    assert linflow.CatalogEntry("linear", SPEC_A, None).label is None
    d1, d2 = (linflow.DistortionReport(True, "rate", 0.5, 1.0, True) for _ in range(2))
    assert d1.detail == {} and d1.detail is not d2.detail
    h = linflow.HomeoMap("m", None, None, abs, len)
    assert (h.tau_batch, h.source_spec, h.target_spec, h.metadata) == (_same_time, None, None, {})


def test_generator_spec_dim_stays_out_of_eq_hash_and_repr():
    a, b = linflow.GeneratorSpec(SPEC_A.blocks), linflow.GeneratorSpec(SPEC_A.blocks)
    assert a.dim == 4
    object.__setattr__(b, "dim", 99)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "dim" not in repr(a)
    with pytest.raises(TypeError):
        linflow.GeneratorSpec(SPEC_A.blocks, dim=4)
    assert pickle.loads(pickle.dumps(a)).dim == 4


@pytest.mark.parametrize("name", ["JordanBlock", "GeneratorSpec"])
def test_slotted_types_have_no_instance_dict(name):
    ours, _, _ = pair(name)
    assert not hasattr(ours[0], "__dict__")
    assert type(ours[0]).__slots__ == MIRRORS[name].__slots__


def test_record_compiles_only_init(monkeypatch):
    sources = []

    def spy(source, namespace):
        sources.append(source)
        exec(source, namespace)

    monkeypatch.setattr(_record, "exec", spy, raising=False)

    @_record.record
    class Toy:
        a: int
        b: tuple = ()
        c: dict = _record.factory(dict)

        def __post_init__(self):
            object.__setattr__(self, "b", tuple(self.b))

    [source] = sources
    assert [(type(node), node.name) for node in ast.parse(source).body] == [
        (ast.FunctionDef, "__init__")]
    assert Toy(1, [2]) == Toy(1, (2,), {}) and Toy(1).c is not Toy(1).c
    assert repr(Toy(1)).endswith("Toy(a=1, b=(), c={})")


def test_every_record_type_shares_eq_repr_and_hash():
    shared = linflow.JordanBlock
    for name in MIRRORS:
        cls = getattr(linflow, name)
        assert cls.__eq__ is shared.__eq__ and cls.__repr__ is shared.__repr__, name
        if name in FROZEN:
            assert cls.__hash__ is shared.__hash__, name


# ---------------------------------------------------------------------------
# the compiled __init__ on both layouts
#
# A frozen record's __init__ stores a slot field through the slot's member
# descriptor and every other field straight into the instance dict.  Two
# toys pin both stores against dataclasses mirrors, each with a plain
# default, a factory default and a __post_init__.  A slot cannot carry a
# class-level default, so the slotted toy keeps its defaulted fields in a
# __dict__ slot, beside its slotted field and an unannotated slot that
# __post_init__ sets (as GeneratorSpec's dim).


@_record.record
class SlottedToy:
    __slots__ = ("a", "n", "__dict__")
    a: int
    b: tuple = ()
    c: list = _record.factory(list)

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(self.b))
        object.__setattr__(self, "n", len(self.b))


@_record.record
class DictToy:
    a: int
    b: tuple = ()
    c: list = _record.factory(list)

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(self.b))


@dataclass(frozen=True)
class SlottedToyMirror:
    __slots__ = ("a", "n", "__dict__")
    a: int
    b: tuple = ()
    c: list = field(default_factory=list)

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(self.b))
        object.__setattr__(self, "n", len(self.b))


@dataclass(frozen=True)
class DictToyMirror:
    a: int
    b: tuple = ()
    c: list = field(default_factory=list)

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(self.b))


# constructor arguments: defaults, a list that __post_init__ makes a tuple,
# and a hashable c
TOY_ARGS = [((1,), {}), ((1, [2, 3]), {}), ((1, (2, 3)), {}), ((1,), {"c": ("x",)}),
            ((2, (), ("x",)), {})]


@pytest.mark.parametrize("toy, mirror", [(SlottedToy, SlottedToyMirror), (DictToy, DictToyMirror)],
                         ids=["slotted", "dict"])
def test_record_init_matches_the_mirror_on_both_layouts(toy, mirror):
    ours = [toy(*args, **kw) for args, kw in TOY_ARGS]
    mirrors = [mirror(*args, **kw) for args, kw in TOY_ARGS]
    for o, m in zip(ours, mirrors):
        assert repr(o) == repr(m).replace("Mirror(", "(", 1)
        assert [getattr(o, n) for n in ("a", "b", "c")] == [getattr(m, n) for n in ("a", "b", "c")]
    assert [a == b for a in ours for b in ours] == [a == b for a in mirrors for b in mirrors]
    assert [hash_or_error(o) for o in ours] == [hash_or_error(m) for m in mirrors]
    assert toy.__match_args__ == mirror.__match_args__ and toy(1).c is not toy(1).c
    assert (toy.b, hasattr(toy, "c")) == ((), False)  # as dataclasses leaves them
    for o in ours:
        for back in (pickle.loads(pickle.dumps(o)), pickle.loads(pickle.dumps(o, protocol=0)),
                     copy.deepcopy(o)):
            assert type(back) is toy and back == o and repr(back) == repr(o)
            assert back.__dict__ == o.__dict__
        for attr in ("a", "b", "c", "n", "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(o, attr, 9)
            with pytest.raises(AttributeError):
                delattr(o, attr)
    for m in mirrors:
        with pytest.raises(AttributeError):
            m.a = 9
        with pytest.raises(AttributeError):
            del m.b


def test_record_init_stores_a_slot_in_the_slot_and_the_rest_in_the_dict():
    slotted, plain = SlottedToy(1, [2]), DictToy(1, [2])
    assert (sorted(slotted.__dict__), slotted.a, slotted.n) == (["b", "c"], 1, 1)
    assert sorted(plain.__dict__) == ["a", "b", "c"]
    assert pickle.loads(pickle.dumps(slotted)).n == 1


# ---------------------------------------------------------------------------
# the field encoder against the hand-written methods it replaced


def test_the_encoder_serves_exactly_the_field_list_types():
    generated = {n for n in MIRRORS if vars(getattr(linflow, n)).get("to_json") is _fields_to_json}
    assert generated == set(GENERATED)


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_encoder_matches_the_reference_on_the_mirror_instances(name):
    for obj in pair(name)[0]:
        assert json.dumps(obj.to_json()) == json.dumps(reference_json(obj))


def _seeded_reports(seed=16, n=150):
    """Verdicts of every relation, invariants and planar catalog rows over
    random specs and related partners, and a report of each probe."""
    rng = np.random.default_rng(seed)
    S = lambda *b: linflow.GeneratorSpec(tuple(linflow.JordanBlock(*x) for x in b))
    for i in range(n):
        a = random_spec(rng, max_dim=2 if i % 4 == 0 else 6, re_pool=(F(-1), F(-1, 2), 0, F(2)))
        b = (linflow.scale_spec(a, F(-3, 2)), linflow.semisimple_collapse(a),
             random_spec(rng, max_dim=a.dim))[i % 3]
        for rel in Relation:
            yield linflow.classify(rel, a, b)
        yield linflow.partition_dims(a)
        yield linflow.growth_profile(a)
        yield linflow.class_coincidence(a)
        if all(blk.re < 0 for blk in a.blocks):
            yield linflow.distortion_subspace(a)
        if a.dim == 2:
            yield from linflow.catalog2d(a).values()
    spiral = linflow.build_spiral_map(1.0)
    yield linflow.verify_conjugacy(spiral, times=[0.0, 1.0], n_points=4)
    yield linflow.lipschitz_probe(spiral, n_scales=6, pairs=4)
    yield linflow.distortion_probe(S((2, -1, 0)), np.array([1.0, 0.0]))
    yield linflow.distortion_probe(S((2, -1, 0)), np.array([0.0, 1.0]))
    yield linflow.decay_rate_probe(S((2, -1, 0)), np.array([0.0, 1.0]))
    yield linflow.period_probe(S((1, 0, 1)), np.ones(2))
    yield linflow.period_probe(S((1, 0, 1)), np.zeros(2))


def test_encoder_matches_the_reference_on_a_seeded_pool():
    seen = set()
    for obj in _seeded_reports():
        parts = [obj, *getattr(obj, "trace", ())]
        if isinstance(getattr(obj, "scaling", None), linflow.ScalingCertificate):
            parts.append(obj.scaling)
        for part in parts:
            seen.add(type(part).__name__)
            assert json.dumps(part.to_json()) == json.dumps(reference_json(part))
    assert seen == set(REFERENCE)
