"""The argument contract of the exact and constructive entry points.

Sizes, counts, finite scalars, points and exact rationals are checked by
the four helpers of `errors`: a block size or degree index must be an int
(not a bool), a rate or tolerance a real number whose float is finite, a
point a sequence of the spec's dimension of finite reals, and an exact
rate or scaling factor anything Fraction takes but a bool.  The functions
that take a spec refuse anything else with PreconditionViolated, and a
GeneratorSpec refuses entries that are not blocks with SpecParseError.
A sweep over the package's public functions finds every function that
takes a spec by its leading parameters, so a new one is covered without a
list to keep; a second sweep finds every function whose first parameter
is a matrix or a map, which refuses anything but a RationalMatrix or a
HomeoMap with PreconditionViolated.
Each refused call below used to truncate its size, answer for a point that
is not finite, accept a bool as a number, or end in a raw ValueError,
TypeError, OverflowError, IndexError or AttributeError.  Integers and floats of numpy, and
Fractions, stay accepted and give what the plain Python numbers give.
"""

import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

import linflow
from linflow import (
    FlowEvaluator,
    GeneratorSpec,
    JordanBlock,
    LinFlowError,
    PreconditionViolated,
    RationalMatrix,
    Relation,
    SnapFailure,
    SpecParseError,
    UnknownRelation,
    build_parabola_shear,
    build_rotation_unwind_map,
    build_spiral_map,
    classify,
    decay_rate_probe,
    implication_audit,
    lyapunov_spectrum,
    materialize,
    max_block_size_at,
    minimal_period,
    parse_matrix,
    partition_dims,
    period_probe,
    realify,
    refined_dim,
    scale_spec,
    semisimple_collapse,
    serialize_spec,
    spec_from_matrix,
    time_reverse,
    verify_conjugacy,
)
from linflow.blocks import rational_to_json


def S(*blks):
    return GeneratorSpec(tuple(JordanBlock(m, re, im) for m, re, im in blks))


TWO_CARRIERS = S((1, 0, 2), (1, 0, 3))
SADDLE = S((2, -1, 0))
MATRIX = parse_matrix('{"dim": 2, "rows": [[0, "-1/4"], [1, 0]]}')
IRRATIONAL = parse_matrix('{"dim": 2, "rows": [[0, "-1/3"], [1, 0]]}')  # eigenvalues +-i/sqrt 3


@pytest.mark.parametrize("error, call", [
    (PreconditionViolated, lambda: FlowEvaluator([(2.7, -1.0, 1.0)])),  # size 2
    (PreconditionViolated, lambda: FlowEvaluator([(True, -1.0, 1.0)])),  # size 1
    (PreconditionViolated, lambda: FlowEvaluator([("2", -1.0, 1.0)])),  # size 2
    (PreconditionViolated, lambda: build_rotation_unwind_map(2.7, -1, 1)),  # size 2
    (PreconditionViolated, lambda: build_rotation_unwind_map(True, -1, 1)),  # size 1
    (PreconditionViolated, lambda: build_rotation_unwind_map("2", -1, 1)),  # size 2
    (PreconditionViolated, lambda: build_spiral_map(True)),  # rate 1
    (PreconditionViolated, lambda: build_parabola_shear(False)),  # shift 0
    (SpecParseError, lambda: realify([(1.5, 0, 1)])),  # a block of size 1
    (PreconditionViolated, lambda: minimal_period(TWO_CARRIERS, [math.nan, 0, 0, 0])),  # 1/2
    (PreconditionViolated, lambda: minimal_period(TWO_CARRIERS, [math.inf, 0, 0, 0])),  # 1/2
    (PreconditionViolated, lambda: minimal_period(S((1, 0, 2)), "ab")),  # ValueError
    (PreconditionViolated, lambda: minimal_period(S((1, 0, 2)), 5)),  # TypeError
    (PreconditionViolated, lambda: minimal_period(S((1, 0, 2)), [None, 1])),  # TypeError
    (PreconditionViolated, lambda: refined_dim(S((2, -1, 0)), 1.5, 0)),  # 2
    (PreconditionViolated, lambda: spec_from_matrix(MATRIX, tol="1")),  # TypeError
    (PreconditionViolated, lambda: spec_from_matrix(MATRIX, max_denominator=1.5)),  # a spec
    (PreconditionViolated, lambda: spec_from_matrix(MATRIX, max_denominator=True)),  # a spec
    (SpecParseError, lambda: JordanBlock(1, math.nan, 0)),  # ValueError
    (SpecParseError, lambda: JordanBlock(1, None, 0)),  # TypeError
    (SpecParseError, lambda: JordanBlock(1, 0, math.inf)),  # OverflowError
    (SpecParseError, lambda: JordanBlock(1, "1/0", 0)),  # ZeroDivisionError
    (SpecParseError, lambda: realify([(1, math.nan, 1)])),  # ValueError
    (PreconditionViolated, lambda: scale_spec(SADDLE, math.nan)),  # ValueError
    (PreconditionViolated, lambda: scale_spec(SADDLE, math.inf)),  # OverflowError
    (PreconditionViolated, lambda: scale_spec(SADDLE, "x")),  # ValueError
    (PreconditionViolated, lambda: refined_dim(SADDLE, 1, math.nan)),  # ValueError
    (PreconditionViolated, lambda: max_block_size_at(SADDLE, math.nan)),  # ValueError
    (PreconditionViolated, lambda: classify("LinEquiv", SADDLE, 5)),  # AttributeError
    (PreconditionViolated, lambda: classify("LinEquiv", MATRIX, SADDLE)),  # AttributeError
    (PreconditionViolated, lambda: implication_audit(SADDLE, 5)),  # AttributeError
    (SpecParseError, lambda: JordanBlock(1, True, 0)),  # re = 1
    (SpecParseError, lambda: JordanBlock(1, 0, False)),  # im = 0
    (PreconditionViolated, lambda: scale_spec(SADDLE, True)),  # SADDLE
    (PreconditionViolated, lambda: refined_dim(SADDLE, 1, False)),  # 2
    (PreconditionViolated, lambda: max_block_size_at(SADDLE, True)),  # 0
    (SpecParseError, lambda: GeneratorSpec([(1, 0, 0)])),  # AttributeError
    (SpecParseError, lambda: GeneratorSpec(5)),  # TypeError
], ids=["flow-fractional-size", "flow-bool-size", "flow-string-size", "unwind-fractional-size",
        "unwind-bool-size", "unwind-string-size", "spiral-bool-rate", "shear-bool-shift",
        "realify-fractional-size", "period-nan-point", "period-infinite-point",
        "period-string-point", "period-scalar-point", "period-none-entry",
        "refined-fractional-degree", "ingest-string-tol", "ingest-fractional-denominator",
        "ingest-bool-denominator", "block-nan-rate", "block-none-rate", "block-infinite-rate",
        "block-zero-denominator", "realify-nan-rate", "scale-nan", "scale-infinite",
        "scale-string", "refined-nan-rate", "max-size-nan-rate", "classify-int",
        "classify-matrix", "audit-int", "block-bool-rate", "block-bool-rotation",
        "scale-bool", "refined-bool-rate", "max-size-bool-rate", "spec-tuple-entry",
        "spec-int"])
def test_entry_points_refuse_arguments_outside_their_domain(error, call):
    with pytest.raises(error):
        call()


def test_ingest_keeps_its_one_message():
    want = ("need a finite tol > 0 and max_denominator >= 1, got tol=1e-09, "
            "max_denominator=1.5")
    with pytest.raises(PreconditionViolated) as info:
        spec_from_matrix(MATRIX, max_denominator=1.5)
    assert str(info.value) == want


def _unwind_image(size, growth, rotation):
    hmap = build_rotation_unwind_map(size, growth, rotation)
    x = np.linspace(-1.0, 1.0, hmap.source_flow.dim)
    return hmap.source_spec, hmap.forward(x).tolist()


def _spiral(rate):
    hmap = build_spiral_map(rate)
    return hmap.source_spec, hmap.metadata, hmap.forward(np.array([0.3, -2.0])).tolist()


def _shear(shift):
    return build_parabola_shear(shift).forward(np.array([0.3, -2.0])).tolist()


def _snap_failure(**bounds):
    with pytest.raises(SnapFailure) as info:
        spec_from_matrix(IRRATIONAL, **bounds)
    return str(info.value)


X4 = [0.5, 0.0, 0.0, -1.5]


# (call with numpy integers and floats or Fractions, call with plain Python numbers)
@pytest.mark.parametrize("given, plain", [
    (lambda: FlowEvaluator([(np.int64(2), -1.0, 1.0)]).blocks,
     lambda: FlowEvaluator([(2, -1.0, 1.0)]).blocks),
    (lambda: _unwind_image(np.int64(2), np.float64(-1.0), Fraction(1)),
     lambda: _unwind_image(2, -1.0, 1.0)),
    (lambda: realify([(np.int64(2), 0, 1), (np.int32(1), -1, 0)]),
     lambda: realify([(2, 0, 1), (1, -1, 0)])),
    (lambda: _spiral(np.float64(0.5)), lambda: _spiral(0.5)),
    (lambda: _spiral(Fraction(1, 2)), lambda: _spiral(0.5)),
    (lambda: _shear(np.float64(1.5)), lambda: _shear(1.5)),
    (lambda: _shear(Fraction(3, 2)), lambda: _shear(1.5)),
    (lambda: refined_dim(S((2, -1, 0)), np.int64(1), 0),
     lambda: refined_dim(S((2, -1, 0)), 1, 0)),
    (lambda: minimal_period(TWO_CARRIERS, np.array(X4)),
     lambda: minimal_period(TWO_CARRIERS, X4)),
    (lambda: minimal_period(TWO_CARRIERS, [np.float64(v) for v in X4]),
     lambda: minimal_period(TWO_CARRIERS, X4)),
    (lambda: period_probe(TWO_CARRIERS, [np.float64(v) for v in X4]),
     lambda: period_probe(TWO_CARRIERS, X4)),
    (lambda: decay_rate_probe(S((2, -1, 0)), [np.float64(0.0), Fraction(1)],
                              window=(np.float64(5.0), 60)),
     lambda: decay_rate_probe(S((2, -1, 0)), [0.0, 1.0], window=(5.0, 60.0))),
    (lambda: verify_conjugacy(build_spiral_map(1.0), times=np.array([-1.0, 2.0]),
                              n_points=np.int64(4), radii=(np.float64(0.25), Fraction(4))),
     lambda: verify_conjugacy(build_spiral_map(1.0), times=[-1.0, 2.0], n_points=4)),
    (lambda: spec_from_matrix(MATRIX, tol=np.float64(1e-9), max_denominator=np.int64(1024)),
     lambda: spec_from_matrix(MATRIX)),
    # a numpy bound made numpy integer Fractions, whose products overflowed
    (lambda: _snap_failure(max_denominator=np.int64(1024)), lambda: _snap_failure()),
    (lambda: JordanBlock(1, np.float64(0.25), "-1/2"),
     lambda: JordanBlock(1, Fraction(1, 4), Fraction(1, 2))),
    (lambda: scale_spec(SADDLE, np.int64(-2)), lambda: scale_spec(SADDLE, -2)),
    (lambda: scale_spec(SADDLE, "3/2"), lambda: scale_spec(SADDLE, 1.5)),
    (lambda: refined_dim(SADDLE, 1, np.float64(-1.0)), lambda: refined_dim(SADDLE, 1, -1)),
    (lambda: max_block_size_at(SADDLE, Fraction(-1)), lambda: max_block_size_at(SADDLE, -1)),
], ids=["flow-numpy-size", "unwind-numpy-size-and-rates", "realify-numpy-sizes",
        "spiral-numpy-rate", "spiral-fraction-rate", "shear-numpy-shift",
        "shear-fraction-shift", "refined-numpy-degree", "period-numpy-point",
        "period-numpy-entries", "period-probe-numpy-entries", "decay-numpy-entries",
        "conjugacy-numpy-grid", "ingest-numpy-bounds", "ingest-numpy-bound-snap-failure",
        "block-numpy-and-string-rates", "scale-numpy-factor", "scale-string-factor",
        "refined-numpy-rate", "max-size-fraction-rate"])
def test_entry_points_accept_numpy_and_exact_numbers(given, plain):
    assert given() == plain()


@pytest.mark.parametrize("call", [
    scale_spec, time_reverse, serialize_spec, materialize, partition_dims,
    semisimple_collapse, lyapunov_spectrum,
], ids=lambda f: f.__name__)
@pytest.mark.parametrize("arg", [5, MATRIX, [JordanBlock(1, 0, 0)], None],
                         ids=["int", "matrix", "block-list", "none"])
def test_spec_functions_refuse_what_is_not_a_spec(call, arg):
    args = (arg, 2) if call is scale_spec else (arg,)
    with pytest.raises(PreconditionViolated, match=r"need a GeneratorSpec, got \w+$"):
        call(*args)


def test_rational_refusals_name_the_argument():
    with pytest.raises(SpecParseError, match=r"need a finite rational growth rate, got nan"):
        JordanBlock(1, math.nan, 0)
    with pytest.raises(PreconditionViolated, match=r"need a finite rational scaling factor, got inf"):
        scale_spec(SADDLE, math.inf)
    with pytest.raises(PreconditionViolated, match=r"need two GeneratorSpecs, got GeneratorSpec and int"):
        implication_audit(SADDLE, 5)


# Malformed input built in Python: a matrix that is no sequence of rows or
# has no rows, an entry that is no finite rational (a bool included), a
# matrix argument that is no RationalMatrix, a generator with no blocks to
# materialize, a rational to serialize that is no finite rational, a
# relation that is no string, blocks that are no sequence of triples.  Each
# used to end in a raw TypeError, ValueError or AttributeError, in a matrix
# of ones and zeros for a bool entry, or in a 0 x 0 matrix, which
# parse_matrix refuses, for no rows or no blocks.
@pytest.mark.parametrize("error, call", [
    (SpecParseError, lambda: RationalMatrix(5)),  # TypeError
    (SpecParseError, lambda: RationalMatrix([5, 6])),  # TypeError
    (SpecParseError, lambda: RationalMatrix(["12", "34"])),  # [[1, 2], [3, 4]]
    (SpecParseError, lambda: RationalMatrix([[1, 2], [None, 1]])),  # TypeError
    (SpecParseError, lambda: RationalMatrix([[math.nan]])),  # ValueError
    (SpecParseError, lambda: RationalMatrix([[math.inf]])),  # OverflowError
    (SpecParseError, lambda: RationalMatrix([[True]])),  # [[1]]
    (SpecParseError, lambda: RationalMatrix([["1/0"]])),  # ZeroDivisionError
    (SpecParseError, lambda: RationalMatrix([])),  # a 0 x 0 matrix
    (PreconditionViolated, lambda: spec_from_matrix(5)),  # AttributeError
    (PreconditionViolated, lambda: spec_from_matrix([[0, 1], [-1, 0]])),  # AttributeError
    (PreconditionViolated, lambda: materialize(GeneratorSpec([]))),  # a 0 x 0 matrix
    (PreconditionViolated, lambda: rational_to_json(math.nan)),  # ValueError
    (PreconditionViolated, lambda: rational_to_json("x")),  # ValueError
    (UnknownRelation, lambda: Relation.from_string(5)),  # AttributeError
    (UnknownRelation, lambda: Relation.from_string(None)),  # AttributeError
    (SpecParseError, lambda: realify(5)),  # TypeError
    (SpecParseError, lambda: realify([5])),  # TypeError
    (SpecParseError, lambda: realify([(1, 0)])),  # ValueError
], ids=["matrix-int", "matrix-int-rows", "matrix-string-rows", "matrix-none-entry",
        "matrix-nan-entry", "matrix-infinite-entry", "matrix-bool-entry",
        "matrix-zero-denominator", "matrix-empty", "ingest-int", "ingest-list",
        "materialize-empty",
        "json-nan-rational", "json-string-rational", "relation-int",
        "relation-none", "realify-int", "realify-int-entry", "realify-pair-entry"])
def test_typed_entry_points_refuse_malformed_input(error, call):
    with pytest.raises(error):
        call()


def test_matrix_entries_take_what_a_rational_takes():
    plain = RationalMatrix(((0, Fraction(-1, 4)), (1, 0)))
    assert plain == MATRIX
    assert RationalMatrix(np.array([[0.0, -0.25], [1.0, 0.0]])) == plain
    assert RationalMatrix([[np.int64(0), "-1/4"], (1, 0)]) == plain
    with pytest.raises(SpecParseError, match=r"need a finite rational matrix entry, got nan"):
        RationalMatrix([[math.nan]])


def _spec_functions():
    """Every public function whose parameters start with spec, with a, b or
    with relation, a, b, and the names of its spec parameters."""
    out = []
    for name in sorted(linflow.__all__):
        fn = getattr(linflow, name)
        if not inspect.isfunction(fn):
            continue
        params = list(inspect.signature(fn).parameters)
        for lead in (["spec"], ["a", "b"], ["relation", "a", "b"]):
            if params[:len(lead)] == lead:
                out.append(pytest.param(fn, [p for p in lead if p != "relation"], id=name))
                break
    return out


SPEC_FUNCTIONS = _spec_functions()


def _call(fn, given):
    """fn with the given arguments, LinEquiv for a relation and 5 for every
    other parameter without a default."""
    params = inspect.signature(fn).parameters.values()
    return fn(**{p.name: given.get(p.name, "LinEquiv" if p.name == "relation" else 5)
                 for p in params if p.default is p.empty})


def test_the_spec_sweep_selects_every_spec_function():
    # a renamed parameter must not empty the sweep
    assert len(SPEC_FUNCTIONS) >= 30
    names = {p.id for p in SPEC_FUNCTIONS}
    assert {"classify", "implication_audit", "similar", "flow_apply", "period_probe"} <= names


@pytest.mark.parametrize("fn, specs", SPEC_FUNCTIONS)
def test_every_spec_function_refuses_an_int_with_a_typed_error(fn, specs):
    with pytest.raises(LinFlowError) as info:
        _call(fn, dict.fromkeys(specs, 5))
    assert isinstance(info.value, PreconditionViolated)
    assert "GeneratorSpec" in str(info.value)


@pytest.mark.parametrize("fn, specs", [p for p in SPEC_FUNCTIONS if len(p.values[1]) == 2])
def test_every_two_spec_function_checks_its_right_operand(fn, specs):
    a, b = specs
    with pytest.raises(PreconditionViolated, match="GeneratorSpec"):
        _call(fn, {a: SADDLE, b: 5})


def _object_functions():
    """Every public function whose first parameter is a matrix or a map,
    and the type that parameter needs."""
    out = []
    for name in sorted(linflow.__all__):
        fn = getattr(linflow, name)
        if inspect.isfunction(fn):
            first = next(iter(inspect.signature(fn).parameters), None)
            need = {"matrix": "RationalMatrix", "hmap": "HomeoMap"}.get(first)
            if need:
                out.append(pytest.param(fn, need, id=name))
    return out


OBJECT_FUNCTIONS = _object_functions()


def test_the_matrix_and_map_sweep_selects_every_such_function():
    # a renamed parameter must not empty the sweep
    assert len(OBJECT_FUNCTIONS) >= 4
    names = {p.id for p in OBJECT_FUNCTIONS}
    assert {"spec_from_matrix", "serialize_matrix", "verify_conjugacy", "lipschitz_probe"} <= names


@pytest.mark.parametrize("fn, need", OBJECT_FUNCTIONS)
def test_every_matrix_or_map_function_refuses_an_int_with_a_typed_error(fn, need):
    with pytest.raises(LinFlowError) as info:
        _call(fn, {})
    assert isinstance(info.value, PreconditionViolated)
    assert f"need a {need}, got int" in str(info.value)


# Specs whose exact rates are well formed but whose floats overflow: a
# stable one with one shared growth rate (the uniform map's input), one
# whose rotation rate overflows, a bounded one and a hyperbolic one.
HUGE = Fraction(-10**400, 3)
OVERFLOWING = {
    "stable": S((1, HUGE, 0), (1, HUGE, 1)),
    "rotating": S((1, -1, HUGE), (1, -1, 0)),
    "bounded": S((1, 0, HUGE), (1, 0, 1)),
    "hyperbolic": S((1, HUGE, 0), (1, 1, 0)),
}
# Specs with a nonzero exact rate whose float is 0, which no evaluator may
# take for a zero rate: a rotating one, a bounded one and a hyperbolic one
TINY = Fraction(1, 10**400)
UNDERFLOWING = {
    "rotating-tiny": S((1, -1, TINY), (1, -1, 0)),
    "bounded-tiny": S((1, 0, TINY), (1, 0, 1)),
    "hyperbolic-tiny": S((1, -TINY, 0), (1, 1, 0)),
}


def _well_formed(name, spec):
    """A well-formed value of a parameter that is not a spec; a parameter
    named nowhere here fails the sweep below until it is added."""
    if name == "x":
        return [0.5] * spec.dim
    return {"relation": "LinEquiv", "t": 1.0, "s": -1, "m": 1, "alpha": 2, "part": "stable"}[name]


@pytest.mark.parametrize("spec", [*OVERFLOWING.values(), *UNDERFLOWING.values()],
                         ids=[*OVERFLOWING, *UNDERFLOWING])
@pytest.mark.parametrize("fn, specs", SPEC_FUNCTIONS)
def test_every_spec_function_answers_rates_beyond_the_float_range(fn, specs, spec):
    # the exact layer answers; the float layer refuses with a typed error,
    # never a raw OverflowError from float() of a rate, and never a flow of
    # the wrong dimension from a rate that came out 0
    params = inspect.signature(fn).parameters.values()
    try:
        fn(**{p.name: spec if p.name in specs else _well_formed(p.name, spec)
              for p in params if p.default is p.empty})
    except LinFlowError:
        pass
