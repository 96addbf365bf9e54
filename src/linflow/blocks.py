"""Exact data model for linear flows in real block normal form.

A generator is a finite multiset of real Jordan blocks.  Each block has a
size m >= 1, a rational growth rate ``re`` and a rational rotation rate
``im >= 0``.  A block with im == 0 acts on R^m (growth plus nilpotent
shift); a block with im > 0 couples the same data with a rotation and acts
on R^(2m).  Two generators are similar exactly when their block multisets
agree, which is why the multiset is the canonical object everywhere in this
package.

The JSON wire format is::

    {"blocks": [{"m": 2, "re": "-1/2", "im": 1}, ...]}

for generators.  Rationals are integers or "p/q" strings.  Every top-level
wire object, generator or matrix (see `matrices`), is read by `_wire_fields`.

Reports print as JSON here too: ``to_json = _fields_to_json`` writes a
record's fields in field order, each by `_wire`: a GeneratorSpec through
`serialize_spec`, a value with ``to_json`` through it, an Enum as its value,
a tuple or list item by item, a Fraction as ``str(q)``, anything else as is.
`AuditReport` (keyed by relation) writes its own; `GrowthProfile` (keyed
rows) and `ScalingCertificate` (alpha 2, not "2") amend these fields.

The matrix half of the data model, with the coordinate layout, lives in
`matrices`, which no launch on block multisets that classifies, audits or
transforms them imports.  `spec_from_matrix` checks its arguments here;
the ingestion itself lives in `_ratlinalg`, which only matrix input imports.
"""

from __future__ import annotations

import json
from enum import Enum
from fractions import Fraction
from numbers import Integral

from ._record import record
from .errors import PreconditionViolated, SnapFailure, SpecParseError, _above, _at_least, _rational

__all__ = [
    "JordanBlock",
    "GeneratorSpec",
    "parse_rational",
    "rational_to_json",
    "parse_spec",
    "serialize_spec",
    "scale_spec",
    "time_reverse",
    "spec_from_matrix",
]


# ---------------------------------------------------------------------------
# rationals on the wire


def parse_rational(value, where="value"):
    """Accept an int or a 'p/q' / 'n' string; reject everything else."""
    if isinstance(value, bool):
        raise SpecParseError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecParseError(f"{where}: malformed rational {value!r}") from exc
    raise SpecParseError(
        f"{where}: expected an integer or 'p/q' string, got {type(value).__name__}"
    )


def rational_to_json(q):
    q = _rational(q, "number")
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _no_duplicate_keys(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise SpecParseError(f"duplicate JSON key {key!r}")
        seen.add(key)
    return dict(pairs)


def _load_json(text, what):
    try:
        return json.loads(text, object_pairs_hook=_no_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"{what}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise SpecParseError(f"{what}: JSON nested too deeply") from None


# ---------------------------------------------------------------------------
# core types


@record
class JordanBlock:
    """One real Jordan block: size, growth rate, rotation rate (>= 0).

    A negative rotation rate is the same block in the mirrored orientation,
    so it is normalized away at construction.
    """

    __slots__ = ("size", "re", "im")
    size: int
    re: Fraction
    im: Fraction

    def __post_init__(self):
        if type(self.size) is not int:  # an integer of another type, such as numpy's, is an int
            if isinstance(self.size, bool) or not isinstance(self.size, Integral):
                raise SpecParseError("block size must be an integer")
            object.__setattr__(self, "size", int(self.size))
        if self.size < 1:
            raise SpecParseError(f"block size must be >= 1, got {self.size}")
        object.__setattr__(self, "re", _rational(self.re, "growth rate", SpecParseError))
        object.__setattr__(self, "im", abs(_rational(self.im, "rotation rate", SpecParseError)))

    @property
    def dim(self):
        """Real dimension the block acts on: m if im == 0 else 2m."""
        return self.size if self.im == 0 else 2 * self.size

    def sort_key(self):
        return (self.re, self.im, self.size)


@record
class GeneratorSpec:
    """Canonically ordered multiset of blocks; equality is similarity."""

    # dim, the real dimension, is set at construction; not part of eq, hash or repr
    __slots__ = ("blocks", "dim")
    blocks: tuple

    def __post_init__(self):
        try:
            blocks = list(self.blocks)
        except TypeError:
            raise SpecParseError("GeneratorSpec takes a sequence of JordanBlock entries") from None
        for b in blocks:
            if not isinstance(b, JordanBlock):
                raise SpecParseError("GeneratorSpec takes JordanBlock entries")
        blocks.sort(key=JordanBlock.sort_key)
        blocks = tuple(blocks)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "dim", sum(b.dim for b in blocks))

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self):
        return len(self.blocks)


def _require_spec(spec):
    """spec, if it is a GeneratorSpec; else PreconditionViolated.  The one
    check of the functions that take a spec and would otherwise fail on
    its missing attributes."""
    if not isinstance(spec, GeneratorSpec):
        raise PreconditionViolated(f"need a GeneratorSpec, got {type(spec).__name__}")
    return spec


# ---------------------------------------------------------------------------
# parse / serialize


def _unknown(keys):
    """The unknown fields of a wire object, sorted without comparing keys
    of different types: its str keys in order, then any other by repr."""
    return sorted(keys, key=lambda k: (False, k) if isinstance(k, str) else (True, repr(k)))


def _parse_block_obj(obj, where):
    if not isinstance(obj, dict):
        raise SpecParseError(f"{where}: block must be an object")
    extra = set(obj) - {"m", "re", "im"}
    if extra:
        raise SpecParseError(f"{where}: unknown field(s) {_unknown(extra)}")
    missing = {"m", "re", "im"} - set(obj)
    if missing:
        raise SpecParseError(f"{where}: missing field(s) {sorted(missing)}")
    m = obj["m"]
    if isinstance(m, bool) or not isinstance(m, int):
        raise SpecParseError(f"{where}.m: block size must be an integer")
    if m < 1:
        raise SpecParseError(f"{where}.m: block size must be >= 1, got {m}")
    return JordanBlock(
        size=m,
        re=parse_rational(obj["re"], f"{where}.re"),
        im=parse_rational(obj["im"], f"{where}.im"),
    )


def _wire_fields(source, what, names):
    """The values of names, in order, in the wire object source (text or dict)."""
    if isinstance(source, (str, bytes)):
        source = _load_json(source, what)
    if not isinstance(source, dict):
        raise SpecParseError(f"{what}: top level must be an object")
    extra = set(source) - set(names)
    if extra:
        raise SpecParseError(f"{what}: unknown field(s) {_unknown(extra)}")
    for key in names:
        if key not in source:
            raise SpecParseError(f"{what}: missing '{key}'")
    return [source[key] for key in names]


def parse_spec(source):
    """Parse a generator from JSON text or an already-decoded dict."""
    (blocks,) = _wire_fields(source, "generator", ("blocks",))
    if not isinstance(blocks, list):
        raise SpecParseError("generator.blocks: must be a list")
    parsed = [
        _parse_block_obj(b, f"generator.blocks[{i}]") for i, b in enumerate(blocks)
    ]
    return GeneratorSpec(tuple(parsed))


def serialize_spec(spec):
    _require_spec(spec)
    return {
        "blocks": [
            {"m": b.size, "re": rational_to_json(b.re), "im": rational_to_json(b.im)}
            for b in spec.blocks
        ]
    }


def _wire(value):
    if isinstance(value, GeneratorSpec):
        return serialize_spec(value)
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_wire(v) for v in value]
    return str(value) if isinstance(value, Fraction) else value


def _fields_to_json(self):
    return {name: _wire(getattr(self, name)) for name in self.__match_args__}


# ---------------------------------------------------------------------------
# multiset operations


def scale_spec(spec, alpha):
    """Blocks of alpha * A: (m, re, im) -> (m, alpha*re, |alpha|*im).

    Speeding a flow up by alpha scales growth rates by alpha and rotation
    rates by |alpha| (a negative alpha also reverses orientation, which the
    normalized im absorbs).
    """
    _require_spec(spec)
    alpha = _rational(alpha, "scaling factor")
    if alpha == 0:
        raise PreconditionViolated("scaling factor must be nonzero")
    return GeneratorSpec(
        tuple(
            JordanBlock(b.size, alpha * b.re, abs(alpha) * b.im) for b in spec.blocks
        )
    )


def time_reverse(spec):
    """Blocks of -A, the generator of the time-reversed flow."""
    return scale_spec(spec, -1)


# ---------------------------------------------------------------------------
# matrix -> spec ingestion


def _floats(values, what):
    """float() of each rational; SnapFailure, not OverflowError, past the float range."""
    try:
        return [float(x) for x in values]
    except OverflowError:
        raise SnapFailure(f"{what} beyond the float range") from None


def spec_from_matrix(matrix, tol=1e-9, max_denominator=1024):
    """Recover the block multiset of a rational matrix, with certification.

    Tries the exact route first (rational characteristic polynomial,
    certified rational eigenvalues, exact rank sequences); falls back to a
    numeric route for matrices whose spectrum is only approximately rational
    at the denominator bound.  Raises SnapFailure or ClusterAmbiguity rather
    than return a guess.  Both routes live in `_ratlinalg`, the one module
    of matrix ingestion.
    """
    from .matrices import ApproxSpec, RationalMatrix  # here, as _ratlinalg below

    if not isinstance(matrix, RationalMatrix):
        raise PreconditionViolated(f"need a RationalMatrix, got {type(matrix).__name__}")
    try:
        _above(tol, 0.0, "tol")
        max_denominator = _at_least(max_denominator, 1, "max_denominator")  # numpy's as an int
    except PreconditionViolated:
        raise PreconditionViolated(
            f"need a finite tol > 0 and max_denominator >= 1, got tol={tol}, "
            f"max_denominator={max_denominator}"
        ) from None
    # imported here, so that only matrix input loads it
    from . import _ratlinalg

    spec, residual, exact = _ratlinalg.ingest(matrix, tol, max_denominator)
    return ApproxSpec(spec, float(residual), float(tol), matrix.fingerprint(), exact)
