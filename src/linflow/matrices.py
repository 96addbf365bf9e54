"""Matrices of block multisets, and the coordinate layout they share.

Every module uses one coordinate layout, computed only by `_layout`: the
blocks follow one another in order, a real block as one half-chain of m
coordinates and a rotating one as two, whose coordinates i turn together.
Along a half-chain the nilpotent shift moves each coordinate into the one
before it.  Only `_reach` reads how far a point reaches along each chain.

`materialize` writes a generator as its exact block-diagonal matrix, a
`RationalMatrix`, whose JSON wire form ``{"dim": d, "rows": [[...], ...]}``
(rational entries, as in `blocks`) `parse_matrix` reads and
`serialize_matrix` writes.  `blocks.spec_from_matrix` goes the other way
and returns an `ApproxSpec`.  `realify` gives the real block multiset of a
complex-diagonal generator.

Matrix input, `transform realify`, the float layer (flows, maps, homeos,
probes) and `summary` import this module; a launch that classifies or
audits block multisets, or transforms them otherwise, never does.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import record
from .blocks import GeneratorSpec, JordanBlock, _floats, _require_spec, _wire_fields
from .blocks import parse_rational, rational_to_json
from .errors import PreconditionViolated, SpecParseError, _rational

__all__ = [
    "RationalMatrix",
    "ApproxSpec",
    "parse_matrix",
    "serialize_matrix",
    "realify",
    "materialize",
]


@record
class RationalMatrix:
    """Dense square matrix with Fraction entries.

    rows is a nonempty sequence of rows, each a sequence of entries that
    `errors._rational` takes (a bool is refused); anything else raises
    SpecParseError.
    """

    rows: tuple

    def __post_init__(self):
        try:
            rows = tuple(map(_matrix_row, self.rows))
        except TypeError:  # the rows, or one of them, are not a sequence
            raise SpecParseError(
                "a matrix takes a sequence of rows, each a sequence of entries") from None
        d = len(rows)
        if not d:  # as parse_matrix, which takes dim >= 1
            raise SpecParseError("a matrix needs at least one row")
        for row in rows:
            if len(row) != d:
                raise SpecParseError(
                    f"matrix must be square: got a row of length {len(row)} in a {d}-row matrix"
                )
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self):
        return len(self.rows)

    def to_float(self):
        import numpy as np

        return np.array([_floats(row, "matrix entry") for row in self.rows], dtype=float)

    def fingerprint(self):
        """First 16 hex digits of the sha256 of the sorted-key JSON wire form.

        The payload is the text json.dumps(serialize_matrix(self),
        sort_keys=True) gives, written out directly: an integer entry as
        its decimal digits, any other as the quoted string "p/q".
        """
        rows = ", ".join(
            "[" + ", ".join(
                str(x.numerator) if x.denominator == 1 else f'"{x.numerator}/{x.denominator}"'
                for x in row
            ) + "]"
            for row in self.rows
        )
        payload = f'{{"dim": {len(self.rows)}, "rows": [{rows}]}}'
        import hashlib

        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _matrix_row(row):
    if isinstance(row, (str, bytes)):  # a sequence of characters, not of entries
        raise TypeError(row)
    return tuple(_rational(x, "matrix entry", SpecParseError) for x in row)


@record
class ApproxSpec:
    """A generator recovered from a matrix, with its certification data.

    ``exact`` records whether the rational spectrum was certified by exact
    polynomial division (True, ``residual`` 0.0) or only snapped numerically
    (False); ``residual`` is then the largest distance between a computed
    eigenvalue and the rational it was snapped to, guaranteed <= ``tol``.
    """

    spec: GeneratorSpec
    residual: float
    tol: float
    source: str
    exact: bool

    @property
    def dim(self):
        return self.spec.dim


def parse_matrix(source):
    """Parse a rational matrix from JSON text or a decoded dict."""
    d, rows = _wire_fields(source, "matrix", ("dim", "rows"))
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise SpecParseError("matrix.dim: must be a positive integer")
    if not isinstance(rows, list) or len(rows) != d:
        raise SpecParseError(f"matrix.rows: expected {d} rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != d:
            raise SpecParseError(f"matrix.rows[{i}]: expected {d} entries")
        out.append(
            tuple(parse_rational(x, f"matrix.rows[{i}][{j}]") for j, x in enumerate(row))
        )
    return RationalMatrix(tuple(out))


def serialize_matrix(matrix):
    if not isinstance(matrix, RationalMatrix):
        raise PreconditionViolated(f"need a RationalMatrix, got {type(matrix).__name__}")
    return {
        "dim": matrix.dim,
        "rows": [[rational_to_json(x) for x in row] for row in matrix.rows],
    }


def realify(blocks):
    """Real block multiset of a complex-diagonal generator.

    Input blocks are (size, re, im) triples over C (im of either sign).  A
    complex pair im != 0 contributes one real block of twice the dimension;
    a real eigenvalue im == 0 appears once per complex block, i.e. twice in
    the real form of the pair (the input lists each complex block once, so a
    real one maps to two copies).
    """
    out = []
    try:
        for blk in blocks:
            if not isinstance(blk, JordanBlock):
                m, re, im = blk
                blk = JordanBlock(m, re, im)
            out.extend((blk, blk) if blk.im == 0 else (blk,))
    except (TypeError, ValueError):  # blocks, or an entry, is not a sequence of three
        raise SpecParseError("realify takes a sequence of (size, re, im) triples") from None
    return GeneratorSpec(tuple(out))


def _layout(blocks):
    """The start coordinate of each half-chain of every (size, re, im)
    block, in block order: (off,) when im == 0, else (off, off + m)."""
    out, off = [], 0
    for m, _, im in blocks:
        out.append((off,) if im == 0 else (off, off + m))
        off += len(out[-1]) * m
    return out


def _reach(spec, x):
    """How far the point x reaches along each block's chain: 1 + the last
    position at which x is nonzero in either half-chain, or 0 if nowhere."""
    layout = _layout((b.size, b.re, b.im) for b in spec.blocks)
    return [max((i + 1 for i in range(b.size) if any(x[h + i] != 0 for h in halves)), default=0)
            for b, halves in zip(spec.blocks, layout)]


def _block_entries(blocks):
    """(row, column, value) of every entry of the block-diagonal generator
    of (size, re, im) blocks, im signed, that is not zero by layout: re on
    the diagonal, ones on the superdiagonal of each half-chain, and for
    im != 0 the coupling -im (first half to second) and im (second to first)."""
    blocks = tuple(blocks)
    for (m, re, im), halves in zip(blocks, _layout(blocks)):
        for h in halves:
            for i in range(m):
                yield h + i, h + i, re
                if i + 1 < m:
                    yield h + i, h + i + 1, 1
        if im != 0:
            u, v = halves
            for i in range(m):
                yield u + i, v + i, -im
                yield v + i, u + i, im


def materialize(spec):
    """Exact block-diagonal matrix for a generator.

    A size-m block with im == 0 is the usual Jordan block: re on the
    diagonal, ones on the superdiagonal.  With im = b > 0 the block is the
    2m x 2m matrix [[J, -b I], [b I, J]] acting on R^m x R^m.
    """
    d = _require_spec(spec).dim
    if not d:
        raise PreconditionViolated("empty generator has no matrix")
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i, j, v in _block_entries((b.size, b.re, b.im) for b in spec.blocks):
        rows[i][j] = v
    return RationalMatrix(tuple(tuple(r) for r in rows))
