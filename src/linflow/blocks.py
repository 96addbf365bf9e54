"""Exact data model for linear flows in real block normal form.

A generator is a finite multiset of real Jordan blocks.  Each block has a
size m >= 1, a rational growth rate ``re`` and a rational rotation rate
``im >= 0``.  A block with im == 0 acts on R^m (growth plus nilpotent
shift); a block with im > 0 couples the same data with a rotation and acts
on R^(2m).  Two generators are similar exactly when their block multisets
agree, which is why the multiset is the canonical object everywhere in this
package.

Every module uses one coordinate layout, computed only by `_layout`: the
blocks follow one another in order, a real block as one half-chain of m
coordinates and a rotating one as two, whose coordinates i turn together.
Along a half-chain the nilpotent shift moves each coordinate into the one
before it.

The JSON wire format is::

    {"blocks": [{"m": 2, "re": "-1/2", "im": 1}, ...]}

for generators, and ``{"dim": d, "rows": [[...], ...]}`` with rational
entries for matrices.  Rationals are integers or "p/q" strings.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import _ratlinalg as rl
from .errors import (
    ClusterAmbiguity,
    PreconditionViolated,
    SnapFailure,
    SpecParseError,
)

__all__ = [
    "JordanBlock",
    "GeneratorSpec",
    "RationalMatrix",
    "ApproxSpec",
    "parse_rational",
    "rational_to_json",
    "parse_spec",
    "serialize_spec",
    "parse_matrix",
    "serialize_matrix",
    "scale_spec",
    "time_reverse",
    "realify",
    "materialize",
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
    q = Fraction(q)
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


@dataclass(frozen=True, slots=True)
class JordanBlock:
    """One real Jordan block: size, growth rate, rotation rate (>= 0).

    A negative rotation rate is the same block in the mirrored orientation,
    so it is normalized away at construction.
    """

    size: int
    re: Fraction
    im: Fraction

    def __post_init__(self):
        if isinstance(self.size, bool) or not isinstance(self.size, int):
            raise SpecParseError("block size must be an integer")
        if self.size < 1:
            raise SpecParseError(f"block size must be >= 1, got {self.size}")
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", abs(Fraction(self.im)))

    @property
    def dim(self):
        """Real dimension the block acts on: m if im == 0 else 2m."""
        return self.size if self.im == 0 else 2 * self.size

    def sort_key(self):
        return (self.re, self.im, self.size)


@dataclass(frozen=True, slots=True)
class GeneratorSpec:
    """Canonically ordered multiset of blocks; equality is similarity."""

    blocks: tuple
    # real dimension, fixed at construction; not part of eq, hash or repr
    dim: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        blocks = tuple(sorted(self.blocks, key=JordanBlock.sort_key))
        for b in blocks:
            if not isinstance(b, JordanBlock):
                raise SpecParseError("GeneratorSpec takes JordanBlock entries")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "dim", sum(b.dim for b in blocks))

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self):
        return len(self.blocks)


@dataclass(frozen=True)
class RationalMatrix:
    """Dense square matrix with Fraction entries."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(Fraction(x) for x in row) for row in self.rows)
        d = len(rows)
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
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ApproxSpec:
    """A generator recovered from a matrix, with its certification data.

    ``residual`` is the largest distance between a computed eigenvalue and
    the rational it was snapped to; it is guaranteed <= ``tol``.  ``exact``
    records whether the rational spectrum was certified by exact polynomial
    division (True) or only numerically (False).
    """

    spec: GeneratorSpec
    residual: float
    tol: float
    source: str
    exact: bool

    @property
    def dim(self):
        return self.spec.dim


# ---------------------------------------------------------------------------
# parse / serialize


def _parse_block_obj(obj, where):
    if not isinstance(obj, dict):
        raise SpecParseError(f"{where}: block must be an object")
    extra = set(obj) - {"m", "re", "im"}
    if extra:
        raise SpecParseError(f"{where}: unknown field(s) {sorted(extra)}")
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


def parse_spec(source):
    """Parse a generator from JSON text or an already-decoded dict."""
    if isinstance(source, (str, bytes)):
        source = _load_json(source, "generator")
    if not isinstance(source, dict):
        raise SpecParseError("generator: top level must be an object")
    extra = set(source) - {"blocks"}
    if extra:
        raise SpecParseError(f"generator: unknown field(s) {sorted(extra)}")
    if "blocks" not in source:
        raise SpecParseError("generator: missing 'blocks'")
    blocks = source["blocks"]
    if not isinstance(blocks, list):
        raise SpecParseError("generator.blocks: must be a list")
    parsed = [
        _parse_block_obj(b, f"generator.blocks[{i}]") for i, b in enumerate(blocks)
    ]
    return GeneratorSpec(tuple(parsed))


def serialize_spec(spec):
    return {
        "blocks": [
            {"m": b.size, "re": rational_to_json(b.re), "im": rational_to_json(b.im)}
            for b in spec.blocks
        ]
    }


def parse_matrix(source):
    """Parse a rational matrix from JSON text or a decoded dict."""
    if isinstance(source, (str, bytes)):
        source = _load_json(source, "matrix")
    if not isinstance(source, dict):
        raise SpecParseError("matrix: top level must be an object")
    extra = set(source) - {"dim", "rows"}
    if extra:
        raise SpecParseError(f"matrix: unknown field(s) {sorted(extra)}")
    for key in ("dim", "rows"):
        if key not in source:
            raise SpecParseError(f"matrix: missing '{key}'")
    d = source["dim"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise SpecParseError("matrix.dim: must be a positive integer")
    rows = source["rows"]
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
    return {
        "dim": matrix.dim,
        "rows": [[rational_to_json(x) for x in row] for row in matrix.rows],
    }


# ---------------------------------------------------------------------------
# multiset operations


def scale_spec(spec, alpha):
    """Blocks of alpha * A: (m, re, im) -> (m, alpha*re, |alpha|*im).

    Speeding a flow up by alpha scales growth rates by alpha and rotation
    rates by |alpha| (a negative alpha also reverses orientation, which the
    normalized im absorbs).
    """
    alpha = Fraction(alpha)
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


def realify(blocks):
    """Real block multiset of a complex-diagonal generator.

    Input blocks are (size, re, im) triples over C (im of either sign).  A
    complex pair im != 0 contributes one real block of twice the dimension;
    a real eigenvalue im == 0 appears once per complex block, i.e. twice in
    the real form of the pair (the input lists each complex block once, so a
    real one maps to two copies).
    """
    out = []
    for blk in blocks:
        if isinstance(blk, JordanBlock):
            m, re, im = blk.size, blk.re, blk.im
        else:
            m, re, im = blk
        m = int(m)
        re = Fraction(re)
        im = Fraction(im)
        if im == 0:
            out.append(JordanBlock(m, re, 0))
            out.append(JordanBlock(m, re, 0))
        else:
            out.append(JordanBlock(m, re, abs(im)))
    return GeneratorSpec(tuple(out))


def _layout(blocks):
    """The start coordinate of each half-chain of every (size, re, im)
    block, in block order: (off,) when im == 0, else (off, off + m)."""
    out, off = [], 0
    for m, _, im in blocks:
        out.append((off,) if im == 0 else (off, off + m))
        off += len(out[-1]) * m
    return out


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
    d = spec.dim
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i, j, v in _block_entries((b.size, b.re, b.im) for b in spec.blocks):
        rows[i][j] = v
    return RationalMatrix(tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# matrix -> spec ingestion
#
# Exact tier, over the integers after one denominator clearing B = D*A (see
# _ratlinalg): the monic integer chi_B and its square-free part, proved
# square-free modulo a prime or else divided by a gcd over Z; polished float
# roots of the square-free part of chi_A; a limit_denominator snap of each
# root within tol; certification of each snapped eigenvalue by integer
# synthetic division of chi_B; block sizes from integer ranks of the powers
# of each eigenvalue's real factor of B.  If the spectrum is not exactly
# rational at the denominator bound, a numeric tier clusters float
# eigenvalues and measures ranks by SVD; either tier aborts with SnapFailure
# / ClusterAmbiguity rather than guess.


def _floats(values, what):
    """float() of each rational; SnapFailure, not OverflowError, past the float range."""
    try:
        return [float(x) for x in values]
    except OverflowError:
        raise SnapFailure(f"{what} beyond the float range") from None


def _horner(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _float_roots_squarefree(chi, D):
    """Polished float roots of the square-free part of chi_A, from chi = chi_B.

    sf_A(x) = D^-e sf_B(D x) for sf_B of degree e, so the coefficient of
    x^k is sf_B[k] / D^(e-k), rounded once by int / int true division: the
    same correctly rounded float as float() of the Fraction.
    """
    import numpy as np

    sf = rl.squarefree(chi)
    e = len(sf) - 1
    powers = [1]  # D^0 .. D^e
    for _ in range(e):
        powers.append(powers[-1] * D)
    try:
        coeffs = [c / powers[e - k] for k, c in enumerate(sf)]  # lowest degree first
        dcoeffs = [k * c / powers[e - k] for k, c in enumerate(sf) if k]
    except OverflowError:
        raise SnapFailure("characteristic polynomial coefficient beyond the float range") from None
    roots = np.roots(coeffs[::-1])
    polished = []
    for z in roots:
        z = complex(z)
        for _ in range(4):
            dz = _horner(dcoeffs, z)
            if dz == 0:
                break
            z = z - _horner(coeffs, z) / dz
        polished.append(z)
    return polished


def _snap(x, max_denominator):
    if not math.isfinite(x):
        raise SnapFailure(f"eigenvalue estimate {x} is not finite")
    return Fraction(x).limit_denominator(max_denominator)


def _real_factor(D, re, im):
    """Monic real factor over Z of the eigenvalue D*(re + i*im) of B, or None
    when it has non-integer coefficients and so divides no monic chi_B."""
    if im == 0:
        factor = [-D * re, 1]
    else:
        factor = [D * D * (re * re + im * im), -2 * D * re, 1]
    if any(c.denominator != 1 for c in factor[:-1]):
        return None
    return [int(c) for c in factor]


def _exact_tier(chi, D, tol, max_denominator):
    """Return (eigs, residual) or None; eigs maps (re, im>=0) -> multiplicity."""
    roots = _float_roots_squarefree(chi, D)
    # candidate rational eigenvalues, conjugates identified
    cands = []
    for z in roots:
        re_hat = _snap(z.real, max_denominator)
        im_hat = _snap(abs(z.imag), max_denominator)
        if abs(complex(z.real, abs(z.imag)) - complex(re_hat, im_hat)) > tol:
            return None
        pair = (re_hat, im_hat)
        if pair not in cands:
            cands.append(pair)
    remaining = chi
    eigs = {}
    for re_hat, im_hat in cands:
        factor = _real_factor(D, re_hat, im_hat)
        if factor is None:
            return None
        mult = 0
        while True:
            q, r = rl.divmod_monic(remaining, factor)
            if r:
                break
            remaining = q
            mult += 1
        if mult == 0:
            return None
        eigs[(re_hat, im_hat)] = mult
    if len(remaining) != 1:
        return None
    # residual: distance from every float root to its claimed rational
    residual = 0.0
    for z in roots:
        zc = complex(z.real, abs(z.imag))
        best = min(
            abs(zc - complex(re_hat, im_hat)) for re_hat, im_hat in eigs
        )
        residual = max(residual, best)
    return eigs, residual


def _check_cluster_separation(pts, tol):
    """ClusterAmbiguity if two distinct eigenvalues (exact tier) or cluster
    centres (numeric tier) lie closer than 2 tol, where a snap within tol
    could not tell them apart."""
    for i, z in enumerate(pts):
        for w in pts[i + 1 :]:
            if abs(z - w) < 2 * tol:
                raise ClusterAmbiguity(
                    f"eigenvalues {z:.12g} and {w:.12g} are closer than twice tol={tol}"
                )


def _sizes_from_ranks(ranks, total):
    """Block size counts from the rank sequence of powers.

    ranks[k] = rank((A - z)^k); blocks of size >= k number ranks[k-1] - ranks[k].
    """
    geq = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    sizes = []
    for k in range(1, len(geq) + 1):
        count = geq[k - 1] - (geq[k] if k < len(geq) else 0)
        if count < 0:
            return None
        sizes.extend([k] * count)
    if sum(sizes) != total:
        return None
    return sizes


def _structure(eigs, ranks, what):
    """The blocks of both tiers: at each eigenvalue (re, im) of multiplicity
    mult, sizes from ranks(re, im, mult), the rank sequence [rank((A - z)^k)
    for k = 0..mult] measured by that tier; what names it in the error."""
    blocks = []
    for (re_hat, im_hat), mult in eigs.items():
        sizes = _sizes_from_ranks(ranks(re_hat, im_hat, mult), mult)
        if sizes is None:
            raise SnapFailure(f"inconsistent {what} at eigenvalue ({re_hat}, {im_hat})")
        blocks.extend(JordanBlock(m, re_hat, im_hat) for m in sizes)
    return GeneratorSpec(tuple(blocks))


def _numeric_tier(matrix, tol, max_denominator):
    """(eigs, residual, ranks) from float eigenvalues clustered within tol
    and snapped, with SVD ranks of the float powers."""
    import numpy as np

    Mf = matrix.to_float()
    d = matrix.dim
    eigs = np.linalg.eigvals(Mf)
    pts = [complex(z.real, abs(z.imag)) for z in eigs]
    # greedy union clustering at distance tol
    clusters = []
    for z in pts:
        for cl in clusters:
            if any(abs(z - w) <= tol for w in cl):
                cl.append(z)
                break
        else:
            clusters.append([z])
    centers = [sum(cl) / len(cl) for cl in clusters]
    _check_cluster_separation(centers, tol)
    residual = 0.0
    parsed = {}
    for cl, z in zip(clusters, centers):
        re_hat = _snap(z.real, max_denominator)
        im_hat = _snap(z.imag, max_denominator)
        if im_hat < 0:
            im_hat = -im_hat
        snapped = complex(re_hat, im_hat)
        err = max(abs(w - snapped) for w in cl)
        if err > tol:
            raise SnapFailure(
                f"no rational with denominator <= {max_denominator} within "
                f"tol={tol} of eigenvalue {z:.12g} (best miss {err:.3e})"
            )
        residual = max(residual, err)
        key = (re_hat, im_hat)
        parsed[key] = parsed.get(key, 0) + len(cl)
    # pts folded both members of a conjugate pair onto the upper half plane,
    # so a count is the multiplicity over C for im == 0 and twice the number
    # of pairs for im > 0; halve the latter
    total = 0
    for (re_hat, im_hat), mult in list(parsed.items()):
        total += mult
        if im_hat > 0:
            if mult % 2:
                raise SnapFailure(
                    f"odd conjugate count at eigenvalue ({re_hat}, {im_hat})"
                )
            parsed[(re_hat, im_hat)] = mult // 2
    if total != d:
        raise SnapFailure("eigenvalue multiplicities do not sum to the dimension")

    def ranks(re_hat, im_hat, mult):
        S = Mf.astype(complex) - complex(re_hat, im_hat) * np.eye(d)
        P = np.eye(d, dtype=complex)
        out = [d]
        for _ in range(mult):
            P = P @ S
            sv = np.linalg.svd(P, compute_uv=False)
            thresh = tol * max(1.0, sv[0] if len(sv) else 0.0)
            out.append(int(np.sum(sv > thresh)))
        return out

    return parsed, residual, ranks


def spec_from_matrix(matrix, tol=1e-9, max_denominator=1024):
    """Recover the block multiset of a rational matrix, with certification.

    Tries the exact route first (rational characteristic polynomial,
    certified rational eigenvalues, exact rank sequences); falls back to a
    numeric route for matrices whose spectrum is only approximately rational
    at the denominator bound.  Raises SnapFailure or ClusterAmbiguity rather
    than return a guess.
    """
    if not (0 < tol < math.inf and max_denominator >= 1):
        raise PreconditionViolated(
            f"need a finite tol > 0 and max_denominator >= 1, got tol={tol}, "
            f"max_denominator={max_denominator}"
        )
    B, D = rl.integer_matrix(matrix.rows)
    exact = _exact_tier(rl.charpoly(B), D, tol, max_denominator)
    if exact is not None:
        eigs, residual = exact
        _check_cluster_separation([complex(re, im) for re, im in eigs], tol)
        what = "rank sequence"

        def ranks(re, im, mult):
            return rl.rank_sequence(B, D * re, D * im, mult)

    else:
        eigs, residual, ranks = _numeric_tier(matrix, tol, max_denominator)
        what = "numeric rank sequence"
    return ApproxSpec(
        spec=_structure(eigs, ranks, what),
        residual=float(residual),
        tol=float(tol),
        source=matrix.fingerprint(),
        exact=exact is not None,
    )
