"""The integer ingestion kernel against sympy as an independent oracle.

sympy is a test-only dependency: these tests skip when it is missing.
``charpoly`` is checked against ``sympy.Matrix.charpoly`` on dense rational
matrices, ``rank_sequence``, given the monic integer factor from
``real_factor`` of the retired float route, against exact ranks over Q(i) of the complex powers
(A - (re + i*im) I)^k that the kernel never forms, ``squarefree``
against ``sqf_part`` and ``factor_list`` on monic integer polynomials with
and without repeated factors, and ``divmod_monic`` against ``div``.
``charpoly`` and ``rank_sequence`` are checked again on entries of 40 and
more digits.  For the simple eigenvalues of dense P J P^-1 matrices the
oracle confirms the ranks [d, d - 1] that ingestion takes without an
elimination, and ``spec_from_matrix`` returns the spec it started from.
``rank_sequence`` fills in the ranks that the certified multiplicity fixes;
the full-elimination loop of ``full_rank_sequence`` checks those ranks on
a seeded pool of over 1000 eigenvalues, sympy on every partition of
multiplicity 2..6, and a count of ``_row_basis`` calls pins how few
eliminations five small structures need.  A block-diagonal matrix under a
random permutation is ingested one diagonal block at a time: the blocks'
charpolys multiply to the whole matrix's, the exact tier's multiplicities
in the blocks sum to each eigenvalue's, the blocks' rank sequences sum to
full elimination on the whole matrix, a normal form of several blocks never
passes the whole matrix to ``charpoly`` or ``rank_sequence``, and a dense
one passes it to ``charpoly`` once.  ``_numeric._snap``, the numeric
tier's snap, gives the numerator and denominator of
``Fraction.limit_denominator`` on seeded floats, ties included, at four
denominator bounds.
"""

import math
from datetime import timedelta
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linflow import GeneratorSpec, JordanBlock, RationalMatrix, materialize, spec_from_matrix
from linflow import _ratlinalg as rl
from linflow._numeric import _snap
from linflow.errors import InternalCheckError, SnapFailure

from conftest import random_spec
from float_exact_tier import real_factor
from full_rank_sequence import full_rank_sequence

sympy = pytest.importorskip("sympy")
from sympy.polys.domains import QQ_I  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

X = sympy.Symbol("x")
P61 = 2**61 - 1


def _to_fraction(q):
    q = sympy.Rational(q)
    return Fraction(int(q.p), int(q.q))


def _sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])


def _dense_rational(rng, d, denominators):
    return tuple(
        tuple(
            Fraction(int(rng.integers(-9, 10)), int(rng.choice(denominators)))
            for _ in range(d)
        )
        for _ in range(d)
    )


# ---------------------------------------------------------------------------
# charpoly


@pytest.mark.parametrize("d", range(1, 11))
@pytest.mark.parametrize(
    "denominators",
    [(1,), (1, 2, 3, 7), (10**12, 10**12 + 39, 3 * 10**12 - 1)],
    ids=["integer", "small-denominators", "1e12-denominators"],
)
def test_charpoly_matches_sympy(d, denominators):
    rng = np.random.default_rng([d, len(denominators)])
    rows = _dense_rational(rng, d, denominators)
    expected = [_to_fraction(c) for c in reversed(_sympy_matrix(rows).charpoly(X).all_coeffs())]
    B, D = rl.integer_matrix(rows)
    chi = rl.charpoly(B)
    assert all(type(c) is int for c in chi) and chi[-1] == 1
    # chi_A(x) = D^-d chi_B(D x)
    assert [Fraction(c, D ** (d - k)) for k, c in enumerate(chi)] == expected


def test_charpoly_of_singular_and_zero_matrices():
    assert rl.charpoly([[0]]) == [0, 1]
    assert rl.charpoly([[0] * 3 for _ in range(3)]) == [0, 0, 0, 1]
    rank_one = tuple(tuple(Fraction(i * j, 3) for j in range(1, 4)) for i in range(1, 4))
    B, D = rl.integer_matrix(rank_one)
    assert D == 3
    # trace 1 + 4 + 9 and nothing else
    assert rl.charpoly(B) == [0, 0, -14, 1]


# ---------------------------------------------------------------------------
# rank_sequence


def _conjugate(rng, spec):
    """P J P^-1 with a dense random integer P, exact over Q."""
    d = spec.dim
    while True:
        P = sympy.Matrix(d, d, [int(v) for v in rng.integers(-2, 3, size=d * d)])
        if P.det() != 0:
            break
    A = P * _sympy_matrix(materialize(spec).rows) * P.inv()
    return tuple(tuple(_to_fraction(A[i, j]) for j in range(d)) for i in range(d))


def _oracle_ranks(rows, re, im, kmax):
    d = len(rows)
    z = sympy.Rational(re.numerator, re.denominator) + sympy.I * sympy.Rational(
        im.numerator, im.denominator
    )
    S = DomainMatrix.from_Matrix(_sympy_matrix(rows) - z * sympy.eye(d)).convert_to(QQ_I)
    ranks = [d]
    power = DomainMatrix.eye(d, QQ_I)
    for _ in range(kmax):
        power = power * S
        ranks.append(power.rank())
    return ranks


def _multiplicities(spec):
    mult = {}
    for b in spec.blocks:
        mult[(b.re, b.im)] = mult.get((b.re, b.im), 0) + b.size
    return mult


def _spec(*blocks):
    return GeneratorSpec(tuple(JordanBlock(m, Fraction(re), Fraction(im)) for m, re, im in blocks))


STRUCTURED = [
    _spec((2, "1/2", 0), (1, "1/2", 0), (1, -1, 0)),  # repeated real eigenvalue
    _spec((1, "1/2", 0), (1, "1/2", 0), (1, "1/2", 0), (1, 2, 0)),  # semisimple, repeated
    _spec((3, 1, 0), (1, 1, 0), (2, -2, 0)),  # block of size 3 beside a 1
    _spec((3, 0, 0), (2, 0, 0), (1, 0, 0)),  # nilpotent
    _spec((1, 0, 1), (1, 0, 1)),  # repeated rotation pair
    _spec((2, "-1/2", "3/2"), (1, "-1/2", "3/2")),  # repeated defective pair
    _spec((3, "1/3", 2)),  # pair with a block of size 3
    _spec((1, 1, "2/5"), (1, 1, 0), (2, 1, 0)),  # pair and real sharing re
]


@pytest.mark.parametrize("case", range(len(STRUCTURED) + 12))
def test_rank_sequence_matches_sympy(case):
    rng = np.random.default_rng(case)
    if case < len(STRUCTURED):
        spec = STRUCTURED[case]
    else:
        spec = random_spec(rng, max_dim=6)
    rows = _conjugate(rng, spec)
    B, D = rl.integer_matrix(rows)
    for (re, im), mult in _multiplicities(spec).items():
        # the eigenvalues of B = D A are D times those of A; the ranks run
        # to k = mult, the certified multiplicity that ingestion passes
        ranks = rl.rank_sequence(B, real_factor(D, re, im), mult)
        assert ranks == _oracle_ranks(rows, re, im, mult)
    # not an eigenvalue: full rank, which contradicts any claimed multiplicity.
    # 7/3 and 7/3 + i/5, scaled by 15 D, have integer factors over B (the
    # roots 35 D and 35 D + 3 D i), and neither divides chi_B
    chi = rl.charpoly(B)
    for re, im in ((Fraction(7, 3), Fraction(0)), (Fraction(7, 3), Fraction(1, 5))):
        factor = real_factor(15 * D, re, im)
        assert rl.divmod_monic(chi, factor)[1]
        with pytest.raises(InternalCheckError):
            rl.rank_sequence(B, factor, 2)


@pytest.mark.parametrize("D, re, im, factor", [
    (1, 3, 0, [-3, 1]),
    (4, Fraction(-5, 4), 0, [5, 1]),
    (1, Fraction(1, 2), 0, None),  # B has no eigenvalue 1/2: chi_B is monic in Z[x]
    (2, Fraction(1, 2), Fraction(1, 2), [2, -2, 1]),  # 1 +- i
    (1, Fraction(1, 2), Fraction(3, 2), None),  # x^2 - x + 5/2
    (1, Fraction(1, 2), Fraction(1, 2), None),  # x^2 - x + 1/2
])
def test_real_factor_is_monic_over_z_or_none(D, re, im, factor):
    got = real_factor(D, Fraction(re), Fraction(im))
    assert got == factor
    assert got is None or all(type(c) is int for c in got)
    # the exact tier reads the eigenvalue back from the factor, within the
    # denominator bound and not below it
    if got is not None:
        re, im = Fraction(re), Fraction(im)
        tight = max(re.denominator, im.denominator)
        assert rl._eigenvalue(got, D, tight) == (re, im)
        assert tight == 1 or rl._eigenvalue(got, D, tight - 1) is None


def _simple_spec(rng, d, repeated):
    """Distinct simple real eigenvalues and pairs, total dimension d, and
    when repeated also one defective real eigenvalue of multiplicity 3."""
    blocks = [(2, Fraction(-5, 4), 0), (1, Fraction(-5, 4), 0)] if repeated else []
    seen = {(Fraction(-5, 4), Fraction(0))}
    dim = 3 if repeated else 0
    while dim < d:
        pair = d - dim >= 2 and rng.random() < 0.5
        re = Fraction(int(rng.integers(-12, 13)), int(rng.choice((1, 2, 3))))
        im = Fraction(int(rng.integers(1, 9)), int(rng.choice((1, 2)))) if pair else Fraction(0)
        if (re, im) not in seen:
            seen.add((re, im))
            blocks.append((1, re, im))
            dim += 2 if pair else 1
    return _spec(*blocks)


@pytest.mark.parametrize("d, repeated", [(4, False), (6, True), (8, False), (9, True),
                                         (12, False), (12, True)])
def test_simple_eigenvalue_ranks_need_no_elimination(d, repeated, monkeypatch):
    # a simple eigenvalue is one block of size 1: complex ranks [d, d - 1],
    # which ingestion takes without calling rank_sequence
    rng = np.random.default_rng([d, repeated])
    spec = _simple_spec(rng, d, repeated)
    assert spec.dim == d
    rows = _conjugate(rng, spec)
    B, D = rl.integer_matrix(rows)
    mult = _multiplicities(spec)
    for (re, im), m in mult.items():
        if m == 1:
            assert rl.rank_sequence(B, real_factor(D, re, im), 1) == [d, d - 1]
            assert _oracle_ranks(rows, re, im, 1) == [d, d - 1]
    calls = []
    rank_sequence = rl.rank_sequence

    def counted(*args):
        calls.append(args)
        return rank_sequence(*args)

    monkeypatch.setattr(rl, "rank_sequence", counted)
    rec = spec_from_matrix(RationalMatrix(rows))
    assert rec.exact and rec.spec == spec
    assert len(calls) == sum(m >= 2 for m in mult.values())


def _big(rng):
    """A random integer of 41 to 43 digits, either sign."""
    sign = int(rng.choice((-1, 1)))
    return sign * (10**40 + int.from_bytes(rng.bytes(18), "big") % 10**42)


def test_charpoly_matches_sympy_on_40_digit_entries():
    rng = np.random.default_rng(40)
    rows = tuple(
        tuple(Fraction(_big(rng), int(rng.choice((1, 7, 10**3 + 9)))) for _ in range(8))
        for _ in range(8)
    )
    assert all(abs(x.numerator) >= 10**39 for row in rows for x in row)
    expected = [_to_fraction(c) for c in reversed(_sympy_matrix(rows).charpoly(X).all_coeffs())]
    B, D = rl.integer_matrix(rows)
    chi = rl.charpoly(B)
    assert chi[-1] == 1
    assert [Fraction(c, D ** (8 - k)) for k, c in enumerate(chi)] == expected


def test_rank_sequence_matches_sympy_on_40_digit_entries():
    # P J P^-1 with a dense P of 40-digit entries, so every product in the
    # kernel, the B^2 of the pair included, runs on big integers
    rng = np.random.default_rng(41)
    spec = _spec((2, "1/2", 0), (1, "1/2", 0), (2, "-1/3", "5/2"), (1, 3, 0))
    d = spec.dim
    P = sympy.Matrix(d, d, [_big(rng) for _ in range(d * d)])
    A = P * _sympy_matrix(materialize(spec).rows) * P.inv()
    rows = tuple(tuple(_to_fraction(A[i, j]) for j in range(d)) for i in range(d))
    B, D = rl.integer_matrix(rows)
    assert all(abs(x) >= 10**39 for row in B for x in row)
    for (re, im), mult in _multiplicities(spec).items():
        assert rl.rank_sequence(B, real_factor(D, re, im), mult) == _oracle_ranks(
            rows, re, im, mult
        )
    assert rl.charpoly(B) == [
        int(c) for c in reversed(_sympy_matrix([[Fraction(x) for x in r] for r in B]).charpoly(X).all_coeffs())
    ]


def test_rank_sequence_kmax_zero_is_just_the_dimension():
    B, _ = rl.integer_matrix(materialize(_spec((2, 1, 0))).rows)
    assert rl.rank_sequence(B, [-1, 1], 0) == [2]


def _elementary_conjugate(rng, spec):
    """E J E^-1 for E a product of 3d elementary integer matrices I + c e_i e_j^T,
    c = +-1: a dense conjugate, exact over Q, without a matrix inverse."""
    A = [list(row) for row in materialize(spec).rows]
    d = len(A)
    for _ in range(3 * d):
        i, j = (int(v) for v in rng.choice(d, size=2, replace=False))
        c = int(rng.choice((-1, 1)))
        A[i] = [x + c * y for x, y in zip(A[i], A[j])]  # E A: row i += c row j
        for row in A:  # (E A) E^-1: column j -= c column i
            row[j] -= c * row[i]
    return tuple(tuple(row) for row in A)


def _repeated_spec(rng, max_dim):
    """Blocks of sizes 1..4, each sharing an earlier eigenvalue with
    probability 1/2, real or a pair, total dimension 2..max_dim."""
    target = int(rng.integers(2, max_dim + 1))
    blocks, eigs, dim = [], [], 0
    while dim < target:
        if eigs and rng.random() < 0.5:
            re, im = eigs[int(rng.integers(len(eigs)))]
        else:
            re = Fraction(int(rng.integers(-8, 9)), int(rng.choice((1, 2, 4))))
            im = Fraction(int(rng.integers(1, 7)), int(rng.choice((1, 2)))) if rng.random() < 0.4 else 0
            eigs.append((re, im))
        m = min(int(rng.integers(1, 5)), (target - dim) // (2 if im else 1))
        if m:
            blocks.append((m, re, im))
            dim += m * (2 if im else 1)
    return _spec(*blocks)


def test_rank_sequence_matches_full_elimination_on_a_seeded_pool():
    # every eigenvalue of 600 dense conjugates, d <= 12: the ranks that the
    # stopping rule fills in are the ones each further elimination would find
    rng = np.random.default_rng(23)
    checked = repeated = 0
    for _ in range(600):
        spec = _repeated_spec(rng, 12)
        B, D = rl.integer_matrix(_elementary_conjugate(rng, spec))
        for (re, im), mult in _multiplicities(spec).items():
            factor = real_factor(D, re, im)
            ranks = rl.rank_sequence(B, factor, mult)
            assert ranks == full_rank_sequence(B, factor, mult)
            sizes = sorted(b.size for b in spec.blocks if (b.re, b.im) == (re, im))
            assert rl._sizes_from_ranks(ranks, mult) == sizes
            checked += 1
            repeated += mult > 1
    assert checked >= 1000 and repeated >= 700


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
    for m in range(min(n, largest), 0, -1):
        for rest in _partitions(n - m, m):
            yield (m,) + rest


PARTITIONS = [p for n in range(2, 7) for p in _partitions(n)]


@pytest.mark.parametrize("im", [0, Fraction(3, 2)], ids=["real", "pair"])
@pytest.mark.parametrize("sizes", PARTITIONS, ids=lambda p: "+".join(map(str, p)))
def test_rank_sequence_matches_sympy_on_every_partition(sizes, im):
    # one eigenvalue with blocks `sizes`, beside a second eigenvalue
    rng = np.random.default_rng(len(sizes) * 10 + sum(sizes))
    re = Fraction(-1, 2)
    spec = _spec(*((m, re, im) for m in sizes), (1, 2, 0))
    rows = _elementary_conjugate(rng, spec)
    B, D = rl.integer_matrix(rows)
    mult = sum(sizes)
    ranks = rl.rank_sequence(B, real_factor(D, re, Fraction(im)), mult)
    assert ranks == _oracle_ranks(rows, re, Fraction(im), mult)
    assert rl._sizes_from_ranks(ranks, mult) == sorted(sizes)


@pytest.mark.parametrize("im", [0, Fraction(3, 2)], ids=["real", "pair"])
@pytest.mark.parametrize("sizes, eliminations", [
    ((3,), 1), ((2, 1), 1), ((1, 1, 1), 1), ((3, 1), 2), ((2, 2), 2),
], ids=["3", "2+1", "1+1+1", "3+1", "2+2"])
def test_rank_sequence_takes_only_the_eliminations_it_needs(sizes, eliminations, im,
                                                            monkeypatch):
    # after the first elimination, [3] and [2, 1] drop by one block width
    # to one width above the floor and [1, 1, 1] reaches it; [3, 1] and
    # [2, 2] leave two blocks open and need the rank of the square
    rng = np.random.default_rng(len(sizes))
    re = Fraction(1, 3)
    spec = _spec(*((m, re, im) for m in sizes), (2, -1, 0))
    B, D = rl.integer_matrix(_elementary_conjugate(rng, spec))
    calls = []
    row_basis = rl._row_basis

    def counted(vecs):
        calls.append(len(vecs))
        return row_basis(vecs)

    monkeypatch.setattr(rl, "_row_basis", counted)
    mult = sum(sizes)
    ranks = rl.rank_sequence(B, real_factor(D, re, Fraction(im)), mult)
    assert rl._sizes_from_ranks(ranks, mult) == sorted(sizes)
    assert len(calls) == eliminations


# ---------------------------------------------------------------------------
# diagonal blocks: a decomposable matrix is ingested one block at a time


def _permuted_block_diagonal(rng, max_groups=4):
    """(spec, rows): Q J Q^T for a random permutation Q and J block-diagonal
    in 2..max_groups groups, each group the materialized blocks of a random
    spec or a dense conjugate of them; eigenvalues recur across groups."""
    groups = [_repeated_spec(rng, 4) for _ in range(int(rng.integers(2, max_groups + 1)))]
    d = sum(g.dim for g in groups)
    J = [[Fraction(0)] * d for _ in range(d)]
    off = 0
    for g in groups:
        rows = _elementary_conjugate(rng, g) if rng.random() < 0.5 else materialize(g).rows
        for i, row in enumerate(rows):
            J[off + i][off:off + g.dim] = row
        off += g.dim
    perm = [int(v) for v in rng.permutation(d)]
    rows = tuple(tuple(J[perm[i]][perm[j]] for j in range(d)) for i in range(d))
    return GeneratorSpec(tuple(b for g in groups for b in g.blocks)), rows


def test_permuted_block_diagonal_matrices_ingest_exactly():
    # the spec comes back exact from every simultaneous row and column
    # permutation of a block-diagonal matrix, some of whose blocks are dense
    rng = np.random.default_rng(41)
    split = 0
    for _ in range(60):
        spec, rows = _permuted_block_diagonal(rng)
        rec = spec_from_matrix(RationalMatrix(rows))
        assert rec.exact and rec.spec == spec
        split += len(rl._diagonal_blocks(rl.integer_matrix(rows)[0])) > 1
    assert split == 60


def test_the_blocks_multiply_to_chi_and_sum_to_the_ranks():
    # chi_B is the product of the blocks' charpolys; at every eigenvalue the
    # exact tier's per-block multiplicities sum to the spec's, and the blocks'
    # rank sequences, each held at its last rank past its own multiplicity,
    # sum to full elimination on the whole matrix
    rng = np.random.default_rng(43)
    across = 0
    for _ in range(40):
        spec, rows = _permuted_block_diagonal(rng)
        B, D = rl.integer_matrix(rows)
        parts = [(Bc, rl.charpoly(Bc)) for Bc in rl._diagonal_blocks(B)]
        chi = parts[0][1]
        for _, chi_c in parts[1:]:
            chi = rl._poly_mul(chi, chi_c)
        assert chi == rl.charpoly(B)
        eigs, factors = rl._exact_tier(parts, D, 1024)
        assert eigs == _multiplicities(spec)
        for (re, im), mult in eigs.items():
            factor, held = factors[re, im]
            assert factor == real_factor(D, re, im)
            assert len(held) == len(parts) and sum(held) == mult
            total = [0] * (mult + 1)
            for (Bc, _), m in zip(parts, held):
                ranks = rl.rank_sequence(Bc, factor, m)
                for k in range(mult + 1):
                    total[k] += ranks[min(k, m)]
            assert total == full_rank_sequence(B, factor, mult)
            across += sum(m > 0 for m in held) > 1
    assert across >= 20


def test_materialized_blocks_are_the_components():
    rng = np.random.default_rng(47)
    for _ in range(20):
        spec = _repeated_spec(rng, 12)
        rows = materialize(spec).rows
        d = len(rows)
        perm = [int(v) for v in rng.permutation(d)]
        B, _ = rl.integer_matrix([[rows[perm[i]][perm[j]] for j in range(d)] for i in range(d)])
        assert sorted(map(len, rl._diagonal_blocks(B))) == sorted(b.dim for b in spec.blocks)
    # a connected pattern is B itself, not a copy
    B, _ = rl.integer_matrix(_conjugate(rng, STRUCTURED[0]))
    assert rl._diagonal_blocks(B)[0] is B and len(rl._diagonal_blocks(B)) == 1


def _counting(monkeypatch, name):
    calls = []
    inner = getattr(rl, name)

    def counted(B, *args):
        calls.append(len(B))
        return inner(B, *args)

    monkeypatch.setattr(rl, name, counted)
    return calls


@pytest.mark.parametrize("case", [c for c, spec in enumerate(STRUCTURED) if len(spec) > 1])
def test_decomposable_input_never_reaches_the_kernels_whole(case, monkeypatch):
    # a normal form of two or more blocks passes only its diagonal blocks to
    # charpoly and rank_sequence; a dense conjugate passes the whole B to
    # charpoly, once
    spec = STRUCTURED[case]
    charpolys = _counting(monkeypatch, "charpoly")
    ranks = _counting(monkeypatch, "rank_sequence")
    assert spec_from_matrix(materialize(spec)).spec == spec
    assert charpolys and max(charpolys + ranks) < spec.dim
    assert sorted(charpolys) == sorted(b.dim for b in spec.blocks)
    del charpolys[:], ranks[:]
    rng = np.random.default_rng(case)
    rows = _conjugate(rng, spec)
    while not all(x for row in rows for x in row):  # dense: no zero entry
        rows = _conjugate(rng, spec)
    assert spec_from_matrix(RationalMatrix(rows)).spec == spec
    assert charpolys == [spec.dim]
    assert all(n == spec.dim for n in ranks)


# ---------------------------------------------------------------------------
# the snap kernel against Fraction.limit_denominator


def _snap_inputs(bound):
    rng = np.random.default_rng(bound)
    ks = [int(k) for k in rng.integers(-4000, 4001, size=200)]
    xs = [k / 4 for k in ks]
    xs += [k / 4 + 1e-12 for k in ks] + [k / 4 - 1e-12 for k in ks]
    xs += [float(v) / (2 * bound) for v in rng.uniform(-1, 1, size=200)]  # |x| < 1/(2N)
    xs += [(2 * k + 1) / (2 * bound) for k in ks]  # midway between two k/N
    xs += [k + 0.5 for k in ks]  # midway between two integers
    xs += [float(v) for v in rng.uniform(-50, 50, size=400)]
    xs += [float(v) for v in rng.standard_normal(200) * 1e6]
    return xs + [-x for x in xs] + [0.0, -0.0, 5e-324, 1e300, -1e300]


@pytest.mark.parametrize("bound", [1, 7, 1024, 10**6])
def test_snap_matches_limit_denominator(bound):
    for x in _snap_inputs(bound):
        got = _snap(x, bound)
        want = Fraction(x).limit_denominator(bound)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator), x


def test_snap_breaks_a_tie_as_limit_denominator_does():
    # 5/2 lies midway between 2 and 3, 1/2048 between 0 and 1/1024: the
    # last convergent wins
    assert _snap(2.5, 1) == 2 and _snap(-2.5, 1) == -3
    assert _snap(1 / 2048, 1024) == 0 and _snap(-1 / 2048, 1024) == 0


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_snap_refuses_a_value_that_is_not_finite(x):
    with pytest.raises(SnapFailure):
        _snap(x, 1024)


# ---------------------------------------------------------------------------
# integer polynomials: square-free part and division by a monic divisor


def _to_sympy(p):
    return sympy.Poly(list(reversed(p)) or [0], X, domain="ZZ")


def _from_sympy(poly):
    p = [int(c) for c in reversed(poly.all_coeffs())]
    while p and p[-1] == 0:
        p.pop()
    return p


def _product(factors):
    out = sympy.Poly(1, X, domain="ZZ")
    for f, e in factors:
        out = out * _to_sympy(f) ** e
    return _from_sympy(out)


_LINEAR = st.integers(-60, 60).map(lambda c: [-c, 1])
_QUADRATIC = st.tuples(st.integers(-30, 30), st.integers(-300, 300)).map(lambda bc: [bc[1], bc[0], 1])
_FACTORS = st.lists(st.tuples(st.one_of(_LINEAR, _QUADRATIC), st.integers(1, 3)), min_size=1, max_size=4)


@settings(max_examples=80, deadline=timedelta(seconds=1))
@given(_FACTORS)
def test_squarefree_matches_sympy(factors):
    f = _product(factors)
    poly = _to_sympy(f)
    sf = rl.squarefree(f)
    assert sf == _from_sympy(poly.sqf_part())
    # the distinct irreducible factors, each once
    irreducible = poly.factor_list()[1]
    assert len(sf) - 1 == sum(g.degree() for g, _ in irreducible)
    assert (sf == f) == all(e == 1 for _, e in irreducible)


@pytest.mark.parametrize(
    "factors",
    [
        [([-P61, 1], 1), ([P61, 1], 1)],  # x^2 - p^2: x^2 mod p
        [([-1, 1], 1), ([-1 - P61, 1], 1)],  # roots 1 and 1 + p
        [([-P61, 1], 2), ([P61, 1], 1)],  # a true square besides
        [([P61 * P61, 0, 1], 1), ([0, 1], 2)],  # x^2 + p^2 next to x^2
    ],
)
def test_squarefree_falls_back_when_the_prime_divides_the_discriminant(factors):
    f = _product(factors)
    # the modular test is inconclusive, so the gcd over Z has to decide
    assert not rl._coprime_mod(f, [k * c for k, c in enumerate(f)][1:], rl._PRIME)
    assert rl.squarefree(f) == _from_sympy(_to_sympy(f).sqf_part())


@settings(max_examples=80, deadline=timedelta(seconds=1))
@given(
    st.lists(st.integers(-(10**30), 10**30), max_size=12),
    st.lists(st.integers(-(10**6), 10**6), max_size=5),
)
def test_divmod_monic_matches_sympy(num, den):
    while num and num[-1] == 0:
        num.pop()
    den = den + [1]
    q, r = rl.divmod_monic(num, den)
    eq, er = sympy.div(_to_sympy(num), _to_sympy(den))
    assert (q, r) == (_from_sympy(eq), _from_sympy(er))


# ---------------------------------------------------------------------------
# typed failures instead of asserts


def test_divmod_monic_by_zero_is_an_internal_error():
    # zero, and any divisor that is not monic, leaves Z[x]
    for den in ([0], [], [1, 2]):
        with pytest.raises(InternalCheckError):
            rl.divmod_monic([1, 1], den)

