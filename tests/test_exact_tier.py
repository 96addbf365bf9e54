"""The exact tier of matrix ingestion against independent oracles.

``_ratlinalg._exact_tier`` takes its candidates from the roots of sf_B
modulo a prime p = 1 mod 4, lifted p-adically, and certifies them by exact
division.  Three oracles check it on seeded pools of the benchmark's input
kinds (``bench/gen.py``: block-diagonal normal forms, dense conjugates
P J P^-1 and near-rational matrices) at d = 2..12:

* sympy's ``factor_list`` of chi_B: the tier certifies exactly when every
  irreducible factor is linear or the quadratic of a rational pair, with
  denominators within the bound, and then returns each factor's
  eigenvalue at its multiplicity.  The rational pairs of the dense
  conjugates split mod the chosen prime, into two of the lifted roots.
* The retired float route (``float_exact_tier``): wherever it certified,
  the tier certifies the same eigenvalues, multiplicities and factors.
* A metamorphic sweep: ingest(alpha A) = alpha ingest(A) while the
  denominators stay within the bound (and is not certified past it),
  ingest(A^T) = ingest(A), and ingest(P A P^-1) = ingest(A) for P in
  GL(d, Z).

Pins: diag(1, ..., 12) and diag(1, ..., 24) are certified, and so is
[[0, 2^61 - 1], [2^61 - 1, 0]], as +-(2^61 - 1); near-rational inputs
whose spectra sympy proves rational, at denominators of about 10^12, stay
uncertified; an exact spec's residual is 0.0 whatever tol.
"""

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from linflow import GeneratorSpec, JordanBlock, RationalMatrix, materialize, scale_spec
from linflow import spec_from_matrix
from linflow import _ratlinalg as rl
from linflow.errors import LinFlowError

from float_exact_tier import float_exact_tier

sympy = pytest.importorskip("sympy")

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
try:
    import gen
finally:
    sys.path.remove(str(BENCH))

X = sympy.Symbol("x")
KINDS = ("blockdiag", "dense", "numeric")


def _make(rng, kind, d):
    """(spec, matrix) as the benchmark's ingest workload builds them."""
    spec = gen.spec_of_dim(rng, d, semisimple=(kind == "numeric"), shape_rng=rng, odd=True)
    if kind == "blockdiag":
        return spec, materialize(spec)
    if kind == "dense":
        return spec, gen.dense_conjugate(rng, spec)
    return spec, gen.near_rational(rng, spec)


def _parts(rows):
    B, D = rl.integer_matrix(rows)
    return [(Bc, rl.charpoly(Bc)) for Bc in rl._diagonal_blocks(B)], D


def _multiplicities(spec):
    mult = {}
    for b in spec.blocks:
        mult[(b.re, b.im)] = mult.get((b.re, b.im), 0) + b.size
    return mult


def _oracle(rows, max_denominator=1024):
    """(eigs, factors) that sympy's factorization of chi_B implies, or None
    when some factor is not linear or a rational pair within the bound."""
    B, D = rl.integer_matrix(rows)
    _, found = sympy.Poly(list(reversed(rl.charpoly(B))), X).factor_list()
    eigs, factors = {}, {}
    for g, e in found:
        coeffs = [int(c) for c in reversed(g.all_coeffs())]
        if coeffs[-1] != 1:  # chi_B is monic, so its irreducible factors can be too
            coeffs = [-c for c in coeffs]
        if len(coeffs) == 2:
            pair = (Fraction(-coeffs[0], D), Fraction(0))
        elif len(coeffs) == 3:
            v, u, _ = coeffs
            s = sympy.sqrt(4 * v - u * u)
            if not (s.is_Integer and s > 0):
                return None
            pair = (Fraction(-u, 2 * D), Fraction(int(s), 2 * D))
        else:
            return None
        if max(q.denominator for q in pair) > max_denominator:
            return None
        eigs[pair] = e
        factors[pair] = coeffs
    return eigs, factors


def _pool(seed, per=4):
    rng = np.random.default_rng(seed)
    return [(kind, d) + _make(rng, kind, d) for d in range(2, 13) for kind in KINDS
            for _ in range(per)]


def test_exact_tier_matches_sympy_factor_list():
    certified = split_pairs = 0
    for kind, d, spec, m in _pool(101):
        parts, D = _parts(m.rows)
        got = rl._exact_tier(parts, D, 1024)
        want = _oracle(m.rows)
        if want is None:
            assert got is None, (kind, d)
            continue
        eigs, factors = got
        assert eigs == want[0], (kind, d)
        assert {k: f for k, (f, _) in factors.items()} == want[1]
        assert eigs == _multiplicities(spec)
        certified += 1
        # each rational pair splits mod the prime: two of the lifted roots
        roots, M = rl._lifted_roots(rl.squarefree(rl.charpoly(rl.integer_matrix(m.rows)[0])))
        for (re, im), (factor, _) in factors.items():
            if im:
                v, u, _ = factor
                hits = [r for r in roots if (r * r + u * r + v) % M == 0]
                assert len(hits) == 2
                split_pairs += kind == "dense"
    assert certified >= 80 and split_pairs >= 40


def test_exact_tier_agrees_with_the_float_route_wherever_it_certified():
    agreed = 0
    for kind, d, spec, m in _pool(102, per=3):
        parts, D = _parts(m.rows)
        want = float_exact_tier(parts, D, 1e-9, 1024)
        if want is not None:
            assert rl._exact_tier(parts, D, 1024) == want, (kind, d)
            agreed += 1
    assert agreed >= 60


def _unimodular_conjugate(rng, rows):
    """E A E^-1 for E a product of 3d elementary integer matrices."""
    A = [list(row) for row in rows]
    d = len(A)
    for _ in range(3 * d):
        i, j = (int(v) for v in rng.choice(d, size=2, replace=False))
        c = int(rng.choice((-2, -1, 1, 2)))
        A[i] = [x + c * y for x, y in zip(A[i], A[j])]
        for row in A:
            row[j] -= c * row[i]
    return tuple(tuple(row) for row in A)


def _ingest(rows):
    """(spec, exact) of a matrix, or the error type where ingestion refuses."""
    try:
        rec = spec_from_matrix(RationalMatrix(rows))
    except LinFlowError as exc:
        return type(exc).__name__
    return rec.spec, rec.exact


@pytest.mark.parametrize("alpha", [Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(-3, 5),
                                   Fraction(7, 3), Fraction(1, 1025)])
def test_ingestion_commutes_with_scaling_within_the_bound(alpha):
    rng = np.random.default_rng([103, abs(alpha.numerator), alpha.denominator, int(alpha < 0)])
    scaled = beyond = 0
    for d in range(2, 9):
        for kind in ("blockdiag", "dense"):
            spec, m = _make(rng, kind, d)
            got = _ingest(tuple(tuple(alpha * x for x in row) for row in m.rows))
            want = scale_spec(spec, alpha)
            if max(q.denominator for b in want.blocks for q in (b.re, b.im)) <= 1024:
                assert got == (want, True)
                scaled += 1
            else:  # refused, or snapped by the numeric tier
                assert isinstance(got, str) or got[1] is False
                beyond += 1
    assert scaled + beyond == 14 and (scaled or alpha == Fraction(1, 1025))


def test_ingestion_commutes_with_transposition_and_unimodular_conjugation():
    rng = np.random.default_rng(104)
    exact = 0
    for kind, d, spec, m in _pool(105, per=2):
        got = _ingest(m.rows)
        assert _ingest(tuple(zip(*m.rows))) == got, (kind, d)
        conj = _unimodular_conjugate(rng, m.rows)
        if kind == "numeric":
            assert _ingest(conj)[1] is False
        else:
            assert _ingest(conj) == got == (spec, True), (kind, d)
            exact += 1
    assert exact == 2 * 2 * 11


@pytest.mark.parametrize("n", [12, 24])
def test_integer_diagonals_are_certified(n):
    # the float route refused diag(1, ..., 12), rooting the product of the
    # blocks' charpolys; the first prime at which 1..n stay distinct serves
    rows = tuple(tuple(Fraction(i + 1) if i == j else Fraction(0) for j in range(n))
                 for i in range(n))
    rec = spec_from_matrix(RationalMatrix(rows))
    assert (rec.exact, rec.residual) == (True, 0.0)
    assert rec.spec == GeneratorSpec(tuple(JordanBlock(1, i, 0) for i in range(1, n + 1)))


def test_eigenvalues_at_the_mersenne_prime_are_certified():
    # x^2 - p^2 is not square-free mod p = 2^61 - 1, the prime of the
    # square-free test; the float route left it to the numeric tier, which
    # returned -2305843009213693440 and 2305843009213694464
    p = 2**61 - 1
    rec = spec_from_matrix(RationalMatrix(((0, p), (p, 0))))
    assert (rec.exact, rec.residual) == (True, 0.0)
    assert rec.spec == GeneratorSpec((JordanBlock(1, -p, 0), JordanBlock(1, p, 0)))


def test_rational_near_rational_spectra_stay_uncertified():
    # a near-rational input can have an exactly rational spectrum, at
    # denominators of about 10^12: the bound keeps it out of the exact tier
    rng = np.random.default_rng(106)
    rational = 0
    for _ in range(60):
        d = int(rng.integers(2, 5))
        spec, m = _make(rng, "numeric", d)
        if _oracle(m.rows, max_denominator=10**13) is None:
            continue
        rational += 1
        assert _oracle(m.rows) is None
        rec = spec_from_matrix(m)
        assert (rec.exact, rec.spec) == (False, spec)
    assert rational >= 5


def test_the_primes_are_one_mod_four():
    # -1 is a square mod each, so every rational pair splits there
    assert rl._PRIMES[:4] == [13, 17, 29, 37]
    assert all(p % 4 == 1 and sympy.isprime(p) for p in rl._PRIMES)
    assert len(rl._PRIMES) == sum(1 for p in sympy.primerange(13, 1024) if p % 4 == 1)


def test_primes_that_divide_the_discriminant_are_skipped():
    # roots 0 and 13 * 17 * 29 = 6409 collide mod the first three primes
    rows = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(6409)))
    roots, M = rl._lifted_roots(rl.squarefree(rl.charpoly(rl.integer_matrix(rows)[0])))
    assert sorted(roots) == [0, 6409] and M % 37 == 0 and M > 4 * 6409**2
    assert _ingest(rows) == (GeneratorSpec((JordanBlock(1, 0, 0), JordanBlock(1, 6409, 0))), True)


@pytest.mark.parametrize("poly", [
    [-2, 0, 1],  # +- sqrt 2
    [3, 0, 1],  # +- i sqrt 3
    [-2, 0, 0, 1],  # the real cube root of 2 and its pair
    [2, 0, 0, 0, 1],  # x^4 + 2: splits into no linear factor mod 13
])
def test_an_uncertifiable_factor_leaves_the_tier(poly):
    # the tier returns None, whether the factor splits mod p or not
    chi = rl._poly_mul(poly, [-1, 1])
    assert rl._exact_tier([([[0]], chi)], 1, 1024) is None
