"""The integer ingestion kernel against sympy as an independent oracle.

sympy is a test-only dependency: these tests skip when it is missing.
``charpoly`` is checked against ``sympy.Matrix.charpoly`` on dense rational
matrices, ``rank_sequence`` against exact ranks over Q(i) of the complex
powers (A - (re + i*im) I)^k that the kernel never forms, ``squarefree``
against ``sqf_part`` and ``factor_list`` on monic integer polynomials with
and without repeated factors, and ``divmod_monic`` against ``div``.
"""

from datetime import timedelta
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linflow import GeneratorSpec, JordanBlock, materialize
from linflow import _ratlinalg as rl
from linflow.errors import InternalCheckError

from conftest import random_spec

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
        largest = max(b.size for b in spec.blocks if (b.re, b.im) == (re, im))
        # kmax = mult stops early whenever the largest block is shorter;
        # kmax past both pads the tail after the ranks settle
        for kmax in sorted({largest, mult, mult + 2}):
            if kmax < mult:
                continue
            # the eigenvalues of B = D A are D times those of A
            ranks = rl.rank_sequence(B, D * re, D * im, kmax)
            assert ranks == _oracle_ranks(rows, re, im, kmax)
    # not an eigenvalue: full rank throughout
    for re, im in ((Fraction(7, 3), Fraction(0)), (Fraction(7, 3), Fraction(1, 5))):
        assert rl.rank_sequence(B, D * re, D * im, 2) == [spec.dim] * 3


def test_rank_sequence_kmax_zero_is_just_the_dimension():
    B, _ = rl.integer_matrix(materialize(_spec((2, 1, 0))).rows)
    assert rl.rank_sequence(B, 1, 0, 0) == [2]


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

