"""The integer ingestion kernel against sympy as an independent oracle.

sympy is a test-only dependency: these tests skip when it is missing.
``charpoly`` is checked against ``sympy.Matrix.charpoly`` on dense rational
matrices, ``rank_sequence`` against exact ranks over Q(i) of the complex
powers (A - (re + i*im) I)^k that the kernel never forms.
"""

from fractions import Fraction

import numpy as np
import pytest

from linflow import GeneratorSpec, JordanBlock, materialize
from linflow import _ratlinalg as rl
from linflow.errors import InternalCheckError, PreconditionViolated

from conftest import random_spec

sympy = pytest.importorskip("sympy")
from sympy.polys.domains import QQ_I  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402


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
    x = sympy.Symbol("x")
    expected = [_to_fraction(c) for c in reversed(_sympy_matrix(rows).charpoly(x).all_coeffs())]
    assert rl.charpoly(rows) == expected


def test_charpoly_of_singular_and_zero_matrices():
    assert rl.charpoly(((Fraction(0),),)) == [0, 1]
    zero = tuple(tuple(Fraction(0) for _ in range(3)) for _ in range(3))
    assert rl.charpoly(zero) == [0, 0, 0, 1]
    rank_one = tuple(tuple(Fraction(i * j, 3) for j in range(1, 4)) for i in range(1, 4))
    # trace (1 + 4 + 9)/3 and nothing else
    assert rl.charpoly(rank_one) == [0, 0, Fraction(-14, 3), 1]


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
    for (re, im), mult in _multiplicities(spec).items():
        largest = max(b.size for b in spec.blocks if (b.re, b.im) == (re, im))
        # kmax = mult stops early whenever the largest block is shorter;
        # kmax past both pads the tail after the ranks settle
        for kmax in sorted({largest, mult, mult + 2}):
            if kmax < mult:
                continue
            assert rl.rank_sequence(rows, re, im, kmax) == _oracle_ranks(rows, re, im, kmax)
    # not an eigenvalue: full rank throughout
    for re, im in ((Fraction(7, 3), Fraction(0)), (Fraction(7, 3), Fraction(1, 5))):
        assert rl.rank_sequence(rows, re, im, 2) == [spec.dim] * 3


def test_rank_sequence_kmax_zero_is_just_the_dimension():
    rows = materialize(_spec((2, 1, 0))).rows
    assert rl.rank_sequence(rows, 1, 0, 0) == [2]


# ---------------------------------------------------------------------------
# typed failures instead of asserts


def test_poly_divmod_by_zero_is_an_internal_error():
    with pytest.raises(InternalCheckError):
        rl.poly_divmod([Fraction(1), Fraction(1)], [Fraction(0)])


@pytest.mark.parametrize("bad", [0, Fraction(-1, 2)])
def test_fraction_gcd_rejects_non_positive(bad):
    with pytest.raises(PreconditionViolated):
        rl.fraction_gcd([Fraction(1, 2), bad])
