"""Seeded input generators for the benchmark workloads.

Everything here depends only on a ``numpy.random.Generator`` and on the
public linflow data types, so the same seed always yields the same inputs.
The generators live beside the benchmark rather than in ``tests/`` so that
a change to the test suite can never change what the benchmark measures.

Where a generator takes a ``shape_rng``, that generator decides the
structure of an input (block sizes, rotating blocks, the pattern of a
conjugating or perturbing matrix) and ``rng`` its values.  The workloads
seed ``shape_rng`` with a constant and ``rng`` with ``--seed``: every seed
then runs the same mix of structures with different rates, which keeps the
cost of a run, and so its throughput, comparable from seed to seed.
"""

from __future__ import annotations

from fractions import Fraction

import linflow


DENOM = 4  # denominator of generated rates
ROT_PROB = 0.4  # chance that a block rotates
MAX_SIZE = 3  # largest block size
SHARE_PROB = 0.25  # chance that a block repeats an earlier eigenvalue


def rational(rng, denom, lo, hi, nonzero=False, odd=False):
    """Uniform rational k/denom in [lo, hi], with k odd if ``odd``."""
    while True:
        k = int(rng.integers(lo * denom, hi * denom + 1))
        if (k != 0 or not nonzero) and (k % 2 or not odd):
            return Fraction(k, denom)


def spec_of_dim(rng, dim, semisimple=False, rate=None, shape_rng=None, odd=False):
    """Random block multiset of total dimension exactly ``dim``.

    Growth rates lie in [-3, 3] and rotation rates in (0, 3], both
    multiples of 1/DENOM, and with ``odd`` odd multiples, so that every rate
    has exactly the denominator DENOM; ``rate`` pins every growth rate to a
    callable's output (used for the hyperbolic and uniform maps).  A block
    shares the eigenvalue of an earlier block with probability SHARE_PROB;
    otherwise, unless ``rate`` is given, its growth rate differs from all
    earlier ones.
    Block sizes, rotating blocks and shared eigenvalues are drawn from
    ``shape_rng`` when given, the rates from ``rng``.
    """
    shape_rng = rng if shape_rng is None else shape_rng
    blocks = []
    slots = []  # distinct (re, im) eigenvalues drawn so far
    left = dim
    while left:
        m = 1 if semisimple else int(shape_rng.integers(1, MAX_SIZE + 1))
        rot = left >= 2 and shape_rng.random() < ROT_PROB
        width = 2 * m if rot else m
        while width > left:
            m -= 1
            width = 2 * m if rot else m
            if m == 0:
                m, rot, width = 1, False, 1
        # which blocks share an eigenvalue is structure, so the shape rng
        # decides it; the eigenvalues themselves are values
        same = [i for i, (_, im) in enumerate(slots) if (im != 0) == rot]
        if same and shape_rng.random() < SHARE_PROB:
            re, im = slots[same[int(shape_rng.integers(len(same)))]]
        else:
            while True:
                re = rate() if rate is not None else rational(rng, DENOM, -3, 3, odd=odd)
                im = rational(rng, DENOM, 0, 3, nonzero=True, odd=odd) if rot else Fraction(0)
                if rate is not None or all(re != r for r, _ in slots):
                    break
            slots.append((re, im))
        blocks.append(linflow.JordanBlock(m, re, im))
        left -= width
    return linflow.GeneratorSpec(tuple(blocks))


# ---------------------------------------------------------------------------
# matrices for ingestion


def _unit_triangular(rng, d, lower):
    """Integer unit-triangular factor with sparse entries in {-1, 0, 1}."""
    rows = [[0] * d for _ in range(d)]
    for i in range(d):
        rows[i][i] = 1
        for j in range(d):
            if (j < i if lower else j > i) and rng.random() < 0.35:
                rows[i][j] = 1 if rng.random() < 0.5 else -1
    return rows


def _inverse_unit_triangular(T, lower):
    """Exact integer inverse of a unit-triangular integer matrix."""
    d = len(T)
    inv = [[0] * d for _ in range(d)]
    order = range(d) if lower else range(d - 1, -1, -1)
    for col in range(d):
        for i in order:
            acc = 1 if i == col else 0
            span = range(i) if lower else range(i + 1, d)
            acc -= sum(T[i][k] * inv[k][col] for k in span)
            inv[i][col] = acc
    return inv


def _matmul(A, B):
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def dense_conjugate(rng, spec):
    """P J P^-1 with P = L U unimodular, so P^-1 = U^-1 L^-1 is exact.

    J is the block-diagonal normal form; the result is a dense rational
    matrix with the same block multiset, which forces the exact kernel to
    do real elimination instead of walking an already diagonal layout.
    """
    d = spec.dim
    L = _unit_triangular(rng, d, lower=True)
    U = _unit_triangular(rng, d, lower=False)
    P = _matmul(L, U)
    Pinv = _matmul(_inverse_unit_triangular(U, lower=False),
                   _inverse_unit_triangular(L, lower=True))
    J = [list(r) for r in linflow.materialize(spec).rows]
    A = _matmul(_matmul(P, J), Pinv)
    return linflow.RationalMatrix(tuple(tuple(r) for r in A))


def near_rational(rng, spec, eps=Fraction(1, 10**12)):
    """Block-diagonal semisimple matrix plus a symmetric +-eps perturbation.

    The perturbation moves every eigenvalue off its rational value by about
    eps, far inside the default snap tolerance 1e-9, so exact certification
    fails and the numeric tier has to recover the spec.
    """
    d = spec.dim
    rows = [list(r) for r in linflow.materialize(spec).rows]
    for i in range(d):
        for j in range(i, d):
            if i == j or rng.random() < 0.3:
                e = eps if rng.random() < 0.5 else -eps
                rows[i][j] += e
                if j != i:
                    rows[j][i] += e
    return linflow.RationalMatrix(tuple(tuple(r) for r in rows))
