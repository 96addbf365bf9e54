# matrix_ingestion_roundtrip.py - from a raw rational matrix to a certified
# block multiset and back
#
# The classifier works on block multisets, but systems usually arrive as
# matrices.  spec_from_matrix recovers the real block structure, certifying
# the rational spectrum by exact polynomial division whenever the input is
# exactly rational.  The recovered generator must produce the same flow as
# the original matrix.

from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from linflow import (
    FlowEvaluator,
    GeneratorSpec,
    JordanBlock,
    RationalMatrix,
    materialize,
    spec_from_matrix,
)


def S(*blocks):
    return GeneratorSpec(tuple(JordanBlock(m, re, im) for m, re, im in blocks))


#
# Step 1: hide a known block structure inside a dense matrix.
#
# Start from a generator with a defective rotating block and a slow real
# line, materialize it, and conjugate by an exact rational shear so the
# block structure is no longer visible by eye.

spec = S((2, -1, 1), (1, Fraction(-1, 2), 0))
B = materialize(spec)
d = spec.dim
P = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
P[0][d - 1] = Fraction(3, 7)  # shear: P = I + (3/7) E_{1,d}
Pinv = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
Pinv[0][d - 1] = Fraction(-3, 7)

rows = [
    [
        sum(P[i][k] * B.rows[k][l] * Pinv[l][j] for k in range(d) for l in range(d))
        for j in range(d)
    ]
    for i in range(d)
]
M = RationalMatrix(tuple(tuple(r) for r in rows))

print("dense matrix (exact rationals):")
for r in M.rows:
    print("  [" + "  ".join(f"{v!s:>6}" for v in r) + "]")
print()

#
# Step 2: recover the block structure.

approx = spec_from_matrix(M)
print(f"recovered blocks (certified exactly: {approx.exact}):")
for b in approx.spec.blocks:
    print(f"  size {b.size}, rate {b.re}, rotation {b.im}")
assert approx.spec == spec
print("round trip back to the original block multiset: exact match")
print()

#
# Step 3: the recovered generator drives the same flow as the matrix.
#
# The two flows live in different bases, so compare them through similarity
# invariants of the flow matrix: trace and determinant.

flow = FlowEvaluator.from_spec(approx.spec)
A = M.to_float()
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(5):
    t = float(rng.uniform(-10, 10))
    E = expm(t * A)
    F = flow.matrix(t)
    tr = abs(np.trace(E) - np.trace(F)) / (1.0 + abs(np.trace(F)))
    de = abs(np.linalg.det(E) - np.linalg.det(F)) / (1.0 + abs(np.linalg.det(F)))
    worst = max(worst, tr, de)

print(f"flow-matrix invariants agree to relative {worst:.2e} over random t")
