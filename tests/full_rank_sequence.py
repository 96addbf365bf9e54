"""The full-elimination rank sequence, kept as the oracle of the stopping
rule in ``_ratlinalg.rank_sequence``.

This route eliminates once per power of p(B) until the rank reaches the
floor d - width*kmax or repeats, and pads the rest; it never infers a rank
from the multiplicity.  It shares the kernels ``_row_basis`` and
``_mat_vec`` with the package, whose results sympy checks separately.
"""

from operator import mul

from linflow import _ratlinalg as rl


def full_rank_sequence(B, factor, kmax):
    """Complex ranks of (B - z I)^k for k = 0..kmax, one elimination per power."""
    d = len(B)
    width = len(factor) - 1
    c = factor[0]
    if width == 1:
        M = [[b + (c if i == j else 0) for j, b in enumerate(row)] for i, row in enumerate(B)]
    else:
        u = factor[1]
        cols = list(zip(*B))
        M = [
            [sum(map(mul, row, col)) + u * b + (c if i == j else 0)
             for j, (b, col) in enumerate(zip(row, cols))]
            for i, row in enumerate(B)
        ]
    floor = d - width * kmax
    ranks = [d]
    vecs = [list(col) for col in zip(*M)]
    while len(ranks) <= kmax:
        vecs = rl._row_basis(vecs)
        ranks.append(len(vecs))
        if ranks[-1] == floor or ranks[-1] == ranks[-2]:
            ranks += [ranks[-1]] * (kmax + 1 - len(ranks))
            break
        vecs = [rl._mat_vec(M, v) for v in vecs]
    if width == 2:
        ranks = [(d + r) // 2 for r in ranks]
    return ranks
