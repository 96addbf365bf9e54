"""Exact linear algebra for matrix ingestion, done over the integers.

Matrices arrive as tuples of tuples of Fraction.  Ingestion clears the
denominators once, B = D*A with D the lcm of A's denominators
(``integer_matrix``), and every kernel then works on B with integers only,
so no step pays for a Fraction gcd.  The eigenvalues of A are those of B
divided by D, with the same Jordan structure.

* ``charpoly`` runs Berkowitz's division-free algorithm on B and returns
  the monic integer chi_B; chi_A(x) = D^-d chi_B(D x).
* ``squarefree`` gives the monic square-free part of chi_B.  Most
  characteristic polynomials are square-free already, and that is proved
  modulo the prime p = 2^61 - 1: if chi had a repeated factor g^2 over Q,
  Gauss's lemma would put the monic g in Z[x], its degree would survive
  reduction mod p, and g mod p would divide gcd(chi mod p, chi' mod p).
  So a gcd of 1 mod p proves chi square-free.  Only when the test fails
  is gcd(chi, chi') taken over Z, by the primitive polynomial remainder
  sequence (Brown 1971, "On Euclid's algorithm and the computation of
  polynomial greatest common divisors").
* ``divmod_monic`` divides by a monic integer polynomial synthetically,
  which certifies eigenvalues.  By the rational-root theorem a rational
  eigenvalue of B is an integer c, with factor x - c; by Gauss's lemma a
  pair a +- bi (b != 0) has the monic integer factor x^2 - 2a x + a^2 + b^2.
  A candidate whose factor is not in Z[x] is therefore no eigenvalue.
* ``rank_sequence`` takes ranks of the powers of an integer multiple of the
  real factor p(B) of an eigenvalue re + i*im, with p = x - re or
  (x - re)^2 + im^2, by Bareiss fraction-free elimination (Bareiss 1968,
  "Sylvester's identity and multistep integer-preserving Gaussian
  elimination").  For a complex pair the Jordan blocks m_j of re + i*im
  recur at re - i*im, so dim ker p(B)^k = 2 * sum_j min(k, m_j) and the
  complex rank of (B - re - i*im)^k is (d + rank p(B)^k) / 2.

Polynomials are lists of integer coefficients, lowest degree first, with no
trailing zeros; the zero polynomial is the empty list.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InternalCheckError

__all__ = [
    "integer_matrix",
    "charpoly",
    "squarefree",
    "divmod_monic",
    "rank_sequence",
]

# any prime proves a monic polynomial square-free; a large one makes an
# inconclusive test (p dividing the discriminant) rare
_PRIME = 2**61 - 1


def integer_matrix(A):
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


def rank_sequence(B, re, im, kmax):
    """Ranks of (B - (re + i*im) I)^k over C for k = 0..kmax.

    B is an integer matrix, re and im are rational, and kmax is at least
    the algebraic multiplicity of re + i*im, the eigenvalue's own
    multiplicity being what ingestion passes.  The ranks then cannot fall
    below d - width*kmax (width 2 for a pair, else 1), and once they reach
    it or repeat they stay, so the elimination stops there and the sequence
    is padded.
    """
    d = len(B)
    re = Fraction(re)
    im = Fraction(im)
    if im == 0:
        # re.denominator * (B - re I)
        width = 1
        s, c = re.denominator, re.numerator
        M = [[s * b - (c if i == j else 0) for j, b in enumerate(row)] for i, row in enumerate(B)]
    else:
        # s * (B^2 - 2 re B + (re^2 + im^2) I)
        width = 2
        c1, c0 = 2 * re, re * re + im * im
        s = lcm(c1.denominator, c0.denominator)
        u, c = int(s * c1), int(s * c0)
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
# characteristic polynomial and integer polynomials


def charpoly(B):
    """Monic characteristic polynomial det(xI - B) of an integer matrix.

    Berkowitz's method is division-free: the characteristic polynomial of
    the leading (r+1) x (r+1) block is a lower-triangular Toeplitz matrix,
    built from the products R B_r^k C of the new row R, the leading r x r
    block B_r and the new column C, times the one of B_r.  It costs O(d^4)
    integer operations, yet measured 4-15x faster than O(d^3) Hessenberg
    reduction over Fractions for d = 8..32, since no step normalizes a
    Fraction.
    """
    d = len(B)
    v = [1]  # charpoly of the leading r x r block, highest degree first
    for r in range(d):
        R = B[r][:r]
        Br = [row[:r] for row in B[:r]]
        col = [1, -B[r][r]]
        X = [B[i][r] for i in range(r)]
        for k in range(r):
            col.append(-sum(x * y for x, y in zip(R, X)))
            if k + 1 < r:
                X = _mat_vec(Br, X)
        v = [sum(col[i - j] * v[j] for j in range(max(0, i - r - 1), min(i, r) + 1))
             for i in range(r + 2)]
    return v[::-1]


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _deriv(p):
    return [k * c for k, c in enumerate(p)][1:]


def divmod_monic(num, den):
    """(quotient, remainder) of integer polynomials, den monic, exactly over Z."""
    if not den or den[-1] != 1:
        raise InternalCheckError("polynomial division by a divisor that is not monic")
    rem = list(num)
    dd = len(den) - 1
    q = [0] * max(0, len(rem) - dd)
    for k in range(len(q) - 1, -1, -1):
        c = rem[dd + k]
        q[k] = c
        if c:
            for j in range(dd):
                rem[k + j] -= c * den[j]
    return q, _trim(rem[:dd])


def _coprime_mod(a, b, p):
    """True when gcd(a mod p, b mod p) is a unit, by Euclid's algorithm in GF(p)[x]."""
    a = _trim([c % p for c in a])
    b = _trim([c % p for c in b])
    while len(b) > 1:
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        while len(a) > db:
            c = a[-1] * inv % p
            k = len(a) - 1 - db
            for j in range(db):
                a[k + j] = (a[k + j] - c * b[j]) % p
            a.pop()
            _trim(a)
        a, b = b, a
    return bool(b)


def _primitive(p):
    g = gcd(*p)
    if p[-1] < 0:
        g = -g
    return [c // g for c in p]


def _gcd_prs(a, b):
    """Primitive gcd of nonzero a, b in Z[x], positive leading coefficient,
    by the primitive polynomial remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        # pseudo-remainder: lc(b)^k a mod b, one exact integer step at a time
        lb, db = b[-1], len(b) - 1
        while len(a) > db:
            c = a[-1]
            k = len(a) - 1 - db
            a = [lb * x for x in a]
            for j in range(db):
                a[k + j] -= c * b[j]
            a.pop()
            _trim(a)
        if not a:
            return b
        a, b = b, _primitive(a)
    return [1]


def squarefree(chi):
    """Monic square-free part chi / gcd(chi, chi') of a monic integer polynomial."""
    dchi = _deriv(chi)
    if _coprime_mod(chi, dchi, _PRIME):
        return chi
    # chi is monic, so its monic gcd with chi' lies in Z[x] and is primitive
    q, r = divmod_monic(chi, _gcd_prs(chi, dchi))
    if r:
        raise InternalCheckError("square-free division left a remainder")
    return q

