"""Matrix ingestion: the block multiset of a rational matrix, certified by
an exact tier that uses integers only, or else snapped by the numeric tier
of ``_numeric``.

Only matrix input needs this module.  ``blocks.spec_from_matrix`` checks
its arguments, imports this module inside the call and calls ``ingest``;
no other module imports it.  It uses no float and imports no numpy: only
a fall-through to the numeric tier loads ``_numeric``, and numpy with it.
Only the numeric tier raises ClusterAmbiguity.

The exact tier clears the denominators of A once, B = D*A with D their lcm
(``integer_matrix``), and then works on B with integers only, so no step
pays for a Fraction gcd.  The eigenvalues of A are those of B divided by
D, with the same Jordan structure.  It reads ``max_denominator``, the
bound on the denominators of a certified re and im, but not tol, and its
residual is 0.0.

* ``_diagonal_blocks`` splits B along the connected components of its
  symmetric nonzero pattern, a simultaneous row and column permutation
  to block-diagonal form; a dense B is one component and stays whole.
  chi_B is the product of the blocks' charpolys, and every multiplicity
  and rank below is the sum of theirs, so the O(d^4), division and
  elimination work is the blocks'.  The square-free part and its roots
  are taken once, on the product.
* ``charpoly`` runs Berkowitz's division-free algorithm on a block and
  returns its monic integer characteristic polynomial; chi_A(x) =
  D^-d chi_B(D x).
* ``squarefree`` gives the monic square-free part sf_B of chi_B.  A gcd of
  1 between chi and chi' modulo the prime 2^61 - 1 proves chi square-free
  (a repeated factor g^2 over Q has a monic g in Z[x] by Gauss's lemma,
  and g mod p would divide both); only when that test fails is gcd(chi,
  chi') taken over Z, by the primitive polynomial remainder sequence
  (Brown 1971).
* The candidates come from p-adic lifting (von zur Gathen and Gerhard,
  *Modern Computer Algebra*, ch. 14-15).  By the rational-root theorem a
  rational eigenvalue of B is an integer c, with factor x - c, and by
  Gauss's lemma a pair a +- bi (b != 0) has the monic integer factor
  x^2 - 2a x + a^2 + b^2, of discriminant -(2b)^2.  At a prime p = 1 mod
  4 where sf_B is square-free both split into distinct roots mod p, which
  ``_lifted_roots`` finds by evaluation at every residue and lifts by
  Newton steps to p^K > 4 R^2 + 4, R a bound on the roots; the candidates
  are those roots and the products of two of them.  ``divmod_monic``
  divides each block's charpoly by a candidate, which certifies the
  eigenvalue and its multiplicity in every block; their sum is its
  multiplicity in chi_B.
* ``rank_sequence`` takes the same factor p and the ranks of the powers
  of p(B) by Bareiss fraction-free elimination (Bareiss 1968, "Sylvester's
  identity and multistep integer-preserving Gaussian elimination"); block
  sizes follow.  For a pair the Jordan blocks m_j of a + bi recur at
  a - bi, so dim ker p(B)^k = 2 * sum_j min(k, m_j) and the complex rank
  of (B - a - bi)^k is (d + rank p(B)^k) / 2.  Each diagonal block that
  holds the eigenvalue is ranked at its multiplicity m there and gives its
  own Jordan sizes.  Ranks are taken only where m does not already fix
  them (see ``rank_sequence``); m = 1 needs none: a block of size n then
  holds one Jordan block of size 1 (1 <= geometric <= algebraic
  multiplicity), so its ranks are [n, n - 1].

Dot products are ``sum(map(mul, row, v))``, which multiplies and adds the
exact integers in C: the same result as a generator expression, at about
0.6 of its time on a 12 x 12 integer mat-vec.  Polynomials are lists of
integer coefficients, lowest degree first, with no trailing zeros; the
zero polynomial is the empty list.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd, isqrt, lcm
from operator import mul

from .blocks import GeneratorSpec, JordanBlock
from .errors import InternalCheckError, SnapFailure

__all__ = [
    "ingest",
    "integer_matrix",
    "charpoly",
    "squarefree",
    "divmod_monic",
    "rank_sequence",
]

# any prime proves a monic polynomial square-free; a large one makes an
# inconclusive test (p dividing the discriminant) rare
_PRIME = 2**61 - 1


def ingest(matrix, tol, max_denominator):
    """(spec, residual, exact) of a RationalMatrix, by the exact tier if it
    certifies the spectrum, with residual 0.0, else by the numeric tier of
    `_numeric`, which only then loads.  charpoly and rank_sequence are
    called by their module names, so a wrapper set on either attribute sees
    every call."""
    B, D = integer_matrix(matrix.rows)
    parts = [(Bc, charpoly(Bc)) for Bc in _diagonal_blocks(B)]
    exact = _exact_tier(parts, D, max_denominator)
    if exact is None:
        from ._numeric import _numeric_tier

        eigs, residual, ranks = _numeric_tier(matrix, tol, max_denominator)
        return _structure(eigs, ranks, "numeric rank sequence"), residual, False
    eigs, factors = exact

    def ranks(re, im, mult):
        # per diagonal block holding z; a simple z is one block of size 1 there,
        # since 1 <= geometric <= algebraic multiplicity: no elimination can add
        factor, held = factors[re, im]
        return [(rank_sequence(Bc, factor, m) if m > 1 else [len(Bc), len(Bc) - 1], m)
                for (Bc, _), m in zip(parts, held) if m]

    return _structure(eigs, ranks, "rank sequence"), 0.0, True


def _diagonal_blocks(B):
    """B's principal submatrices on the connected components of its
    symmetric nonzero pattern (i ~ j when B[i][j] or B[j][i] is nonzero),
    each on ascending indices; [B] itself when the pattern is connected.

    Permuting rows and columns alike to the components' order makes B
    block-diagonal with these blocks.  The search stops once every index
    is reached, so a dense B costs one pass over its first row and column.
    """
    left = set(range(len(B)))
    comps = []
    while left:
        todo = [min(left)]
        left.difference_update(todo)
        comp = list(todo)
        while todo and left:
            i = todo.pop()
            row = B[i]
            new = [j for j in left if row[j] or B[j][i]]
            left.difference_update(new)
            todo += new
            comp += new
        comps.append(sorted(comp))
    if len(comps) <= 1:
        return [B]
    return [[[B[i][j] for j in comp] for i in comp] for comp in comps]


# ---------------------------------------------------------------------------
# exact tier


# the primes p = 1 mod 4 below 1024, tried in turn: -1 is a square mod p, so
# the factor x^2 + u x + v of a rational pair (4 v - u^2 = s^2) splits there
_PRIMES = [p for p in range(13, 1024, 4) if all(p % q for q in range(3, isqrt(p) + 1, 2))]


def _exact_tier(parts, D, max_denominator):
    """(eigs, factors) or None, from the diagonal blocks (Bc, chi_c) of B:
    eigs maps (re, im >= 0) to the multiplicity, factors to the monic
    integer factor that certified it and its multiplicity in each block.

    The candidates are the roots of sf_B mod p^K (``_lifted_roots``) and
    the products of two of them, since a rational pair splits mod p; one
    certifies an eigenvalue when its roots are rational or a rational pair
    within the denominator bound and it divides chi_B.  The tier succeeds
    when the certified factors divide every block's chi_c down to 1."""
    remaining = [chi_c for _, chi_c in parts]
    lifted = _lifted_roots(squarefree(reduce(_poly_mul, remaining)))
    if lifted is None:
        return None
    roots, M = lifted
    eigs = {}
    factors = {}

    def certified(factor):
        pair = _eigenvalue(factor, D, max_denominator)
        if pair is None:
            return False
        held = []
        for c, chi_c in enumerate(remaining):
            remaining[c], m = _divide_out(chi_c, factor)
            held.append(m)
        if not any(held):
            return False
        eigs[pair] = sum(held)
        factors[pair] = factor, held
        return True

    left = [r for r in roots if not certified([-r, 1])]
    for r, s in combinations(left, 2):
        certified([_sym(r * s, M), _sym(-r - s, M), 1])
    if any(len(chi_c) != 1 for chi_c in remaining):
        return None
    return eigs, factors


def _eigenvalue(factor, D, max_denominator):
    """(re, im) of the eigenvalue of A = B / D at a root of the monic integer
    factor, when it is rational or a rational pair within the denominator
    bound; else None."""
    if len(factor) == 2:
        re, im = Fraction(-factor[0], D), Fraction(0)
    else:
        v, u, _ = factor
        s = isqrt(max(4 * v - u * u, 0))
        if not s or s * s != 4 * v - u * u:
            return None
        re, im = Fraction(-u, 2 * D), Fraction(s, 2 * D)
    if max(re.denominator, im.denominator) > max_denominator:
        return None
    return re, im


def _sym(c, M):
    """The residue of c mod M in (-M/2, M/2]."""
    c %= M
    return c - M if 2 * c > M else c


def _lifted_roots(f):
    """(roots, M): the roots of the square-free f mod M = p^K > 4 R^2 + 4, in
    symmetric residues, for the first p in _PRIMES at which f splits into
    distinct linear factors; None when some p has f square-free without
    splitting, or no p qualifies.

    Every certifiable factor of f over Z, x - c or the x^2 + u x + v of a
    rational pair, splits into distinct linear factors mod a p at which f
    is square-free; so if f does not split there, the tier cannot succeed.
    R is Fujiwara's root bound 2 max_k |f_k|^(1/(n-k)), rounded up to a
    power of 2: |c|, |u| / 2 and |v|^(1/2) are at most R, so the symmetric
    residues of c, u and v mod M are c, u and v."""
    n = len(f) - 1
    for p in _PRIMES:
        roots = [a for a, v in enumerate(_values(f, range(p), p)) if not v]
        if len(roots) == n:  # n distinct roots: f is square-free mod p
            break
        if _coprime_mod(f, _deriv(f), p):
            return None
    else:
        return None
    R = 2 ** (1 + max(-(-abs(c).bit_length() // (n - k)) for k, c in enumerate(f[:-1])))
    M = p
    while M <= 4 * R * R + 4:
        M *= p
    # Newton steps, each doubling the p-adic precision of every root: a root
    # is simple mod p, so f' is a unit there
    q, df = p, _deriv(f)
    while q < M:
        q = min(q * q, M)
        roots = [(r - v * pow(d, -1, q)) % q
                 for r, v, d in zip(roots, _values(f, roots, q), _values(df, roots, q))]
    return [_sym(r, M) for r in roots], M


def _values(f, xs, q):
    """f(x) mod q at each x of xs, by one Horner pass over all of them."""
    xs = list(xs)
    out = [0] * len(xs)
    for c in reversed(f):
        c %= q
        out = [(v * x + c) % q for v, x in zip(out, xs)]
    return out


def _divide_out(poly, factor):
    """(quotient, m): poly divided by the largest power factor^m that
    divides it exactly, for a monic integer factor of degree >= 1."""
    m = 0
    while True:
        q, r = divmod_monic(poly, factor)
        if r:
            return poly, m
        poly = q
        m += 1


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
    """The blocks of both tiers: at each eigenvalue z = (re, im) of
    multiplicity mult, ranks(re, im, mult) lists (ranks, m) for each part
    of the space holding z, m its multiplicity there and ranks the rank
    sequence of (A - z)^k on the part, k = 0..m; what names the tier."""
    blocks = []
    for (re_hat, im_hat), mult in eigs.items():
        for part_ranks, m in ranks(re_hat, im_hat, mult):
            sizes = _sizes_from_ranks(part_ranks, m)
            if sizes is None:
                raise SnapFailure(f"inconsistent {what} at eigenvalue ({re_hat}, {im_hat})")
            blocks.extend(JordanBlock(size, re_hat, im_hat) for size in sizes)
    return GeneratorSpec(tuple(blocks))


# ---------------------------------------------------------------------------
# integer kernels: matrices, rank sequences, characteristic polynomials


def integer_matrix(A):
    """(B, D) with B = D*A an integer matrix and D the lcm of A's denominators."""
    D = lcm(*(x.denominator for row in A for x in row))
    return [[x.numerator * (D // x.denominator) for x in row] for row in A], D


def _mat_vec(M, v):
    return [sum(map(mul, row, v)) for row in M]


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


def rank_sequence(B, factor, mult):
    """Complex ranks of (B - z I)^k for k = 0..mult, at a root z of factor.

    B is an integer matrix and factor the monic integer polynomial of z
    that certified it: x - c for a real z = c, or x^2 + u x + c for a pair
    z, conj(z) (u^2 < 4c); mult is z's certified algebraic multiplicity.
    The ranks r_k of p(B)^k fall to the floor d - width*mult, width =
    len(factor) - 1, by drops width * #{blocks of size >= k} that never
    grow.  So at floor + width the next rank is the floor, and after a drop
    of width the one block left drops by width per power to the floor: the
    rest is filled in without elimination.  A rank that does not fall, or
    falls below the floor, contradicts mult: InternalCheckError.
    """
    d = len(B)
    width = len(factor) - 1
    # p(B) by Horner: M = B + u I from the top two coefficients, then M B + c I per lower c
    u = factor[-2]
    M = [[b + (u if i == j else 0) for j, b in enumerate(row)] for i, row in enumerate(B)]
    for c in reversed(factor[:-2]):
        cols = list(zip(*B))
        M = [[sum(map(mul, row, col)) + (c if i == j else 0) for j, col in enumerate(cols)]
             for i, row in enumerate(M)]
    floor = d - width * mult
    ranks = [d]
    vecs = [list(col) for col in zip(*M)]  # the image of M^1 is spanned by M's columns
    # eliminate while the next rank is open: above floor + width, last drop > width
    while ranks[-1] > floor + width and (len(ranks) == 1 or ranks[-2] - ranks[-1] > width):
        if len(ranks) > 1:
            vecs = [_mat_vec(M, v) for v in vecs]  # image of M^(k+1) = M (image of M^k)
        vecs = _row_basis(vecs)
        if not floor <= len(vecs) < ranks[-1]:
            raise InternalCheckError(f"ranks {ranks} then {len(vecs)} contradict mult {mult}")
        ranks.append(len(vecs))
    # one block is left at most: each power drops the rank by width to the floor
    ranks += range(ranks[-1] - width, floor - 1, -width)
    ranks += [floor] * (mult + 1 - len(ranks))
    if width == 2:
        ranks = [(d + r) // 2 for r in ranks]
    return ranks


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
            col.append(-sum(map(mul, R, X)))
            if k + 1 < r:
                X = _mat_vec(Br, X)
        # Toeplitz product: entry i is sum_j col[i - j] v[j], j = 0..min(i, r)
        v = [sum(map(mul, col[i::-1], v)) for i in range(r + 2)]
    return v[::-1]


def _poly_mul(a, b):
    """Product of two nonzero integer polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


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

