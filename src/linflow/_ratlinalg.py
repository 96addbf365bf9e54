"""Matrix ingestion: the block multiset of a rational matrix, by an exact
tier over the integers or else a numeric one.

Only matrix input needs this module.  ``blocks.spec_from_matrix`` checks
its arguments, imports this module inside the call and calls ``ingest``;
no other module imports it.  Either tier raises SnapFailure or
ClusterAmbiguity rather than guess.

The exact tier clears the denominators of A once, B = D*A with D their lcm
(``integer_matrix``), and then works on B with integers only, so no step
pays for a Fraction gcd.  The eigenvalues of A are those of B divided by
D, with the same Jordan structure.

* ``_diagonal_blocks`` splits B along the connected components of its
  symmetric nonzero pattern, a simultaneous row and column permutation
  to block-diagonal form; a dense B is one component and stays whole.
  chi_B is the product of the blocks' charpolys, and every multiplicity
  and rank below is the sum of theirs, so the O(d^4), division and
  elimination work is the blocks'.  The square-free part, rooting and
  snapping run once, on the product.
* ``charpoly`` runs Berkowitz's division-free algorithm on a block and
  returns its monic integer characteristic polynomial; chi_A(x) =
  D^-d chi_B(D x).
* ``squarefree`` gives the monic square-free part of chi_B.  Most
  characteristic polynomials are square-free already, and that is proved
  modulo the prime p = 2^61 - 1: if chi had a repeated factor g^2 over Q,
  Gauss's lemma would put the monic g in Z[x], its degree would survive
  reduction mod p, and g mod p would divide gcd(chi mod p, chi' mod p).
  So a gcd of 1 mod p proves chi square-free.  Only when the test fails
  is gcd(chi, chi') taken over Z, by the primitive polynomial remainder
  sequence (Brown 1971, "On Euclid's algorithm and the computation of
  polynomial greatest common divisors").  Its float roots, scaled to A
  and polished by Newton steps, are each snapped to a rational within tol
  by ``_snap``: the best approximation with a bounded denominator, from
  the continued fraction of the float's exact ratio, in integers only.
* ``_real_factor`` builds the monic integer factor of each snapped
  eigenvalue once, and ``divmod_monic`` divides each block's charpoly by
  it, once, which certifies the eigenvalue and its multiplicity in every
  block; their sum is its multiplicity in chi_B.  By the rational-root
  theorem a rational eigenvalue of B is an integer c, with factor x - c;
  by Gauss's lemma a pair a +- bi (b != 0) has the monic integer factor
  x^2 - 2a x + a^2 + b^2.  A candidate whose factor is not in Z[x] is
  therefore no eigenvalue.
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

When the spectrum is not exactly rational at the denominator bound, the
numeric tier clusters A's float eigenvalues within tol, snaps each
cluster, and takes ranks of the float powers by SVD.

Dot products are ``sum(map(mul, row, v))``, which multiplies and adds the
exact integers in C: the same result as a generator expression, at about
0.6 of its time on a 12 x 12 integer mat-vec.  Polynomials are lists of
integer coefficients, lowest degree first, with no trailing zeros; the
zero polynomial is the empty list.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, isfinite, lcm
from operator import mul

from .blocks import GeneratorSpec, JordanBlock
from .errors import ClusterAmbiguity, InternalCheckError, SnapFailure

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
    certifies the spectrum, else the numeric one.  charpoly and
    rank_sequence are called by their module names, so a wrapper set on
    either attribute sees every call."""
    B, D = integer_matrix(matrix.rows)
    parts = [(Bc, charpoly(Bc)) for Bc in _diagonal_blocks(B)]
    exact = _exact_tier(parts, D, tol, max_denominator)
    if exact is None:
        eigs, residual, ranks = _numeric_tier(matrix, tol, max_denominator)
        return _structure(eigs, ranks, "numeric rank sequence"), residual, False
    eigs, residual, factors = exact
    _check_cluster_separation([complex(re, im) for re, im in eigs], tol)

    def ranks(re, im, mult):
        # per diagonal block holding z; a simple z is one block of size 1 there,
        # since 1 <= geometric <= algebraic multiplicity: no elimination can add
        factor, held = factors[re, im]
        return [(rank_sequence(Bc, factor, m) if m > 1 else [len(Bc), len(Bc) - 1], m)
                for (Bc, _), m in zip(parts, held) if m]

    return _structure(eigs, ranks, "rank sequence"), residual, True


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


def _horner(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _float_roots_squarefree(chi, D):
    """Polished float roots of the square-free part of chi_A, from chi = chi_B.

    sf_A(x) = D^-e sf_B(D x) for sf_B of degree e, so the coefficient of
    x^k is sf_B[k] / D^(e-k), rounded once by int / int true division: the
    same correctly rounded float as float() of the Fraction.
    """
    import numpy as np

    sf = squarefree(chi)
    e = len(sf) - 1
    powers = [1]  # D^0 .. D^e
    for _ in range(e):
        powers.append(powers[-1] * D)
    try:
        coeffs = [c / powers[e - k] for k, c in enumerate(sf)]  # lowest degree first
        dcoeffs = [k * c / powers[e - k] for k, c in enumerate(sf) if k]
    except OverflowError:
        raise SnapFailure("characteristic polynomial coefficient beyond the float range") from None
    roots = np.roots(coeffs[::-1])
    polished = []
    for z in roots:
        z = complex(z)
        for _ in range(4):
            dz = _horner(dcoeffs, z)
            if dz == 0:
                break
            z = z - _horner(coeffs, z) / dz
        polished.append(z)
    return polished


def _snap(x, max_denominator):
    """The rational nearest the float x with denominator <= max_denominator,
    as Fraction(x).limit_denominator(max_denominator) finds it: the same
    continued-fraction loop from x.as_integer_ratio(), whose last convergent
    p1/q1 and semiconvergent p/q are compared by integer cross-multiplication,
    with a tie to p1/q1.  Only the result becomes a Fraction."""
    if not isfinite(x):
        raise SnapFailure(f"eigenvalue estimate {x} is not finite")
    num, den = x.as_integer_ratio()
    if den <= max_denominator:
        return Fraction(num, den)
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_denominator:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (max_denominator - q0) // q1
    p, q = p0 + k * p1, q0 + k * q1
    # |p1/q1 - x| <= |p/q - x|, both sides times q1 * q * den
    if abs(p1 * den - num * q1) * q <= abs(p * den - num * q) * q1:
        return Fraction(p1, q1)
    return Fraction(p, q)


def _real_factor(D, re, im):
    """Monic real factor over Z of the eigenvalue D*(re + i*im) of B, or None
    when it has non-integer coefficients and so divides no monic chi_B."""
    factor = [-D * re, 1] if im == 0 else [D * D * (re * re + im * im), -2 * D * re, 1]
    if any(c.denominator != 1 for c in factor[:-1]):
        return None
    return [int(c) for c in factor]


def _exact_tier(parts, D, tol, max_denominator):
    """(eigs, residual, factors) or None, from the diagonal blocks (Bc, chi_c)
    of B: eigs maps (re, im >= 0) to the multiplicity, factors to the monic
    integer factor that certified it and its multiplicity in each block."""
    roots = _float_roots_squarefree(reduce(_poly_mul, (chi_c for _, chi_c in parts)), D)
    # candidate rational eigenvalues, conjugates identified, and the largest snap
    # distance: a root nearer another candidate would trip _check_cluster_separation
    cands = []
    residual = 0.0
    for z in roots:
        re_hat = _snap(z.real, max_denominator)
        im_hat = _snap(abs(z.imag), max_denominator)
        dist = abs(complex(z.real, abs(z.imag)) - complex(re_hat, im_hat))
        if dist > tol:
            return None
        residual = max(residual, dist)
        pair = (re_hat, im_hat)
        if pair not in cands:
            cands.append(pair)
    remaining = [chi_c for _, chi_c in parts]
    eigs = {}
    factors = {}
    for pair in cands:
        factor = _real_factor(D, *pair)
        if factor is None:
            return None
        held = []
        for c, chi_c in enumerate(remaining):
            remaining[c], m = _divide_out(chi_c, factor)
            held.append(m)
        if not any(held):
            return None
        eigs[pair] = sum(held)
        factors[pair] = factor, held
    if any(len(chi_c) != 1 for chi_c in remaining):
        return None
    return eigs, residual, factors


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


def _check_cluster_separation(pts, tol):
    """ClusterAmbiguity if two distinct eigenvalues (exact tier) or cluster
    centres (numeric tier) lie closer than 2 tol, where a snap within tol
    could not tell them apart."""
    for i, z in enumerate(pts):
        for w in pts[i + 1 :]:
            if abs(z - w) < 2 * tol:
                raise ClusterAmbiguity(
                    f"eigenvalues {z:.12g} and {w:.12g} are closer than twice tol={tol}"
                )


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
# numeric tier


def _numeric_tier(matrix, tol, max_denominator):
    """(eigs, residual, ranks) from float eigenvalues clustered within tol
    and snapped, with SVD ranks of the float powers."""
    import numpy as np

    Mf = matrix.to_float()
    d = matrix.dim
    eigs = np.linalg.eigvals(Mf)
    pts = [complex(z.real, abs(z.imag)) for z in eigs]
    # greedy union clustering at distance tol
    clusters = []
    for z in pts:
        for cl in clusters:
            if any(abs(z - w) <= tol for w in cl):
                cl.append(z)
                break
        else:
            clusters.append([z])
    centers = [sum(cl) / len(cl) for cl in clusters]
    _check_cluster_separation(centers, tol)
    residual = 0.0
    parsed = {}
    for cl, z in zip(clusters, centers):
        re_hat = _snap(z.real, max_denominator)
        im_hat = abs(_snap(z.imag, max_denominator))
        snapped = complex(re_hat, im_hat)
        err = max(abs(w - snapped) for w in cl)
        if err > tol:
            raise SnapFailure(
                f"no rational with denominator <= {max_denominator} within "
                f"tol={tol} of eigenvalue {z:.12g} (best miss {err:.3e})"
            )
        residual = max(residual, err)
        key = (re_hat, im_hat)
        parsed[key] = parsed.get(key, 0) + len(cl)
    # pts folded both members of a conjugate pair onto the upper half plane,
    # so a count is the multiplicity over C for im == 0 and twice the number
    # of pairs for im > 0; halve the latter
    for (re_hat, im_hat), mult in list(parsed.items()):
        if im_hat > 0:
            if mult % 2:
                raise SnapFailure(
                    f"odd conjugate count at eigenvalue ({re_hat}, {im_hat})"
                )
            parsed[(re_hat, im_hat)] = mult // 2

    def ranks(re_hat, im_hat, mult):
        S = Mf.astype(complex) - complex(re_hat, im_hat) * np.eye(d)
        P = np.eye(d, dtype=complex)
        out = [d]
        for _ in range(mult):
            P = P @ S
            sv = np.linalg.svd(P, compute_uv=False)
            thresh = tol * max(1.0, sv[0] if len(sv) else 0.0)
            out.append(int(np.sum(sv > thresh)))
        return [(out, mult)]  # the whole space is one part

    return parsed, residual, ranks


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

