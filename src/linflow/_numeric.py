"""The numeric fall-through of matrix ingestion, and the only ingestion
code that uses floats.

``_ratlinalg.ingest`` imports this module, and with it numpy, only when its
exact tier cannot certify the spectrum at the denominator bound.  The
numeric tier clusters A's float eigenvalues within tol, snaps each cluster
centre by ``_snap`` and takes ranks of the float powers by SVD.  It raises
SnapFailure or ClusterAmbiguity rather than guess; its result is never
certified.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite

import numpy as np

from .errors import ClusterAmbiguity, SnapFailure


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


def _check_cluster_separation(pts, tol):
    """ClusterAmbiguity if two cluster centres lie closer than 2 tol, where
    a snap within tol could not tell them apart."""
    for i, z in enumerate(pts):
        for w in pts[i + 1 :]:
            if abs(z - w) < 2 * tol:
                raise ClusterAmbiguity(
                    f"eigenvalues {z:.12g} and {w:.12g} are closer than twice tol={tol}"
                )


def _numeric_tier(matrix, tol, max_denominator):
    """(eigs, residual, ranks) from float eigenvalues clustered within tol
    and snapped, with SVD ranks of the float powers."""
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
