"""The retired float route of the exact tier, kept as an oracle of the
p-adic candidates of ``_ratlinalg._exact_tier``.

It roots the square-free part of chi_A with ``np.roots``, polishes each
root by Newton steps, snaps it within tol to a rational of bounded
denominator, and certifies the snap by dividing each block's charpoly by
its monic integer factor (``real_factor``), rejecting a candidate whose
factor is not in Z[x].  Wherever it certifies, the exact tier must
certify the same eigenvalues, multiplicities and factors.
"""

from functools import reduce

import numpy as np

from linflow import _ratlinalg as rl
from linflow._numeric import _snap
from linflow.errors import SnapFailure


def _horner(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def float_roots_squarefree(chi, D):
    """Polished float roots of the square-free part of chi_A, from chi = chi_B:
    sf_A(x) = D^-e sf_B(D x), each coefficient rounded once."""
    sf = rl.squarefree(chi)
    e = len(sf) - 1
    try:
        coeffs = [c / D ** (e - k) for k, c in enumerate(sf)]
        dcoeffs = [k * c / D ** (e - k) for k, c in enumerate(sf) if k]
    except OverflowError:
        raise SnapFailure("characteristic polynomial coefficient beyond the float range") from None
    polished = []
    for z in np.roots(coeffs[::-1]):
        z = complex(z)
        for _ in range(4):
            dz = _horner(dcoeffs, z)
            if dz == 0:
                break
            z = z - _horner(coeffs, z) / dz
        polished.append(z)
    return polished


def real_factor(D, re, im):
    """Monic real factor over Z of the eigenvalue D*(re + i*im) of B, or None
    when it has non-integer coefficients and so divides no monic chi_B."""
    factor = [-D * re, 1] if im == 0 else [D * D * (re * re + im * im), -2 * D * re, 1]
    if any(c.denominator != 1 for c in factor[:-1]):
        return None
    return [int(c) for c in factor]


def float_exact_tier(parts, D, tol, max_denominator):
    """(eigs, factors) as ``_exact_tier`` gives them, or None where the float
    route could not certify: a root farther than tol from its snap, a
    factor outside Z[x] or not dividing chi_B, or a cofactor left over."""
    roots = float_roots_squarefree(reduce(rl._poly_mul, (chi_c for _, chi_c in parts)), D)
    cands = []
    for z in roots:
        pair = (_snap(z.real, max_denominator), _snap(abs(z.imag), max_denominator))
        if abs(complex(z.real, abs(z.imag)) - complex(*pair)) > tol:
            return None
        if pair not in cands:
            cands.append(pair)
    remaining = [chi_c for _, chi_c in parts]
    eigs, factors = {}, {}
    for pair in cands:
        factor = real_factor(D, *pair)
        if factor is None:
            return None
        held = []
        for c, chi_c in enumerate(remaining):
            remaining[c], m = rl._divide_out(chi_c, factor)
            held.append(m)
        if not any(held):
            return None
        eigs[pair] = sum(held)
        factors[pair] = factor, held
    if any(len(chi_c) != 1 for chi_c in remaining):
        return None
    return eigs, factors
