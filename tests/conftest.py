"""Shared spec generators and independent oracles.

The oracles here deliberately avoid the library's own code paths: flows are
checked against scipy's matrix exponential, block structure against numpy
rank computations on floats, and periods against a grid-plus-refine search
on simulated trajectories.  `find_scaling` is the reference scan over
`scaling_candidates` that the classifier's canonical keys replaced.
"""

import numpy as np
import pytest
from fractions import Fraction

from scipy.linalg import expm

from linflow import (
    GeneratorSpec,
    JordanBlock,
    ScalingCertificate,
    materialize,
    scale_spec,
    scaling_candidates,
    serialize_spec,
)


# ---------------------------------------------------------------------------
# random generators


def rational(rng, denom=4, lo=-3, hi=3, nonzero=False):
    while True:
        q = Fraction(int(rng.integers(lo * denom, hi * denom + 1)), denom)
        if q != 0 or not nonzero:
            return q


def random_spec(rng, max_dim=8, denom=4, rot_prob=0.4, max_size=3,
                re_pool=None, nonzero_re=False):
    """Random block multiset with total dimension <= max_dim (>= 1 block).

    re_pool, when given, restricts growth rates to a small set so that
    random pairs collide often enough to exercise the Yes branches.
    """
    target = int(rng.integers(1, max_dim + 1))
    blocks = []
    dim = 0
    while dim == 0 or dim < target:
        m = int(rng.integers(1, max_size + 1))
        rot = rng.random() < rot_prob
        width = 2 * m if rot else m
        if dim + width > max_dim:
            m, width = 1, 2 if rot else 1
            if dim + width > max_dim:
                rot, width = False, 1
        if re_pool is not None:
            re = re_pool[int(rng.integers(len(re_pool)))]
        else:
            re = rational(rng, denom, nonzero=nonzero_re)
        im = rational(rng, denom, 1, 3) if rot else Fraction(0)
        blocks.append(JordanBlock(m, re, im))
        dim += width
    return GeneratorSpec(tuple(blocks))


def random_hyperbolic_spec(rng, max_dim=6, denom=4, rot_prob=0.4, max_size=3):
    """Hyperbolic spec with growth rates bounded away from zero: |re| in [1/4, 4]."""
    while True:
        spec = random_spec(rng, max_dim, denom, rot_prob, max_size)
        blocks = []
        for b in spec.blocks:
            re = b.re
            if re == 0:
                re = Fraction(int(rng.integers(1, denom * 4 + 1)), denom)
                re = re if rng.random() < 0.5 else -re
            if abs(re) < Fraction(1, 4):
                re = Fraction(1, 4) if re > 0 else Fraction(-1, 4)
            if abs(re) > 4:
                re = Fraction(4) if re > 0 else Fraction(-4)
            blocks.append(JordanBlock(b.size, re, b.im))
        return GeneratorSpec(tuple(blocks))


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


# ---------------------------------------------------------------------------
# oracles


def find_scaling(a, b, predicate, name="predicate"):
    """First scaling candidate (by the documented order) passing predicate.

    predicate is called as predicate(a, scaled_b).  Returns None when no
    candidate passes; by the completeness argument of `linflow.similarity`
    this means no nonzero alpha passes at all, for every predicate the
    classifier uses.
    """
    for alpha in scaling_candidates(a, b):
        scaled = scale_spec(b, alpha)
        if predicate(a, scaled):
            return ScalingCertificate(
                alpha=alpha,
                predicate=name,
                witness={
                    "scaled_right_generator": serialize_spec(scaled),
                    "left_generator": serialize_spec(a),
                },
            )
    return None


def expm_flow(spec, t, x):
    """Independent flow evaluation through scipy's matrix exponential."""
    a = materialize(spec).to_float()
    return expm(float(t) * a) @ np.asarray(x, dtype=float)


def rank_block_sizes(a_float, lam, tol=1e-8):
    """Block sizes at eigenvalue lam from float rank sequences.

    Only reliable for well-separated spectra with small sizes; used to
    cross-check the exact structure computation on benign inputs.
    """
    d = a_float.shape[0]
    m = a_float.astype(complex) - lam * np.eye(d)
    ranks = [d]
    p = np.eye(d, dtype=complex)
    for _ in range(d):
        p = p @ m
        ranks.append(int(np.linalg.matrix_rank(p, tol=tol)))
        if ranks[-1] == ranks[-2]:
            break
    # ranks[k] = d - sum_j min(k, m_j); second difference counts sizes
    counts = []
    for k in range(1, len(ranks)):
        nulls_prev = d - ranks[k - 1]
        nulls = d - ranks[k]
        counts.append(nulls - nulls_prev)  # number of blocks of size >= k
    sizes = []
    for k, (ge_k, ge_next) in enumerate(zip(counts, counts[1:] + [0]), start=1):
        sizes.extend([k] * (ge_k - ge_next))
    return sorted(sizes, reverse=True)


def brute_force_period(spec, x, predicted, n_grid=20000):
    """Cross-check a claimed minimal period on simulated data.

    Scans (0.05 p, 0.5 p) for early recurrences (there must be none), then
    refines the trajectory-gap minimum near the claimed period p and checks
    it is a true recurrence.  Returns the refined recurrence time.
    Independent of the exact gcd computation being tested.
    """
    a = materialize(spec).to_float()
    x = np.asarray(x, dtype=float)
    norm = 1 + np.linalg.norm(x)
    dt = predicted / n_grid
    step = expm(dt * a)
    y = step @ x
    k = 1
    while k * dt < 0.5 * predicted:
        if k * dt > 0.05 * predicted:
            assert np.linalg.norm(y - x) > 1e-3 * norm, "early recurrence"
        y = step @ y
        k += 1
    best_k, best = None, np.inf
    while k * dt <= 1.25 * predicted:
        g = np.linalg.norm(y - x)
        if 0.75 * predicted <= k * dt and g < best:
            best_k, best = k, g
        y = step @ y
        k += 1
    t_star = _refine_period(a, x, (best_k - 1) * dt, (best_k + 1) * dt)
    assert np.linalg.norm(expm(t_star * a) @ x - x) <= 1e-6 * norm
    return t_star


def _refine_period(a, x, lo, hi, iters=80):
    def gap(t):
        return np.linalg.norm(expm(t * a) @ x - x)

    for _ in range(iters):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if gap(m1) < gap(m2):
            hi = m2
        else:
            lo = m1
    return 0.5 * (lo + hi)
