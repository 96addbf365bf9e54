"""The solver steps of the homeomorphisms against their unstacked oracle
(`unstacked_solver`): the same bytes of forms, roots and maps, and the same
solver counters, on seeded batches."""

from fractions import Fraction

import numpy as np
import pytest

from linflow import (
    GeneratorSpec,
    JordanBlock,
    PreconditionViolated,
    build_pw_conj_hyperbolic,
    build_rotation_unwind_map,
    homeos,
)
from linflow.flows import FlowEvaluator
from linflow.invariants import subspec
from linflow.probes import _sample_points

import unstacked_solver
from conftest import random_hyperbolic_spec
from grown_brackets import fresh_stats
from unstacked_solver import unstacked_route


def S(*blks):
    return GeneratorSpec(tuple(JordanBlock(m, re, im) for m, re, im in blks))


# pure (one factor), mixed, defective and rotating factors
SPECS = [
    S((1, -1, 0), (1, 2, 0)),
    S((2, -1, 1), (2, Fraction(1, 2), 0)),
    S((3, Fraction(-1, 4), 0), (1, Fraction(3, 2), 2)),
    S((1, Fraction(-5, 16), 0), (2, Fraction(1, 16), 0), (1, Fraction(13, 8), Fraction(1, 2))),
    S((2, -2, Fraction(3, 4)), (1, -1, 0)),
    S((1, Fraction(1, 4), Fraction(9, 4)), (1, 2, 0)),
]


def _same(got, want):
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _profiles(spec):
    out = []
    for part in ("stable", "unstable"):
        ev = FlowEvaluator.from_spec(subspec(spec, part), guard=1e9)
        if ev.dim:
            out.append(homeos._lyapunov_metric(ev, stable=part == "stable")[0])
    return out


def test_stacked_forms_match_the_separate_products(rng):
    # one to many rows, times that take a flow past the float range (the
    # forms read their overflow values there) and all-zero times
    overflowed = 0
    for prof in [p for spec in SPECS for p in _profiles(spec)]:
        for n in (1, 2, 3, 12):
            X = _sample_points(prof.flow.dim, n, int(rng.integers(1 << 30)), radii=(1e-3, 1e3))
            for ts in (np.zeros(n), rng.uniform(-3, 3, n), rng.choice([-2e3, 2e3, 0.5], n)):
                for k in (1, 2, 3):
                    got = prof.forms(ts, X, k)
                    assert _same(got, unstacked_solver.forms(prof, ts, X, k)), (prof.flow.blocks, n)
                    overflowed += np.count_nonzero(np.isinf(got))
    assert overflowed > 0


def test_unwind_forms_match_the_separate_products(rng):
    for m, a, b in ((1, -0.5, 1.25), (2, 0.75, -2.0), (3, -1.5, 0.5)):
        hm = build_rotation_unwind_map(m, a, b)
        G = np.diag(hm.metadata["metric_diagonal"] * 2)
        A = hm.source_flow.generator_matrix()
        prof = homeos._NormProfile(hm.source_flow, G, G @ A + A.T @ G, None, np.sign(a),
                                   (None, None))
        for n in (1, 2, 12):
            X = _sample_points(2 * m, n, int(rng.integers(1 << 30)))
            for ts in (np.zeros(n), rng.uniform(-3, 3, n), np.full(n, 2e3)):
                for k in (1, 2):
                    assert _same(prof.forms(ts, X, k), unstacked_solver.forms(prof, ts, X, k))


def _roots(pS, pU, Y, Z, shift, starts):
    """Norm times of both factors and minimum times from each start, with
    the counters of every solve."""
    out = []
    for prof, P in ((pS, Y), (pU, Z)):
        stats = fresh_stats()
        targets = np.resize([1.0, 0.04, 25.0], len(P))
        out.append((homeos._solve_norm_time(prof, P, stats, targets), stats))
    for start in starts:
        stats = fresh_stats()
        out.append((homeos._solve_min_time(pS, pU, Y, Z, shift, stats, start), stats))
    return out


def test_roots_and_counters_match_the_unstacked_solver(rng):
    # starts at the balance point, near the root, and at a time where a
    # flow leaves the float range, so that the solve restarts
    checked = restarts = 0
    for spec in SPECS + [random_hyperbolic_spec(rng, max_dim=6) for _ in range(12)]:
        profs = _profiles(spec)
        if len(profs) < 2:
            continue
        pS, pU = profs
        for n in (1, 5, 12):
            Y = _sample_points(pS.flow.dim, n, int(rng.integers(1 << 30)), radii=(1e-3, 1e3))
            Z = _sample_points(pU.flow.dim, n, int(rng.integers(1 << 30)), radii=(1e-3, 1e3))
            shift = rng.uniform(-3.0, 3.0, n)
            far = np.full(n, 1e4)
            starts = (None, shift + rng.uniform(-1.0, 1.0, n), far)
            with np.errstate(all="ignore"):
                f_far = np.log(pU.forms(far + shift, Z, 2)[1]) - np.log(-pS.forms(far, Y, 2)[1])
            restarts += np.count_nonzero(~np.isfinite(f_far))
            got = _roots(pS, pU, Y, Z, shift, starts)
            with unstacked_route():
                want = _roots(pS, pU, Y, Z, shift, starts)
            for (a, sa), (b, sb) in zip(got, want):
                assert _same(a, b) and sa == sb, spec
            checked += 1
    assert checked >= 10 and restarts > 0


def _pw_hyp_run(spec, X, ts):
    hm = build_pw_conj_hyperbolic(spec)
    W = hm.forward_batch(X)
    out = [W, hm.inverse_batch(W), hm.tau_batch(X, ts)]
    return out, dict(hm.metadata["solver"])


@pytest.mark.parametrize("k", range(len(SPECS)))
def test_pw_conj_maps_and_counters_match_the_unstacked_solver(k):
    # zero, pure-stable, pure-unstable and mixed rows, one row alone, and
    # radii from 1e-8 to 1e8
    spec = SPECS[k]
    cut = sum(b.size * (2 if b.im else 1) for b in spec.blocks if b.re < 0)
    for n, radii in ((1, (0.25, 4.0)), (12, (0.25, 4.0)), (24, (1e-8, 1e8))):
        X = _sample_points(spec.dim, n, 100 + k, radii=radii)
        if n > 1:
            X[0] = 0.0
            X[1, cut:] = 0.0
            X[2, :cut] = 0.0
        ts = np.resize(np.linspace(-5.0, 5.0, 7), n)
        got = _pw_hyp_run(spec, X, ts)
        with unstacked_route():
            want = _pw_hyp_run(spec, X, ts)
        assert all(_same(a, b) for a, b in zip(got[0], want[0])), (spec, n)
        assert got[1] == want[1], (spec, n)


@pytest.mark.parametrize("block", [(1, -0.5, 1.25), (2, 0.75, -2.0), (3, -1.5, 0.5)])
def test_unwind_maps_and_counters_match_the_unstacked_solver(block):
    X = _sample_points(2 * block[0], 24, block[0], radii=(1e-3, 1e3))

    def run():
        hm = build_rotation_unwind_map(*block)
        return [hm.forward_batch(X), hm.inverse_batch(X)], dict(hm.metadata["solver"])

    got = run()
    with unstacked_route():
        want = run()
    assert all(_same(a, b) for a, b in zip(got[0], want[0])) and got[1] == want[1]


def test_a_jump_row_raises_as_in_the_unstacked_solver():
    # f jumps over zero at x = 1 in the second row, as a flow past the
    # float range does; the first row has its root at 0.25
    def fg(x, rows):
        f = np.where(rows == 0, x - 0.25, np.where(x < 1.0, -0.5, np.inf))
        return f, np.where(rows == 0, 1.0, np.nan)

    raised = []
    for solve in (homeos._newton, unstacked_solver.newton):
        stats = fresh_stats()
        with pytest.raises(PreconditionViolated) as err:
            solve(fg, np.zeros(2), stats, lo=0.0, hi=4.0)
        raised.append((str(err.value), stats))
    assert raised[0] == raised[1]
