"""Explicit homeomorphisms: conjugacy defects, round trips, preconditions."""

import numpy as np
import pytest
from fractions import Fraction

from scipy.linalg import eigh, expm, solve_continuous_lyapunov
from scipy.optimize import brentq

from linflow import (
    DefinitenessCheckFailed,
    GeneratorSpec,
    InternalCheckError,
    JordanBlock,
    PreconditionViolated,
    build_parabola_shear,
    build_pw_conj_hyperbolic,
    build_rotation_unwind_map,
    build_spiral_map,
    build_uniform_exponent_map,
    lipschitz_probe,
    verify_conjugacy,
)
from linflow import homeos
from linflow.flows import FlowEvaluator
from linflow.invariants import subspec
from linflow.probes import _sample_points

import grown_brackets
from grown_brackets import fresh_stats
from conftest import random_hyperbolic_spec


def S(*blks):
    return GeneratorSpec(tuple(JordanBlock(m, re, im) for m, re, im in blks))


# ---------------------------------------------------------------------------
# spiral: focus to radial flow


def test_spiral_map_conjugates_focus_to_radial():
    hm = build_spiral_map(2.0)
    rep = verify_conjugacy(hm, times=np.linspace(-10, 10, 21))
    assert rep.residual < 1e-12
    assert rep.round_trip < 1e-12


def test_spiral_map_preserves_norms(rng):
    hm = build_spiral_map(-3.0)
    X = rng.standard_normal((64, 2))
    HX = hm.forward_batch(X)
    assert np.allclose(np.linalg.norm(HX, axis=1), np.linalg.norm(X, axis=1))


def test_spiral_map_pointwise_check():
    hm = build_spiral_map(1.0)
    x = np.array([0.3, -1.2])
    t = 0.8
    lhs = hm.forward(hm.source_flow.apply(t, x))
    rhs = hm.target_flow.apply(hm.tau(x, t), hm.forward(x))
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_spiral_map_at_rate_zero_is_the_planar_identity():
    # the focus without rotation is the node itself: two real blocks
    hm = build_spiral_map(0)
    assert hm.source_spec == hm.target_spec == S((1, -1, 0), (1, -1, 0))
    assert hm.source_flow.dim == hm.target_flow.dim == 2
    rep = verify_conjugacy(hm, times=np.linspace(-10, 10, 21))
    assert rep.residual == 0.0
    assert rep.round_trip == 0.0


# ---------------------------------------------------------------------------
# shear: node self-conjugacy moving the invariant curve family


def test_parabola_shear_is_a_self_conjugacy():
    hm = build_parabola_shear(1.0)
    assert hm.source_spec == hm.target_spec == S((1, -2, 0), (1, -1, 0))
    rep = verify_conjugacy(hm, times=np.linspace(-10, 10, 21))
    assert rep.residual < 1e-12
    assert rep.round_trip < 1e-12


def test_parabola_shear_formula():
    hm = build_parabola_shear(0.5)
    assert np.allclose(hm.forward(np.array([1.0, 2.0])), [3.0, 2.0])
    assert np.allclose(hm.inverse(np.array([3.0, 2.0])), [1.0, 2.0])


# ---------------------------------------------------------------------------
# single shared exponent


def test_uniform_exponent_map_residual():
    spec = S((1, -1, 0), (1, -1, 2), (1, -1, Fraction(1, 3)))
    hm = build_uniform_exponent_map(spec)
    assert hm.target_spec == S((1, -1, 0), (1, -1, 0), (1, -1, 0), (1, -1, 0), (1, -1, 0))
    rep = verify_conjugacy(hm, times=np.linspace(-10, 10, 21))
    assert rep.residual < 1e-12
    assert rep.round_trip < 1e-12


@pytest.mark.parametrize(
    "spec",
    [
        S((2, -1, 0)),  # defective
        S((1, -1, 0), (1, -2, 0)),  # two exponents
        S((1, 1, 0), (1, 1, 2)),  # expanding
    ],
)
def test_uniform_exponent_map_preconditions(spec):
    with pytest.raises(PreconditionViolated):
        build_uniform_exponent_map(spec)


# ---------------------------------------------------------------------------
# hyperbolic pointwise conjugacy to the standard saddle


def test_pw_conj_planar_saddle():
    hm = build_pw_conj_hyperbolic(S((1, -2, 0), (1, 3, 0)))
    assert hm.target_spec == S((1, -1, 0), (1, 1, 0))
    rep = verify_conjugacy(hm, times=np.linspace(-4, 4, 9))
    assert rep.residual < 1e-9
    assert rep.round_trip < 1e-9


def test_pw_conj_defective_mixed_case():
    hm = build_pw_conj_hyperbolic(S((2, -1, 1), (2, Fraction(1, 2), 0)))
    rep = verify_conjugacy(hm, times=np.linspace(-3, 3, 7))
    assert rep.residual < 1e-6
    assert rep.round_trip < 1e-6


def test_pw_conj_pure_stable_side():
    hm = build_pw_conj_hyperbolic(S((3, -1, 0)))
    assert hm.target_spec == S((1, -1, 0), (1, -1, 0), (1, -1, 0))
    rep = verify_conjugacy(hm, times=np.linspace(-4, 4, 9))
    assert rep.residual < 1e-8


def test_pw_conj_pointwise_ratio_stays_bounded():
    # pointwise-Lipschitz at 0: |h(x)|/|x| bounded along shrinking radii
    hm = build_pw_conj_hyperbolic(S((2, -1, 0), (1, 2, 0)))
    rep = lipschitz_probe(hm)
    assert rep.pointwise_trend == "bounded"


def test_pw_conj_inverse_recovers_adversarial_points(rng):
    hm = build_pw_conj_hyperbolic(S((2, -1, 1), (2, Fraction(1, 2), 0)))
    d = hm.source_flow.dim
    pts = [
        np.full(d, 1e-8),
        np.full(d, 1e6),
        np.eye(d)[0] * 2.0,          # stable side only
        np.eye(d)[d - 1] * 1e-5,     # unstable side only
        np.concatenate([np.full(4, 1e-9), np.full(d - 4, 5.0)]),  # thin cone
    ]
    for x in pts:
        w = hm.forward(x)
        back = hm.inverse(w)
        assert np.linalg.norm(back - x) <= 1e-6 * (1 + np.linalg.norm(x)), x


def test_pw_conj_mixed_batch_matches_single_rows(rng):
    # zero, pure-stable, pure-unstable and mixed rows in one batch: every
    # row must come out as it does alone
    hm = build_pw_conj_hyperbolic(S((2, -1, 1), (2, Fraction(1, 2), 0)))
    d, dS = hm.source_flow.dim, 4
    stable, unstable = np.zeros((2, d)), np.zeros((2, d))
    stable[:, :dS] = rng.standard_normal((2, dS))
    unstable[:, dS:] = 3.0 * rng.standard_normal((2, d - dS))
    X = np.vstack([np.zeros(d), stable[0], unstable[0], rng.standard_normal(d),
                   unstable[1], np.zeros(d), 0.1 * rng.standard_normal(d), stable[1]])
    ts = np.linspace(-2.0, 2.0, len(X))
    W = hm.forward_batch(X)
    for got, want in (
        (W, [hm.forward(x) for x in X]),
        (hm.inverse_batch(W), [hm.inverse(w) for w in W]),
        (hm.tau_batch(X, ts), [hm.tau(x, t) for x, t in zip(X, ts)]),
    ):
        np.testing.assert_allclose(got, np.array(want), rtol=1e-12, atol=1e-12)
    assert np.all(W[[0, 5]] == 0) and np.all(W[[1, 7], dS:] == 0) and np.all(W[[2, 4], :dS] == 0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e80, 1e150, 1e300])
def test_pw_conj_large_norms_round_trip_or_raise(scale):
    # an overflowing norm must end in the typed error, never in NaN
    hm = build_pw_conj_hyperbolic(S((2, -1, 1), (2, Fraction(1, 2), 0)))
    d = hm.source_flow.dim
    for x in (np.full(d, scale), np.eye(d)[0] * scale, np.eye(d)[d - 1] * scale):
        try:
            tau = hm.tau(x, 0.5)
        except PreconditionViolated:
            tau = 0.5
        assert np.isfinite(tau)
        try:
            back = hm.inverse(hm.forward(x))
        except PreconditionViolated:
            continue
        assert np.max(np.abs(back - x)) <= 1e-9 * scale, (scale, x)


def _finite_or_raise(batch_map, X):
    try:
        out = batch_map(X)
    except PreconditionViolated:
        return
    assert np.all(np.isfinite(out))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e80, 1e150, 1e300])
def test_direct_map_calls_on_large_norms_are_quiet(scale):
    # each batch map, called without verify_conjugacy, runs its solves
    # under its own errstate: finite values or the typed error, no warning
    maps = [build_pw_conj_hyperbolic(S((2, -1, 1), (2, Fraction(1, 2), 0))),
            build_pw_conj_hyperbolic(S((1, Fraction(1, 4), Fraction(9, 4)), (1, 2, 0))),
            build_rotation_unwind_map(2, 0.75, -2.0), build_rotation_unwind_map(1, -0.5, 1.25)]
    for hm in maps:
        d = hm.source_flow.dim
        X = np.vstack([np.full(d, scale), np.eye(d) * scale, _sample_points(d, 4, 7) * scale])
        for batch_map in (hm.forward_batch, hm.inverse_batch):
            _finite_or_raise(batch_map, X)
            for x in X:
                _finite_or_raise(batch_map, x[None, :])


@pytest.mark.parametrize("x", [[1e40, 0, 0], [0, 1e60, 1e60], [1e-200, 0, 0], [0, 0, 1e-200]])
def test_pw_conj_blocks_of_unequal_growth_round_trip_or_raise(x):
    # all unstable, rates 1/4 and 2: the norm-time solves need growth far
    # past the float range on the fast block, which must not make a zero
    # block NaN, nor silently lose a block whose image underflows
    hm = build_pw_conj_hyperbolic(S((1, Fraction(1, 4), Fraction(9, 4)), (1, 2, 0)))
    x = np.array(x)
    try:
        back = hm.inverse(hm.forward(x))
    except PreconditionViolated:
        return
    assert np.max(np.abs(back - x)) <= 1e-9 * np.max(np.abs(x))


def test_pw_conj_inverse_of_a_norm_beyond_the_float_range_raises():
    # the metric norm squared overflows; the inverse used to return 0
    hm = build_pw_conj_hyperbolic(S((1, 1, 0)))
    with pytest.raises(PreconditionViolated, match="beyond the float range"):
        hm.inverse(np.array([1e300]))


def test_pw_conj_rejects_central_blocks():
    with pytest.raises(PreconditionViolated):
        build_pw_conj_hyperbolic(S((1, 0, 1), (1, -1, 0)))


def test_pw_conj_fails_honestly_on_flat_defective_blocks():
    # size-3 block with tiny growth: no chain weight in the search range
    # certifies the convexity form, and the builder must say so
    with pytest.raises(DefinitenessCheckFailed):
        build_pw_conj_hyperbolic(S((3, Fraction(-1, 20), 0)))


def test_closed_form_lyapunov_metrics_match_the_bartels_stewart_solver(rng):
    # the oracle: scipy's general Lyapunov solver on the same chain weights
    seen = dict.fromkeys(("rotating", "defective", "stable", "unstable"), 0)
    for _ in range(60):
        spec = random_hyperbolic_spec(rng, max_dim=8)
        for stable in (True, False):
            ev = FlowEvaluator.from_spec(subspec(spec, "stable" if stable else "unstable"))
            if ev.dim == 0:
                continue
            seen["stable" if stable else "unstable"] += 1
            seen["rotating"] += any(b != 0 for _, _, b in ev.blocks)
            seen["defective"] += any(m > 1 for m, _, _ in ev.blocks)
            A, sgn = ev.generator_matrix(), 1.0 if stable else -1.0
            solutions = homeos._lyapunov_solutions(ev, sgn, 8)
            for (g, Q), (h, G) in zip(homeos._chain_weights(ev, 8), solutions, strict=True):
                want = solve_continuous_lyapunov(sgn * A.T, -2.0 * Q)
                assert g == h
                assert np.array_equal(G, G.T)
                assert np.abs(G - want).max() <= 1e-12 * np.abs(want).max(), (ev.blocks, g)
    assert min(seen.values()) >= 10, seen


def test_pw_conj_random_specs_meet_tolerance(rng):
    for _ in range(5):
        spec = random_hyperbolic_spec(rng, max_dim=6)
        hm = build_pw_conj_hyperbolic(spec)
        rep = verify_conjugacy(hm, times=np.linspace(-3, 3, 7), n_points=16)
        assert rep.residual < 1e-6, spec
        assert rep.round_trip < 1e-6, spec


# ---------------------------------------------------------------------------
# defective rotation unwinding


def test_unwind_map_conjugates_rotation_to_real_pair():
    hm = build_rotation_unwind_map(2, Fraction(-1), Fraction(1))
    assert hm.source_spec == S((2, -1, 1))
    assert hm.target_spec == S((2, -1, 0), (2, -1, 0))
    rep = verify_conjugacy(hm, times=np.linspace(-8, 8, 17))
    assert rep.residual < 1e-7
    assert rep.round_trip < 1e-9


def test_unwind_map_is_an_isometry(rng):
    hm = build_rotation_unwind_map(2, Fraction(-1), Fraction(1))
    X = rng.standard_normal((64, 4))
    HX = hm.forward_batch(X)
    assert np.allclose(np.linalg.norm(HX, axis=1), np.linalg.norm(X, axis=1))


def test_unwind_map_is_not_uniformly_lipschitz():
    hm = build_rotation_unwind_map(2, Fraction(-1), Fraction(1))
    rep = lipschitz_probe(hm)
    assert rep.uniform_trend == "growing"
    assert rep.pointwise_trend == "bounded"


def test_unwind_preconditions():
    with pytest.raises(PreconditionViolated):
        build_rotation_unwind_map(0, Fraction(-1), Fraction(1))
    with pytest.raises(PreconditionViolated):
        build_rotation_unwind_map(2, Fraction(0), Fraction(1))
    with pytest.raises(PreconditionViolated):
        build_rotation_unwind_map(2, Fraction(-1), Fraction(0))


# ---------------------------------------------------------------------------
# safeguarded Newton root solves against independent scalar oracles


def _oracle_root(f):
    """brentq on a scalar increasing f, bracketed by doubling [-1, 1]."""
    lo, hi = -1.0, 1.0
    while f(lo) > 0:
        lo *= 2.0
    while f(hi) < 0:
        hi *= 2.0
    return brentq(f, lo, hi, xtol=1e-15, rtol=1e-15, maxiter=500)


def _expm_norm_sq(A, G, s, x):
    z = expm(s * A) @ x
    return float(z @ G @ z)


def _factor_profile(blocks, stable):
    ev = FlowEvaluator(blocks, guard=1e9)
    prof, _ = homeos._lyapunov_metric(ev, stable=stable)
    return prof, ev.generator_matrix(), prof.G


def _directions(rng, n, d, radii):
    X = rng.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return X * np.resize(np.asarray(radii, dtype=float), n)[:, None]


RADII = (2.0**-23, 0.3, 1.0, 7.0, 1e3)


@pytest.mark.parametrize(
    "blocks, stable",
    [
        ([(2, -0.25, 0.0), (1, -2.0, 1.5)], True),
        ([(3, -1.0, 0.0)], True),
        ([(1, 3.25, 0.0), (2, 0.5, -0.75)], False),
    ],
)
def test_norm_time_solve_matches_brentq(rng, blocks, stable):
    prof, A, G = _factor_profile(blocks, stable)
    X = _directions(rng, 10, A.shape[0], RADII)
    targets = np.resize([1.0, 0.04, 25.0], len(X))
    stats = fresh_stats()
    got = homeos._solve_norm_time(prof, X, stats, targets)
    for x, t, s in zip(X, targets, got):
        want = _oracle_root(lambda u: prof.sign * np.log(_expm_norm_sq(A, G, u, x) / t))
        assert abs(s - want) <= 1e-10 * max(1.0, abs(want)), (x, t, s, want)
    assert stats["solves"] == len(X)


def test_min_time_solve_matches_brentq(rng):
    pS, AS, GS = _factor_profile([(2, -0.25, 0.0)], stable=True)
    pU, AU, GU = _factor_profile([(1, 3.25, 0.0), (1, 1.0, 2.0)], stable=False)
    SS, SU = GS @ AS + AS.T @ GS, GU @ AU + AU.T @ GU
    n = 12
    Y = _directions(rng, n, 2, RADII)
    Z = _directions(rng, n, 3, RADII[::-1])
    shift = rng.uniform(-3.0, 3.0, n)
    stats = fresh_stats()
    got = homeos._solve_min_time(pS, pU, Y, Z, shift, stats)

    def dV(u, y, z, dt):
        ys, zs = expm(u * AS) @ y, expm((u + dt) * AU) @ z
        return float(ys @ SS @ ys + zs @ SU @ zs)

    for y, z, dt, s in zip(Y, Z, shift, got):
        want = _oracle_root(lambda u: dV(u, y, z, dt))
        assert abs(s - want) <= 1e-10 * max(1.0, abs(want)), (s, want)


def _unwind_profile(hm, growth):
    """The norm profile of an unwind map, rebuilt from its metric, with the
    range of the pencil (S, G) from scipy's generalized eigh."""
    A = hm.source_flow.generator_matrix()
    G = np.diag(hm.metadata["metric_diagonal"] * 2)
    S = G @ A + A.T @ G
    ev = eigh(S, G, eigvals_only=True)
    rates = (ev[0], ev[-1])
    return homeos._NormProfile(hm.source_flow, G, S, None, np.sign(growth), (rates, None))


@pytest.mark.parametrize("growth", [-1.0, 0.75])
def test_unwind_hit_time_matches_brentq(rng, growth):
    hm = build_rotation_unwind_map(2, growth, 1.5)
    prof = _unwind_profile(hm, growth)
    A, G = hm.source_flow.generator_matrix(), prof.G
    X = _directions(rng, 10, 4, RADII)
    stats = fresh_stats()
    got = homeos._solve_norm_time(prof, X, stats)
    for x, s in zip(X, got):
        want = _oracle_root(lambda u: np.sign(growth) * np.log(_expm_norm_sq(A, G, u, x)))
        assert abs(s - want) <= 1e-10 * max(1.0, abs(want)), (x, s, want)


def _round_trip(hm, X):
    back = hm.inverse_batch(hm.forward_batch(X))
    return float(np.max(np.linalg.norm(back - X, axis=1) / (1.0 + np.linalg.norm(X, axis=1))))


def test_pw_conj_round_trip_on_a_steep_mixed_profile():
    # slow stable and fast unstable rates: Newton alone crawls on the
    # exponential side of the inner minimum, so an unconverged solve shows
    hm = build_pw_conj_hyperbolic(S((2, Fraction(-1, 4), 0), (1, Fraction(13, 4), 0)))
    assert _round_trip(hm, _sample_points(3, 12, 0)) <= 1e-9


def test_pw_conj_round_trip_sweep():
    rng = np.random.default_rng(4021)
    for _ in range(30):
        spec = random_hyperbolic_spec(rng, max_dim=6)
        hm = build_pw_conj_hyperbolic(spec)
        X = _sample_points(spec.dim, 12, int(rng.integers(1 << 30)), radii=(1e-3, 1e3))
        assert _round_trip(hm, X) <= 1e-9, spec


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf, -np.inf])
def test_newton_bisects_through_a_useless_derivative(bad):
    roots = np.array([0.3, -5.0, 17.25, 1e4])

    def fg(x, rows):
        return x - roots[rows], np.full(len(rows), bad)

    stats = fresh_stats()
    got = homeos._newton(fg, np.zeros(len(roots)), stats, slopes=(1.0, 1.0))
    assert np.allclose(got, roots, rtol=1e-12, atol=1e-12)
    assert stats["bisect_steps"] == stats["iterations"] > 0


def test_newton_iteration_cap_is_an_internal_error():
    def fg(x, rows):
        return x - 0.3, np.full(len(rows), np.nan)

    stats = fresh_stats()
    with pytest.raises(InternalCheckError):
        homeos._newton(fg, np.zeros(3), stats, slopes=(1.0, 1.0), cap=5)


def test_solver_counters_accumulate_on_the_map():
    hm = build_pw_conj_hyperbolic(S((2, -1, 1), (2, Fraction(1, 2), 0)))
    stats = hm.metadata["solver"]
    assert stats == fresh_stats()
    verify_conjugacy(hm, times=np.linspace(-4, 4, 9))
    first = dict(stats)
    # Newton steps on closed-form derivatives: about 4 per root here, and
    # the bisection safeguard fires on a handful of the ~6000 iterations
    assert first["solves"] <= first["iterations"] <= 6 * first["solves"]
    assert 0 <= first["bisect_steps"] <= 0.01 * first["iterations"]
    hm.forward_batch(np.ones((3, hm.source_flow.dim)))
    assert hm.metadata["solver"]["solves"] > first["solves"]
    unwind = build_rotation_unwind_map(2, -1.0, 1.0)
    unwind.forward(np.array([0.5, -1.0, 2.0, 0.25]))
    assert unwind.metadata["solver"]["solves"] == 1


# ---------------------------------------------------------------------------
# certified brackets: slope bounds, the grown-bracket oracle, stiff inputs


def test_newton_evaluates_only_inside_the_certified_bracket():
    # f = 2 (x - r) + sin(x - r) has slopes in [1, 3]: one evaluation at
    # x0 = 0 places each root, and no later evaluation leaves
    # x0 - f(x0) / [1, 3] (up to the slack)
    roots = np.array([0.3, -5.0, 17.25, 1e4, 0.0])
    seen = []

    def fg(x, rows):
        seen.append((x.copy(), rows.copy()))
        u = x - roots[rows]
        return 2.0 * u + np.sin(u), 2.0 + np.cos(u)

    got = homeos._newton(fg, np.zeros(len(roots)), fresh_stats(), slopes=(1.0, 3.0))
    assert np.allclose(got, roots, rtol=1e-12, atol=1e-12)
    first, rows = seen[0]
    assert np.array_equal(first, np.zeros(len(roots)))
    assert np.array_equal(rows, np.arange(len(roots)))
    f0 = -2.0 * roots - np.sin(roots)
    lo, hi = np.minimum(-f0 / 1.0, -f0 / 3.0), np.maximum(-f0 / 1.0, -f0 / 3.0)
    for x, rows in seen[1:]:
        w = 0.02 * (hi[rows] - lo[rows]) + 1e-9
        assert np.all((x >= lo[rows] - w) & (x <= hi[rows] + w))
    assert not hasattr(homeos, "_grow_bracket")


def test_newton_without_a_finite_bracket_is_a_precondition_error():
    def fg(x, rows):
        return np.full(len(rows), np.inf), np.full(len(rows), np.nan)

    with pytest.raises(PreconditionViolated, match="bracket could not be established"):
        homeos._newton(fg, np.zeros(2), fresh_stats(), slopes=(1.0, 2.0))


def test_newton_stopping_at_a_jump_is_a_precondition_error():
    # f jumps over zero at x = 1, as a flow past the float range does
    def fg(x, rows):
        return np.where(x < 1.0, -0.5, np.inf), np.full(len(rows), np.nan)

    with pytest.raises(PreconditionViolated, match="beyond the float range"):
        homeos._newton(fg, np.zeros(1), fresh_stats(), lo=0.0, hi=4.0)


def test_pencil_ranges_bound_the_solved_slopes(rng):
    # the generalized eigenvalues of (S, G) and (C, sign S) from scipy, and
    # the slopes V'/V and V''/(sign V') along sampled trajectories
    for _ in range(12):
        spec = random_hyperbolic_spec(rng, max_dim=6)
        for stable in (True, False):
            part = subspec(spec, "stable" if stable else "unstable")
            ev = FlowEvaluator.from_spec(part, guard=1e9)
            if ev.dim == 0:
                continue
            prof, _ = homeos._lyapunov_metric(ev, stable=stable)
            pencils = ((prof.S, prof.G), (prof.mats[2], prof.sign * prof.S))
            for got, (M, P) in zip((prof.rates, prof.curvatures), pencils):
                want = eigh(M, P, eigvals_only=True)
                assert np.allclose(got, (want[0], want[-1]), rtol=1e-10, atol=0), (spec, stable)
            X = _directions(rng, 16, ev.dim, RADII)
            for t in (-2.0, 0.0, 1.5):
                V, dV, d2V = prof.forms(np.full(len(X), t), X, 3)
                r, c = dV / V, d2V / (prof.sign * dV)
                for q, (lo, hi) in ((r, prof.rates), (c, prof.curvatures)):
                    tol = 1e-12 * max(abs(lo), abs(hi))
                    assert np.all((q >= lo - tol) & (q <= hi + tol)), (spec, stable, t)


def _rel(got, want):
    scale = np.maximum(np.linalg.norm(np.atleast_2d(want), axis=-1), 1e-300)
    return float(np.max(np.linalg.norm(np.atleast_2d(got - want), axis=-1) / scale))


def test_roots_match_the_grown_bracket_oracle(rng):
    for _ in range(16):
        spec = random_hyperbolic_spec(rng, max_dim=6)
        if not spec.blocks[0].re < 0 < spec.blocks[-1].re:
            continue
        oracle = grown_brackets.PwHypOracle(spec)
        pS, pU = oracle.prof
        Y, Z = (_directions(rng, 12, p.flow.dim, RADII) for p in (pS, pU))
        shift = rng.uniform(-3.0, 3.0, len(Y))
        for prof, P in ((pS, Y), (pU, Z)):
            targets = np.resize([1.0, 0.04, 25.0], len(P))
            got = homeos._solve_norm_time(prof, P, fresh_stats(), targets)
            want = grown_brackets.solve_norm_time(prof, P, fresh_stats(), targets)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), spec
        for start in (None, shift + rng.uniform(-1.0, 1.0, len(Y))):
            got = homeos._solve_min_time(pS, pU, Y, Z, shift, fresh_stats(), start)
            want = grown_brackets.solve_min_time(pS, pU, Y, Z, shift, fresh_stats())
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), spec


def test_pw_conj_maps_match_the_grown_bracket_oracle():
    # verify-style pools: |growth| in [1/4, 4], d <= 6, the A08 points and
    # times, with pure-stable and pure-unstable rows beside the mixed ones
    rng = np.random.default_rng(1307)
    ts = np.resize(np.linspace(-5.0, 5.0, 7), 12)
    for _ in range(24):
        spec = random_hyperbolic_spec(rng, max_dim=6)
        hm = build_pw_conj_hyperbolic(spec)
        oracle = grown_brackets.PwHypOracle(spec)
        X = _sample_points(spec.dim, 12, int(rng.integers(1 << 30)))
        X[0, :oracle.cut] = 0.0
        X[1, oracle.cut:] = 0.0
        X = X[np.any(X != 0, axis=1)]
        W = hm.forward_batch(X)
        assert _rel(W, oracle.forward(X)) <= 1e-12, spec
        assert _rel(hm.inverse_batch(W), oracle.inverse(W)) <= 1e-12, spec
        tau, want = hm.tau_batch(X, ts[:len(X)]), oracle.tau(X, ts[:len(X)])
        assert np.all(np.abs(tau - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), spec


@pytest.mark.parametrize("block", [(1, -0.5, 1.25), (2, 0.75, -2.0), (3, -1.5, 0.5)])
def test_unwind_map_matches_the_grown_bracket_oracle(block):
    m, a, b = block
    hm = build_rotation_unwind_map(m, a, b)
    X = _sample_points(2 * m, 32, m, radii=(1e-3, 1e3))
    T = grown_brackets.solve_norm_time(_unwind_profile(hm, a), X, fresh_stats())
    U, V = X[:, :m], X[:, m:]
    c, s = np.cos(b * T)[:, None], np.sin(b * T)[:, None]
    assert _rel(hm.forward_batch(X), np.hstack([c * U - s * V, s * U + c * V])) <= 1e-12


def _stiff_spec(rng):
    """Two or three blocks of size 1..4 with growth rates +-k/16, k in
    1..64, each rotating at k/16 with probability 0.4."""
    blocks = []
    for _ in range(int(rng.integers(2, 4))):
        m = int(rng.integers(1, 5))
        re = Fraction(int(rng.integers(1, 65)), 16) * (1 if rng.random() < 0.5 else -1)
        im = Fraction(int(rng.integers(1, 65)), 16) if rng.random() < 0.4 else 0
        blocks.append(JordanBlock(m, re, im))
    return GeneratorSpec(tuple(blocks))


def test_pw_conj_stiff_sweep_maps_every_batch():
    # slow and fast rates side by side, long chains and wide radii: a wide
    # certified bracket must never evaluate a flow into an error, and a
    # warm start that overflows must recover.  A spec whose metric search
    # fails is the builder's honest answer and is skipped.
    rng = np.random.default_rng(13)
    specs = [S((4, -1, 0), (2, Fraction(-1, 16), Fraction(5, 4)), (1, Fraction(31, 16), 0))]
    specs += [_stiff_spec(rng) for _ in range(40)]
    built = 0
    for k, spec in enumerate(specs):
        try:
            hm = build_pw_conj_hyperbolic(spec)
        except DefinitenessCheckFailed:
            continue
        built += 1
        for radii in ((1e-8, 1e8), (1e-3, 1e3)):
            X = _sample_points(spec.dim, 24, 1000 + k, radii=radii)
            back = hm.inverse_batch(hm.forward_batch(X))
            assert np.all(np.isfinite(hm.tau_batch(X, np.full(len(X), 0.75)))), spec
            rt = np.max(np.linalg.norm(back - X, axis=1) / np.linalg.norm(X, axis=1))
            assert rt <= 1e-8, (spec, radii, rt)
    assert built >= 36
