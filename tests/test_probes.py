"""Numerical probes: conjugacy defect, Lipschitz trends, distortion, decay, period."""

import json
import re

import numpy as np
import pytest
from fractions import Fraction

from linflow import (
    ConjugacyReport,
    FlowEvaluator,
    GeneratorSpec,
    JordanBlock,
    LipschitzReport,
    NotBounded,
    NotStable,
    PreconditionViolated,
    build_parabola_shear,
    build_pw_conj_hyperbolic,
    build_rotation_unwind_map,
    build_spiral_map,
    build_uniform_exponent_map,
    decay_rate_probe,
    distortion_probe,
    distortion_subspace,
    lipschitz_probe,
    period_probe,
    top_rate,
    verify_conjugacy,
)
from linflow import probes
from linflow.probes import _sample_points, _trend


def S(*blks):
    return GeneratorSpec(tuple(JordanBlock(m, re, im) for m, re, im in blks))


# ---------------------------------------------------------------------------
# conjugacy verification plumbing


def test_verify_conjugacy_honors_arguments():
    hm = build_spiral_map(1.0)
    rep = verify_conjugacy(hm, times=[0.0, 1.0, 2.5], n_points=8)
    assert rep.times == (0.0, 1.0, 2.5)
    assert rep.n_points == 8
    assert rep.worst_time in rep.times
    assert rep.name == hm.name
    assert set(rep.to_json()) >= {"name", "residual", "round_trip", "worst_time"}


@pytest.mark.filterwarnings("error")
def test_verify_conjugacy_never_reports_a_non_finite_round_trip():
    hm = build_spiral_map(1.0)
    hm.inverse_batch = lambda W: np.full_like(W, np.inf)
    with pytest.raises(PreconditionViolated, match="round trip"):
        verify_conjugacy(hm, times=[0.0], n_points=4)


@pytest.mark.filterwarnings("error")
def test_verify_conjugacy_never_reports_a_nan_residual():
    # the shear's flow and map overflow on both sides at t = -400: inf - inf
    hm = build_parabola_shear(1.0)
    with pytest.raises(PreconditionViolated, match="at t = -400 is not finite"):
        verify_conjugacy(hm, times=[0.0, -400.0], n_points=4)


def test_lipschitz_probe_reports_schedules():
    rep = lipschitz_probe(build_spiral_map(2.0), n_scales=12, pairs=8)
    assert len(rep.radii) == 12
    assert len(rep.uniform_ratios) == 12
    assert rep.uniform_trend == "bounded"
    assert rep.pointwise_trend == "bounded"
    assert rep.to_json()["uniform_trend"] == "bounded"


# ---------------------------------------------------------------------------
# batched grids against the per-time and per-scale loops they replaced


def _verify_by_time(hmap, times, n_points, seed, radii=(0.25, 4.0)):
    """verify_conjugacy as one map call per grid time."""
    with np.errstate(all="ignore"):
        times = np.asarray(times, dtype=float)
        X = _sample_points(hmap.source_flow.dim, n_points, seed, radii)
        HX = hmap.forward_batch(X)
        back = hmap.inverse_batch(HX)
        round_trip = float(
            np.max(np.linalg.norm(back - X, axis=1) / (1.0 + np.linalg.norm(X, axis=1)))
        )
        if not np.isfinite(round_trip):
            raise PreconditionViolated("round trip h^-1(h(x)) is not finite")
        worst = 0.0
        worst_t = 0.0
        for t in times:
            ts = np.full(len(X), float(t))
            lhs = hmap.forward_batch(hmap.source_flow.apply_batch(ts, X))
            taus = hmap.tau_batch(X, ts)
            rhs = hmap.target_flow.apply_batch(taus, HX)
            err = np.linalg.norm(lhs - rhs, axis=1) / (1.0 + np.linalg.norm(rhs, axis=1))
            m = float(np.max(err))
            if not np.isfinite(m):
                raise PreconditionViolated(
                    f"conjugacy residual at t = {float(t):g} is not finite:"
                    " the flows leave the float range"
                )
            if m > worst:
                worst, worst_t = m, float(t)
    return ConjugacyReport(
        hmap.name, worst, round_trip, len(X), tuple(float(t) for t in times), worst_t
    )


def _lipschitz_by_scale(hmap, n_scales, pairs, seed=0):
    """lipschitz_probe as two map calls per scale."""
    rng = np.random.default_rng(seed)
    d = hmap.source_flow.dim
    eye = np.eye(d)
    bases = np.repeat(eye, d, axis=0)
    offs = np.tile(eye, (d, 1))
    radii, uni, ptw = [], [], []
    for k in range(n_scales):
        r = 2.0 ** (-k)
        X = rng.standard_normal((pairs, d))
        X = r * X / np.linalg.norm(X, axis=1, keepdims=True)
        D = rng.standard_normal((pairs, d))
        D = (0.01 * r) * D / np.linalg.norm(D, axis=1, keepdims=True)
        X = np.vstack([X, r * bases])
        Y = np.vstack([X[:pairs] + D, r * bases + (0.01 * r) * offs])
        HX = hmap.forward_batch(X)
        HY = hmap.forward_batch(Y)
        q = np.linalg.norm(HX - HY, axis=1) / np.linalg.norm(X - Y, axis=1)
        p = np.linalg.norm(HX, axis=1) / np.linalg.norm(X, axis=1)
        radii.append(r)
        uni.append(float(np.max(q)))
        ptw.append(float(np.max(p)))
    return LipschitzReport(
        hmap.name, tuple(radii), tuple(uni), tuple(ptw), _trend(uni), _trend(ptw)
    )


def _shell_ratios_by_partner(spec, x, t_max, n_grid, seed=0):
    """The shell ratios of distortion_probe off the subspace, two flow
    calls per partner."""
    flow = FlowEvaluator.from_spec(spec, guard=1e9)
    lam = abs(float(top_rate(spec)))
    rng = np.random.default_rng(seed)
    s_grid = np.geomspace(1.0, t_max, n_grid)
    shells = []
    base = 0.1 * max(1.0, float(np.linalg.norm(x)))
    for k in range(6):
        r = base * 2.0**-k
        best = 0.0
        for _ in range(8):
            eta = rng.standard_normal(spec.dim)
            eta /= np.linalg.norm(eta)
            y = x + r * eta
            ts = s_grid / lam
            fx = flow.apply_batch(ts, np.tile(x, (len(ts), 1)))
            fy = flow.apply_batch(ts, np.tile(y, (len(ts), 1)))
            den = np.linalg.norm(fy, axis=1)
            num = np.linalg.norm(fx - fy, axis=1)
            ok = den > 0
            best = max(best, float(np.max(num[ok] / den[ok])))
        shells.append(best)
    return shells


ORACLE_MAPS = {
    "spiral": lambda: build_spiral_map(1.5),
    # h = id between equal flows: every residual is 0, so worst_time is 0.0
    "identity": lambda: build_spiral_map(0),
    "shear": lambda: build_parabola_shear(0.75),
    "uniform": lambda: build_uniform_exponent_map(S((1, -1, 2), (1, -1, 0))),
    "pw-hyp-mixed": lambda: build_pw_conj_hyperbolic(S((2, -1, 0), (1, 1, 1))),
    "pw-hyp-stable": lambda: build_pw_conj_hyperbolic(S((2, -1, 1), (1, -2, 0))),
    "pw-hyp-unstable": lambda: build_pw_conj_hyperbolic(S((1, Fraction(1, 2), 0), (2, 1, 0))),
    "unwind": lambda: build_rotation_unwind_map(2, -1.0, 1.5),
}
GRIDS = {
    "spaced": np.linspace(-3.0, 3.0, 7),
    "repeated": [0.5, -2.0, 0.5, 2.5, -2.0],  # without 0
}


def _bits(report):
    """Every field of a report, each float as float.hex."""
    def exact(v):
        if isinstance(v, float):
            return v.hex()
        if isinstance(v, (list, tuple)):
            return [exact(u) for u in v]
        if isinstance(v, dict):
            return {k: exact(u) for k, u in v.items()}
        return v

    return exact(report.to_json())


def _solver(hmap):
    return dict(hmap.metadata.get("solver", {}))


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("name", sorted(ORACLE_MAPS))
def test_verify_conjugacy_matches_the_per_time_loop(name, grid):
    want_map, got_map = ORACLE_MAPS[name](), ORACLE_MAPS[name]()
    want = _verify_by_time(want_map, GRIDS[grid], n_points=12, seed=3)
    got = verify_conjugacy(got_map, GRIDS[grid], n_points=12, seed=3)
    assert _bits(got) == _bits(want)
    assert _solver(got_map) == _solver(want_map)


def _infinite_inverse(hm):
    hm.inverse_batch = lambda W: np.full_like(W, np.inf)
    return hm


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("make, times", [
    # a NaN residual at t = -400 before a time past the flow's guard
    (lambda: build_parabola_shear(1.0), [0.0, -400.0, 2e9]),
    # a non-finite round trip before a time past the flow's guard
    (lambda: _infinite_inverse(build_spiral_map(1.0)), [1.0, 2e9]),
], ids=["residual-before-guard", "round-trip-before-guard"])
def test_verify_conjugacy_raises_what_the_per_time_loop_raises_first(make, times):
    with pytest.raises(PreconditionViolated) as want:
        _verify_by_time(make(), times, n_points=4, seed=0)
    with pytest.raises(type(want.value), match=re.escape(str(want.value))):
        verify_conjugacy(make(), times, n_points=4, seed=0)


@pytest.mark.parametrize("name", ["spiral", "pw-hyp-mixed", "pw-hyp-stable", "unwind"])
def test_lipschitz_probe_matches_the_per_scale_loop(name):
    want_map, got_map = ORACLE_MAPS[name](), ORACLE_MAPS[name]()
    want = _lipschitz_by_scale(want_map, n_scales=10, pairs=5, seed=2)
    got = lipschitz_probe(got_map, n_scales=10, pairs=5, seed=2)
    assert _bits(got) == _bits(want)
    assert _solver(got_map) == _solver(want_map)


@pytest.mark.parametrize("blocks, x", [
    (((2, -1, 0),), [0.5, 1.0]),
    (((1, -2, 0), (2, -1, 1)), [0.3, 1.0, 0.0, -0.5, 2.0]),
])
def test_distortion_outside_branch_matches_the_per_partner_loop(blocks, x):
    spec, x = S(*blocks), np.array(x)
    rep = distortion_probe(spec, x, t_max=80.0, n_grid=50, seed=4)
    assert rep.branch == "outside"
    want = _shell_ratios_by_partner(spec, x, 80.0, 50, seed=4)
    assert [v.hex() for v in rep.detail["shell_ratios"]] == [v.hex() for v in want]


def _record_rows(hmap):
    """(call, rows) of every map and flow call made on hmap from now on."""
    seen = []

    def counted(name, fn):
        def call(*args):
            seen.append((name, len(args[0])))  # X, or one time per row
            return fn(*args)
        return call

    for attr in ("forward_batch", "inverse_batch", "tau_batch"):
        setattr(hmap, attr, counted(attr, getattr(hmap, attr)))
    for flow in {id(f): f for f in (hmap.source_flow, hmap.target_flow)}.values():
        flow.apply_batch = counted("apply_batch", flow.apply_batch)
    return seen


@pytest.mark.parametrize("budget, chunks", [(24, 3), (40, 2), (5, 8)])
@pytest.mark.parametrize("name", ["shear", "pw-hyp-mixed", "unwind"])
def test_verify_conjugacy_chunks_stay_within_the_row_budget(monkeypatch, name, budget, chunks):
    # 8 points and 7 times: 8 blocks of 8 rows, X's block first; a budget
    # under 8 rows still takes one block a call
    want_map, got_map = ORACLE_MAPS[name](), ORACLE_MAPS[name]()
    want = verify_conjugacy(want_map, GRIDS["spaced"], n_points=8, seed=5)
    seen = _record_rows(got_map)
    monkeypatch.setattr(probes, "_ROWS", budget)
    got = verify_conjugacy(got_map, GRIDS["spaced"], n_points=8, seed=5)
    assert _bits(got) == _bits(want)
    assert _solver(got_map) == _solver(want_map)
    assert [call for call, _ in seen].count("forward_batch") == chunks
    assert max(rows for _, rows in seen) <= max(budget, 8)


@pytest.mark.parametrize("budget, chunks", [(30, 4), (10, 7)])
def test_lipschitz_probe_chunks_stay_within_the_row_budget(monkeypatch, budget, chunks):
    # d = 2 and 3 pairs: 7 rows of X and 7 of Y a scale
    want_map, got_map = ORACLE_MAPS["spiral"](), ORACLE_MAPS["spiral"]()
    want = lipschitz_probe(want_map, n_scales=7, pairs=3, seed=6)
    seen = _record_rows(got_map)
    monkeypatch.setattr(probes, "_ROWS", budget)
    got = lipschitz_probe(got_map, n_scales=7, pairs=3, seed=6)
    assert _bits(got) == _bits(want)
    assert len(seen) == chunks
    assert max(rows for _, rows in seen) <= max(budget, 14)


def test_distortion_outside_branch_chunks_stay_within_the_row_budget(monkeypatch):
    spec, x = S((2, -1, 0)), np.array([0.5, 1.0])
    want = distortion_probe(spec, x, t_max=80.0, n_grid=50, seed=4)
    seen = []
    apply_batch = FlowEvaluator.apply_batch

    def counted(self, ts, X):
        seen.append(len(X))
        return apply_batch(self, ts, X)

    monkeypatch.setattr(FlowEvaluator, "apply_batch", counted)
    monkeypatch.setattr(probes, "_ROWS", 120)  # two partners a call
    got = distortion_probe(spec, x, t_max=80.0, n_grid=50, seed=4)
    assert _bits(got) == _bits(want)
    assert seen == [50] + [100] * 24


# ---------------------------------------------------------------------------
# distortion probe


def test_distortion_member_points_blow_up():
    spec = S((2, -1, 0))
    rep = distortion_probe(spec, np.array([1.0, 0.0]))
    assert rep.member and rep.passed
    assert rep.branch == "partner-rotated"
    assert rep.estimate >= rep.threshold


def test_distortion_zero_point_uses_axis_partner():
    spec = S((2, -1, 0))
    rep = distortion_probe(spec, np.zeros(2))
    assert rep.member and rep.passed
    assert rep.branch == "partner-axis"


def test_distortion_outside_points_stay_tame():
    spec = S((2, -1, 0))
    rep = distortion_probe(spec, np.array([0.5, 1.0]))
    assert not rep.member
    assert rep.branch == "outside"
    assert rep.passed
    assert rep.estimate < rep.threshold
    assert len(rep.detail["shell_ratios"]) == 6


def test_distortion_rotating_witness_snaps_times():
    spec = S((2, -1, 1))
    sub = distortion_subspace(spec)
    x = np.zeros(spec.dim)
    x[sub.coords[0]] = 1.0
    rep = distortion_probe(spec, x)
    assert rep.member and rep.passed
    assert rep.detail["snapped_times"], "rotating witness needs aligned times"


@pytest.mark.parametrize("x, branch", [([1.0, 0.0], "partner-rotated"), ([0.5, 1.0], "outside")])
def test_both_distortion_branches_measure_through_one_helper(monkeypatch, x, branch):
    spec = S((2, -1, 0))
    want = distortion_probe(spec, np.array(x), t_max=80.0, n_grid=50, seed=4)
    calls = []
    helper = probes._worst_deviation

    def counted(flow, x, tx, Y, ty):
        calls.append(len(Y))
        return helper(flow, x, tx, Y, ty)

    monkeypatch.setattr(probes, "_worst_deviation", counted)
    got = distortion_probe(spec, np.array(x), t_max=80.0, n_grid=50, seed=4)
    assert got.branch == branch
    assert _bits(got) == _bits(want)
    assert calls == [1 if got.member else 48]


def test_distortion_partner_at_the_origin_is_skipped():
    # base = 0.1, so the partner x - 0.1 of the first shell is 0: its orbit
    # has norm 0 at every time and gives no ratio, not an empty maximum
    rep = distortion_probe(S((1, -1, 0)), [0.1])
    assert rep.branch == "outside" and rep.passed
    assert min(rep.detail["shell_ratios"]) >= 0.0


def test_period_probe_refuses_a_rotation_rate_whose_float_is_zero():
    # the evaluator would lay the block out as a real one, and the period
    # 2 pi 10^400 is past the float range
    with pytest.raises(PreconditionViolated, match="below the float range"):
        period_probe(S((1, 0, Fraction(1, 10**400))), [1.0, 0.0])


@pytest.mark.parametrize("spec, x", [
    # carriers 1 and 1 + 10^-400: the exact period is past the float range
    (S((1, 0, 1), (1, 0, 1 + Fraction(1, 10**400))), [1.0, 0.0, 1.0, 0.0]),
    # one carrier of 10^-310: its float is not 0, its period 2 pi 10^310 overflows
    (S((1, 0, Fraction(1, 10**310))), [1.0, 0.0]),
    # 2 pi 10^308 is a float, but an infinite one, and the grid had NaN points
    (S((1, 0, Fraction(1, 10**308))), [1.0, 0.0]),
], ids=["two-carriers", "period-past-floats", "period-infinite"])
def test_period_probe_refuses_a_period_beyond_the_time_guard(spec, x):
    with pytest.raises(PreconditionViolated, match="period of the orbit lies beyond the time guard"):
        period_probe(spec, x)


def test_period_probe_keeps_a_fixed_point_of_a_slow_carrier():
    # the period check is on the orbit's period: a fixed point has period 0
    rep = period_probe(S((1, 0, Fraction(1, 10**308))), [0.0, 0.0])
    assert (rep.period, rep.predicted, rep.match) == (0.0, 0.0, True)


def test_distortion_membership_matches_subspace():
    spec = S((1, -2, 0), (1, -1, 0))
    assert distortion_probe(spec, np.array([1.0, 0.0])).member
    assert not distortion_probe(spec, np.array([0.0, 1.0])).member
    assert not distortion_probe(spec, np.array([1e-6, 1.0])).member


def test_distortion_probe_validation():
    with pytest.raises(NotStable):
        distortion_probe(S((1, 1, 0)), np.array([1.0]))
    with pytest.raises(PreconditionViolated):
        distortion_probe(S((2, -1, 0)), np.array([1.0]))


# ---------------------------------------------------------------------------
# decay probe


def test_decay_probe_sees_chain_position():
    spec = S((2, -1, 0))
    top = decay_rate_probe(spec, np.array([0.0, 1.0]))
    assert top.match and top.degree == 1 and top.rate == -1.0
    bottom = decay_rate_probe(spec, np.array([1.0, 0.0]))
    assert bottom.match and bottom.degree == 0


def test_decay_probe_picks_dominant_block():
    spec = S((1, -2, 0), (2, -1, 0))
    rep = decay_rate_probe(spec, np.array([1.0, 1.0, 0.0]))
    assert rep.match
    assert rep.rate == -1.0 and rep.degree == 0
    rep = decay_rate_probe(spec, np.array([1.0, 0.0, 1.0]))
    assert rep.match
    assert rep.rate == -1.0 and rep.degree == 1


def test_decay_probe_fit_is_close():
    rep = decay_rate_probe(S((3, Fraction(-1, 2), 2)), np.ones(6))
    assert rep.match
    assert abs(rep.rate_fit - rep.rate) < 0.05
    assert abs(rep.degree_fit - rep.degree) < 0.5


def test_decay_probe_validation():
    with pytest.raises(NotStable):
        decay_rate_probe(S((1, 0, 1)), np.ones(2))
    with pytest.raises(PreconditionViolated):
        decay_rate_probe(S((1, -1, 0)), np.zeros(1))


# Each of these used to end in a ValueError, TypeError or OverflowError from
# numpy, a RuntimeWarning (log 0), or a fit from too few samples.
@pytest.mark.parametrize("call", [
    lambda: lipschitz_probe(build_spiral_map(1.0), n_scales=4, pairs=-1),
    lambda: lipschitz_probe(build_spiral_map(1.0), n_scales=0),
    lambda: lipschitz_probe(build_spiral_map(1.0), n_scales=4, pairs=2.5),
    lambda: lipschitz_probe(build_spiral_map(1.0), n_scales=4, seed=-1),
    lambda: distortion_probe(S((2, -1, 0)), np.array([1.0, 0.0]), n_grid=0),
    lambda: distortion_probe(S((2, -1, 0)), np.array([0.0, 1.0]), n_grid=0),
    lambda: distortion_probe(S((2, -1, 0)), np.array([1.0, 0.0]), seed=-1),
    lambda: decay_rate_probe(S((2, -1, 0)), np.array([0.0, 1.0]), n=0),
    lambda: decay_rate_probe(S((2, -1, 0)), np.array([0.0, 1.0]), n=2),
    lambda: decay_rate_probe(S((2, -1, 0)), np.array([0.0, 1.0]), window=(0, 1)),
    lambda: decay_rate_probe(S((2, -1, 0)), np.array([0.0, 1.0]), window=(3, 3)),
    lambda: decay_rate_probe(S((2, -1, 0)), np.array([0.0, 1.0]), window=(1, np.inf)),
    lambda: decay_rate_probe(S((2, -1, 0)), np.array([0.0, 1.0]), window=(1, 2, 3)),
    lambda: verify_conjugacy(build_spiral_map(1.0), times=[0.0, 1.0], n_points=4, seed=-1),
    lambda: verify_conjugacy(build_spiral_map(1.0), times=[[0.0, 1.0]], n_points=4),
    lambda: verify_conjugacy(build_spiral_map(1.0), times=2.0, n_points=4),
    lambda: verify_conjugacy(build_spiral_map(1.0), times=[0.0], n_points=True),
    lambda: verify_conjugacy(build_spiral_map(1.0), times=[0.0], n_points=4, radii=(0, 1)),
    lambda: verify_conjugacy(build_spiral_map(1.0), times=[0.0], n_points=4, radii=(2, 1)),
    # a ValueError, TypeError and IndexError
    lambda: verify_conjugacy(build_spiral_map(1.0), times=["a"], n_points=4),
    lambda: verify_conjugacy(build_spiral_map(1.0), times=[0.0], n_points=4, radii=("a", 1)),
    lambda: verify_conjugacy(build_spiral_map(1.0), times=[0.0], n_points=4, radii=(1,)),
    # a ValueError and TypeError
    lambda: decay_rate_probe(S((1, -1, 0)), [1.0], window=("a", 2)),
    lambda: decay_rate_probe(S((1, -1, 0)), [1.0], window=5),
    # a negative "period" -0.028
    lambda: period_probe(S((1, 0, 1)), np.ones(2), t_max=-1),
    # OverflowError from numpy (an infinite grid length)
    lambda: period_probe(S((1, 0, 1)), np.ones(2), t_max=np.inf),
    # ValueError from numpy
    lambda: period_probe(S((1, 0, 1)), np.ones(2), t_max=np.nan),
    # before the grid start 0.45 * 2 pi
    lambda: period_probe(S((1, 0, 1)), np.ones(2), t_max=2.0),
    lambda: period_probe(S((1, 0, 1)), np.ones(2), tol=0.0),
    lambda: period_probe(S((1, 0, 1)), np.ones(2), tol=np.nan),
    lambda: period_probe(S((1, 0, 1)), np.zeros(2), tol=-1.0),
    lambda: period_probe(S((1, 0, 1)), np.zeros(2), t_max=np.inf),
    # a log grid run backwards from 1 to 0.5, reported as passed
    lambda: distortion_probe(S((2, -1, 0)), np.array([1.0, 0.0]), t_max=0.5),
    lambda: distortion_probe(S((2, -1, 0)), np.array([0.0, 1.0]), t_max=0.5),
    # a RuntimeWarning from geomspace before the range guard
    lambda: distortion_probe(S((2, -1, 0)), np.array([1.0, 0.0]), t_max=np.inf),
    lambda: distortion_probe(S((2, -1, 0)), np.array([0.0, 1.0]), t_max=np.inf),
    lambda: distortion_probe(S((2, -1, 0)), np.array([1.0, 0.0]), t_max=np.nan),
    # eps 0 and -1 reported passed=True; nan a ValueError from numpy, inf a RuntimeWarning
    lambda: distortion_probe(S((2, -1, 0)), np.array([1.0, 0.0]), eps=0.0),
    lambda: distortion_probe(S((2, -1, 0)), np.array([1.0, 0.0]), eps=-1.0),
    lambda: distortion_probe(S((2, -1, 0)), np.array([1.0, 0.0]), eps=np.nan),
    lambda: distortion_probe(S((2, -1, 0)), np.array([1.0, 0.0]), eps=np.inf),
    lambda: distortion_probe(S((2, -1, 0)), np.array([1.0, 0.0]), member_bound=0.0),
    lambda: distortion_probe(S((2, -1, 0)), np.array([1.0, 0.0]), member_bound=np.nan),
    lambda: distortion_probe(S((2, -1, 0)), np.array([1.0, 0.0]), member_bound=np.inf),
    lambda: distortion_probe(S((2, -1, 0)), np.array([0.0, 1.0]), outside_bound=-1.0),
    lambda: distortion_probe(S((2, -1, 0)), np.array([0.0, 1.0]), outside_bound=np.nan),
    lambda: distortion_probe(S((2, -1, 0)), np.array([0.0, 1.0]), outside_bound=np.inf),
    # points that are not finite, or not a vector of the spec's dimension
    lambda: distortion_probe(S((2, -1, 0)), np.array([np.nan, 0.0])),
    lambda: distortion_probe(S((2, -1, 0)), np.array([0.0, np.inf])),
    lambda: distortion_probe(S((2, -1, 0)), np.ones(3)),
    lambda: decay_rate_probe(S((2, -1, 0)), np.array([0.0, np.nan])),
    lambda: decay_rate_probe(S((2, -1, 0)), np.array([np.inf, 1.0])),
    lambda: decay_rate_probe(S((2, -1, 0)), [[0.0, 1.0]]),
    lambda: period_probe(S((1, 0, 1)), np.array([np.nan, 1.0])),
    lambda: period_probe(S((1, 0, 1)), np.array([np.inf, 1.0])),
    lambda: period_probe(S((1, 0, 1)), np.ones(3)),
    lambda: period_probe(S((1, 0, 1)), ["a", 1.0]),
], ids=["lipschitz-pairs", "lipschitz-scales", "lipschitz-float-pairs", "lipschitz-seed",
        "distortion-grid-member", "distortion-grid-outside", "distortion-seed",
        "decay-no-samples", "decay-two-samples", "decay-log-zero", "decay-empty-window",
        "decay-infinite-window", "decay-three-ends", "conjugacy-seed", "conjugacy-2d-times",
        "conjugacy-scalar-times", "conjugacy-bool-points", "conjugacy-zero-radius",
        "conjugacy-reversed-radii", "conjugacy-string-times", "conjugacy-string-radius",
        "conjugacy-one-radius", "decay-string-window", "decay-scalar-window",
        "period-negative-horizon", "period-infinite-horizon", "period-nan-horizon", "period-horizon-before-grid", "period-zero-tol",
        "period-nan-tol", "period-fixed-point-negative-tol",
        "period-fixed-point-infinite-horizon", "distortion-backward-grid-member",
        "distortion-backward-grid-outside", "distortion-infinite-horizon-member",
        "distortion-infinite-horizon-outside", "distortion-nan-horizon",
        "distortion-zero-eps", "distortion-negative-eps", "distortion-nan-eps",
        "distortion-infinite-eps", "distortion-zero-member-bound",
        "distortion-nan-member-bound", "distortion-infinite-member-bound",
        "distortion-negative-outside-bound", "distortion-nan-outside-bound",
        "distortion-infinite-outside-bound", "distortion-nan-point",
        "distortion-infinite-point", "distortion-long-point", "decay-nan-point",
        "decay-infinite-point", "decay-2d-point", "period-nan-point",
        "period-infinite-point", "period-long-point", "period-string-point"])
def test_hostile_probe_arguments_raise_precondition_violated(call):
    with pytest.raises(PreconditionViolated):
        call()


# ---------------------------------------------------------------------------
# period probe


def test_period_probe_single_rotation():
    rep = period_probe(S((1, 0, 2)), np.array([1.0, 0.0]))
    assert rep.match
    assert abs(rep.period - np.pi) < 1e-9


def test_period_probe_commensurate_rates():
    spec = S((1, 0, Fraction(2, 3)), (1, 0, Fraction(1, 2)))
    rep = period_probe(spec, np.ones(4))
    assert rep.match
    assert abs(rep.period - 12 * np.pi) < 1e-6
    assert rep.predicted == pytest.approx(12 * np.pi)


def test_period_probe_support_restriction():
    spec = S((1, 0, 2), (1, 0, 3))
    rep = period_probe(spec, np.array([1.0, 1.0, 0.0, 0.0]))
    assert rep.match
    assert abs(rep.period - np.pi) < 1e-9


def test_period_probe_fixed_point():
    rep = period_probe(S((1, 0, 1)), np.zeros(2))
    assert rep.match
    assert rep.period == 0.0


def test_period_probe_horizon_just_past_the_grid_start():
    # the grid starts at 0.45 of the fastest carrier period, 2 pi here
    rep = period_probe(S((1, 0, 1)), np.ones(2), t_max=0.45 * 2 * np.pi + 1e-9)
    assert not rep.match
    assert period_probe(S((1, 0, 1)), np.ones(2), t_max=8).match


def test_period_probe_needs_bounded_flow():
    with pytest.raises(NotBounded):
        period_probe(S((1, -1, 0)), np.array([1.0]))


# ---------------------------------------------------------------------------
# every report is plain JSON (no numpy scalar in any field)


@pytest.mark.parametrize("make", [
    lambda: verify_conjugacy(build_spiral_map(1.0), times=[0.0, 1.0], n_points=4),
    lambda: lipschitz_probe(build_spiral_map(1.0), n_scales=6, pairs=4),
    lambda: distortion_probe(S((2, -1, 0)), np.array([1.0, 0.0])),
    lambda: decay_rate_probe(S((2, -1, 0)), np.array([0.0, 1.0])),
    lambda: period_probe(S((1, 0, 1)), np.ones(2)),
], ids=["conjugacy", "lipschitz", "distortion", "decay", "period"])
def test_every_probe_report_dumps_as_json(make):
    rep = make()
    assert json.loads(json.dumps(rep.to_json())) == rep.to_json()
