"""Numerical probes: conjugacy defect, Lipschitz trends, distortion, decay, period."""

import numpy as np
import pytest
from fractions import Fraction

from linflow import (
    GeneratorSpec,
    JordanBlock,
    NotBounded,
    NotStable,
    PreconditionViolated,
    build_parabola_shear,
    build_spiral_map,
    decay_rate_probe,
    distortion_probe,
    distortion_subspace,
    lipschitz_probe,
    period_probe,
    verify_conjugacy,
)


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


def test_period_probe_needs_bounded_flow():
    with pytest.raises(NotBounded):
        period_probe(S((1, -1, 0)), np.array([1.0]))
