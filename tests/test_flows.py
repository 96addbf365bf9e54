"""Closed-form flow evaluation against the matrix exponential."""

import numpy as np
import pytest
from fractions import Fraction

from scipy.linalg import expm

from linflow import (
    FLOW_TIME_GUARD,
    FlowEvaluator,
    GeneratorSpec,
    JordanBlock,
    PreconditionViolated,
    RangeGuard,
    flow_apply,
    materialize,
)

from conftest import expm_flow, random_spec


def S(*blks):
    return GeneratorSpec(tuple(JordanBlock(m, re, im) for m, re, im in blks))


def rel_err(got, want):
    return np.linalg.norm(got - want) / (1 + np.linalg.norm(want))


def test_flow_matches_expm_on_random_specs(rng):
    for _ in range(40):
        spec = random_spec(rng, max_dim=8)
        x = rng.standard_normal(spec.dim)
        t = float(rng.uniform(-20, 20))
        assert rel_err(flow_apply(spec, t, x), expm_flow(spec, t, x)) < 1e-9


def test_zero_block_stays_zero_under_overflowing_growth():
    # e^{2 * 400} and e^{3 * 400} overflow; inf * 0 must not turn the zero
    # blocks into NaN
    ev = FlowEvaluator([(1, 0.25, 2.25), (1, 2.0, 0.0), (2, 3.0, 1.0)], guard=1e9)
    out = ev.apply_batch(np.array([400.0, 400.0]), np.array([[1.0, 0, 0, 0, 0, 0, 0],
                                                              [1.0, 0, 1, 0, 0, 0, 0]]))
    assert np.all(np.isfinite(out[0])) and np.all(out[0, 2:] == 0)
    assert out[0, :2] == pytest.approx(np.exp(100.0) * np.array([np.cos(900.0), np.sin(900.0)]))
    assert out[1, 2] == np.inf and np.all(out[1, 3:] == 0)


def test_flow_matches_expm_on_a_defective_rotation():
    spec = S((4, Fraction(-1, 3), Fraction(7, 2)))
    x = np.arange(1.0, 9.0)
    for t in (-15.0, -1.0, 0.0, 2.5, 18.0):
        assert rel_err(flow_apply(spec, t, x), expm_flow(spec, t, x)) < 1e-9


def test_rotation_block_is_a_scaled_rotation():
    a, b = -0.5, 3.0
    ev = FlowEvaluator([(1, a, b)])
    for t in (-2.0, 0.7):
        got = ev.matrix(t)
        want = np.exp(a * t) * np.array(
            [[np.cos(b * t), -np.sin(b * t)], [np.sin(b * t), np.cos(b * t)]]
        )
        assert np.allclose(got, want, atol=1e-14)


def test_signed_rotation_reverses_orientation():
    fwd = FlowEvaluator([(1, 0.0, 2.0)]).apply(0.4, [1.0, 0.0])
    bwd = FlowEvaluator([(1, 0.0, -2.0)]).apply(0.4, [1.0, 0.0])
    assert np.allclose(fwd, [np.cos(0.8), np.sin(0.8)])
    assert np.allclose(bwd, [np.cos(0.8), -np.sin(0.8)])


def test_apply_batch_agrees_with_apply(rng):
    spec = S((2, -1, 1), (1, 2, 0))
    ev = FlowEvaluator.from_spec(spec)
    ts = rng.uniform(-5, 5, size=16)
    X = rng.standard_normal((16, ev.dim))
    batch = ev.apply_batch(ts, X)
    for i in range(16):
        assert np.array_equal(batch[i], ev.apply(ts[i], X[i]))


def test_group_law():
    ev = FlowEvaluator.from_spec(S((3, Fraction(-1, 2), 1)))
    s, t = 1.3, -2.1
    left = ev.matrix(s + t)
    right = ev.matrix(s) @ ev.matrix(t)
    assert np.allclose(left, right, rtol=1e-12, atol=1e-12)
    assert np.allclose(ev.matrix(0.0), np.eye(ev.dim))


def test_generator_matrix_matches_materialize(rng):
    for _ in range(20):
        spec = random_spec(rng, max_dim=7)
        ev = FlowEvaluator.from_spec(spec)
        assert np.array_equal(ev.generator_matrix(), materialize(spec).to_float())


def test_time_guard():
    spec = S((1, -1, 0))
    with pytest.raises(RangeGuard):
        flow_apply(spec, FLOW_TIME_GUARD * 1.01, [1.0])
    ev = FlowEvaluator.from_spec(spec, guard=10.0)
    with pytest.raises(RangeGuard):
        ev.apply(11.0, [1.0])
    assert ev.apply(9.0, [1.0]) is not None


def test_a_nan_time_does_not_hide_the_guard():
    # max |t| over a batch holding a NaN is NaN, and NaN > guard is False
    ev = FlowEvaluator([(2, -1.0, 0.0)])
    with pytest.raises(RangeGuard, match="a time is NaN"):
        ev.apply_batch([np.nan, 2e9], np.ones((2, 2)))
    with pytest.raises(RangeGuard, match="a time is NaN"):
        ev.apply(np.nan, [1.0, 1.0])
    with pytest.raises(RangeGuard, match=r"^\|t\| exceeds the simulation guard 1000$"):
        ev.apply_batch([np.inf, 0.0], np.ones((2, 2)))


def test_shape_validation():
    ev = FlowEvaluator.from_spec(S((1, -1, 0), (1, 2, 0)))
    with pytest.raises(PreconditionViolated):
        ev.apply(1.0, [1.0])
    with pytest.raises(PreconditionViolated):
        ev.apply_batch(np.zeros(3), np.zeros((2, 2)))
    with pytest.raises(PreconditionViolated):
        FlowEvaluator([(0, 1.0, 0.0)])


def test_expm_free_layout_cross_check():
    # the flow of the materialized matrix and the closed form agree on the
    # whole matrix, so the block layout conventions match
    spec = S((2, Fraction(1, 2), Fraction(3, 2)), (2, -1, 0))
    ev = FlowEvaluator.from_spec(spec)
    t = 0.9
    assert np.allclose(
        ev.matrix(t), expm(t * materialize(spec).to_float()), rtol=1e-12, atol=1e-12
    )


def test_signed_generator_matrix_exponentiates_to_the_closed_form(rng):
    # generator_matrix and materialize share one layout; the closed-form
    # flow is the independent oracle, here with signed rotation rates too
    for _ in range(10):
        ev = FlowEvaluator.from_spec(random_spec(rng, max_dim=7))
        signed = FlowEvaluator([(m, a, b * rng.choice([-1.0, 1.0])) for m, a, b in ev.blocks])
        for flow in (ev, signed):
            assert np.allclose(
                flow.matrix(0.7), expm(0.7 * flow.generator_matrix()), rtol=1e-10, atol=1e-10
            )


def _reference_apply_batch(ev, ts, X):
    """The per-block loop the evaluator's plan replaced: the nilpotent
    series per half-chain, then the rotation and the growth per block."""
    P = np.empty_like(X)
    rates = np.empty(ev.dim)
    off = 0
    for m, a, b in ev.blocks:
        w = m if b == 0.0 else 2 * m
        halves = [X[:, off : off + m]] if b == 0.0 else [X[:, off : off + m], X[:, off + m : off + w]]
        Z = [np.zeros_like(Y) for Y in halves]
        tp = np.ones_like(ts)
        for j in range(m):
            if j:
                tp = tp * ts / j
            for z, Y in zip(Z, halves):
                z[:, : m - j] += tp[:, None] * Y[:, j:]
        if b == 0.0:
            P[:, off : off + w] = Z[0]
        else:
            c, s = np.cos(b * ts)[:, None], np.sin(b * ts)[:, None]
            P[:, off : off + m] = c * Z[0] - s * Z[1]
            P[:, off + m : off + w] = s * Z[0] + c * Z[1]
        rates[off : off + w] = a
        off += w
    with np.errstate(all="ignore"):
        out = np.exp(ts[:, None] * rates) * P
    if np.abs(ts).max(initial=0.0) * np.abs(rates).max(initial=0.0) > 700.0:
        np.copyto(out, P, where=P == 0)
    return out


def test_apply_batch_is_byte_identical_to_the_per_block_loop(rng):
    # signed rotations, sizes 1-4, 20% zero entries (some -0.0) and |t| up
    # to 300, where e^{at} overflows and the zero copy-back runs
    for _ in range(300):
        blocks = []
        for _ in range(int(rng.integers(1, 5))):
            b = float(rng.choice([0.0, -0.0, rng.uniform(-4, 4)]))
            blocks.append((int(rng.integers(1, 5)), float(rng.uniform(-3, 3)), b))
        ev = FlowEvaluator(blocks, guard=1e9)
        n = int(rng.integers(1, 12))
        ts = rng.uniform(-1, 1, size=n) * 10.0 ** rng.uniform(-1, np.log10(300.0))
        X = rng.standard_normal((n, ev.dim))
        X[rng.random(X.shape) < 0.2] = rng.choice([0.0, -0.0])
        with np.errstate(all="ignore"):
            got = ev.apply_batch(ts, X)
        assert got.tobytes() == _reference_apply_batch(ev, ts, X).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("blocks", [[(2, -1.0, 0.0)], [(1, 0.5, 2.0), (3, -0.25, 0.0)],
                                    [(2, 3.0, -1.5)]])
def test_apply_batch_on_huge_or_non_finite_points_is_quiet(blocks):
    # points near the float maximum or not finite at small times: the
    # series may overflow or meet inf * 0, which must not warn, and the
    # values are those of the per-block loop
    ev = FlowEvaluator(blocks, guard=1e9)
    first, last = np.eye(ev.dim)[[0, -1]] == 1
    X = np.array([np.full(ev.dim, 1e308), np.full(ev.dim, -1e308), np.full(ev.dim, np.inf),
                  np.where(first, np.inf, 0.0), np.full(ev.dim, np.nan),
                  np.where(last, 1e300, 0.0)])
    for t in (0.0, 1.0, -2.0):
        ts = np.full(len(X), t)
        got = ev.apply_batch(ts, X)
        with np.errstate(all="ignore"):
            want = _reference_apply_batch(ev, ts, X)
        assert got.tobytes() == want.tobytes(), t
