"""Explicit homeomorphisms: conjugacy defects, round trips, preconditions."""

import numpy as np
import pytest
from fractions import Fraction

from linflow import (
    DefinitenessCheckFailed,
    GeneratorSpec,
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


def test_pw_conj_rejects_central_blocks():
    with pytest.raises(PreconditionViolated):
        build_pw_conj_hyperbolic(S((1, 0, 1), (1, -1, 0)))


def test_pw_conj_fails_honestly_on_flat_defective_blocks():
    # size-3 block with tiny growth: no chain weight in the search range
    # certifies the convexity form, and the builder must say so
    with pytest.raises(DefinitenessCheckFailed):
        build_pw_conj_hyperbolic(S((3, Fraction(-1, 20), 0)))


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
