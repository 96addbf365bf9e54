"""The float layer pinned bit for bit on recorded outputs.

``data/float_golden.json`` holds, as ``float.hex``, what the float layer
returned on fixed inputs when every module still worked out the block
layout with its own running offset: ``apply_batch`` on signed-rotation
batches with zero and negative-zero entries and growth past the float
range, ``generator_matrix``, the chain-weighted Lyapunov metrics of the
pw-hyp and unwind maps, the forward, inverse and tau maps of the spiral,
uniform, unwind and pw-hyp constructions (pw-hyp also on single rows),
the distortion, decay and period probe reports, and the exact distortion
subspaces and minimal periods.
Any changed bit, sign of zero or NaN fails here.

Record again (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_float_golden.py
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from linflow import (
    FlowEvaluator,
    GeneratorSpec,
    JordanBlock,
    build_pw_conj_hyperbolic,
    build_rotation_unwind_map,
    build_spiral_map,
    build_uniform_exponent_map,
    decay_rate_probe,
    distortion_probe,
    distortion_subspace,
    minimal_period,
    period_probe,
)

DATA = Path(__file__).parent / "data" / "float_golden.json"

# (size, growth, signed rotation) blocks; the growth of 3 and 2.5 overflows
# past |t| ~ 240, and -0.0 is a real block
EVALUATORS = {
    "mixed": [(1, 0.25, 2.25), (1, 2.0, 0.0), (2, 3.0, 1.0)],
    "signed": [(3, -0.5, -1.75), (1, 0.0, -0.0), (2, 1.5, 0.0), (1, -2.0, 3.0)],
    "chain4": [(4, 0.3, -2.0)],
    "real": [(2, -1.0, 0.0), (3, 0.5, 0.0), (1, -0.25, 0.0)],
    "long": [(5, 2.5, 0.5), (2, -2.5, 0.0)],
    "empty": [],
}


def S(*blks):
    return GeneratorSpec(tuple(JordanBlock(m, re, im) for m, re, im in blks))


def _hex(obj):
    """obj with every float as float.hex and every Fraction as a string."""
    if isinstance(obj, np.ndarray):
        return _hex(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _hex(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_hex(v) for v in obj]
    return obj


def _batch(rng, n, d, tmax):
    ts = rng.uniform(-tmax, tmax, size=n)
    ts[:2] = (tmax, -tmax)
    X = rng.standard_normal((n, d)) * np.exp(rng.uniform(-3, 3, size=(n, 1)))
    X[rng.random((n, d)) < 0.2] = 0.0
    X[rng.random((n, d)) < 0.05] = -0.0
    return ts, X


def _apply_batch(name):
    ev = FlowEvaluator(EVALUATORS[name], guard=1e9)
    rng = np.random.default_rng(len(name))
    out = {"generator_matrix": ev.generator_matrix()}
    for tmax in (0.5, 20.0, 300.0):
        ts, X = _batch(rng, 10, ev.dim, tmax)
        out[f"t{tmax:g}"] = ev.apply_batch(ts, X)
    return out


def _map_record(hmap, X, times=(-1.5, 0.0, 2.0)):
    W = hmap.forward_batch(X)
    out = {"forward": W, "inverse": hmap.inverse_batch(W)}
    for t in times:
        out[f"tau{t:g}"] = hmap.tau_batch(X, np.full(len(X), t))
    meta = {k: v for k, v in hmap.metadata.items() if k != "solver"}
    out["metadata"] = meta
    return out


def _points(d, n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)) * np.exp(rng.uniform(-2, 2, size=(n, 1)))


def _spiral():
    return {str(r): _map_record(build_spiral_map(r), _points(2, 6, 1)) for r in (1.5, -0.75)}


def _uniform():
    spec = S((1, Fraction(-1, 2), Fraction(3, 2)), (1, Fraction(-1, 2), 0), (1, Fraction(-1, 2), 1))
    X = _points(spec.dim, 6, 2)
    X[0, :2] = 0.0
    return _map_record(build_uniform_exponent_map(spec), X)


def _unwind():
    out = {}
    for m, a, b in ((2, -0.5, 1.25), (1, 0.75, -2.0), (3, 0.25, 0.5)):
        X = _points(2 * m, 5, m)
        X[0] = 0.0
        out[f"{m},{a},{b}"] = _map_record(build_rotation_unwind_map(m, a, b), X)
    return out


def _pw_hyp():
    out = {}
    for name, spec in (
        ("mixed", S((2, -1, 1), (1, Fraction(1, 2), 0), (1, 2, Fraction(3, 2)))),
        ("defective", S((3, Fraction(-1, 4), 0), (2, 1, Fraction(1, 2)))),
    ):
        d, dS = spec.dim, sum(b.dim for b in spec.blocks if b.re < 0)
        X = _points(d, 8, d)
        X[0] = 0.0
        X[1, dS:] = 0.0  # pure stable
        X[2, :dS] = 0.0  # pure unstable
        out[name] = _map_record(build_pw_conj_hyperbolic(spec), X)
    # one row a batch, on an unstable factor of dimension 2: the form
    # products of a single row take their own summation order, and the
    # mixed and pure-unstable rows here come out otherwise without it
    spec = S((2, -1, 1), (2, Fraction(1, 2), 0))
    X = _points(spec.dim, 3, 13)
    X[1, 4:] = 0.0  # pure stable
    X[2, :4] = 0.0  # pure unstable
    hm = build_pw_conj_hyperbolic(spec)
    out["single"] = [_map_record(hm, X[k:k + 1]) for k in range(len(X))]
    return out


def _probes():
    stable = S((2, -1, 1), (3, -1, 0), (1, Fraction(-3, 2), 2))
    rotating = S((3, Fraction(-1, 2), Fraction(5, 4)), (1, -1, 0))
    bounded = S((1, 0, Fraction(3, 2)), (1, 0, Fraction(1, 2)), (1, 0, 0))
    out = {}
    for name, spec in (("stable", stable), ("rotating", rotating)):
        sub = distortion_subspace(spec)
        out[f"subspace.{name}"] = sub.to_json()
        inside = np.zeros(spec.dim)
        inside[list(sub.coords)] = 1.0 + np.arange(len(sub.coords))
        for tag, x in (("inside", inside), ("outside", np.ones(spec.dim)),
                       ("axis", np.zeros(spec.dim))):
            out[f"distortion.{name}.{tag}"] = distortion_probe(spec, x, n_grid=60).to_json()
        for k, x in enumerate((np.ones(spec.dim), inside, np.eye(spec.dim)[-1])):
            out[f"decay.{name}.{k}"] = decay_rate_probe(spec, x, n=40).to_json()
    for k, x in enumerate(([1.0, 0, 0, 0, 0], [0, 0, 1.0, -2.0, 0], [0, 0, 0, 0, 3.0],
                           [0.5, 1.0, 0, 0, 0])):
        out[f"period.{k}"] = period_probe(bounded, np.array(x)).to_json()
        out[f"minimal_period.{k}"] = minimal_period(bounded, x)
    out["minimal_period.flow"] = minimal_period(bounded)
    return out


CASES = {
    **{f"apply_batch.{name}": (lambda name=name: _apply_batch(name)) for name in EVALUATORS},
    "spiral": _spiral,
    "uniform": _uniform,
    "unwind": _unwind,
    "pw_hyp": _pw_hyp,
    "probes": _probes,
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("name", list(CASES))
def test_float_layer_matches_recorded_output(golden, name):
    assert _hex(CASES[name]()) == golden[name]


if __name__ == "__main__":
    DATA.write_text(json.dumps({name: _hex(fn()) for name, fn in CASES.items()}) + "\n")
