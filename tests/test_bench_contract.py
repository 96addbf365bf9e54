"""The benchmark's contract with the library.

`bench/workloads.py` drives linflow through module attributes and wraps
them by name when it traces (`bench/spans.py`).  For the in-process
workloads this builds the inputs, runs the warm-up ops, whose checks are
the benchmark's own, and installs the instruments against a stub tracer
that only checks every wrapped attribute exists and is callable.  A
refactor that renames or drops one of them fails here, not in the
benchmark.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


class _StubTracer:
    def __init__(self):
        self.patched = []

    def patch(self, owner, attr, name, points=None):
        fn = getattr(owner, attr, None)
        assert callable(fn), f"{owner.__name__}.{attr} is missing or not callable"
        self.patched.append(f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}")

    def wrap(self, fn, name, points=None):
        assert callable(fn)
        return fn


@pytest.mark.parametrize(
    "name, attrs",
    [
        ("Ingest", {"blocks.spec_from_matrix", "_ratlinalg.charpoly", "_ratlinalg.rank_sequence"}),
        ("Audit", {
            "classifier.implication_audit", "classifier.classify",
            "similarity.scaling_candidates", "invariants.semisimple_collapse",
            "invariants.rotation_decouple", "invariants.lyapunov_spectrum",
            "invariants.partition_dims", "invariants.subspec",
        }),
        ("Verify", {
            "homeos.build_pw_conj_hyperbolic", "homeos.build_spiral_map",
            "homeos.build_parabola_shear", "homeos.build_uniform_exponent_map",
            "homeos.build_rotation_unwind_map", "FlowEvaluator.apply_batch",
            "probes.verify_conjugacy", "probes.lipschitz_probe",
        }),
    ],
)
def test_workload_runs_its_checks_and_finds_its_instruments(workloads, tmp_path, name, attrs):
    wl = getattr(workloads, name)(str(tmp_path), seed=7)
    wl.generate()
    wl.warm_up()
    tracer = _StubTracer()
    wl.instrument(tracer)
    assert set(tracer.patched) == attrs
    wl.close()
