"""linflow: exact classification of linear flows with numerical witnesses.

A linear flow is described by a generator spec: a finite multiset of real
Jordan blocks with rational growth and rotation rates.  The package
decides, with certificates, which equivalence and conjugacy relations hold
between two such flows, produces canonical forms and invariants, builds
the explicit homeomorphisms realizing selected verdicts, and validates
everything numerically through closed-form flow evaluation.

Every public name resolves on first access: `import linflow` loads none
of its submodules, and the first use of a name imports the module that
defines it (and what that module imports).  The exact layer (blocks,
classifier, invariants, similarity) loads numpy only inside the float
helpers of matrix ingestion, so work on block multisets that never touches
the float layer (flows, homeos, probes) does not load numpy.  The float
layer needs nothing beyond numpy.  The public types are value types built
by `_record`, not dataclasses.
"""

import importlib

# every public name, by the module that defines it; each module is imported
# the first time one of its names is used (PEP 562 module __getattr__)
_LAZY = {
    "blocks": ("ApproxSpec", "GeneratorSpec", "JordanBlock", "RationalMatrix",
               "materialize", "parse_matrix", "parse_rational", "parse_spec", "realify",
               "scale_spec", "serialize_matrix", "serialize_spec", "spec_from_matrix",
               "time_reverse"),
    "classifier": ("IMPLICATION_EDGES", "AuditReport", "CatalogEntry", "CoincidenceReport",
                   "Decision", "Relation", "TraceEntry", "Verdict", "catalog2d",
                   "class_coincidence", "classify", "implication_audit"),
    "errors": ("ClusterAmbiguity", "DefinitenessCheckFailed", "DimMismatch",
               "InternalCheckError", "LinFlowError", "MonotonicityNotAchieved",
               "NotBounded", "NotStable", "PreconditionViolated", "RangeGuard", "SnapFailure",
               "SpecParseError", "UnknownRelation"),
    "invariants": ("DistortionSubspace", "GrowthProfile", "PartitionDims",
                   "distortion_subspace", "growth_profile", "is_bounded", "is_generic",
                   "lyapunov_spectrum", "max_block_size_at", "minimal_period",
                   "partition_dims", "refined_dim", "rotation_decouple",
                   "semisimple_collapse", "subspec", "top_rate", "top_size"),
    "similarity": ("ScalingCertificate", "kinematic_similar", "lipschitz_similar",
                   "lipschitz_similar_by_parts", "lyapunov_similar", "scaling_candidates",
                   "similar"),
    "flows": ("FLOW_TIME_GUARD", "FlowEvaluator", "flow_apply"),
    "homeos": ("HomeoMap", "build_parabola_shear", "build_pw_conj_hyperbolic",
               "build_rotation_unwind_map", "build_spiral_map",
               "build_uniform_exponent_map"),
    "probes": ("ConjugacyReport", "DecayReport", "DistortionReport", "LipschitzReport",
               "PeriodReport", "decay_rate_probe", "distortion_probe", "lipschitz_probe",
               "period_probe", "verify_conjugacy"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_MODULE))


__version__ = "1.0.0"

__all__ = list(_LAZY_MODULE)
