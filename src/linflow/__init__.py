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
matrices, classifier, catalog, invariants, summary, similarity) loads
numpy only in the numeric tier of matrix ingestion, so exact work that
never touches the float layer (flows, maps, homeos, probes) loads no
numpy.  The float layer needs nothing beyond numpy.  The
public types are value types built by `_record`, not dataclasses.
"""

import importlib

# every public name, in the order of `__all__`, with the module that
# defines it; each module is imported the first time one of its names is
# used (PEP 562 module __getattr__)
_LAZY = {
    # the data model and matrices
    "ApproxSpec": "matrices", "GeneratorSpec": "blocks", "JordanBlock": "blocks",
    "RationalMatrix": "matrices", "materialize": "matrices", "parse_matrix": "matrices",
    "parse_rational": "blocks", "parse_spec": "blocks", "realify": "matrices",
    "scale_spec": "blocks", "serialize_matrix": "matrices", "serialize_spec": "blocks",
    "spec_from_matrix": "blocks", "time_reverse": "blocks",
    # decisions, the planar catalog and the class coincidence
    "IMPLICATION_EDGES": "classifier", "AuditReport": "classifier",
    "CatalogEntry": "catalog", "CoincidenceReport": "summary", "Decision": "classifier",
    "Relation": "classifier", "TraceEntry": "classifier", "Verdict": "classifier",
    "catalog2d": "catalog", "class_coincidence": "summary", "classify": "classifier",
    "implication_audit": "classifier",
    **dict.fromkeys(("ClusterAmbiguity", "DefinitenessCheckFailed", "DimMismatch",
                     "InternalCheckError", "LinFlowError", "MonotonicityNotAchieved",
                     "NotBounded", "NotStable", "PreconditionViolated", "RangeGuard",
                     "SnapFailure", "SpecParseError", "UnknownRelation"), "errors"),
    # invariants and the summary of the invariants subcommand
    "DistortionSubspace": "summary", "GrowthProfile": "summary",
    "PartitionDims": "invariants", "distortion_subspace": "summary",
    "growth_profile": "summary", "is_bounded": "summary", "is_generic": "summary",
    "lyapunov_spectrum": "invariants", "max_block_size_at": "summary",
    "minimal_period": "summary", "partition_dims": "invariants", "refined_dim": "summary",
    "rotation_decouple": "invariants", "semisimple_collapse": "invariants",
    "subspec": "invariants", "top_rate": "summary", "top_size": "summary",
    **dict.fromkeys(("ScalingCertificate", "kinematic_similar", "lipschitz_similar",
                     "lipschitz_similar_by_parts", "lyapunov_similar",
                     "scaling_candidates", "similar"), "similarity"),
    **dict.fromkeys(("FLOW_TIME_GUARD", "FlowEvaluator", "flow_apply"), "flows"),
    **dict.fromkeys(("HomeoMap", "build_parabola_shear", "build_spiral_map",
                     "build_uniform_exponent_map"), "maps"),
    **dict.fromkeys(("build_pw_conj_hyperbolic", "build_rotation_unwind_map"), "homeos"),
    **dict.fromkeys(("ConjugacyReport", "DecayReport", "DistortionReport",
                     "LipschitzReport", "PeriodReport", "decay_rate_probe",
                     "distortion_probe", "lipschitz_probe", "period_probe",
                     "verify_conjugacy"), "probes"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "1.0.0"

__all__ = list(_LAZY)
