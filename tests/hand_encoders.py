"""The hand-written ``to_json`` bodies of the report types, kept as the
reference for `blocks._fields_to_json`.

Each function is the method body a type had before its JSON came from its
field list (`GrowthProfile` and `ScalingCertificate` now amend the encoded
fields); `reference_json(obj)` dispatches on the type's name, and nested
reports go through the reference too.
"""

from linflow.blocks import rational_to_json, serialize_spec


def _trace_entry(self):
    return {"step": self.step, "outcome": self.outcome, "detail": self.detail}


def _verdict(self):
    return {
        "relation": self.relation.value,
        "decision": self.decision.value,
        "left": serialize_spec(self.left),
        "right": serialize_spec(self.right),
        "scaling": None if self.scaling is None else reference_json(self.scaling),
        "trace": [reference_json(e) for e in self.trace],
    }


def _catalog_entry(self):
    return {
        "row": self.row,
        "representative": serialize_spec(self.representative),
        "scaling": None if self.scaling is None else str(self.scaling),
        "label": self.label,
    }


def _coincidence_report(self):
    return {
        "generic": self.generic,
        "real_spectrum": self.real_spectrum,
        "smooth_class_equals_lipschitz": self.smooth_class_equals_lipschitz,
        "lipschitz_class_equals_hoelder": self.lipschitz_class_equals_hoelder,
    }


def _partition_dims(self):
    return {
        "stable": self.stable,
        "central": self.central,
        "unstable": self.unstable,
        "hyperbolic": self.hyperbolic,
        "semisimple": self.semisimple,
        "defective": self.defective,
    }


def _growth_profile(self):
    return {
        "dim": self.dim,
        "breakpoints": [str(s) for s in self.breakpoints],
        "table": [
            {"m": m, "s": str(s), "dim": d} for (m, s, d) in self.table
        ],
        "max_size_at": [{"s": str(s), "m": m} for (s, m) in self.max_size_at],
        "top_rate": str(self.top_rate),
        "top_size": self.top_size,
    }


def _scaling_certificate(self):
    return {
        "alpha": rational_to_json(self.alpha),
        "predicate": self.predicate,
        "witness": self.witness,
    }


def _distortion_subspace(self):
    return {
        "dim": self.dim,
        "coords": list(self.coords),
        "top_rate": str(self.top_rate),
        "top_size": self.top_size,
    }


def _conjugacy_report(self):
    return {
        "name": self.name,
        "residual": self.residual,
        "round_trip": self.round_trip,
        "n_points": self.n_points,
        "times": list(self.times),
        "worst_time": self.worst_time,
    }


def _lipschitz_report(self):
    return {
        "name": self.name,
        "radii": list(self.radii),
        "uniform_ratios": list(self.uniform_ratios),
        "pointwise_ratios": list(self.pointwise_ratios),
        "uniform_trend": self.uniform_trend,
        "pointwise_trend": self.pointwise_trend,
    }


def _distortion_report(self):
    return {
        "member": self.member,
        "branch": self.branch,
        "estimate": self.estimate,
        "threshold": self.threshold,
        "passed": self.passed,
        "detail": self.detail,
    }


def _decay_report(self):
    return {
        "rate_fit": self.rate_fit,
        "degree_fit": self.degree_fit,
        "rate": self.rate,
        "degree": self.degree,
        "expected_rate": self.expected_rate,
        "expected_degree": self.expected_degree,
        "match": self.match,
    }


def _period_report(self):
    return {
        "period": self.period,
        "predicted": self.predicted,
        "residual": self.residual,
        "match": self.match,
    }


# the types whose to_json is the encoder itself
GENERATED = (
    "TraceEntry", "Verdict", "CatalogEntry", "CoincidenceReport", "PartitionDims",
    "DistortionSubspace", "ConjugacyReport", "LipschitzReport", "DistortionReport",
    "DecayReport", "PeriodReport",
)

REFERENCE = {
    "TraceEntry": _trace_entry,
    "Verdict": _verdict,
    "CatalogEntry": _catalog_entry,
    "CoincidenceReport": _coincidence_report,
    "PartitionDims": _partition_dims,
    "GrowthProfile": _growth_profile,
    "ScalingCertificate": _scaling_certificate,
    "DistortionSubspace": _distortion_subspace,
    "ConjugacyReport": _conjugacy_report,
    "LipschitzReport": _lipschitz_report,
    "DistortionReport": _distortion_report,
    "DecayReport": _decay_report,
    "PeriodReport": _period_report,
}


def reference_json(obj):
    return REFERENCE[type(obj).__name__](obj)
