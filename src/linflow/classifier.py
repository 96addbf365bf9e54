"""Decision procedures for equivalence and conjugacy of linear flows.

Every decision is exact: block data is rational, each grade compares
canonical scaled keys of a structural form (see `similarity`), and each
Yes carries a scaling certificate.  Undecided is a first-class outcome
reserved for the regimes where no finite criterion is available; it is
never collapsed into No.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .blocks import GeneratorSpec, JordanBlock, scale_spec, serialize_spec
from .errors import DimMismatch, InternalCheckError
from .invariants import _part, _spectrum, _triples, _unrotated
from .invariants import is_generic, lyapunov_spectrum, partition_dims, semisimple_collapse
from .similarity import (
    ScalingCertificate,
    _projective,
    _projective_key,
    normalising_scalings,
)

__all__ = [
    "Relation",
    "Decision",
    "TraceEntry",
    "Verdict",
    "classify",
    "CatalogEntry",
    "catalog2d",
    "CoincidenceReport",
    "class_coincidence",
    "AuditReport",
    "implication_audit",
    "IMPLICATION_EDGES",
]


class Relation(enum.Enum):
    LIN_EQUIV = "LinEquiv"
    DIFF_EQUIV = "DiffEquiv"
    LIP_EQUIV = "LipEquiv"
    HOELDER_EQUIV = "HoelderEquiv"
    PW_LIP_EQUIV = "PwLipEquiv"
    TOP_EQUIV = "TopEquiv"
    LIN_CONJ = "LinConj"
    DIFF_CONJ = "DiffConj"
    LIP_CONJ = "LipConj"
    HOELDER_CONJ = "HoelderConj"
    PW_LIP_CONJ = "PwLipConj"

    @classmethod
    def from_string(cls, text):
        for rel in cls:
            if rel.value.lower() == text.strip().lower():
                return rel
        names = ", ".join(r.value for r in cls)
        raise ValueError(f"unknown relation {text!r}; expected one of {names}")


class Decision(enum.Enum):
    YES = "Yes"
    NO = "No"
    UNDECIDED = "Undecided"


@dataclass(frozen=True)
class TraceEntry:
    step: str
    outcome: str
    detail: str

    def to_json(self):
        return {"step": self.step, "outcome": self.outcome, "detail": self.detail}


@dataclass(frozen=True)
class Verdict:
    relation: Relation
    decision: Decision
    left: GeneratorSpec
    right: GeneratorSpec
    scaling: Optional[ScalingCertificate] = None
    trace: tuple = ()

    def to_json(self):
        return {
            "relation": self.relation.value,
            "decision": self.decision.value,
            "left": serialize_spec(self.left),
            "right": serialize_spec(self.right),
            "scaling": None if self.scaling is None else self.scaling.to_json(),
            "trace": [e.to_json() for e in self.trace],
        }


# Forms T(spec) whose equality up to time scaling decides a grade, as
# functions of the spec's sorted (re, im, size) block triples, composed of
# the forms and parts of `invariants`.  Each keeps every growth rate and the
# whole central part, as canonical_key requires.  The linear form is the
# block multiset itself.


def _linear_form(triples):
    return triples


def _hoelder_form(triples):
    return _spectrum(triples), _part(triples, "central")


def _lipschitz_collapse_form(triples):
    return _unrotated(triples, 1), _part(triples, "central")


def _lipschitz_parts_form(triples):
    return _spectrum(triples), _part(triples, "defective"), _part(triples, "central")


def _kinematic_form(triples):
    return _unrotated(triples, math.inf), _part(triples, "central")


# The two Lipschitz routes are independent criteria; every decision runs
# both and they must agree.
_LIPSCHITZ = (_lipschitz_collapse_form, _lipschitz_parts_form)

# relation -> (forms, scaled?, predicate name).  Equivalences allow any
# nonzero time scaling, conjugacies only alpha = 1.  For PwLipEquiv and
# TopEquiv outside their complete criteria the row is only sufficient.
_TABLE = {
    Relation.LIN_EQUIV: ((_linear_form,), True, "linear"),
    Relation.DIFF_EQUIV: ((_linear_form,), True, "linear"),
    Relation.LIP_EQUIV: (_LIPSCHITZ, True, "lipschitz"),
    Relation.HOELDER_EQUIV: ((_hoelder_form,), True, "hoelder"),
    Relation.PW_LIP_EQUIV: ((_kinematic_form,), True, "kinematic sufficient"),
    Relation.TOP_EQUIV: ((_hoelder_form,), True, "hoelder sufficient"),
    Relation.LIN_CONJ: ((_linear_form,), False, "linear"),
    Relation.DIFF_CONJ: ((_linear_form,), False, "linear"),
    Relation.LIP_CONJ: (_LIPSCHITZ, False, "lipschitz"),
    Relation.HOELDER_CONJ: ((_hoelder_form,), False, "hoelder"),
    Relation.PW_LIP_CONJ: ((_kinematic_form,), False, "piecewise-lipschitz-conjugacy"),
}

_UNDECIDED_SCOPE = {
    Relation.PW_LIP_EQUIV: "no complete criterion outside the hyperbolic case"
    " and the sufficient criterion does not apply",
    Relation.TOP_EQUIV: "dimension >= 3 with a central part present and the"
    " sufficient criterion does not apply",
}


class _Pair:
    """The two generators of one decision and the data its relations share.

    Each part is computed on first use and kept for the pair's lifetime
    only: the partition dims, each spec's own block triples and projective
    data (see `similarity._projective`), and the alpha of every route
    already taken.  Certificates are built per verdict, never shared.
    """

    __slots__ = ("a", "b", "_dims", "_own", "_projective", "_alphas")

    def __init__(self, a, b):
        self.a, self.b = a, b
        self._dims = self._own = self._projective = None
        self._alphas = {}

    def dims(self):
        if self._dims is None:
            self._dims = partition_dims(self.a), partition_dims(self.b)
        return self._dims

    def alpha(self, form, scaled):
        """An alpha with form(a) == form(alpha * b), or None."""
        route = (form, scaled)
        if route not in self._alphas:
            self._alphas[route] = self._scaled(form) if scaled else self._unscaled(form)
        return self._alphas[route]

    def _unscaled(self, form):
        if form is _linear_form:
            same = self.a.blocks == self.b.blocks
        else:
            if self._own is None:
                self._own = _triples(self.a), _triples(self.b)
            same = form(self._own[0]) == form(self._own[1])
        return Fraction(1) if same else None

    def _scaled(self, form):
        if self._projective is None:
            self._projective = _projective(self.a), _projective(self.b)
        (key_a, c_a), (key_b, c_b) = (_projective_key(p, form) for p in self._projective)
        return c_b / c_a if key_a == key_b else None


def _decide_by_keys(pair, forms, scaled, name, trace):
    alphas = [pair.alpha(form, scaled) for form in forms]
    if len(set(alphas)) > 1:
        raise InternalCheckError(
            f"{name} criteria disagree: collapse route gives alpha = {alphas[0]},"
            f" spectrum-plus-defective route gives alpha = {alphas[1]}"
        )
    alpha = alphas[0]
    what = "canonical scaled keys" if scaled else "forms at alpha = 1"
    routes = ", both routes" if len(forms) > 1 else ""
    if alpha is None:
        trace.append(TraceEntry(name, "fail", f"{what} differ{routes}"))
        return None
    trace.append(TraceEntry(name, "pass", f"alpha = {alpha}, {what} equal{routes}"))
    return ScalingCertificate(
        alpha,
        name,
        {
            "left_generator": serialize_spec(pair.a),
            "scaled_right_generator": serialize_spec(scale_spec(pair.b, alpha)),
        },
    )


def _hyperbolic_index(pair, trace):
    """Decision by unordered stable/unstable dims when both flows are
    hyperbolic, else None."""
    pa, pb = pair.dims()
    if pa.central or pb.central:
        return None
    da, db = (pa.stable, pa.unstable), (pb.stable, pb.unstable)
    ok = sorted(da) == sorted(db)
    trace.append(
        TraceEntry(
            "hyperbolic index",
            "pass" if ok else "fail",
            f"stable/unstable dims {da} vs {db}, unordered",
        )
    )
    return Decision.YES if ok else Decision.NO


def _topological_label_2d(spec):
    """Orbit-structure class of a planar flow.  Total: every dim-2 spec
    lands in exactly one of the six labels."""
    if spec.dim != 2:
        raise DimMismatch("topological labels are defined for dimension 2")
    blocks = spec.blocks
    if len(blocks) == 1:
        (blk,) = blocks
        if blk.im != 0:
            return "node" if blk.re != 0 else "center"
        # single real block of size 2
        return "node" if blk.re != 0 else "shear"
    a1, a2 = blocks[0].re, blocks[1].re
    if a1 == 0 and a2 == 0:
        return "zero"
    if a1 == 0 or a2 == 0:
        return "degenerate-line"
    return "saddle" if a1 * a2 < 0 else "node"


def _low_dim_topological(a, b, trace):
    """TopEquiv on a line or in the plane, where the catalogs are complete;
    None in dimension >= 3."""
    if a.dim == 1:
        ok = (a.blocks[0].re == 0) == (b.blocks[0].re == 0)
        trace.append(
            TraceEntry(
                "line catalog",
                "pass" if ok else "fail",
                "flows on a line match iff both or neither are rest points",
            )
        )
    elif a.dim == 2:
        la, lb = _topological_label_2d(a), _topological_label_2d(b)
        ok = la == lb
        trace.append(
            TraceEntry("planar catalog", "pass" if ok else "fail", f"labels {la} vs {lb}")
        )
    else:
        return None
    return Decision.YES if ok else Decision.NO


def classify(relation, a, b):
    """Decide one relation between two generators.  Returns a Verdict.

    A dimension mismatch is a definite No (the flows live on different
    spaces), not an error.
    """
    if not isinstance(relation, Relation):
        relation = Relation.from_string(str(relation))
    return _classify(relation, _Pair(a, b))


def _classify(relation, pair):
    a, b = pair.a, pair.b
    trace = []
    if a.dim != b.dim:
        trace.append(
            TraceEntry("dimension", "fail", f"{a.dim} != {b.dim}")
        )
        return Verdict(relation, Decision.NO, a, b, None, tuple(trace))
    trace.append(TraceEntry("dimension", "ok", f"{a.dim} == {b.dim}"))

    if relation in _UNDECIDED_SCOPE:
        decision = _hyperbolic_index(pair, trace)
        if decision is None and relation is Relation.TOP_EQUIV:
            decision = _low_dim_topological(a, b, trace)
        if decision is not None:
            return Verdict(relation, decision, a, b, None, tuple(trace))
    # Outside the complete criteria, a scaled kinematic (PwLipEquiv) or
    # Hoelder (TopEquiv) match is still sufficient, never necessary.
    cert = _decide_by_keys(pair, *_TABLE[relation], trace)
    if cert is not None:
        decision = Decision.YES
    elif relation in _UNDECIDED_SCOPE:
        trace.append(TraceEntry("scope", "undecided", _UNDECIDED_SCOPE[relation]))
        decision = Decision.UNDECIDED
    else:
        decision = Decision.NO
    return Verdict(relation, decision, a, b, cert, tuple(trace))


# ---------------------------------------------------------------------------
# Planar catalog


@dataclass(frozen=True)
class CatalogEntry:
    row: str
    representative: GeneratorSpec
    scaling: Optional[Fraction]
    label: Optional[str] = None

    def to_json(self):
        return {
            "row": self.row,
            "representative": serialize_spec(self.representative),
            "scaling": None if self.scaling is None else str(self.scaling),
            "label": self.label,
        }


def _spectrum_spec(spec):
    return GeneratorSpec(
        [JordanBlock(1, lam, 0) for lam in lyapunov_spectrum(spec)]
    )


def catalog2d(spec):
    """Four coarsening normal forms of a planar generator, finest first.

    The first three rows scale a form of the generator by its first
    normalising scaling, to unit size: a growth rate of largest modulus
    becomes +1, else the top rotation rate becomes 1.
    """
    if spec.dim != 2:
        raise DimMismatch(f"catalog requires dimension 2, got {spec.dim}")
    forms = {
        "similar": spec,
        "lipschitz": semisimple_collapse(spec),
        "lyapunov": _spectrum_spec(spec),
    }
    rows = {}
    for row, form in forms.items():
        alpha = normalising_scalings(form)[0]
        rows[row] = CatalogEntry(row, scale_spec(form, alpha), alpha)
    label = _topological_label_2d(spec)
    rows["topological"] = CatalogEntry("topological", _TOP_REPS[label], None, label=label)
    return rows


_TOP_REPS = {
    "zero": GeneratorSpec([JordanBlock(1, 0, 0), JordanBlock(1, 0, 0)]),
    "shear": GeneratorSpec([JordanBlock(2, 0, 0)]),
    "center": GeneratorSpec([JordanBlock(1, 0, 1)]),
    "saddle": GeneratorSpec([JordanBlock(1, -1, 0), JordanBlock(1, 1, 0)]),
    "degenerate-line": GeneratorSpec([JordanBlock(1, 0, 0), JordanBlock(1, 1, 0)]),
    "node": GeneratorSpec([JordanBlock(1, 1, 0), JordanBlock(1, 1, 0)]),
}


# ---------------------------------------------------------------------------
# Class coincidence for generic generators


@dataclass(frozen=True)
class CoincidenceReport:
    generic: bool
    real_spectrum: Optional[bool]
    smooth_class_equals_lipschitz: Optional[bool]
    lipschitz_class_equals_hoelder: Optional[bool]

    def to_json(self):
        return {
            "generic": self.generic,
            "real_spectrum": self.real_spectrum,
            "smooth_class_equals_lipschitz": self.smooth_class_equals_lipschitz,
            "lipschitz_class_equals_hoelder": self.lipschitz_class_equals_hoelder,
        }


def class_coincidence(spec):
    """For a generic generator the smooth, Lipschitz and Hoelder classes
    collapse together exactly when the spectrum is real; rotation splits
    them.  Outside the generic case the comparison is not determined by
    this criterion, so the fields stay None."""
    if not is_generic(spec):
        return CoincidenceReport(False, None, None, None)
    real = all(blk.im == 0 for blk in spec.blocks)
    return CoincidenceReport(True, real, real, real)


# ---------------------------------------------------------------------------
# Implication audit

# (premise, conclusion) pairs that must never see Yes -> No
IMPLICATION_EDGES = (
    (Relation.LIN_EQUIV, Relation.LIP_EQUIV),
    (Relation.LIP_EQUIV, Relation.HOELDER_EQUIV),
    (Relation.HOELDER_EQUIV, Relation.TOP_EQUIV),
    (Relation.LIN_EQUIV, Relation.DIFF_EQUIV),
    (Relation.DIFF_EQUIV, Relation.LIN_EQUIV),
    (Relation.DIFF_EQUIV, Relation.PW_LIP_EQUIV),
    (Relation.LIP_EQUIV, Relation.PW_LIP_EQUIV),
    (Relation.PW_LIP_EQUIV, Relation.TOP_EQUIV),
    (Relation.LIN_CONJ, Relation.LIP_CONJ),
    (Relation.LIP_CONJ, Relation.HOELDER_CONJ),
    (Relation.LIN_CONJ, Relation.DIFF_CONJ),
    (Relation.DIFF_CONJ, Relation.LIN_CONJ),
    (Relation.DIFF_CONJ, Relation.PW_LIP_CONJ),
    (Relation.LIP_CONJ, Relation.PW_LIP_CONJ),
    (Relation.LIN_CONJ, Relation.LIN_EQUIV),
    (Relation.DIFF_CONJ, Relation.DIFF_EQUIV),
    (Relation.LIP_CONJ, Relation.LIP_EQUIV),
    (Relation.HOELDER_CONJ, Relation.HOELDER_EQUIV),
    (Relation.PW_LIP_CONJ, Relation.PW_LIP_EQUIV),
    (Relation.HOELDER_CONJ, Relation.TOP_EQUIV),
)


@dataclass(frozen=True)
class AuditReport:
    verdicts: dict
    violations: tuple

    @property
    def clean(self):
        return not self.violations

    def to_json(self):
        return {
            "verdicts": {
                rel.value: v.decision.value for rel, v in self.verdicts.items()
            },
            "violations": [
                {"premise": p.value, "conclusion": c.value} for (p, c) in self.violations
            ],
            "clean": self.clean,
        }


def implication_audit(a, b):
    """Decide every relation for the pair and check the implication lattice.

    All eleven decisions share one pair, so each spec's keys are computed
    once.  Edges with an Undecided endpoint are skipped; a violation is a
    premise decided Yes whose conclusion is decided No.
    """
    pair = _Pair(a, b)
    verdicts = {rel: _classify(rel, pair) for rel in Relation}
    violations = []
    for prem, conc in IMPLICATION_EDGES:
        dp = verdicts[prem].decision
        dc = verdicts[conc].decision
        if dp is Decision.YES and dc is Decision.NO:
            violations.append((prem, conc))
    return AuditReport(verdicts, tuple(violations))
