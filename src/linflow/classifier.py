"""Decision procedures for equivalence and conjugacy of linear flows.

Every decision is exact: block data is rational, each grade compares
canonical scaled keys of a structural form (see `similarity`), and each
Yes carries a scaling certificate.  Undecided is a first-class outcome
reserved for the regimes where no finite criterion is available; it is
never collapsed into No.  The planar catalog, which reads the planar
labels of `_topological_label_2d`, lives in `catalog`, and the class
coincidence in `summary`.
"""

from __future__ import annotations

import enum
import math
from typing import Optional

from ._record import record
from .blocks import GeneratorSpec, _fields_to_json, scale_spec, serialize_spec
from .errors import DimMismatch, InternalCheckError, PreconditionViolated, UnknownRelation
from .invariants import _part, _spectrum, _unrotated, partition_dims
from .similarity import ScalingCertificate, _projective, _projective_key

__all__ = [
    "Relation",
    "Decision",
    "TraceEntry",
    "Verdict",
    "classify",
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
    __hash__ = object.__hash__  # members are singletons: no name hash per lookup

    @classmethod
    def from_string(cls, text):
        if isinstance(text, str):
            for rel in cls:
                if rel.value.lower() == text.strip().lower():
                    return rel
        names = ", ".join(r.value for r in cls)
        raise UnknownRelation(f"unknown relation {text!r}; expected one of {names}")


class Decision(enum.Enum):
    YES = "Yes"
    NO = "No"
    UNDECIDED = "Undecided"
    __hash__ = object.__hash__


@record
class TraceEntry:
    step: str
    outcome: str
    detail: str
    to_json = _fields_to_json


@record
class Verdict:
    relation: Relation
    decision: Decision
    left: GeneratorSpec
    right: GeneratorSpec
    scaling: Optional[ScalingCertificate] = None
    trace: tuple = ()
    to_json = _fields_to_json


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
# nonzero time scaling, conjugacies only alpha = 1, and the same key decides
# both: form(a) == form(b) gives c_a == c_b with the same tie-broken sign.
# For PwLipEquiv and TopEquiv outside their complete criteria the row is
# only sufficient.
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

    The dimension entry that opens every trace is built with the pair.
    Each other part is computed on first use and kept for the pair's
    lifetime only: the partition dims, each spec's projective data (see
    `similarity._projective`), the keyed alpha of every form already
    compared, and the serialized block rows of the left generator and of
    the right one scaled by each certified alpha.  Certificates are built
    per verdict, each with witness dicts of its own copied from the rows.
    """

    __slots__ = ("a", "b", "dimension", "_dims", "_projective", "_alphas", "_left", "_rows")

    def __init__(self, a, b):
        if not (isinstance(a, GeneratorSpec) and isinstance(b, GeneratorSpec)):
            raise PreconditionViolated(
                f"need two GeneratorSpecs, got {type(a).__name__} and {type(b).__name__}")
        self.a, self.b, same = a, b, a.dim == b.dim
        self.dimension = TraceEntry("dimension", "ok" if same else "fail",
                                    f"{a.dim} {'==' if same else '!='} {b.dim}")
        self._dims = self._projective = self._left = None
        self._alphas, self._rows = {}, {}

    def dims(self):
        if self._dims is None:
            self._dims = partition_dims(self.a), partition_dims(self.b)
        return self._dims

    def alpha(self, form):
        """c_b / c_a, an alpha with form(a) == form(alpha * b), or None."""
        if form not in self._alphas:
            if self._projective is None:
                self._projective = _projective(self.a), _projective(self.b)
            (key_a, c_a), (key_b, c_b) = (_projective_key(p, form) for p in self._projective)
            self._alphas[form] = c_b / c_a if key_a == key_b else None
        return self._alphas[form]

    def witness(self, alpha):
        """Fresh witness dicts of a Yes at alpha, copied from the rows of a
        and of scale_spec(b, alpha), each serialized once per pair."""
        right = self._rows.get(alpha)
        if right is None:
            right = self._rows[alpha] = serialize_spec(scale_spec(self.b, alpha))["blocks"]
        if self._left is None:
            self._left = serialize_spec(self.a)["blocks"]
        return {"left_generator": {"blocks": [{**row} for row in self._left]},
                "scaled_right_generator": {"blocks": [{**row} for row in right]}}


def _decide_by_keys(pair, forms, scaled, name, trace):
    alphas = [pair.alpha(form) for form in forms]
    if len(set(alphas)) > 1:
        raise InternalCheckError(
            f"{name} criteria disagree: collapse route gives alpha = {alphas[0]},"
            f" spectrum-plus-defective route gives alpha = {alphas[1]}"
        )
    alpha = alphas[0] if scaled or alphas[0] == 1 else None
    what = "canonical scaled keys" if scaled else "forms at alpha = 1"
    routes = ", both routes" if len(forms) > 1 else ""
    if alpha is None:
        trace.append(TraceEntry(name, "fail", f"{what} differ{routes}"))
        return None
    trace.append(TraceEntry(name, "pass", f"alpha = {alpha}, {what} equal{routes}"))
    return ScalingCertificate(alpha, name, pair.witness(alpha))


def _catalog_step(trace, step, ok, detail):
    """Record a catalog step, which decides outright: Yes when ok, else No."""
    trace.append(TraceEntry(step, "pass" if ok else "fail", detail))
    return Decision.YES if ok else Decision.NO


def _hyperbolic_index(pair, trace):
    """Decision by unordered stable/unstable dims when both flows are
    hyperbolic, else None."""
    pa, pb = pair.dims()
    if pa.central or pb.central:
        return None
    da, db = (pa.stable, pa.unstable), (pb.stable, pb.unstable)
    return _catalog_step(trace, "hyperbolic index", sorted(da) == sorted(db),
                         f"stable/unstable dims {da} vs {db}, unordered")


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
        return _catalog_step(trace, "line catalog", (a.blocks[0].re == 0) == (b.blocks[0].re == 0),
                             "flows on a line match iff both or neither are rest points")
    if a.dim == 2:
        la, lb = _topological_label_2d(a), _topological_label_2d(b)
        return _catalog_step(trace, "planar catalog", la == lb, f"labels {la} vs {lb}")
    return None


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
    trace = [pair.dimension]
    if a.dim != b.dim:
        return Verdict(relation, Decision.NO, a, b, None, tuple(trace))

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


@record
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

    All eleven decisions share one pair, so each spec's key of each form is
    computed once, a conjugacy reuses its equivalence's alpha, the left
    generator is serialized once, the right one is scaled and serialized
    once per certified alpha, and every trace opens with the same dimension
    entry; each Yes still gets witness dicts of its own.  Edges with an
    Undecided endpoint are skipped; a violation is a premise decided Yes
    whose conclusion is decided No.
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
