"""Exception hierarchy for linflow.

Everything raised on purpose derives from LinFlowError so callers (and the
CLI) can map failures to stable exit codes:

* parse / ingestion problems  -> SpecParseError and its subclasses
* violated preconditions      -> PreconditionViolated and its subclasses
* internal cross-checks       -> InternalCheckError (a bug, never expected)

`LyapunovSolveFailed` is gone from the API: the pw-hyp metrics have a
closed form, so nothing raised it.
"""

__all__ = [
    "LinFlowError",
    "SpecParseError",
    "SnapFailure",
    "ClusterAmbiguity",
    "PreconditionViolated",
    "DimMismatch",
    "NotStable",
    "NotBounded",
    "RangeGuard",
    "DefinitenessCheckFailed",
    "MonotonicityNotAchieved",
    "InternalCheckError",
]


class LinFlowError(Exception):
    """Base class for all deliberate linflow failures."""


class SpecParseError(LinFlowError):
    """Malformed generator or matrix input (bad JSON, bad field, bad rational)."""


class SnapFailure(SpecParseError):
    """An eigenvalue could not be certified as any rational within tolerance
    at the configured denominator bound.  The ingester never guesses."""


class ClusterAmbiguity(SpecParseError):
    """Two distinct eigenvalue clusters sit closer than twice the tolerance,
    so their identification is ambiguous.  The ingester never guesses."""


class PreconditionViolated(LinFlowError):
    """An operation was called on input outside its stated domain."""


class DimMismatch(PreconditionViolated):
    """Two generators act on spaces of different dimension."""


class NotStable(PreconditionViolated):
    """Operation requires every growth rate to be negative."""


class NotBounded(PreconditionViolated):
    """Operation requires a bounded flow (all blocks size 1 with zero growth)."""


class RangeGuard(PreconditionViolated):
    """A simulation time outside the guarded range was requested."""


class DefinitenessCheckFailed(PreconditionViolated):
    """No weight in the retry schedule made the required quadratic forms definite."""


class MonotonicityNotAchieved(PreconditionViolated):
    """No weight in the doubling schedule made the norm profile monotone."""


class InternalCheckError(LinFlowError):
    """Two routes that must agree disagreed.  Always a bug; please report."""
