"""Exception hierarchy for linflow.

Everything raised on purpose derives from LinFlowError so callers (and the
CLI) can map failures to stable exit codes:

* parse / ingestion problems  -> SpecParseError and its subclasses
* an unknown relation name    -> UnknownRelation, also a ValueError
* violated preconditions      -> PreconditionViolated and its subclasses
* internal cross-checks       -> InternalCheckError (a bug, never expected)

Every layer imports this module, so it also holds the one set of argument
checks, each raising PreconditionViolated: `_at_least` for a size, count or
seed (an int, not a bool), `_above` for a rate, horizon, tolerance or bound
(a real, not a bool, whose float is finite), `_point` for a point or any
other list of finite reals, and `_rational` for an exact rate or factor
(anything Fraction takes but a bool: an int, a Rational, a finite float or
a "p/q" string; a block's rates raise SpecParseError instead).  int and
float are tried before the slow ABCs.
"""

from fractions import Fraction
from math import inf, isfinite
from numbers import Integral, Real

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
    "UnknownRelation",
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


class UnknownRelation(LinFlowError, ValueError):
    """A relation name that is none of the eleven.  It is a ValueError too,
    so the CLI keeps its usage exit code for it."""


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


def _at_least(value, least, what):
    """value as an int, if it is an int (not a bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, Integral)):
        raise PreconditionViolated(f"need an integer {what}, got {value!r}")
    if value < least:
        raise PreconditionViolated(f"need {what} >= {least}, got {value!r}")
    return int(value)


def _above(value, least, what):
    """float(value), if value is a real number (not a bool) whose float is
    finite and > least; a least of -inf accepts any finite real."""
    try:
        (f,) = _point((value,), 1)
    except PreconditionViolated:
        f = inf
    if not least < f < inf:
        bound = f" > {least:.6g}" if least > -inf else ""
        raise PreconditionViolated(f"need a finite {what}{bound}, got {value!r}")
    return f


def _point(x, dim, what="a point"):
    """x as a list of floats: dim entries (any number when dim is None),
    each a real number (not a bool) whose float is finite."""
    try:
        x = x.tolist() if hasattr(x, "tolist") else list(x)  # numpy's entries as Python numbers
        if (dim is None or len(x) == dim) and not any(
            isinstance(v, bool) or not isinstance(v, (float, int, Real)) for v in x
        ):
            out = list(map(float, x))
            if all(map(isfinite, out)):
                return out
    except (TypeError, OverflowError):  # not a sequence; a real beyond the float range
        pass
    count = "" if dim is None else f"{dim} "
    raise PreconditionViolated(f"need {what} of {count}finite real numbers, got {x!r}")


def _rational(value, what, error=PreconditionViolated):
    """Fraction(value), if Fraction takes it and it is no bool; else error,
    so that a NaN, an infinity or a malformed string never ends in a raw
    ValueError.  A Fraction is returned as it is."""
    if type(value) is Fraction:
        return value
    if type(value) is bool:
        raise error(f"need a finite rational {what}, got {value!r}")
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise error(f"need a finite rational {what}, got {value!r}") from None
