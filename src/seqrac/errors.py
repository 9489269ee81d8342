"""Exception types, and the input rules for r and for counts, shared across the package."""

import operator


class SeqracError(Exception):
    """Base class for all seqrac errors."""


class DomainError(SeqracError, ValueError):
    """A parameter lies outside its mathematically valid range."""


class InvalidState(SeqracError, ValueError):
    """A density operator fails trace, norm, or positivity constraints."""


class DegeneratePair(SeqracError):
    """Two states are operationally equivalent; no discrimination axis exists."""


class ZeroProbabilityBranch(SeqracError):
    """A selective measurement branch has probability below resolution."""


class AlignmentError(SeqracError):
    """Marginal differences are not aligned with the step observables."""


class AxisError(SeqracError):
    """Sequential steps disagree on their measurement axes."""


class SearchExhausted(SeqracError):
    """The opening-angle search used up its evaluations without certifying a point."""


def check_r(r):
    """``r`` if it lies in (0, 1], which nan does not."""
    if not 0 < r <= 1:
        raise DomainError(f"r {r} outside (0, 1]")
    return r


def check_count(n, name: str) -> int:
    """``n`` as an int if it is an integer >= 1: 2.7 or "3" is refused, not truncated."""
    k = operator.index(n) if hasattr(type(n), "__index__") else 0
    if k < 1:
        raise DomainError(f"{name} {n!r} is not an integer >= 1")
    return k
