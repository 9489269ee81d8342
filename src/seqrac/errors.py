"""Exception types shared across the package."""


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
