"""Exception types, the one number reader, and the input rules for omega, r, counts and seeds."""

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


def read(name: str, value, convert):
    """``convert(value)`` (``float``, ``mp.mpf`` or ``real``); what it refuses is a DomainError."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"bad {name} {value!r}") from exc


def real(value):
    """``value`` itself if it is a real number, so its bits stay; text, which ``float`` parses, is not."""
    import numbers  # on first use, like mpmath: no command's import pays for it

    if not isinstance(value, numbers.Real):
        raise TypeError(f"{value!r} is not a real number")
    return value


def check_omega(omega, half_pi, show=str):
    """``omega`` if in (0, ``half_pi``), pi/2 at the caller's precision, not nan; ``show`` prints it."""
    if not 0 < omega < half_pi:
        raise DomainError(f"omega {show(omega)} outside (0, pi/2)")
    return omega


def check_r(r, show=str):
    """``r`` if it lies in (0, 1], which nan does not; ``show`` prints it in the message."""
    if not 0 < r <= 1:
        raise DomainError(f"r {show(r)} outside (0, 1]")
    return r


def check_count(n, name: str) -> int:
    """``n`` as an int if it is an integer >= 1: 2.7, "3" or True is refused, not truncated."""
    k = 0 if isinstance(n, bool) or not hasattr(type(n), "__index__") else operator.index(n)
    if k < 1:
        raise DomainError(f"{name} {n!r} is not an integer >= 1")
    return k


def check_seed(seed) -> int:
    """``seed`` as an int if it is an integer in [0, 2^64), a Philox key; not 1.5, "1" or True."""
    if isinstance(seed, bool) or not hasattr(type(seed), "__index__"):
        raise DomainError(f"seed {seed!r} is not an integer")
    if not 0 <= operator.index(seed) < 1 << 64:
        raise DomainError(f"seed {seed} outside [0, 2^64)")
    return operator.index(seed)
