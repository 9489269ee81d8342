"""Exact 2x2 Hermitian-operator algebra in Bloch form.

An operator is stored as ``A = t*I + v . sigma`` with ``t`` real and ``v`` a
real 3-vector, where ``sigma`` are the three standard anticommuting spin
observables with eigenvalues +-1.  All constructions here are closed-form:
eigenvalues are ``t +- |v|`` and the anticommutator identity
``{n.sigma, m.sigma} = 2 (n.m) I`` holds exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegeneratePair, DomainError, InvalidState, read, real

STATE_TOL = 1e-12
DEGENERACY_TOL = 1e-12
_ANTICOMMUTE_TOL = 1e-12


def _as_vec(v) -> tuple[float, float, float]:
    """``v``'s three components as floats; other than three components, or one that is no
    real number, such as text, is a DomainError."""
    try:
        x, y, z = v
    except (TypeError, ValueError) as exc:  # not iterable, or not of length 3
        raise DomainError(f"bad Bloch vector {v!r}") from exc
    if type(x) is type(y) is type(z) is float:  # as in channel._check_lambda
        return (x, y, z)
    return tuple(read("Bloch vector component", c, lambda v: float(real(v))) for c in (x, y, z))


@dataclass(frozen=True)
class HermitianOp:
    """A 2x2 Hermitian operator ``trace_part * I + bloch . sigma``."""

    trace_part: float
    bloch: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "trace_part", float(self.trace_part))
        object.__setattr__(self, "bloch", _as_vec(self.bloch))

    @property
    def bloch_norm(self) -> float:
        return math.hypot(*self.bloch)

    def __add__(self, other: "HermitianOp") -> "HermitianOp":
        return HermitianOp(
            self.trace_part + other.trace_part,
            tuple(a + b for a, b in zip(self.bloch, other.bloch)),
        )

    def __sub__(self, other: "HermitianOp") -> "HermitianOp":
        return self + (-1.0) * other

    def __rmul__(self, s: float) -> "HermitianOp":
        s = float(s)
        return HermitianOp(s * self.trace_part, tuple(s * c for c in self.bloch))

    def dot_bloch(self, other: "HermitianOp") -> float:
        return sum(a * b for a, b in zip(self.bloch, other.bloch))


@dataclass(frozen=True)
class DensityOp(HermitianOp):
    """A valid qubit state ``(I + n . sigma) / 2``.

    ``trace_part`` is pinned to 1/2, so the ``|n| <= 1`` enforced at
    construction is exactly positivity.  Prefer :meth:`from_bloch`.
    """

    def __post_init__(self):
        super().__post_init__()
        if self.trace_part != 0.5:
            raise InvalidState("density operator must have trace_part = 1/2")
        n = 2.0 * self.bloch_norm
        if not n <= 1.0 + STATE_TOL:  # a NaN norm fails too
            raise InvalidState(f"Bloch vector norm {n} exceeds 1")

    @classmethod
    def from_bloch(cls, n) -> "DensityOp":
        """State with Bloch vector ``n`` (``rho = (I + n.sigma)/2``)."""
        x, y, z = _as_vec(n)
        return cls(0.5, (x / 2.0, y / 2.0, z / 2.0))

    @property
    def bloch_vector(self) -> tuple[float, float, float]:
        """The conventional Bloch vector ``n`` with ``|n| <= 1``."""
        return tuple(2.0 * c for c in self.bloch)


@dataclass(frozen=True)
class SharpObservable(HermitianOp):
    """A +-1-valued observable: traceless with unit Bloch vector."""

    def __post_init__(self):
        super().__post_init__()
        if self.trace_part != 0.0:
            raise InvalidState("sharp observable must be traceless")
        if not abs(self.bloch_norm - 1.0) <= STATE_TOL:  # a NaN norm fails too
            raise InvalidState("sharp observable requires |bloch| = 1")

    @classmethod
    def from_axis(cls, v) -> "SharpObservable":
        x, y, z = _as_vec(v)
        n = math.hypot(x, y, z)
        if n <= DEGENERACY_TOL:
            raise DegeneratePair("cannot orient an observable along a null axis")
        return cls(0.0, (x / n, y / n, z / n))

    def anticommutes_with(self, other: "SharpObservable") -> bool:
        """True iff the Bloch axes are orthogonal, i.e. {B1,B2} = 0."""
        return abs(self.dot_bloch(other)) <= _ANTICOMMUTE_TOL


def trace_norm(a: HermitianOp) -> float:
    """Sum of absolute eigenvalues: |t + |v|| + |t - |v||."""
    b = a.bloch_norm
    return abs(a.trace_part + b) + abs(a.trace_part - b)


def distinguishability(rho0: DensityOp, rho1: DensityOp) -> float:
    """Half the trace norm of the difference: |n0 - n1| / 2.

    This equals the maximal total-variation distance between the outcome
    statistics of the two states over all measurements.
    """
    return 0.5 * trace_norm(rho0 - rho1)


def helstrom_observable(rho0: DensityOp, rho1: DensityOp) -> SharpObservable:
    """Optimal discrimination observable: unit Bloch vector along n0 - n1.

    Raises DegeneratePair when the states are operationally equivalent, since
    no preferred direction exists and downstream recursions need one.
    """
    d = rho0 - rho1
    if d.bloch_norm <= DEGENERACY_TOL:
        raise DegeneratePair("states are operationally equivalent")
    return SharpObservable.from_axis(d.bloch)
