"""Propagation of preparation families through sequential measurement channels.

Each receiver measures sharply on one axis and unsharply on the other; the
non-selective channel between receivers halves the unsharp-axis
distinguishability and shrinks the sharp-axis one by
``(1 + sqrt(1 - lam^2))/2``.  The engine always evaluates the per-receiver
distinguishabilities twice: exactly, via trace norms of the propagated
marginal differences, and via this closed-form recursion.  The two agree
precisely when the step observables anticommute, and the comparison is kept
as a running check rather than trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import SequentialChannelStep, _channel_bloch
# Imported so that the benchmark's tracer, which wraps names where callers
# look them up, still finds ``seqrac.sequential.nonselective_step``.
from .channel import nonselective_step  # noqa: F401
from .errors import AlignmentError, AxisError, DomainError
from .rac import DistinguishabilityPair, PreparationFamily, delta_pair, marginals

ALIGNMENT_TOL = 1e-9
AXIS_TOL = 1e-12


@dataclass(frozen=True)
class TraceEntry:
    """What receiver ``k`` sees: both delta pipelines and its success."""

    exact: DistinguishabilityPair
    recursion: DistinguishabilityPair
    success_probability: float | None


@dataclass(frozen=True)
class SequentialTrace:
    entries: tuple[TraceEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def max_discrepancy(self) -> float:
        """Largest |exact - recursion| over all entries and both bits."""
        return max(
            max(
                abs(e.exact.delta1 - e.recursion.delta1),
                abs(e.exact.delta2 - e.recursion.delta2),
            )
            for e in self.entries
        )


def per_bob_success(dp_k: DistinguishabilityPair, lambda_k: float) -> float:
    """Receiver success ``1/2 + (Delta1 + lam*Delta2)/4`` (sharp bit-1 axis)."""
    if not 0.0 <= lambda_k <= 1.0:
        raise DomainError(f"unsharpness {lambda_k} outside [0, 1]")
    return 0.5 + 0.25 * (dp_k.delta1 + lambda_k * dp_k.delta2)


def _check_axes(steps) -> None:
    first = steps[0]
    for step in steps[1:]:
        if (
            max(abs(a - b) for a, b in zip(step.b1.bloch, first.b1.bloch)) > AXIS_TOL
            or max(abs(a - b) for a, b in zip(step.b2.bloch, first.b2.bloch)) > AXIS_TOL
        ):
            raise AxisError("sequential steps disagree on measurement axes")


def _check_alignment(prep: PreparationFamily, step: SequentialChannelStep) -> None:
    """The initial marginal differences must point along the step observables."""
    for y, obs in ((1, step.b1), (2, step.b2)):
        m0, m1 = marginals(prep, y)
        d = tuple(a - b for a, b in zip(m0.bloch_vector, m1.bloch_vector))
        along = sum(a * c for a, c in zip(obs.bloch, d))
        perp = tuple(c - along * a for a, c in zip(obs.bloch, d))
        if math.hypot(*perp) > ALIGNMENT_TOL or along < -ALIGNMENT_TOL:
            raise AlignmentError(
                f"bit-{y} marginal difference is not (positively) aligned "
                "with its observable"
            )


def _vector_delta_pair(vectors) -> DistinguishabilityPair:
    """``delta_pair`` of the family with Bloch vectors ``vectors`` (00, 01, 10, 11).

    Each component is ``(0.5*(a+b) - 0.5*(c+d)) * 0.5``, the float operations
    of ``distinguishability(*marginals(...))``, so the result is the same
    double (except for subnormal components, which the halved storage of
    ``DensityOp`` rounds).
    """
    components = list(zip(*vectors))
    d1 = [(0.5 * (a + b) - 0.5 * (c + d)) * 0.5 for a, b, c, d in components]
    d2 = [(0.5 * (a + c) - 0.5 * (b + d)) * 0.5 for a, b, c, d in components]
    return DistinguishabilityPair(math.hypot(*d1), math.hypot(*d2))


def propagate(
    prep: PreparationFamily,
    steps: list[SequentialChannelStep],
    check_alignment: bool = True,
) -> SequentialTrace:
    """Run the family through every channel step.

    Entry ``k`` (1-based) is what receiver ``k`` sees; entry 1 is the input
    and applying step ``k`` yields entry ``k+1``, so the trace has
    ``len(steps) + 1`` entries.  The family is carried as four Bloch-vector
    tuples stepped by the channel's Bloch map, and the exact pair is the
    trace norms of their marginal differences, computed on those tuples.
    Success probabilities use the step unsharpness of the matching
    receiver; the final entry, which has no measurement configured, carries
    ``None``.
    """
    if not steps:
        raise DomainError("at least one channel step is required")
    _check_axes(steps)
    if check_alignment:
        _check_alignment(prep, steps[0])

    dp0 = delta_pair(prep)
    shrink1 = 1.0
    entries = []
    vectors = [rho.bloch_vector for rho in prep.states]
    for k in range(len(steps) + 1):
        exact = _vector_delta_pair(vectors)
        recursion = DistinguishabilityPair(dp0.delta1 * shrink1, dp0.delta2 / 2.0**k)
        success = None
        if k < len(steps):
            step = steps[k]
            success = per_bob_success(exact, step.lam)
            shrink1 *= 0.5 * (1.0 + math.sqrt(1.0 - step.lam * step.lam))
            vectors = [_channel_bloch(v, step) for v in vectors]
        entries.append(TraceEntry(exact, recursion, success))
    return SequentialTrace(tuple(entries))


def lemma2_violation_probe(
    prep: PreparationFamily, tilted_steps: list[SequentialChannelStep]
) -> float:
    """Max |exact - recursion| delta discrepancy for (possibly tilted) axes.

    A negative control: with orthogonal axes this is ~1e-16, while generic
    tilts make the closed-form recursion visibly wrong, showing the
    anticommutation hypothesis is load-bearing.
    """
    trace = propagate(prep, tilted_steps, check_alignment=False)
    return trace.max_discrepancy()
