"""Unsharp binary qubit measurements and their minimally disturbing update.

A dichotomic unbiased POVM ``E+- = (I +- lam*B)/2`` is realised by the square
roots of its elements, ``K+- = alpha*I +- beta*B`` with

    alpha = (sqrt((1+lam)/2) + sqrt((1-lam)/2)) / 2
    beta  = (sqrt((1+lam)/2) - sqrt((1-lam)/2)) / 2

so ``K+-^2 = E+-``.  Forgetting the outcome of a randomly chosen measurement
(sharp on one axis, unsharp on the other) gives the non-selective channel
applied between consecutive receivers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bloch import DensityOp, HermitianOp, SharpObservable
from .errors import DomainError, ZeroProbabilityBranch

ZERO_PROB_TOL = 1e-15


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"unsharpness parameter {lam} outside [0, 1]")
    return lam


def _one_minus_sqrt1m(lam2: float) -> float:
    # 1 - sqrt(1 - lam^2) without cancellation for small lam
    return lam2 / (1.0 + math.sqrt(1.0 - lam2))


@dataclass(frozen=True)
class UnsharpBinaryMeasurement:
    """A +-1 observable measured with strength ``lam`` in [0, 1]."""

    observable: SharpObservable
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "lam", _check_lambda(self.lam))

    def effect(self, sign: int) -> HermitianOp:
        """POVM element ``(I + sign*lam*B)/2`` for sign in {+1, -1}."""
        return HermitianOp(
            0.5, tuple(sign * self.lam * 0.5 * c for c in self.observable.bloch)
        )

    def outcome_probability(self, rho: DensityOp, sign: int) -> float:
        n_dot_b = 2.0 * rho.dot_bloch(self.observable)
        return 0.5 * (1.0 + sign * self.lam * n_dot_b)


@dataclass(frozen=True)
class KrausPair:
    """Square-root Kraus operators of an unsharp binary measurement."""

    k_plus: HermitianOp
    k_minus: HermitianOp
    alpha: float
    beta: float


@dataclass(frozen=True)
class SequentialChannelStep:
    """One receiver's measurement pair: sharp ``b1``, unsharp ``b2`` at ``lam``."""

    b1: SharpObservable
    b2: SharpObservable
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "lam", _check_lambda(self.lam))

    @property
    def anticommuting(self) -> bool:
        return self.b1.anticommutes_with(self.b2)


@dataclass(frozen=True)
class SelectiveBranch:
    """Outcome branch of a selective measurement: probability and post-state."""

    prob: float
    post_state: DensityOp | None

    @property
    def post(self) -> DensityOp:
        if self.post_state is None:
            raise ZeroProbabilityBranch(
                f"branch probability {self.prob} below {ZERO_PROB_TOL}; "
                "post-state undefined"
            )
        return self.post_state


def kraus_pair(b: SharpObservable, lam: float) -> KrausPair:
    """Kraus operators ``alpha*I +- beta*B`` for unsharpness ``lam``."""
    lam = _check_lambda(lam)
    sp = math.sqrt((1.0 + lam) / 2.0)
    sm = math.sqrt((1.0 - lam) / 2.0)
    alpha = 0.5 * (sp + sm)
    beta = 0.5 * (sp - sm)
    k_plus = HermitianOp(alpha, tuple(beta * c for c in b.bloch))
    k_minus = HermitianOp(alpha, tuple(-beta * c for c in b.bloch))
    return KrausPair(k_plus, k_minus, alpha, beta)


def selective_outcome(
    rho: DensityOp, m: UnsharpBinaryMeasurement
) -> tuple[SelectiveBranch, SelectiveBranch]:
    """Born probabilities and renormalised post-states for both outcomes.

    ``prob = tr[E rho]`` and ``post = K rho K / prob``.  A branch whose
    probability falls below resolution carries no post-state; accessing it
    raises ZeroProbabilityBranch.
    """
    lam = m.lam
    axis = m.observable.bloch
    n = rho.bloch_vector
    n_dot_b = sum(a * b for a, b in zip(n, axis))
    root = math.sqrt(1.0 - lam * lam)
    shrink = _one_minus_sqrt1m(lam * lam)  # 1 - sqrt(1-lam^2)

    branches = []
    for sign in (+1, -1):
        prob = 0.5 * (1.0 + sign * lam * n_dot_b)
        if prob < ZERO_PROB_TOL:
            branches.append(SelectiveBranch(max(prob, 0.0), None))
            continue
        # K rho K in Bloch form: the +-lam kick along the axis, the
        # transversal shrink by sqrt(1-lam^2), and the axis-projected rest
        post_n = tuple(
            (sign * lam * a + root * c + n_dot_b * shrink * a) / (2.0 * prob)
            for a, c in zip(axis, n)
        )
        branches.append(SelectiveBranch(prob, DensityOp.from_bloch(post_n)))
    return branches[0], branches[1]


def _channel_bloch(v, step: SequentialChannelStep) -> tuple[float, float, float]:
    """Bloch part of the non-selective channel, which is self-dual:

        v -> (v.a1) a1 / 2 + [sqrt(1-lam^2) v + (v.a2)(1-sqrt(1-lam^2)) a2] / 2.
    """
    (a1x, a1y, a1z), (a2x, a2y, a2z) = step.b1.bloch, step.b2.bloch
    x, y, z = v
    lam2 = step.lam * step.lam
    root = math.sqrt(1.0 - lam2)
    shrink = _one_minus_sqrt1m(lam2)
    # Left to right from 0.0, as sum() adds, so the sign of a zero is kept.
    v_a1 = 0.0 + a1x * x + a1y * y + a1z * z
    v_a2s = (0.0 + a2x * x + a2y * y + a2z * z) * shrink
    return (
        0.5 * (v_a1 * a1x + root * x + v_a2s * a2x),
        0.5 * (v_a1 * a1y + root * y + v_a2s * a2y),
        0.5 * (v_a1 * a1z + root * z + v_a2s * a2z),
    )


def nonselective_step(rho: DensityOp, step: SequentialChannelStep) -> DensityOp:
    """Equal mixture of the sharp-``b1`` dephasing and unsharp-``b2`` channels.

    Trace-preserving and unital; see ``_channel_bloch`` for the Bloch map.
    """
    return DensityOp.from_bloch(_channel_bloch(rho.bloch_vector, step))


def transport_observable(b: SharpObservable, step: SequentialChannelStep) -> HermitianOp:
    """Image of an observable under the (self-dual) non-selective channel.

    Includes the anticommutator cross terms, which vanish exactly when the
    step axes are orthogonal; in that case ``b1`` is rescaled by
    ``(1 + sqrt(1-lam^2))/2`` and ``b2`` by ``1/2``.
    """
    return HermitianOp(b.trace_part, _channel_bloch(b.bloch, step))
