"""Stochastic simulation of the sequential decoding protocol.

Every shot draws Alice's two bits and walks the matching state through the
chain of receivers: each picks which bit to decode, samples the outcome from
the Born rule and applies the selective collapse (projective on the sharp
axis, square-root Kraus on the unsharp one).  Shots are independent and what
a shot does next depends only on its input and state, so the kernel carries
nodes ``(x, state, count)`` and, at each receiver, splits every node's count
over its four branches with one multinomial draw.  Per-receiver success
counts and post-state sums then have exactly the joint distribution of
shot-by-shot sampling (the conditional-binomial construction of the
multinomial; L. Devroye, *Non-Uniform Random Variate Generation*, 1986).

Randomness comes from counter-based Philox streams keyed by
``(seed, shard_index)`` over shards of ``SHARD_SIZE`` shots.  Consecutive shards
run in lockstep groups that share one ``_split`` per receiver; their results are
added in shard order, as if run one by one, and memory stays flat for any shot count.
numpy is imported on first use, so importing this module stays cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .bloch import DensityOp
from .channel import SequentialChannelStep, _disturbance, nonselective_step
from .errors import AxisError, DomainError, check_count
from .rac import BITS, PreparationFamily
from .sequential import _check_axes, propagate

RNG_ALGORITHM = "philox4x64/shard65536/multinomial-split"
SHARD_SIZE = 1 << 16


@dataclass(frozen=True)
class SimulationConfig:
    prep: PreparationFamily
    steps: tuple[SequentialChannelStep, ...]
    shots: int
    seed: int

    def __post_init__(self):
        if not self.steps:
            raise DomainError("at least one receiver step is required")
        check_count(self.shots, "shots")
        if not 0 <= self.seed < 1 << 64:
            raise DomainError(f"seed {self.seed} outside [0, 2^64)")
        # The kernel works in the frame of steps[0]'s axes
        _check_axes(self.steps)
        if not self.steps[0].anticommuting:
            raise AxisError("step axes must anticommute (orthogonal Bloch axes)")


class ReceiverStats(NamedTuple):
    empirical_success: float
    standard_error: float


class SimulationResult(NamedTuple):
    """Per-receiver tallies plus the mean collapsed state after each receiver."""

    per_receiver: tuple[ReceiverStats, ...]
    mean_post_bloch: tuple[tuple[float, float, float], ...]


# _HITS[x][j] is 1 when branch j (sharp +-, unsharp +-; + reads 0) decodes x's bit
_HITS = tuple((1 - x1, x1, 1 - x2, x2) for x1, x2 in BITS)


def _split(states, lam: float):
    """Branch probabilities and child states of nodes at one receiver.

    ``states`` is (N, 3): coordinates ``(c1, c2, c3)`` in the frame of the
    step axes ``(a1, a2, a1 x a2)``.  The branches sharp +-, unsharp +- have
    probabilities ``(1 +- c1)/4`` and ``(1 +- lam*c2)/4`` (each axis is
    picked with probability 1/2).  A sharp outcome ``s`` collapses the state
    to ``(s, 0, 0)``, an unsharp one maps it to
    ``(r*c1, s*lam + c2, r*c3) / (1 + s*lam*c2)`` with ``r = sqrt(1-lam^2)``.
    Returns the (N, 4) probabilities, clamped at 0 and renormalised per row,
    and the (N, 4, 3) children; a branch of probability 0 (a pure state
    after a lam = 1 receiver, say) gets the child 0, not a division by zero.
    """
    import numpy as np

    root, _ = _disturbance(lam)
    c1, c2, c3 = states.T
    t = lam * c2
    weights = np.stack([1.0 + c1, 1.0 - c1, 1.0 + t, 1.0 - t], axis=1)  # 4 * P
    np.maximum(weights, 0.0, out=weights)
    probs = weights / weights.sum(axis=1, keepdims=True)
    children = np.zeros((len(states), 4, 3))
    children[:, 0, 0], children[:, 1, 0] = 1.0, -1.0
    for j, sign in ((2, 1.0), (3, -1.0)):
        den = weights[:, j, None]
        num = np.stack([root * c1, sign * lam + c2, root * c3], axis=1)
        np.divide(num, den, out=children[:, j], where=den > 0.0)
    return probs, children


def _kernel(config: SimulationConfig):
    """Per-op constants, and ``group(first, sizes)``: shards ``first, ...``
    of ``sizes[i]`` shots in lockstep, returning their (S, n) success counts
    and, per shard, the (n, 3) summed post-measurement Bloch vectors per
    receiver.  A shard's count is 0 at a node of the group it lacks, and a
    count of 0 draws nothing, so each shard draws what it would alone."""
    import numpy as np

    # Rows a1, a2, a1 x a2: orthonormal, since the axes anticommute
    a1, a2 = np.array(config.steps[0].b1.bloch), np.array(config.steps[0].b2.bloch)
    frame = np.array([a1, a2, np.cross(a1, a2)])
    prep = np.array([s.bloch_vector for s in config.prep.states]) @ frame.T
    hits, quads = np.array(_HITS), np.arange(4)[:, None]
    # Sharp children of one (x, sign) share a state: they merge into 8 nodes,
    # in the order 2*x + (sign == -1).  Nodes no shard holds are dropped.
    sharp_x = np.arange(8) >> 1
    sharp_states = np.tile([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], (4, 1))

    def group(first: int, sizes: list[int]):
        keys = (np.array([config.seed, first + i], dtype=np.uint64) for i in range(len(sizes)))
        rngs = [np.random.Generator(np.random.Philox(key=key)) for key in keys]
        counts = np.array([rng.multinomial(m, [0.25] * 4) for rng, m in zip(rngs, sizes)])
        x = np.flatnonzero(counts.any(axis=0))
        counts, states = counts[:, x], prep[x]
        successes = np.zeros((len(sizes), len(config.steps)), dtype=np.int64)
        post_sums = [np.zeros((len(config.steps), 3)) for _ in sizes]
        for k, step in enumerate(config.steps):
            probs, children = _split(states, step.lam)
            split = np.array([rng.multinomial(c, probs) for rng, c in zip(rngs, counts)])
            successes[:, k] = (split * hits[x]).sum(axis=(1, 2))
            sharp = ((x == quads) @ split[:, :, :2]).reshape(len(sizes), 8)
            x = np.concatenate([sharp_x, np.repeat(x, 2)])
            states = np.concatenate([sharp_states, children[:, 2:].reshape(-1, 3)])
            counts = np.concatenate([sharp, split[:, :, 2:].reshape(len(sizes), -1)], axis=1)
            keep = counts.any(axis=0)
            x, states, counts = x[keep], states[keep], counts[:, keep]
            # Shard by shard over its own nodes, to round as a lone shard does
            for c, post in zip(counts, post_sums):
                own = c > 0
                post[k] = c[own] @ states[own]
        return successes, [post @ frame for post in post_sums]

    return group


def run(config: SimulationConfig, threads: int = 1) -> SimulationResult:
    """Simulate the full protocol; deterministic given (seed, config).  Shards
    run in lockstep groups of max(1, SHARD_SIZE // (12*2^n - 8)) for n
    receivers, as a shard holds at most 12*2^n - 8 nodes (4 inputs, then 8
    sharp nodes and 2 unsharp children per node at each receiver); results
    are added in shard order.  ``threads`` has no effect; it is accepted, if
    >= 1, for callers that still pass it."""
    import numpy as np

    check_count(threads, "thread count")
    shots, n_rec = config.shots, len(config.steps)
    group, size = _kernel(config), max(1, SHARD_SIZE // ((12 << n_rec) - 8))
    n_shards = -(-shots // SHARD_SIZE)
    successes = np.zeros(n_rec, dtype=np.int64)
    post_sums = np.zeros((n_rec, 3))
    for first in range(0, n_shards, size):
        shards = range(first, min(first + size, n_shards))
        s, p = group(first, [min(SHARD_SIZE, shots - j * SHARD_SIZE) for j in shards])
        successes += s.sum(axis=0)
        for post in p:
            post_sums += post

    stats = []
    for k in range(n_rec):
        p_hat = successes[k] / shots
        se = math.sqrt(p_hat * (1.0 - p_hat) / shots)
        stats.append(ReceiverStats(float(p_hat), se))
    mean_post = tuple(tuple(float(c) for c in post_sums[k] / shots) for k in range(n_rec))
    return SimulationResult(tuple(stats), mean_post)


def analytic_reference(config: SimulationConfig):
    """Analytic per-receiver successes and mean non-selective states.

    The success list comes from the exact trace-norm pipeline; the state
    list is the input-averaged state pushed through the non-selective
    channel, matching what the simulation's outcome-averaged collapsed
    states should reproduce.  It needs each marginal difference of the
    family to point along its step observable, as ``propagate`` does, so it
    raises ``AlignmentError`` for a config that ``run`` accepts and
    simulates but that is not aligned (the CLI builds only aligned ones).
    """
    import numpy as np

    steps = list(config.steps)
    trace = propagate(config.prep, steps)
    successes = [e.success_probability for e in trace.entries[:-1]]
    avg = np.mean([s.bloch_vector for s in config.prep.states], axis=0)
    mean_states = []
    rho = DensityOp.from_bloch(tuple(avg))
    for step in steps:
        rho = nonselective_step(rho, step)
        mean_states.append(rho.bloch_vector)
    return successes, mean_states
