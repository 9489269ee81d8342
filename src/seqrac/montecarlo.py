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

Randomness comes from one counter-based Philox stream keyed by the seed.  It
splits the run's shots over the four inputs, then makes one ``multinomial``
call per receiver over every live node.  A node list longer than
``SHARD_SIZE`` is cut into blocks, walked depth first (a block's children pass
the next receiver before the next block starts), so memory stays bounded and
the stream is a function of (seed, config) alone.  Post-state sums are numpy
row sums, not BLAS products, so they do not depend on the CPU.  numpy is
imported on first use, so importing this module stays cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .bloch import DensityOp
from .channel import SequentialChannelStep, _disturbance, nonselective_step
from .errors import AxisError, DomainError, check_count, check_seed
from .rac import BITS, PreparationFamily, _check_family
from .sequential import _check_steps, propagate

RNG_ALGORITHM = "philox4x64/run-stream/multinomial-split"
SHARD_SIZE = 1 << 16  # the most nodes one multinomial call splits


@dataclass(frozen=True)
class SimulationConfig:
    prep: PreparationFamily
    steps: tuple[SequentialChannelStep, ...]
    shots: int
    seed: int

    def __post_init__(self):
        if check_count(self.shots, "shots") >= 1 << 63:  # multinomial takes an int64
            raise DomainError(f"shots {self.shots} above 2^63 - 1")
        check_seed(self.seed)
        _check_family(self.prep)
        # The kernel works in the frame of steps[0]'s axes
        _check_steps(self.steps)
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


def run(config: SimulationConfig, threads: int = 1) -> SimulationResult:
    """Simulate the full protocol; deterministic given (seed, config).

    Nodes entering receiver k number at most min(shots, 12*2^k - 8) (4
    inputs, then 8 merged sharp nodes and 2 unsharp children per node at each
    receiver), so up to 13 receivers one block holds them all.  ``threads``
    has no effect; it is accepted, if >= 1, for callers that still pass it."""
    import numpy as np

    check_count(threads, "thread count")
    shots, steps = config.shots, config.steps
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    # Rows a1, a2, a1 x a2: orthonormal, since the axes anticommute
    a1, a2 = np.array(steps[0].b1.bloch), np.array(steps[0].b2.bloch)
    frame = np.array([a1, a2, np.cross(a1, a2)])
    prep = (np.array([s.bloch_vector for s in config.prep.states])[:, None] * frame).sum(axis=2)
    hits, quads = np.array(_HITS), np.arange(4)[:, None]
    # Sharp children of one (x, sign) share a state: they merge into 8 nodes,
    # in the order 2*x + (sign == -1)
    sharp_x = np.arange(8) >> 1
    sharp_states = np.tile([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], (4, 1))
    successes = np.zeros(len(steps), dtype=np.int64)
    post_sums = np.zeros((len(steps), 3))

    counts = rng.multinomial(shots, [0.25] * 4)
    x = np.flatnonzero(counts)
    todo = [(0, x, prep[x], counts[x])]  # (receiver, x, states, counts), last in first out
    while todo:
        k, x, states, counts = todo.pop()
        if len(x) > SHARD_SIZE:  # cut into blocks, pushed so the first pops first
            for i in reversed(range(0, len(x), SHARD_SIZE)):
                block = slice(i, i + SHARD_SIZE)
                todo.append((k, x[block], states[block], counts[block]))
            continue
        probs, children = _split(states, steps[k].lam)
        split = rng.multinomial(counts, probs)
        successes[k] += (split * hits[x]).sum()
        # An integer product: exact, and no BLAS
        counts = np.concatenate([((x == quads) @ split[:, :2]).ravel(), split[:, 2:].ravel()])
        x = np.concatenate([sharp_x, np.repeat(x, 2)])
        states = np.concatenate([sharp_states, children[:, 2:].reshape(-1, 3)])
        keep = counts > 0
        x, states, counts = x[keep], states[keep], counts[keep]
        # Row sums here and in both frame changes: a float @ goes to BLAS,
        # whose summation order depends on the CPU
        post_sums[k] += (states.T * counts).sum(axis=1)
        if k + 1 < len(steps):
            todo.append((k + 1, x, states, counts))

    stats = []
    for k in range(len(steps)):
        p_hat = successes[k] / shots
        se = math.sqrt(p_hat * (1.0 - p_hat) / shots)
        stats.append(ReceiverStats(float(p_hat), se))
    mean_post = (post_sums[:, :, None] * frame).sum(axis=1) / shots
    return SimulationResult(tuple(stats), tuple(tuple(float(c) for c in v) for v in mean_post))


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
