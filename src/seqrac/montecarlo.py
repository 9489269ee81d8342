"""Shot-by-shot stochastic simulation of the sequential decoding protocol.

Every shot draws Alice's two bits, prepares the matching state, and walks it
through the chain of receivers: each draws which bit to decode, samples the
outcome from the Born rule, applies the corresponding selective collapse
(projective on the sharp axis, square-root Kraus on the unsharp one), and
hands the state on.  Per-receiver empirical success rates converge to the
analytic values and, after averaging over outcomes, the collapsed states
reproduce the non-selective channel.

Randomness comes from counter-based Philox streams keyed by
``(seed, shard_index)`` with a fixed shard size, so results are bit-identical
no matter how shards are scheduled across threads.  numpy and the thread
pool are imported on first use, so importing this module stays cheap.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .bloch import DensityOp
from .channel import SequentialChannelStep, nonselective_step
from .errors import AxisError, DomainError
from .rac import PreparationFamily
from .sequential import _check_axes, per_bob_success, propagate

RNG_ALGORITHM = "philox4x64/shard65536"
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
        if self.shots < 1:
            raise DomainError("shots must be >= 1")
        if not 0 <= self.seed < 1 << 64:
            raise DomainError(f"seed {self.seed} outside [0, 2^64)")
        # The kernel works in the frame of steps[0]'s axes
        _check_axes(self.steps)
        if not self.steps[0].anticommuting:
            raise AxisError("step axes must anticommute (orthogonal Bloch axes)")


@dataclass(frozen=True)
class ReceiverStats:
    empirical_success: float
    standard_error: float
    shots_counted: int


@dataclass(frozen=True)
class SimulationResult:
    """Per-receiver tallies plus the mean collapsed state after each receiver."""

    per_receiver: tuple[ReceiverStats, ...]
    mean_post_bloch: tuple[tuple[float, float, float], ...]
    seed: int
    rng_algorithm: str = RNG_ALGORITHM


def _shard(config: SimulationConfig, shard_index: int, m: int):
    """Simulate ``m`` shots of one shard; returns success counts and
    per-receiver summed post-measurement Bloch vectors.

    Each shot's state is held as coordinates ``(c1, c2, c3)`` in the frame of
    the step axes.  A sharp outcome ``s`` on ``a1`` collapses the state to
    ``(s, 0, 0)``; an unsharp outcome ``s`` on ``a2`` maps it to
    ``(r*c1, s*lam + c2, r*c3) / (1 + s*lam*c2)`` with ``r = sqrt(1-lam^2)``.
    The two branches are blended with 0/1 weights rather than ``np.where``,
    which is slow on random masks; a product with a zero weight is an exact
    zero, so the blend selects exactly.
    """
    import numpy as np

    steps = config.steps
    n_rec = len(steps)
    rng = np.random.Generator(
        np.random.Philox(key=np.array([config.seed, shard_index], dtype=np.uint64))
    )
    u = rng.random((m, 1 + 2 * n_rec))

    # Rows a1, a2, a1 x a2: orthonormal, since the axes anticommute
    a1 = np.array(steps[0].b1.bloch)
    a2 = np.array(steps[0].b2.bloch)
    frame = np.array([a1, a2, np.cross(a1, a2)])
    prep = np.array([s.bloch_vector for s in config.prep.states]) @ frame.T
    x = np.minimum((u[:, 0] * 4).astype(np.intp), 3)
    bit1_zero = x < 2
    bit2_zero = (x & 1) == 0
    c1, c2, c3 = (col.take(x) for col in prep.T)
    # States in the a1-a2 plane stay there; skip c3 for them
    planar = not c3.any()

    successes = np.zeros(n_rec, dtype=np.int64)
    post_sums = np.zeros((n_rec, 3))
    for k, step in enumerate(steps):
        lam = step.lam
        root = math.sqrt(1.0 - lam * lam)
        unsharp = u[:, 1 + 2 * k] >= 0.5
        w = unsharp.astype(np.float64)
        v = 1.0 - w
        # Born rule: P(+) = (1 + t)/2 with t = c1 (sharp) or lam*c2 (unsharp)
        t = w * (lam * c2) + v * c1
        plus = u[:, 2 + 2 * k] < 0.5 * (1.0 + t)
        want_plus = (unsharp & bit2_zero) | (~unsharp & bit1_zero)
        successes[k] = m - np.count_nonzero(plus ^ want_plus)

        sign = plus * 2.0 - 1.0
        inv = 1.0 / (1.0 + sign * t)  # > 0: the drawn branch has P > 0
        scale = root * inv
        c1 = w * (c1 * scale) + v * sign
        c2 = w * ((sign * lam + c2) * inv)
        if not planar:
            c3 = w * (c3 * scale)
        post_sums[k] = c1.sum(), c2.sum(), c3.sum()

    return successes, post_sums @ frame


def run(config: SimulationConfig, threads: int | None = None) -> SimulationResult:
    """Simulate the full protocol; deterministic given (seed, config).

    ``threads`` caps shard parallelism (default: SEQRAC_THREADS env var, or
    1); the pool never has more workers than shards or CPUs.  The shard
    decomposition is fixed, so the thread count never changes the result.
    """
    import numpy as np  # before the pool starts, so no worker races the first import

    if threads is None:
        text = os.environ.get("SEQRAC_THREADS", "1")
        try:
            threads = int(text)
        except ValueError as exc:
            raise DomainError(f"SEQRAC_THREADS={text!r} is not an integer") from exc
    if threads < 1:
        raise DomainError(f"thread count {threads} must be >= 1")
    shots = config.shots
    n_rec = len(config.steps)
    shard_sizes = [
        min(SHARD_SIZE, shots - i) for i in range(0, shots, SHARD_SIZE)
    ]
    jobs = list(enumerate(shard_sizes))
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda j: _shard(config, j[0], j[1]), jobs))
    else:
        parts = [_shard(config, idx, m) for idx, m in jobs]

    successes = np.zeros(n_rec, dtype=np.int64)
    post_sums = np.zeros((n_rec, 3))
    for s, p in parts:  # shard order fixed regardless of scheduling
        successes += s
        post_sums += p

    stats = []
    for k in range(n_rec):
        p_hat = successes[k] / shots
        se = math.sqrt(p_hat * (1.0 - p_hat) / shots)
        stats.append(ReceiverStats(float(p_hat), se, shots))
    mean_post = tuple(tuple(float(c) for c in post_sums[k] / shots) for k in range(n_rec))
    return SimulationResult(tuple(stats), mean_post, config.seed)


def analytic_reference(config: SimulationConfig):
    """Analytic per-receiver successes and mean non-selective states.

    The success list comes from the exact trace-norm pipeline; the state
    list is the input-averaged state pushed through the non-selective
    channel, matching what the simulation's outcome-averaged collapsed
    states should reproduce.
    """
    import numpy as np

    steps = list(config.steps)
    trace = propagate(config.prep, steps)
    successes = [
        per_bob_success(trace.entries[k].exact, steps[k].lam)
        for k in range(len(steps))
    ]
    avg = np.mean([s.bloch_vector for s in config.prep.states], axis=0)
    mean_states = []
    rho = DensityOp.from_bloch(tuple(avg))
    for step in steps:
        rho = nonselective_step(rho, step)
        mean_states.append(rho.bloch_vector)
    return successes, mean_states
