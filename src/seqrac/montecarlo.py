"""Shot-by-shot stochastic simulation of the sequential decoding protocol.

Every shot draws Alice's two bits, prepares the matching state, and walks it
through the chain of receivers: each draws which bit to decode, samples the
outcome from the Born rule, applies the corresponding selective collapse
(projective on the sharp axis, square-root Kraus on the unsharp one), and
hands the state on.  Per-receiver empirical success rates converge to the
analytic values and, after averaging over outcomes, the collapsed states
reproduce the non-selective channel.

Randomness comes from counter-based Philox streams keyed by
``(seed, shard_index)`` with a fixed shard size, one 64-bit word per input
and per receiver decision, so results are bit-identical no matter how shards
are scheduled across threads.  numpy and the thread pool are imported on
first use, so importing this module stays cheap.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .bloch import DensityOp
from .channel import SequentialChannelStep, _disturbance, nonselective_step
from .errors import AxisError, DomainError
from .rac import PreparationFamily
from .sequential import _check_axes, propagate

RNG_ALGORITHM = "philox4x64/shard65536/word-per-receiver"
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


@dataclass(frozen=True)
class SimulationResult:
    """Per-receiver tallies plus the mean collapsed state after each receiver."""

    per_receiver: tuple[ReceiverStats, ...]
    mean_post_bloch: tuple[tuple[float, float, float], ...]


def _shard(config: SimulationConfig, shard_index: int, m: int):
    """Simulate ``m`` shots of one shard; returns success counts and
    per-receiver summed post-measurement Bloch vectors.

    The shard draws one 64-bit Philox word per decision, receiver-major:
    row 0 holds each shot's input ``x = word >> 62``, and in row ``1 + k``
    bit 0 picks receiver k's branch (1 = unsharp) while ``word >> 11`` is
    the 53-bit Born uniform, the value ``Generator.random`` makes from the
    same word.  The outcome is ``+`` iff ``(word >> 11) < (1 + t) * 2^52``,
    which is exactly ``u < (1 + t)/2``.

    Each shot's state is held as coordinates ``(c1, c2, c3)`` in the frame of
    the step axes.  A sharp outcome ``s`` on ``a1`` collapses the state to
    ``(s, 0, 0)``; an unsharp outcome ``s`` on ``a2`` maps it to
    ``(r*c1, s*lam + c2, r*c3) / (1 + s*lam*c2)`` with ``r = sqrt(1-lam^2)``.
    The two branches are blended with a 0/1 weight ``w`` rather than
    ``np.where``, which is slow on random masks; a product with a zero weight
    is an exact zero, so the blend selects exactly.  ``1 + s*t > 0`` always:
    ``+`` is drawn only when ``(1+t)/2 > u >= 0`` and ``-`` only when
    ``(1+t)/2 <= u < 1``.
    """
    import numpy as np

    steps = config.steps
    n_rec = len(steps)
    rng = np.random.Generator(
        np.random.Philox(key=np.array([config.seed, shard_index], dtype=np.uint64))
    )
    # The same words as Philox.random_raw, drawn faster
    words = rng.integers(0, 2**64 - 1, size=(1 + n_rec, m), dtype=np.uint64, endpoint=True)

    # Rows a1, a2, a1 x a2: orthonormal, since the axes anticommute
    a1 = np.array(steps[0].b1.bloch)
    a2 = np.array(steps[0].b2.bloch)
    frame = np.array([a1, a2, np.cross(a1, a2)])
    prep = np.array([s.bloch_vector for s in config.prep.states]) @ frame.T
    # Row 0 becomes the input x in place; bit1, bit2 = x >> 1, x & 1
    x = np.right_shift(words[0], np.uint64(62), out=words[0]).view(np.int64)
    # Two blocks rather than a dozen arrays: the allocator then hands back
    # the same pages shard after shard instead of faulting in fresh ones
    c1, c2, c3, w, t, sign, tmp = np.empty((7, m))
    bit1, flip, unsharp, plus, hit = np.empty((5, m), dtype=bool)
    np.greater_equal(x, 2, out=bit1)
    np.bitwise_and(x, 1, out=flip, casting="unsafe")
    flip ^= bit1  # bit1 ^ bit2
    for dst, col in zip((c1, c2, c3), prep.T):
        col.take(x, out=dst, mode="clip")  # x < 4; "raise" would buffer
    # States in the a1-a2 plane stay there; skip c3 for them
    planar = not c3.any()

    successes = np.zeros(n_rec, dtype=np.int64)
    post_sums = np.zeros((n_rec, 3))
    for k, step in enumerate(steps):
        lam = step.lam
        root, _ = _disturbance(lam)
        row = words[1 + k]
        np.bitwise_and(row, np.uint64(1), out=w, casting="unsafe")
        np.not_equal(w, 0.0, out=unsharp)
        # Born rule: P(+) = (1 + t)/2 with t = c1 (sharp) or lam*c2 (unsharp)
        np.multiply(c2, lam, out=t)
        t -= c1
        t *= w
        t += c1
        np.right_shift(row, np.uint64(11), out=row)
        np.add(t, 1.0, out=tmp)
        tmp *= 2.0**52
        np.less(row, tmp, out=plus)
        # The decoded bit is bit2 on the unsharp branch, else bit1; a shot
        # succeeds when it reads + for bit 0 and - for bit 1
        np.bitwise_and(unsharp, flip, out=hit)
        hit ^= bit1
        hit ^= plus
        successes[k] = np.count_nonzero(hit)

        np.multiply(plus, 2.0, out=sign)
        sign -= 1.0
        inv = t  # t is not needed past this point
        inv *= sign
        inv += 1.0
        np.divide(1.0, inv, out=inv)
        # c1 = sign + w*(root*c1*inv - sign)
        c1 *= inv
        c1 *= root
        c1 -= sign
        c1 *= w
        c1 += sign
        # c2 = w*(sign*lam + c2)*inv
        np.multiply(sign, lam, out=tmp)
        c2 += tmp
        c2 *= inv
        c2 *= w
        if not planar:
            c3 *= inv
            c3 *= root
            c3 *= w
        post_sums[k] = c1.sum(), c2.sum(), c3.sum()

    return successes, post_sums @ frame


def _in_order(fn, count: int, workers: int):
    """Yield ``fn(0), ..., fn(count - 1)`` in order.

    With more than one worker, a thread pool computes up to ``2 * workers``
    calls ahead of the consumer, so at most that many results are held at
    once however large ``count`` is.
    """
    if workers == 1:
        yield from map(fn, range(count))
        return
    from collections import deque
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead = min(2 * workers, count)
        window = deque(pool.submit(fn, j) for j in range(ahead))
        for j in range(count):
            result = window.popleft().result()
            if j + ahead < count:
                window.append(pool.submit(fn, j + ahead))
            yield result


def run(config: SimulationConfig, threads: int = 1) -> SimulationResult:
    """Simulate the full protocol; deterministic given (seed, config).

    ``threads`` caps shard parallelism; the pool never has more workers than
    shards or CPUs.  The shard decomposition is fixed, so the thread count
    never changes the result.
    """
    import numpy as np  # before the pool starts, so no worker races the first import

    if threads < 1:
        raise DomainError(f"thread count {threads} must be >= 1")
    shots = config.shots
    n_rec = len(config.steps)
    n_shards = -(-shots // SHARD_SIZE)

    def shard(j):
        return _shard(config, j, min(SHARD_SIZE, shots - j * SHARD_SIZE))

    workers = min(threads, n_shards, os.cpu_count() or 1)
    successes = np.zeros(n_rec, dtype=np.int64)
    post_sums = np.zeros((n_rec, 3))
    for s, p in _in_order(shard, n_shards, workers):  # fixed order, any scheduling
        successes += s
        post_sums += p

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
    states should reproduce.
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
