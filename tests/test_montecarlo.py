"""Stochastic simulation: convergence, determinism, RNG sharding."""

import math

import numpy as np
import pytest

from seqrac import (
    AxisError,
    DomainError,
    PreparationFamily,
    SequentialChannelStep,
    SharpObservable,
    SimulationConfig,
    UnsharpBinaryMeasurement,
    analytic_reference,
    run,
    selective_outcome,
    square_preparations,
)
from seqrac.montecarlo import RNG_ALGORITHM, SHARD_SIZE, _shard

X = SharpObservable.from_axis((1.0, 0.0, 0.0))
Z = SharpObservable.from_axis((0.0, 0.0, 1.0))


def two_receiver_config(shots=200_000, seed=42):
    prep = square_preparations(0.3, 1.0)
    steps = (
        SequentialChannelStep(X, Z, 0.5),
        SequentialChannelStep(X, Z, 0.8),
    )
    return SimulationConfig(prep, steps, shots, seed)


class TestConfigValidation:
    def test_requires_steps_and_shots(self):
        prep = square_preparations(0.3)
        with pytest.raises(DomainError):
            SimulationConfig(prep, (), 100, 1)
        with pytest.raises(DomainError):
            SimulationConfig(prep, (SequentialChannelStep(X, Z, 0.5),), 0, 1)

    def test_steps_must_share_axes(self):
        prep = square_preparations(0.3)
        steps = (SequentialChannelStep(X, Z, 0.5), SequentialChannelStep(Z, X, 0.5))
        with pytest.raises(AxisError):
            SimulationConfig(prep, steps, 100, 1)

    def test_axes_must_anticommute(self):
        prep = square_preparations(0.3)
        tilted = SharpObservable.from_axis((0.5, 0.0, math.sqrt(3) / 2))
        with pytest.raises(AxisError):
            SimulationConfig(prep, (SequentialChannelStep(X, tilted, 0.5),), 100, 1)

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_must_fit_philox_key(self, seed):
        prep = square_preparations(0.3)
        with pytest.raises(DomainError):
            SimulationConfig(prep, (SequentialChannelStep(X, Z, 0.5),), 100, seed)


def replay_shard(config, shard_index, m):
    """Scalar replay of ``_shard``: each shot walks the chain through
    ``selective_outcome``, reading the same Philox uniforms in the same
    columns (input, then bit choice and outcome per receiver)."""
    steps = config.steps
    rng = np.random.Generator(
        np.random.Philox(key=np.array([config.seed, shard_index], dtype=np.uint64))
    )
    u = rng.random((m, 1 + 2 * len(steps)))
    successes = np.zeros(len(steps), dtype=np.int64)
    post_sums = np.zeros((len(steps), 3))
    for row in u:
        x = min(int(row[0] * 4), 3)
        rho = config.prep.states[x]
        for k, step in enumerate(steps):
            unsharp = row[1 + 2 * k] >= 0.5
            meas = (
                UnsharpBinaryMeasurement(step.b2, step.lam)
                if unsharp
                else UnsharpBinaryMeasurement(step.b1, 1.0)
            )
            plus_branch, minus_branch = selective_outcome(rho, meas)
            plus = row[2 + 2 * k] < plus_branch.prob
            target = (x & 1) if unsharp else (x >> 1)
            successes[k] += plus == (target == 0)
            rho = (plus_branch if plus else minus_branch).post
            post_sums[k] += rho.bloch_vector
    return successes, post_sums


class TestScalarOracle:
    @pytest.mark.parametrize(
        "prep, b1, b2",
        [
            (square_preparations(0.4, 0.9), X, Z),
            # out-of-plane states and rotated axes exercise the full frame
            (
                PreparationFamily.from_bloch_vectors(
                    [(0.6, 0.3, 0.5), (0.5, -0.4, -0.6), (-0.7, 0.2, 0.4), (-0.3, -0.5, -0.6)]
                ),
                SharpObservable.from_axis((0.0, 1.0, 0.0)),
                SharpObservable.from_axis((1.0, 0.0, 1.0)),
            ),
        ],
    )
    def test_shard_matches_selective_outcome_replay(self, prep, b1, b2):
        steps = tuple(SequentialChannelStep(b1, b2, lam) for lam in (0.45, 0.7, 0.95))
        shots = 2000
        cfg = SimulationConfig(prep, steps, shots, 20260824)
        successes, post_sums = _shard(cfg, 3, shots)
        want_successes, want_sums = replay_shard(cfg, 3, shots)
        np.testing.assert_array_equal(successes, want_successes)
        np.testing.assert_allclose(post_sums, want_sums, rtol=0, atol=1e-12 * shots)


class TestConvergence:
    def test_empirical_matches_analytic_within_four_sigma(self):
        cfg = two_receiver_config()
        result = run(cfg)
        analytic, _ = analytic_reference(cfg)
        for stats, want in zip(result.per_receiver, analytic):
            assert abs(stats.empirical_success - want) < 4.0 * stats.standard_error
            assert stats.shots_counted == cfg.shots

    def test_mean_post_states_match_nonselective_channel(self):
        cfg = two_receiver_config()
        result = run(cfg)
        _, mean_states = analytic_reference(cfg)
        tol = 3.0 / math.sqrt(cfg.shots)
        for got, want in zip(result.mean_post_bloch, mean_states):
            dist = np.linalg.norm(np.array(got) - np.array(want))
            assert dist < tol

    def test_projective_receiver_statistics(self):
        # lam=1: receiver 1 decodes bit 1 sharply; success (3+cos w)/4 over
        # the random bit choice, since the sharp branch wins with (1+cos w)/2
        prep = square_preparations(0.5, 1.0)
        cfg = SimulationConfig(prep, (SequentialChannelStep(X, Z, 1.0),), 400_000, 7)
        result = run(cfg)
        analytic, _ = analytic_reference(cfg)
        want = 0.5 + 0.25 * (math.cos(0.5) + math.sin(0.5))
        assert analytic[0] == pytest.approx(want, abs=1e-14)
        assert abs(result.per_receiver[0].empirical_success - want) < 4.0 * result.per_receiver[0].standard_error


class TestDeterminism:
    def test_same_seed_same_result(self):
        cfg = two_receiver_config(shots=50_000)
        assert run(cfg) == run(cfg)

    def test_thread_count_does_not_change_result(self):
        cfg = two_receiver_config(shots=3 * SHARD_SIZE + 17)
        base = run(cfg, threads=1)
        assert run(cfg, threads=2) == base
        assert run(cfg, threads=8) == base

    def test_env_var_controls_default_threads(self, monkeypatch):
        cfg = two_receiver_config(shots=SHARD_SIZE + 5)
        monkeypatch.setenv("SEQRAC_THREADS", "4")
        assert run(cfg) == run(cfg, threads=1)

    @pytest.mark.parametrize("cpus, workers", [(8, 3), (2, 2)])
    def test_pool_bounded_by_shards_and_cpus(self, monkeypatch, cpus, workers):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr("seqrac.montecarlo.os.cpu_count", lambda: cpus)
        cfg = two_receiver_config(shots=2 * SHARD_SIZE + 1)
        assert run(cfg, threads=10_000) == run(cfg, threads=1)
        assert sizes == [workers]

    def test_different_seeds_differ(self):
        a = run(two_receiver_config(shots=50_000, seed=1))
        b = run(two_receiver_config(shots=50_000, seed=2))
        assert a.per_receiver != b.per_receiver

    def test_rng_algorithm_recorded(self):
        result = run(two_receiver_config(shots=1000))
        assert result.rng_algorithm == RNG_ALGORITHM


class TestSharding:
    def test_shard_counts_sum_to_run_totals(self):
        cfg = two_receiver_config(shots=2 * SHARD_SIZE + 123)
        result = run(cfg)
        sizes = [SHARD_SIZE, SHARD_SIZE, 123]
        successes = np.zeros(2, dtype=np.int64)
        for idx, m in enumerate(sizes):
            s, _ = _shard(cfg, idx, m)
            successes += s
        for k, stats in enumerate(result.per_receiver):
            assert stats.empirical_success == pytest.approx(
                successes[k] / cfg.shots, abs=1e-15
            )

    def test_shards_are_independent_streams(self):
        cfg = two_receiver_config(shots=SHARD_SIZE)
        s0, _ = _shard(cfg, 0, 1000)
        s1, _ = _shard(cfg, 1, 1000)
        assert not np.array_equal(s0, s1)
