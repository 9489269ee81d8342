"""Stochastic simulation: convergence, determinism, RNG sharding."""

import json
import math
import weakref

import numpy as np
import pytest

from seqrac import (
    AlignmentError,
    AxisError,
    DensityOp,
    DomainError,
    PreparationFamily,
    SequentialChannelStep,
    SharpObservable,
    SimulationConfig,
    UnsharpBinaryMeasurement,
    analytic_reference,
    nonselective_step,
    run,
    selective_outcome,
    square_preparations,
)
from seqrac import montecarlo
from seqrac.cli import main
from seqrac.montecarlo import (
    _HITS,
    RNG_ALGORITHM,
    SHARD_SIZE,
    ReceiverStats,
    SimulationResult,
    _kernel,
    _split,
)

X = SharpObservable.from_axis((1.0, 0.0, 0.0))
Z = SharpObservable.from_axis((0.0, 0.0, 1.0))
OUT_OF_PLANE = PreparationFamily.from_bloch_vectors(
    [(0.6, 0.3, 0.5), (0.5, -0.4, -0.6), (-0.7, 0.2, 0.4), (-0.3, -0.5, -0.6)]
)
# pure states on the measured axes: some branches have P = 0
ON_AXIS = PreparationFamily.from_bloch_vectors(
    [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (-1.0, 0.0, 0.0)]
)


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

    def test_shot_and_thread_counts_are_integers(self):
        # 2.5 shots ended in a TypeError inside run, and threads=1.5 was accepted
        step = (SequentialChannelStep(X, Z, 0.5),)
        with pytest.raises(DomainError, match="^shots 2.5 is not an integer >= 1$"):
            SimulationConfig(square_preparations(0.3), step, 2.5, 1)
        config = SimulationConfig(square_preparations(0.3), step, np.int64(100), 1)
        with pytest.raises(DomainError, match="^thread count 1.5 is not an integer >= 1$"):
            run(config, threads=1.5)
        assert run(config) == run(SimulationConfig(square_preparations(0.3), step, 100, 1))

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


def frame_of(step):
    """Rows a1, a2, a1 x a2 of the step axes: the kernel's coordinates."""
    a1, a2 = np.array(step.b1.bloch), np.array(step.b2.bloch)
    return np.array([a1, a2, np.cross(a1, a2)])


def expected_split(config):
    """``_shard`` with every multinomial replaced by its mean, and no merging.

    Each node ``(x, state, weight)`` starts at weight 1/4 per input; at each
    receiver every ``_split`` branch is checked against ``selective_outcome``
    and becomes a child weighted by its probability.  Returns the expected
    success and mean post-state (lab frame) of each receiver.
    """
    frame = frame_of(config.steps[0])
    nodes = [(x, frame @ s.bloch_vector, 0.25) for x, s in enumerate(config.prep.states)]
    successes, mean_states = [], []
    for step in config.steps:
        probs, children = _split(np.array([state for _, state, _ in nodes]), step.lam)
        branches = [
            (UnsharpBinaryMeasurement(step.b1, 1.0), 0),  # sharp +, -: decodes x >> 1
            (UnsharpBinaryMeasurement(step.b1, 1.0), 1),
            (UnsharpBinaryMeasurement(step.b2, step.lam), 0),  # unsharp +, -: x & 1
            (UnsharpBinaryMeasurement(step.b2, step.lam), 1),
        ]
        success, mean, grown = 0.0, np.zeros(3), []
        for (x, state, weight), p, kids in zip(nodes, probs, children):
            rho = DensityOp.from_bloch(tuple(state @ frame))
            for j, (meas, minus) in enumerate(branches):
                want = selective_outcome(rho, meas)[minus]
                assert p[j] == pytest.approx(want.prob / 2, abs=1e-12)
                if want.post_state is None:  # the other sharp outcome after a sharp one
                    continue
                got = kids[j] @ frame
                np.testing.assert_allclose(got, want.post.bloch_vector, rtol=0, atol=1e-12)
                bit = x >> 1 if j < 2 else x & 1
                success += weight * p[j] * (bit == minus)
                mean += weight * p[j] * kids[j]
                grown.append((x, kids[j], weight * p[j]))
        successes.append(success)
        mean_states.append(mean @ frame)
        nodes = grown
    return successes, mean_states


def channel_reference(config):
    """Per-receiver success and mean state from each input's state pushed
    through the non-selective channel.  Unlike ``analytic_reference``, this
    needs no alignment of the family with the step axes."""
    rhos = list(config.prep.states)
    successes, mean_states = [], []
    for step in config.steps:
        success = 0.0
        for x, rho in enumerate(rhos):
            # sharp reads bit x >> 1, unsharp bit x & 1; + reads 0
            n = np.array(rho.bloch_vector)
            sharp = (1 - 2 * (x >> 1)) * (n @ step.b1.bloch)
            unsharp = (1 - 2 * (x & 1)) * step.lam * (n @ step.b2.bloch)
            success += (2.0 + sharp + unsharp) / 16
        rhos = [nonselective_step(rho, step) for rho in rhos]
        successes.append(success)
        mean_states.append(np.mean([rho.bloch_vector for rho in rhos], axis=0))
    return successes, mean_states


def reference_shard(config, shard_index, m):
    """One shard run alone, one node array at a time: the kernel that the
    lockstep groups replaced.  Success counts and summed post-measurement
    Bloch vectors, per receiver, of ``m`` shots."""
    rng = np.random.Generator(
        np.random.Philox(key=np.array([config.seed, shard_index], dtype=np.uint64))
    )
    frame = frame_of(config.steps[0])
    prep = np.array([s.bloch_vector for s in config.prep.states]) @ frame.T
    hits = np.array(_HITS)
    sharp_x = np.arange(8) >> 1
    sharp_states = np.tile([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], (4, 1))

    counts = rng.multinomial(m, [0.25] * 4)
    x = np.flatnonzero(counts)
    counts, states = counts[x], prep[x]
    successes = np.zeros(len(config.steps), dtype=np.int64)
    post_sums = np.zeros((len(config.steps), 3))
    for k, step in enumerate(config.steps):
        probs, children = _split(states, step.lam)
        split = rng.multinomial(counts, probs)
        successes[k] = (split * hits[x]).sum()
        sharp = np.bincount((2 * x[:, None] + (0, 1)).ravel(), split[:, :2].ravel(), 8)
        x = np.concatenate([sharp_x, np.repeat(x, 2)])
        states = np.concatenate([sharp_states, children[:, 2:].reshape(-1, 3)])
        counts = np.concatenate([sharp.astype(np.int64), split[:, 2:].ravel()])
        keep = counts > 0
        x, states, counts = x[keep], states[keep], counts[keep]
        post_sums[k] = counts @ states
    return successes, post_sums @ frame


def reference_run(config):
    """``run`` with every shard run alone by ``reference_shard`` and added
    to the totals in shard order."""
    shots, n_rec = config.shots, len(config.steps)
    successes = np.zeros(n_rec, dtype=np.int64)
    post_sums = np.zeros((n_rec, 3))
    for j in range(-(-shots // SHARD_SIZE)):
        s, p = reference_shard(config, j, min(SHARD_SIZE, shots - j * SHARD_SIZE))
        successes += s
        post_sums += p
    p_hat = successes / shots
    stats = tuple(ReceiverStats(float(p), math.sqrt(p * (1.0 - p) / shots)) for p in p_hat)
    return SimulationResult(stats, tuple(tuple(float(c) for c in v / shots) for v in post_sums))


def one_shard(config, shard_index, m):
    """The lockstep group function run on a group of one shard."""
    successes, post_sums = _kernel(config)(shard_index, [m])
    return successes[0], post_sums[0]


def group_size(n):
    """Shards per lockstep group at n receivers: a shard holds at most
    12 * 2^n - 8 nodes, and a group's count matrix at most SHARD_SIZE."""
    return max(1, SHARD_SIZE // (12 * 2**n - 8))


class TestLockstep:
    @pytest.mark.parametrize("shots", [17, SHARD_SIZE, 3 * SHARD_SIZE + 17])
    @pytest.mark.parametrize("n", [1, 2, 8, 11, 12, 13])
    def test_run_equals_shard_by_shard_reference(self, n, shots):
        # Groups of 4096, 1638, 21 and 2 shards, then one shard per group
        # from n = 12 on; 3 * SHARD_SIZE + 17 ends in a tail shard
        steps = tuple(SequentialChannelStep(X, Z, (k + 0.5) / n) for k in range(n))
        cfg = SimulationConfig(square_preparations(0.4, 0.9), steps, shots, 1000 * n + 7)
        with np.errstate(all="raise"):
            assert run(cfg) == reference_run(cfg)

    @pytest.mark.parametrize("lam", [1.0, 1e-12])
    @pytest.mark.parametrize(
        "prep",
        [square_preparations(0.4, 1.0), ON_AXIS, OUT_OF_PLANE],
        ids=["pure", "on-axis", "out-of-plane"],
    )
    @pytest.mark.parametrize("n", [1, 2, 8, 11, 12, 13])
    def test_edge_families_equal_reference(self, n, prep, lam):
        steps = tuple(SequentialChannelStep(X, Z, lam) for _ in range(n))
        cfg = SimulationConfig(prep, steps, 3 * SHARD_SIZE + 17, 29 + n)
        with np.errstate(all="raise"):
            assert run(cfg) == reference_run(cfg)

    @pytest.mark.parametrize("n", [1, 2, 8, 11, 12])
    def test_group_count_matrix_is_bounded(self, monkeypatch, n):
        # Spy on each group's size and on the union's node count at each
        # receiver: nodes entering receiver k number at most 12 * 2^k - 8, and
        # a group's count matrix (shards x nodes, before and after dropping
        # empty nodes) holds at most SHARD_SIZE entries
        seen, kernel, split = [], montecarlo._kernel, montecarlo._split

        def spy_kernel(config):
            group = kernel(config)

            def spy_group(first, sizes):
                seen.append((first, len(sizes), []))
                return group(first, sizes)

            return spy_group

        def spy_split(states, lam):
            seen[-1][2].append(len(states))
            return split(states, lam)

        monkeypatch.setattr(montecarlo, "_kernel", spy_kernel)
        monkeypatch.setattr(montecarlo, "_split", spy_split)
        steps = tuple(SequentialChannelStep(X, Z, (k + 0.5) / n) for k in range(n))
        run(SimulationConfig(square_preparations(0.4, 0.9), steps, 3 * SHARD_SIZE + 17, n))
        size = group_size(n)
        assert [(first, s) for first, s, _ in seen] == [(j, min(size, 4 - j)) for j in range(0, 4, size)]
        for _, s, nodes in seen:
            assert len(nodes) == n
            for k, nodes_in in enumerate(nodes):
                assert nodes_in <= (12 << k) - 8
                assert s * nodes_in <= SHARD_SIZE
                if s > 1:  # the matrix before empty nodes are dropped
                    assert s * (8 + 2 * nodes_in) <= SHARD_SIZE

    def test_group_sizes_straddle_the_rule(self):
        # The oracle tables above cover each size, and one shard per group
        assert [group_size(n) for n in (1, 2, 8, 11, 12, 13)] == [4096, 1638, 21, 2, 1, 1]


class TestNodeMapOracle:
    @pytest.mark.parametrize(
        "prep, b1, b2, reference",
        [
            (square_preparations(0.4, 0.9), X, Z, analytic_reference),
            # out-of-plane states and rotated axes exercise the full frame;
            # the family is not aligned with the axes, which propagate needs
            (
                OUT_OF_PLANE,
                SharpObservable.from_axis((0.0, 1.0, 0.0)),
                SharpObservable.from_axis((1.0, 0.0, 1.0)),
                channel_reference,
            ),
        ],
        ids=["square", "out-of-plane"],
    )
    def test_mean_split_matches_selective_outcome(self, prep, b1, b2, reference):
        steps = tuple(SequentialChannelStep(b1, b2, lam) for lam in (0.45, 0.7, 0.95))
        cfg = SimulationConfig(prep, steps, 2000, 20260824)
        successes, mean_states = expected_split(cfg)
        want_successes, want_states = reference(cfg)
        np.testing.assert_allclose(successes, want_successes, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mean_states, want_states, rtol=0, atol=1e-12)

    def test_analytic_reference_needs_an_aligned_family(self):
        # run simulates the out-of-plane family, but propagate cannot follow it
        steps = tuple(SequentialChannelStep(X, Z, lam) for lam in (0.3, 0.9))
        cfg = SimulationConfig(OUT_OF_PLANE, steps, 1000, 3)
        assert len(run(cfg).per_receiver) == 2
        with pytest.raises(AlignmentError):
            analytic_reference(cfg)

    def test_channel_reference_matches_analytic_reference(self):
        cfg = two_receiver_config()
        for got, want in zip(channel_reference(cfg), analytic_reference(cfg)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_hits_decode_each_input_bit(self):
        # branches sharp +, sharp -, unsharp +, unsharp -; a + outcome reads 0
        assert _HITS == ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))

    def test_empty_branches_are_clamped_and_finite(self):
        # A pure state on the unsharp axis at lam = 1: the "-" branch is
        # empty.  A state a rounding past the sharp pole: 1 - c1 < 0 is
        # clamped, and the row still sums to 1.
        states = np.array([[0.0, 1.0, 0.0], [1.0 + 2.0**-52, 0.0, 0.0]])
        with np.errstate(all="raise"):
            probs, children = _split(states, 1.0)
        assert probs[0].tolist() == [0.25, 0.25, 0.5, 0.0]
        assert children[0, 2].tolist() == [0.0, 1.0, 0.0]
        assert children[0, 3].tolist() == [0.0, 0.0, 0.0]
        assert probs[1, 1] == 0.0 and probs[1].sum() == pytest.approx(1.0, abs=1e-15)


class TestConvergence:
    def test_empirical_matches_analytic_within_four_sigma(self):
        cfg = two_receiver_config()
        result = run(cfg)
        analytic, _ = analytic_reference(cfg)
        for stats, want in zip(result.per_receiver, analytic):
            assert abs(stats.empirical_success - want) < 4.0 * stats.standard_error

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


    def test_z_scores_over_fixed_seeds_are_standard(self):
        # Seeds 0-999: each receiver's z-score against the analytic success
        # has mean 0 and standard deviation 1 (4.7 and 5.4 standard errors of
        # slack), which a biased split or a wrong variance would miss
        steps = tuple(SequentialChannelStep(X, Z, lam) for lam in (0.3, 0.5, 0.7, 0.9))
        prep, shots = square_preparations(0.4, 0.9), 20_000
        want, _ = analytic_reference(SimulationConfig(prep, steps, shots, 0))
        want = np.array(want)
        results = [run(SimulationConfig(prep, steps, shots, seed)) for seed in range(1000)]
        got = np.array([[r.empirical_success for r in res.per_receiver] for res in results])
        z = (got - want) / np.sqrt(want * (1 - want) / shots)
        assert (np.abs(z.mean(axis=0)) <= 0.15).all(), z.mean(axis=0)
        assert ((0.88 <= z.std(axis=0)) & (z.std(axis=0) <= 1.12)).all(), z.std(axis=0)


class TestDeterminism:
    def test_same_seed_same_result(self):
        cfg = two_receiver_config(shots=50_000)
        assert run(cfg) == run(cfg)

    def test_thread_count_does_not_change_result(self):
        # Both end in a tail shard; the out-of-plane states carry a nonzero c3
        out_of_plane = SimulationConfig(
            OUT_OF_PLANE,
            tuple(SequentialChannelStep(X, Z, lam) for lam in (0.3, 0.9)),
            2 * SHARD_SIZE + 17,
            11,
        )
        for cfg in (two_receiver_config(shots=3 * SHARD_SIZE + 17), out_of_plane):
            base = run(cfg, threads=1)
            assert run(cfg, threads=2) == base
            assert run(cfg, threads=8) == base

    def test_shard_schedule_is_lazy_and_bounded(self, monkeypatch):
        # A stub group function over ~10^4 shards at n = 2: groups run one at
        # a time in index order, their sizes follow from the index, and when
        # a group starts at most one earlier group's results (the one just
        # folded) are alive
        n_shards, tail, size = 10_000, 123, group_size(2)
        calls, live, peak = [], [0], [0]

        def stub_kernel(config):
            def group(first, sizes):
                peak[0] = max(peak[0], live[0])
                calls.append((first, sizes))
                successes = np.array([[m, m] for m in sizes], dtype=np.int64)
                live[0] += 1
                weakref.finalize(successes, lambda: live.__setitem__(0, live[0] - 1))
                return successes, [np.zeros((2, 3)) for _ in sizes]

            return group

        monkeypatch.setattr("seqrac.montecarlo._kernel", stub_kernel)
        result = run(two_receiver_config(shots=(n_shards - 1) * SHARD_SIZE + tail))
        sizes = [SHARD_SIZE] * (n_shards - 1) + [tail]
        assert calls == [(j, sizes[j : j + size]) for j in range(0, n_shards, size)]
        assert peak[0] <= 1
        assert all(r.empirical_success == 1.0 for r in result.per_receiver)

    def test_different_seeds_differ(self):
        a = run(two_receiver_config(shots=50_000, seed=1))
        b = run(two_receiver_config(shots=50_000, seed=2))
        assert a.per_receiver != b.per_receiver

    def test_rng_algorithm_recorded(self, tmp_path):
        # SimulationResult no longer echoes them; simulate.json records both
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("omega = 0.3\nlambdas = 0.5,0.8\nshots = 1000\nseed = 42\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "simulate.json").read_text())
        assert data["rng_algorithm"] == RNG_ALGORITHM
        # simulate.json alone records the stream, so the manifest does not repeat it
        assert "rng_algorithm" not in json.loads((tmp_path / "simulate_manifest.json").read_text())
        assert [rec["shots_counted"] for rec in data["receivers"]] == [1000, 1000]


class TestSharding:
    def test_shard_counts_sum_to_run_totals(self):
        cfg = two_receiver_config(shots=2 * SHARD_SIZE + 123)
        result = run(cfg)
        sizes = [SHARD_SIZE, SHARD_SIZE, 123]
        successes = np.zeros(2, dtype=np.int64)
        for idx, m in enumerate(sizes):
            s, _ = one_shard(cfg, idx, m)
            successes += s
        for k, stats in enumerate(result.per_receiver):
            assert stats.empirical_success == pytest.approx(
                successes[k] / cfg.shots, abs=1e-15
            )

    def test_shards_are_independent_streams(self):
        cfg = two_receiver_config(shots=SHARD_SIZE)
        s0, _ = one_shard(cfg, 0, 1000)
        s1, _ = one_shard(cfg, 1, 1000)
        assert not np.array_equal(s0, s1)


class TestStream:
    def test_stream_is_pinned(self):
        # Changing the draw must be deliberate: bump RNG_ALGORITHM and
        # re-pin these counts together
        assert RNG_ALGORITHM == "philox4x64/shard65536/multinomial-split"
        cfg = two_receiver_config(shots=2000, seed=20260824)
        counts = [one_shard(cfg, j, 1000)[0].tolist() for j in (0, 1)]
        assert counts == [[790, 753], [760, 747]]

    @pytest.mark.parametrize("lam", [1e-12, 0.5, 1.0])
    @pytest.mark.parametrize(
        "prep",
        [
            square_preparations(0.4, 1.0),
            ON_AXIS,
            OUT_OF_PLANE,
        ],
        ids=["pure", "on-axis", "out-of-plane"],
    )
    def test_shard_raises_no_floating_point_warning(self, prep, lam):
        steps = tuple(SequentialChannelStep(X, Z, lam) for _ in range(3))
        cfg = SimulationConfig(prep, steps, 4096, 5)
        with np.errstate(all="raise"):
            successes, post_sums = one_shard(cfg, 0, 4096)
        assert np.isfinite(post_sums).all()
        assert ((0 <= successes) & (successes <= 4096)).all()
