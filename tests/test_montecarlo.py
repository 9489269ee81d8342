"""Stochastic simulation: convergence, determinism, the stream and its node blocks."""

import json
import math
import tracemalloc

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
        with pytest.raises(DomainError, match="^at least one channel step is required$"):
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

    def test_shots_fit_an_int64(self):
        # numpy's multinomial takes an int64 count
        step = (SequentialChannelStep(X, Z, 0.5),)
        SimulationConfig(square_preparations(0.3), step, 2**63 - 1, 1)
        with pytest.raises(DomainError, match=r"^shots 9223372036854775808 above 2\^63 - 1$"):
            SimulationConfig(square_preparations(0.3), step, 2**63, 1)

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

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed -1 outside [0, 2^64)"), (1 << 64, f"seed {1 << 64} outside [0, 2^64)"),
        (1.5, "seed 1.5 is not an integer"), (True, "seed True is not an integer"),
        ("1", "seed '1' is not an integer"),
    ], ids=["-1", str(1 << 64), "1.5", "True", "'1'"])
    def test_seed_must_fit_philox_key(self, seed, message):
        # 1.5 was accepted and ran as seed 1
        prep = square_preparations(0.3)
        with pytest.raises(DomainError) as info:
            SimulationConfig(prep, (SequentialChannelStep(X, Z, 0.5),), 100, seed)
        assert str(info.value) == message


def frame_of(step):
    """Rows a1, a2, a1 x a2 of the step axes: the kernel's coordinates."""
    a1, a2 = np.array(step.b1.bloch), np.array(step.b2.bloch)
    return np.array([a1, a2, np.cross(a1, a2)])


def expected_split(config):
    """``run`` with every multinomial replaced by its mean, and no merging.

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


def reference_run(config):
    """``run`` written as a recursion: ``walk(k, x, states, counts)`` cuts its
    nodes into blocks of ``SHARD_SIZE`` and takes each block through receiver
    k and then, depth first, through every later receiver before the next
    block starts.  Sharp children are merged by ``np.bincount``."""
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    frame, hits, n_rec = frame_of(config.steps[0]), np.array(_HITS), len(config.steps)
    sharp_states = np.tile([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], (4, 1))
    successes = np.zeros(n_rec, dtype=np.int64)
    post_sums = np.zeros((n_rec, 3))

    def walk(k, x, states, counts):
        size = montecarlo.SHARD_SIZE
        for block in (slice(i, i + size) for i in range(0, len(x), size)):
            probs, children = _split(states[block], config.steps[k].lam)
            split = rng.multinomial(counts[block], probs)
            successes[k] += (split * hits[x[block]]).sum()
            sharp = np.bincount((2 * x[block, None] + (0, 1)).ravel(), split[:, :2].ravel(), 8)
            kx = np.concatenate([np.arange(8) >> 1, np.repeat(x[block], 2)])
            ks = np.concatenate([sharp_states, children[:, 2:].reshape(-1, 3)])
            kc = np.concatenate([sharp.astype(np.int64), split[:, 2:].ravel()])
            keep = kc > 0
            post_sums[k] += (ks[keep].T * kc[keep]).sum(axis=1)
            if k + 1 < n_rec:
                walk(k + 1, kx[keep], ks[keep], kc[keep])

    counts = rng.multinomial(config.shots, [0.25] * 4)
    x = np.flatnonzero(counts)
    walk(0, x, np.array([frame @ config.prep.states[i].bloch_vector for i in x]), counts[x])
    p_hat = successes / config.shots
    stats = tuple(ReceiverStats(float(p), math.sqrt(p * (1.0 - p) / config.shots)) for p in p_hat)
    mean_post = (post_sums[:, :, None] * frame).sum(axis=1) / config.shots
    return SimulationResult(stats, tuple(tuple(float(c) for c in v) for v in mean_post))


def chain(n, shots, seed, prep=None, lam=None):
    """n receivers on X and Z at lam, or at (k + 1/2)/n for receiver k."""
    lams = [(k + 0.5) / n if lam is None else lam for k in range(n)]
    steps = tuple(SequentialChannelStep(X, Z, v) for v in lams)
    return SimulationConfig(prep or square_preparations(0.4, 0.9), steps, shots, seed)


class SpyGenerator(np.random.Generator):
    """A Generator that records the total count of each multinomial call."""

    def multinomial(self, n, pvals, size=None):
        self.totals.append(int(np.sum(n)))
        return super().multinomial(n, pvals, size)


def spy_on_blocks(monkeypatch, config):
    """``run(config)``, with ``splits``: ``(receiver, nodes)`` of every
    ``_split`` call, read off ``lam`` (so the lambdas must differ);
    ``totals``: the count split by every multinomial call; ``keys``: the
    Philox key of every Generator built."""
    receiver = {step.lam: k for k, step in enumerate(config.steps)}
    splits, totals, keys, split = [], [], [], montecarlo._split

    def spy_split(states, lam):
        splits.append((receiver[lam], len(states)))
        return split(states, lam)

    def spy_generator(bit_generator):
        keys.append(bit_generator.state["state"]["key"].tolist())
        rng = SpyGenerator(bit_generator)
        rng.totals = totals
        return rng

    with monkeypatch.context() as m:
        m.setattr(montecarlo, "_split", spy_split)
        m.setattr(np.random, "Generator", spy_generator)
        result = run(config)
    return result, splits, totals, keys


class TestLockstep:
    """Every node of a block passes a receiver in one multinomial call; a
    longer node list is cut into blocks of ``SHARD_SIZE``, walked depth first."""

    @pytest.mark.parametrize("shots", [17, SHARD_SIZE, 3 * SHARD_SIZE + 17])
    @pytest.mark.parametrize("n", [1, 2, 8, 11, 12, 13])
    def test_run_equals_shard_by_shard_reference(self, monkeypatch, n, shots):
        # At these shot counts no node list reaches SHARD_SIZE; a block of
        # 500 nodes cuts the lists of the longer chains
        cfg = chain(n, shots, 1000 * n + 7)
        with np.errstate(all="raise"):
            assert run(cfg) == reference_run(cfg)
            monkeypatch.setattr(montecarlo, "SHARD_SIZE", 500)
            assert run(cfg) == reference_run(cfg)

    @pytest.mark.parametrize("lam", [1.0, 1e-12])
    @pytest.mark.parametrize(
        "prep",
        [square_preparations(0.4, 1.0), ON_AXIS, OUT_OF_PLANE],
        ids=["pure", "on-axis", "out-of-plane"],
    )
    @pytest.mark.parametrize("n", [1, 2, 8, 11, 12, 13])
    def test_edge_families_equal_reference(self, monkeypatch, n, prep, lam):
        cfg = chain(n, 3 * SHARD_SIZE + 17, 29 + n, prep, lam)
        with np.errstate(all="raise"):
            assert run(cfg) == reference_run(cfg)
            monkeypatch.setattr(montecarlo, "SHARD_SIZE", 50)
            assert run(cfg) == reference_run(cfg)

    def test_run_equals_reference_across_real_blocks(self, monkeypatch):
        # 10^9 shots over 16 receivers: the lists entering the last receivers
        # outgrow SHARD_SIZE, so the real block bound cuts them
        cfg = chain(16, 10**9, 16)
        result, splits, _, _ = spy_on_blocks(monkeypatch, cfg)
        assert max(nodes for _, nodes in splits) == SHARD_SIZE
        assert len(splits) > 16
        assert result == reference_run(cfg)

    @pytest.mark.parametrize("n", [1, 2, 8, 11, 12])
    def test_group_count_matrix_is_bounded(self, monkeypatch, n):
        # The count matrix of one multinomial call (nodes x 4 branches) has at
        # most SHARD_SIZE rows, here 100, and at most 12 * 2^k - 8 at receiver
        # k; each block's children go through the next receiver before any
        # other block, and every receiver sees at most one node per shot
        monkeypatch.setattr(montecarlo, "SHARD_SIZE", 100)
        shots = 3 * SHARD_SIZE + 17
        _, splits, _, _ = spy_on_blocks(monkeypatch, chain(n, shots, n))
        assert splits[0][0] == 0 and {k for k, _ in splits} == set(range(n))
        for (k, nodes), (k_next, _) in zip(splits, splits[1:] + [(0, 0)]):
            assert nodes <= min(100, (12 << k) - 8)
            assert k_next == k + 1 if k + 1 < n else k_next <= k
        for k in range(n):
            assert sum(nodes for j, nodes in splits if j == k) <= shots
        if n >= 8:  # the bound bites
            assert max(nodes for _, nodes in splits) == 100

    def test_node_bound_straddles_the_block_rule(self):
        # Nodes entering the last of n receivers number at most
        # 12 * 2^(n-1) - 8, so one block holds them up to n = 13; past it the
        # real bound can cut a list (as at n = 16 above).  12 * 2^8 - 8 nodes,
        # the most after 8 receivers, fit one block, so mc_chain's runs
        # (n <= 8) never split
        fits = [(12 << (n - 1)) - 8 <= SHARD_SIZE for n in (1, 2, 8, 11, 12, 13, 14)]
        assert fits == [True] * 6 + [False]
        assert SHARD_SIZE == 1 << 16 >= (12 << 8) - 8


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

    def test_a_trillion_shots_match_analytic(self):
        # One split of the whole count per node, so 10^12 shots over three
        # receivers cost what 10^4 do; within 5 standard errors
        cfg = chain(3, 10**12, 3)
        result = run(cfg)
        analytic, _ = analytic_reference(cfg)
        for stats, want in zip(result.per_receiver, analytic):
            assert abs(stats.empirical_success - want) < 5.0 * stats.standard_error

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
        # The out-of-plane states carry a nonzero c3
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
        # 10^7 shots over 12 receivers: blocks of 256 nodes keep the traced
        # peak of a run under 1 MB, where the uncut node lists take over 3 MB,
        # because a block's children are walked before its siblings are cut
        cfg = chain(12, 10**7, 12)
        peaks = []
        for size in (SHARD_SIZE, 256):
            monkeypatch.setattr(montecarlo, "SHARD_SIZE", size)
            tracemalloc.start()
            run(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[0] > 3e6 and peaks[1] < 1e6, peaks

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
    """A shard is a block of at most ``SHARD_SIZE`` nodes."""

    def test_shard_counts_sum_to_run_totals(self, monkeypatch):
        # Blocks of 100 nodes: one multinomial call splits the shots over the
        # inputs, then one per block, and at every receiver the blocks'
        # counts add up to every shot of the run
        monkeypatch.setattr(montecarlo, "SHARD_SIZE", 100)
        cfg = chain(8, 2 * SHARD_SIZE + 123, 5)
        _, splits, totals, _ = spy_on_blocks(monkeypatch, cfg)
        assert len(splits) > 8 and len(totals) == 1 + len(splits)
        assert totals[0] == cfg.shots
        for k in range(8):
            assert sum(m for (j, _), m in zip(splits, totals[1:]) if j == k) == cfg.shots

    def test_blocks_share_one_stream(self, monkeypatch):
        # However the nodes are cut, a run builds one Generator, on the
        # Philox key (seed, 0)
        monkeypatch.setattr(montecarlo, "SHARD_SIZE", 100)
        _, splits, _, keys = spy_on_blocks(monkeypatch, chain(8, SHARD_SIZE, 2**64 - 1))
        assert len(splits) > 8
        assert keys == [[2**64 - 1, 0]]


class TestStream:
    def test_stream_is_pinned(self):
        # Changing the draw must be deliberate: bump RNG_ALGORITHM and
        # re-pin these counts together
        assert RNG_ALGORITHM == "philox4x64/run-stream/multinomial-split"
        result = run(two_receiver_config(shots=2000, seed=20260824))
        assert [round(r.empirical_success * 2000) for r in result.per_receiver] == [1588, 1510]

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
        # 4,096 shots over three receivers: one block
        with np.errstate(all="raise"):
            result = run(chain(3, 4096, 5, prep, lam))
        assert np.isfinite(result.mean_post_bloch).all()
        assert all(0 <= r.empirical_success <= 1 for r in result.per_receiver)
