"""Encoding task quantities: marginals, distinguishability pairs, thresholds."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqrac import (
    DistinguishabilityPair,
    DomainError,
    PreparationFamily,
    SharpObservable,
    UnsharpBinaryMeasurement,
    avg_success,
    delta_pair,
    helstrom_observable,
    marginals,
    square_preparations,
    theorem1_sampler,
    thresholds,
)
from seqrac.rac import (
    THRESHOLD_DENOM_TOL,
    _family_delta_sq,
    _half_differences,
    _vector_delta_pair,
    sample_bloch_vectors,
)

X = SharpObservable.from_axis((1.0, 0.0, 0.0))
Z = SharpObservable.from_axis((0.0, 0.0, 1.0))


class TestSquarePreparations:
    def test_bloch_layout(self):
        prep = square_preparations(0.4, 0.9)
        c, s = math.cos(0.4), 0.9 * math.sin(0.4)
        assert prep.state(0, 0).bloch_vector == pytest.approx((c, 0.0, s))
        assert prep.state(0, 1).bloch_vector == pytest.approx((c, 0.0, -s))
        assert prep.state(1, 0).bloch_vector == pytest.approx((-c, 0.0, s))
        assert prep.state(1, 1).bloch_vector == pytest.approx((-c, 0.0, -s))

    @given(
        st.floats(min_value=1e-3, max_value=math.pi / 2 - 1e-3),
        st.floats(min_value=1e-3, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_delta_pair_closed_form(self, omega, r):
        dp = delta_pair(square_preparations(omega, r))
        assert dp.delta1 == pytest.approx(math.cos(omega), abs=1e-13)
        assert dp.delta2 == pytest.approx(r * math.sin(omega), abs=1e-13)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            square_preparations(0.0)
        with pytest.raises(DomainError):
            square_preparations(math.pi / 2)
        with pytest.raises(DomainError):
            square_preparations(0.3, r=1.5)

    @pytest.mark.parametrize("omega, r, message", [
        ("abc", 1.0, "bad omega 'abc'"), (0.3, "abc", "bad r 'abc'"), (0.3, None, "bad r None"),
        (None, 1.0, "bad omega None"), (float("nan"), 1.0, "omega nan outside (0, pi/2)"),
        ("0.3", 1.0, "bad omega '0.3'"), (0.3, "1", "bad r '1'"),
    ])
    def test_malformed_numbers_are_domain_errors(self, omega, r, message):
        with pytest.raises(DomainError) as info:
            square_preparations(omega, r)
        assert str(info.value) == message


class TestMarginals:
    def test_matches_state_averages(self):
        prep = square_preparations(0.7, 0.8)
        m0, m1 = marginals(prep, 1)
        want0 = 0.5 * (
            np.array(prep.state(0, 0).bloch_vector)
            + np.array(prep.state(0, 1).bloch_vector)
        )
        np.testing.assert_allclose(m0.bloch_vector, want0, atol=1e-15)
        m0b, _ = marginals(prep, 2)
        want0b = 0.5 * (
            np.array(prep.state(0, 0).bloch_vector)
            + np.array(prep.state(1, 0).bloch_vector)
        )
        np.testing.assert_allclose(m0b.bloch_vector, want0b, atol=1e-15)
        assert m1.trace_part == 0.5

    def test_bad_bit_index(self):
        with pytest.raises(DomainError):
            marginals(square_preparations(0.3), 0)


ball_vector = st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3).filter(
    lambda v: math.hypot(*v) <= 1.0
)
families = st.one_of(
    st.lists(ball_vector, min_size=4, max_size=4).map(PreparationFamily.from_bloch_vectors),
    st.builds(
        square_preparations,
        st.floats(min_value=1e-6, max_value=math.pi / 2 - 1e-6),
        st.floats(min_value=1e-3, max_value=1.0),
    ),
)


class TestTuplePairing:
    """The tuple form of the state layout against the DensityOp path."""

    @given(families)
    @settings(max_examples=300, deadline=None)
    def test_half_differences_match_marginals_bit_for_bit(self, prep):
        pairs = [marginals(prep, y) for y in (1, 2)]
        # The documented exception: DensityOp stores n/2, which rounds a
        # marginal component below twice the smallest normal double.
        assume(all(
            c == 0.0 or abs(c) >= 2 * sys.float_info.min
            for pair in pairs for m in pair for c in m.bloch_vector
        ))
        vectors = [rho.bloch_vector for rho in prep.states]
        for half, (m0, m1) in zip(_half_differences(vectors), pairs):
            want = [0.5 * (a - b) for a, b in zip(m0.bloch_vector, m1.bloch_vector)]
            assert [c.hex() for c in half] == [c.hex() for c in want]
        assert _vector_delta_pair(vectors) == delta_pair(prep)


class TestAvgSuccess:
    def test_helstrom_achieves_delta_bound(self):
        prep = square_preparations(0.55, 0.85)
        dp = delta_pair(prep)
        b1 = helstrom_observable(*marginals(prep, 1))
        b2 = helstrom_observable(*marginals(prep, 2))
        got = avg_success(
            prep,
            UnsharpBinaryMeasurement(b1, 1.0),
            UnsharpBinaryMeasurement(b2, 1.0),
        )
        assert got == pytest.approx(0.5 + (dp.delta1 + dp.delta2) / 4.0, abs=1e-14)

    @given(
        st.floats(min_value=0.05, max_value=1.4),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_unsharp_bound(self, omega, lam1, lam2):
        prep = square_preparations(omega)
        dp = delta_pair(prep)
        got = avg_success(
            prep,
            UnsharpBinaryMeasurement(X, lam1),
            UnsharpBinaryMeasurement(Z, lam2),
        )
        bound = 0.5 + (lam1 * dp.delta1 + lam2 * dp.delta2) / 4.0
        assert got == pytest.approx(bound, abs=1e-13)

    def test_random_axes_never_beat_helstrom(self):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(17)))
        prep = square_preparations(0.9, 0.7)
        dp = delta_pair(prep)
        best = 0.5 + (dp.delta1 + dp.delta2) / 4.0
        for _ in range(300):
            b1 = SharpObservable.from_axis(tuple(rng.normal(size=3)))
            b2 = SharpObservable.from_axis(tuple(rng.normal(size=3)))
            got = avg_success(
                prep,
                UnsharpBinaryMeasurement(b1, 1.0),
                UnsharpBinaryMeasurement(b2, 1.0),
            )
            assert got <= best + 1e-13


class TestThresholds:
    def test_symmetric_and_asymmetric_formulas(self):
        dp = DistinguishabilityPair(0.8, 0.6)
        rep = thresholds(dp)
        assert rep.lambda_symmetric_critical == pytest.approx(1.0 / 1.4)
        assert rep.lambda_asymmetric_critical == pytest.approx(0.2 / 0.6)
        assert rep.classical_simplex_violated

    def test_equal_deltas_reference_values(self):
        v = 1.0 / math.sqrt(2.0)
        rep = thresholds(DistinguishabilityPair(v, v))
        assert rep.lambda_symmetric_critical == pytest.approx(v, abs=1e-12)
        assert rep.lambda_asymmetric_critical == pytest.approx(
            math.sqrt(2.0) - 1.0, abs=1e-12
        )

    def test_degenerate_denominator_sentinel(self):
        rep = thresholds(DistinguishabilityPair(0.0, 0.0))
        assert math.isinf(rep.lambda_symmetric_critical)
        assert math.isinf(rep.lambda_asymmetric_critical)
        assert not rep.classical_simplex_violated
        rep = thresholds(DistinguishabilityPair(0.5, 1e-16))
        assert rep.lambda_symmetric_critical == 1.0 / (0.5 + 1e-16)
        assert math.isinf(rep.lambda_asymmetric_critical)

    def test_denominator_at_the_tolerance_divides(self):
        # the sentinel is for denominators below THRESHOLD_DENOM_TOL, not at it
        rep = thresholds(DistinguishabilityPair(0.0, THRESHOLD_DENOM_TOL))
        assert rep.lambda_symmetric_critical == rep.lambda_asymmetric_critical == 1.0 / THRESHOLD_DENOM_TOL
        assert rep.lambda_symmetric_critical == pytest.approx(1e15)


class TestDiscBound:
    def test_sampler_stays_inside_disc(self):
        assert theorem1_sampler(20000, seed=101) <= 1.0 + 1e-9
        assert theorem1_sampler(20000, seed=102, pure=True) <= 1.0 + 1e-9

    def test_sampler_maximum_nears_the_boundary(self):
        # far above the means 0.3 (ball) and 0.5 (sphere); a correct sampler's maximum of
        # 20,000 families falls below either floor with probability under 1e-13
        assert theorem1_sampler(20000, seed=101) >= 0.75
        assert theorem1_sampler(20000, seed=102, pure=True) >= 0.97

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 1.5, "1", True, None], ids=repr)
    @pytest.mark.parametrize("sampler", [theorem1_sampler, sample_bloch_vectors],
                             ids=lambda f: f.__name__)
    def test_sampler_seed_is_a_philox_key(self, sampler, seed):
        # -1 and 2^64 raised a bare OverflowError, and 1.5 ran as seed 1
        with pytest.raises(DomainError, match="^seed .* (outside|is not an integer)"):
            sampler(10, seed=seed)

    def test_saturating_family(self):
        # orthogonal pure marginal pairs on both bits reach the boundary
        prep = square_preparations(math.pi / 4, 1.0)
        dp = delta_pair(prep)
        assert dp.delta1**2 + dp.delta2**2 == pytest.approx(1.0, abs=1e-12)

    def test_vectorized_deltas_match_scalar_path(self):
        vectors = sample_bloch_vectors(64, seed=5)
        batched = _family_delta_sq(vectors)
        for i in range(64):
            prep = PreparationFamily.from_bloch_vectors(
                [tuple(v) for v in vectors[i]]
            )
            dp = delta_pair(prep)
            assert dp.delta1**2 + dp.delta2**2 == pytest.approx(
                float(batched[i]), abs=1e-12
            )

    def test_sampler_is_seed_deterministic(self):
        assert theorem1_sampler(5000, seed=9) == theorem1_sampler(5000, seed=9)

    @pytest.mark.parametrize("count", [0, 2.5, "3", True], ids=repr)
    def test_sampler_count_is_a_positive_integer(self, count):
        with pytest.raises(DomainError, match="^count .* is not an integer >= 1$"):
            theorem1_sampler(count, seed=1)


class TestSamplerDistribution:
    """Moments and octant shares of the sampled Bloch vectors, within 5 SE."""

    COUNT = 20000  # families, so 80 000 vectors

    @staticmethod
    def within_5se(samples, expected):
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        return abs(samples.mean() - expected) <= 5.0 * se

    def test_pure_vectors_are_unit(self):
        v = sample_bloch_vectors(self.COUNT, seed=31, pure=True)
        assert v.shape == (self.COUNT, 4, 3)
        assert np.max(np.abs(np.linalg.norm(v, axis=2) - 1.0)) <= 1e-12

    def test_ball_moments(self):
        v = sample_bloch_vectors(self.COUNT, seed=32).reshape(-1, 3)
        assert np.max(np.linalg.norm(v, axis=1)) <= 1.0 + 1e-12
        assert self.within_5se((v * v).sum(axis=1), 3.0 / 5.0)
        assert self.within_5se(v[:, 2], 0.0)

    @pytest.mark.parametrize("pure", [False, True])
    def test_octants_hold_an_eighth_each(self, pure):
        v = sample_bloch_vectors(self.COUNT, seed=33, pure=pure).reshape(-1, 3)
        octant = (v > 0).astype(int) @ np.array([4, 2, 1])
        for o in range(8):
            assert self.within_5se((octant == o).astype(float), 1.0 / 8.0), o
