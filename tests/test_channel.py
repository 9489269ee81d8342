"""Measurement channels against explicit matrix conjugation oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import matrix
from seqrac import (
    DensityOp,
    DomainError,
    SequentialChannelStep,
    SharpObservable,
    UnsharpBinaryMeasurement,
    ZeroProbabilityBranch,
    kraus_pair,
    nonselective_step,
    selective_outcome,
    transport_observable,
)

X = SharpObservable.from_axis((1.0, 0.0, 0.0))
Z = SharpObservable.from_axis((0.0, 0.0, 1.0))

lam_values = st.floats(min_value=0.0, max_value=1.0)
ball = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda v: sum(c * c for c in v) <= 1.0)
axes = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda v: sum(c * c for c in v) > 1e-4)


class TestEffects:
    @given(lam_values, axes)
    @settings(max_examples=200, deadline=None)
    def test_effects_sum_to_identity_and_are_psd(self, lam, axis):
        m = UnsharpBinaryMeasurement(SharpObservable.from_axis(axis), lam)
        e_plus, e_minus = m.effect(+1), m.effect(-1)
        np.testing.assert_allclose(
            matrix(e_plus) + matrix(e_minus), np.eye(2), atol=1e-14
        )
        assert min(e_plus.eigenvalues()) >= -1e-15
        assert min(e_minus.eigenvalues()) >= -1e-15

    @given(lam_values, ball)
    @settings(max_examples=200, deadline=None)
    def test_outcome_probability_is_born_rule(self, lam, n):
        m = UnsharpBinaryMeasurement(Z, lam)
        rho = DensityOp.from_bloch(n)
        for sign in (+1, -1):
            born = np.trace(matrix(m.effect(sign)) @ matrix(rho)).real
            assert m.outcome_probability(rho, sign) == pytest.approx(born, abs=1e-13)

    def test_lambda_domain_enforced(self):
        with pytest.raises(DomainError):
            UnsharpBinaryMeasurement(Z, 1.0 + 1e-9)
        with pytest.raises(DomainError):
            UnsharpBinaryMeasurement(Z, -0.1)


class TestKrausPair:
    @given(lam_values, axes)
    @settings(max_examples=200, deadline=None)
    def test_squares_to_effects(self, lam, axis):
        b = SharpObservable.from_axis(axis)
        kp = kraus_pair(b, lam)
        m = UnsharpBinaryMeasurement(b, lam)
        np.testing.assert_allclose(
            matrix(kp.k_plus) @ matrix(kp.k_plus),
            matrix(m.effect(+1)),
            atol=1e-14,
        )
        np.testing.assert_allclose(
            matrix(kp.k_minus) @ matrix(kp.k_minus),
            matrix(m.effect(-1)),
            atol=1e-14,
        )

    @given(lam_values)
    @settings(max_examples=100, deadline=None)
    def test_coefficient_identities(self, lam):
        kp = kraus_pair(Z, lam)
        a, b = kp.alpha, kp.beta
        assert a * a + b * b == pytest.approx(0.5, abs=1e-15)
        assert 2 * a * b == pytest.approx(lam / 2.0, abs=1e-15)
        assert a * a - b * b == pytest.approx(
            math.sqrt(1.0 - lam * lam) / 2.0, abs=1e-15
        )


class TestSelectiveOutcome:
    @given(lam_values, ball)
    @settings(max_examples=300, deadline=None)
    def test_matches_matrix_conjugation(self, lam, n):
        b = SharpObservable.from_axis((0.0, 0.6, 0.8))
        m = UnsharpBinaryMeasurement(b, lam)
        rho = DensityOp.from_bloch(n)
        kp = kraus_pair(b, lam)
        for branch, k in zip(selective_outcome(rho, m), (kp.k_plus, kp.k_minus)):
            raw = matrix(k) @ matrix(rho) @ matrix(k)
            prob = np.trace(raw).real
            assert branch.prob == pytest.approx(prob, abs=1e-13)
            if branch.prob >= 1e-12:
                np.testing.assert_allclose(
                    matrix(branch.post), raw / prob, atol=1e-11
                )

    def test_probabilities_sum_to_one(self):
        rho = DensityOp.from_bloch((0.2, -0.5, 0.3))
        plus, minus = selective_outcome(rho, UnsharpBinaryMeasurement(Z, 0.7))
        assert plus.prob + minus.prob == pytest.approx(1.0, abs=1e-15)

    def test_projective_branch_values(self):
        # sharp Z on |0>-ish state: post-states are the poles
        rho = DensityOp.from_bloch((0.0, 0.0, 0.6))
        plus, minus = selective_outcome(rho, UnsharpBinaryMeasurement(Z, 1.0))
        assert plus.prob == pytest.approx(0.8)
        assert plus.post.bloch_vector == pytest.approx((0.0, 0.0, 1.0), abs=1e-14)
        assert minus.post.bloch_vector == pytest.approx((0.0, 0.0, -1.0), abs=1e-14)

    def test_zero_probability_branch_raises(self):
        rho = DensityOp.from_bloch((0.0, 0.0, 1.0))
        _, minus = selective_outcome(rho, UnsharpBinaryMeasurement(Z, 1.0))
        assert minus.prob == 0.0
        with pytest.raises(ZeroProbabilityBranch):
            minus.post


class TestNonselective:
    @given(lam_values, ball)
    @settings(max_examples=300, deadline=None)
    def test_matches_branch_average(self, lam, n):
        # channel output = dephase/2 + sum_s K_s rho K_s / 2
        step = SequentialChannelStep(X, Z, lam)
        rho = DensityOp.from_bloch(n)
        kp = kraus_pair(Z, lam)
        unsharp = (
            matrix(kp.k_plus) @ matrix(rho) @ matrix(kp.k_plus)
            + matrix(kp.k_minus) @ matrix(rho) @ matrix(kp.k_minus)
        )
        projectors = [0.5 * (np.eye(2) + s * matrix(X)) for s in (+1, -1)]
        sharp = sum(p @ matrix(rho) @ p for p in projectors)
        want = 0.5 * sharp + 0.5 * unsharp
        np.testing.assert_allclose(
            matrix(nonselective_step(rho, step)), want, atol=1e-13
        )

    @given(lam_values, ball)
    @settings(max_examples=200, deadline=None)
    def test_unital_and_trace_preserving(self, lam, n):
        step = SequentialChannelStep(X, Z, lam)
        out = nonselective_step(DensityOp.from_bloch(n), step)
        assert out.trace_part == pytest.approx(0.5, abs=1e-15)
        fixed = nonselective_step(DensityOp.from_bloch((0.0, 0.0, 0.0)), step)
        assert fixed.bloch_vector == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)


class TestTransportObservable:
    @given(lam_values, axes)
    @settings(max_examples=200, deadline=None)
    def test_duality_with_state_channel(self, lam, axis):
        # tr[B' rho] == tr[B Lambda(rho)] for every state
        step = SequentialChannelStep(X, Z, lam)
        b = SharpObservable.from_axis(axis)
        moved = transport_observable(b, step)
        for n in [(0.2, 0.1, -0.4), (0.0, 0.9, 0.0), (-0.5, 0.5, 0.5)]:
            rho = DensityOp.from_bloch(n)
            lhs = np.trace(matrix(moved) @ matrix(rho)).real
            rhs = np.trace(matrix(b) @ matrix(nonselective_step(rho, step))).real
            assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_orthogonal_axes_scaling(self):
        lam = 0.6
        step = SequentialChannelStep(X, Z, lam)
        moved1 = transport_observable(X, step)
        moved2 = transport_observable(Z, step)
        scale1 = 0.5 * (1.0 + math.sqrt(1.0 - lam * lam))
        assert moved1.bloch == pytest.approx((scale1, 0.0, 0.0), abs=1e-15)
        assert moved2.bloch == pytest.approx((0.0, 0.0, 0.5), abs=1e-15)

    def test_anticommuting_property(self):
        assert SequentialChannelStep(X, Z, 0.5).anticommuting
        tilted = SharpObservable.from_axis((0.6, 0.0, 0.8))
        assert not SequentialChannelStep(X, tilted, 0.5).anticommuting
