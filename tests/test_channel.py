"""Measurement channels against explicit matrix conjugation oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import effect, matrix
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
)
from seqrac.channel import _channel_bloch

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
        # the effects as the squares of the Kraus operators
        kp = kraus_pair(SharpObservable.from_axis(axis), lam)
        e_plus = matrix(kp.k_plus) @ matrix(kp.k_plus)
        e_minus = matrix(kp.k_minus) @ matrix(kp.k_minus)
        np.testing.assert_allclose(e_plus + e_minus, np.eye(2), atol=1e-14)
        assert min(np.linalg.eigvalsh(e_plus)) >= -1e-15
        assert min(np.linalg.eigvalsh(e_minus)) >= -1e-15

    @given(lam_values, ball)
    @settings(max_examples=200, deadline=None)
    def test_outcome_probability_is_born_rule(self, lam, n):
        m = UnsharpBinaryMeasurement(Z, lam)
        rho = DensityOp.from_bloch(n)
        for sign in (+1, -1):
            born = np.trace(effect(Z, lam, sign) @ matrix(rho)).real
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
        for k, sign in ((kp.k_plus, +1), (kp.k_minus, -1)):
            np.testing.assert_allclose(
                matrix(k) @ matrix(k), effect(b, lam, sign), atol=1e-14
            )

    @given(lam_values)
    @settings(max_examples=100, deadline=None)
    def test_coefficient_identities(self, lam):
        # K+- = alpha*I +- beta*Z
        kp = kraus_pair(Z, lam)
        a, b = kp.k_plus.trace_part, kp.k_plus.bloch[2]
        assert kp.k_minus.trace_part == a and kp.k_minus.bloch[2] == -b
        assert a * a + b * b == pytest.approx(0.5, abs=1e-15)
        assert 2 * a * b == pytest.approx(lam / 2.0, abs=1e-15)
        # (1 - lam)(1 + lam), not 1 - lam^2: the latter loses ~1e-15 near lam = 1
        assert a * a - b * b == pytest.approx(
            math.sqrt((1.0 - lam) * (1.0 + lam)) / 2.0, abs=1e-15
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


def channel_matrix(m, lam):
    """The sharp-X/unsharp-Z channel on a 2x2 matrix: the average of the
    X dephasing and the sum of K_s m K_s."""
    kp = kraus_pair(Z, lam)
    unsharp = sum(matrix(k) @ m @ matrix(k) for k in (kp.k_plus, kp.k_minus))
    sharp = sum(effect(X, 1.0, s) @ m @ effect(X, 1.0, s) for s in (+1, -1))
    return 0.5 * sharp + 0.5 * unsharp


class TestNonselective:
    @given(lam_values, ball)
    @settings(max_examples=300, deadline=None)
    def test_matches_branch_average(self, lam, n):
        step = SequentialChannelStep(X, Z, lam)
        rho = DensityOp.from_bloch(n)
        np.testing.assert_allclose(
            matrix(nonselective_step(rho, step)), channel_matrix(matrix(rho), lam), atol=1e-13
        )

    @given(lam_values, ball)
    @settings(max_examples=200, deadline=None)
    def test_unital_and_trace_preserving(self, lam, n):
        step = SequentialChannelStep(X, Z, lam)
        out = nonselective_step(DensityOp.from_bloch(n), step)
        assert out.trace_part == pytest.approx(0.5, abs=1e-15)
        fixed = nonselective_step(DensityOp.from_bloch((0.0, 0.0, 0.0)), step)
        assert fixed.bloch_vector == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)


    @given(lam_values, axes, axes, ball)
    @example(0.5, (1.0, 0.5, 0.25), (-0.25, -1.0, -0.5), (-0.0, -0.0, -0.0))
    @settings(max_examples=300, deadline=None)
    def test_bloch_map_matches_summed_form(self, lam, axis1, axis2, v):
        # The map written with sum() over zipped components, its original
        # form; the unrolled one must give the same doubles, signed zeros too.
        step = SequentialChannelStep(
            SharpObservable.from_axis(axis1), SharpObservable.from_axis(axis2), lam
        )
        a1, a2 = step.b1.bloch, step.b2.bloch
        root = math.sqrt((1.0 - lam) * (1.0 + lam))
        shrink = lam * lam / (1.0 + root)
        v_a1 = sum(a * c for a, c in zip(a1, v))
        v_a2 = sum(a * c for a, c in zip(a2, v))
        want = tuple(
            0.5 * (v_a1 * u1 + root * c + v_a2 * shrink * u2)
            for u1, u2, c in zip(a1, a2, v)
        )
        assert list(map(repr, _channel_bloch(v, step))) == list(map(repr, want))


class TestTransportObservable:
    """The channel's action on observables (Heisenberg picture)."""

    @given(lam_values, axes)
    @settings(max_examples=200, deadline=None)
    def test_duality_with_state_channel(self, lam, axis):
        # tr[Lambda(B) rho] == tr[B Lambda(rho)] for every state
        step = SequentialChannelStep(X, Z, lam)
        b = SharpObservable.from_axis(axis)
        moved = channel_matrix(matrix(b), lam)
        for n in [(0.2, 0.1, -0.4), (0.0, 0.9, 0.0), (-0.5, 0.5, 0.5)]:
            rho = DensityOp.from_bloch(n)
            lhs = np.trace(moved @ matrix(rho)).real
            rhs = np.trace(matrix(b) @ matrix(nonselective_step(rho, step))).real
            assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_orthogonal_axes_scaling(self):
        # the channel is self-dual, so the axis states scale like the axes
        lam = 0.6
        step = SequentialChannelStep(X, Z, lam)
        moved1 = nonselective_step(DensityOp.from_bloch(X.bloch), step)
        moved2 = nonselective_step(DensityOp.from_bloch(Z.bloch), step)
        scale1 = 0.5 * (1.0 + math.sqrt(1.0 - lam * lam))
        assert moved1.bloch_vector == pytest.approx((scale1, 0.0, 0.0), abs=1e-15)
        assert moved2.bloch_vector == pytest.approx((0.0, 0.0, 0.5), abs=1e-15)

    def test_anticommuting_property(self):
        assert SequentialChannelStep(X, Z, 0.5).anticommuting
        tilted = SharpObservable.from_axis((0.6, 0.0, 0.8))
        assert not SequentialChannelStep(X, tilted, 0.5).anticommuting
