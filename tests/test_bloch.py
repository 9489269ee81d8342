"""Operator algebra against an explicit 2x2 matrix oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import matrix
from seqrac import (
    DegeneratePair,
    DensityOp,
    HermitianOp,
    InvalidState,
    SharpObservable,
    distinguishability,
    helstrom_observable,
    trace_norm,
)


def _matrix_trace_norm(a: np.ndarray) -> float:
    return float(np.sum(np.abs(np.linalg.eigvalsh(a))))


def guessing_probability(rho0, rho1, b) -> float:
    """Guess 0 on outcome +1: ``(tr[rho0 E+] + tr[rho1 E-]) / 2``, ``E+- = (I +- b)/2``."""
    e_plus = 0.5 * (np.eye(2) + matrix(b))
    e_minus = np.eye(2) - e_plus
    return 0.5 * np.trace(matrix(rho0) @ e_plus + matrix(rho1) @ e_minus).real


unit_interval = st.floats(min_value=-1.0, max_value=1.0)
bloch3 = st.tuples(unit_interval, unit_interval, unit_interval)


def eigenvalues(op) -> tuple[float, float]:
    """Closed-form eigenvalues ``t +- |v|`` of ``t I + v . sigma``, largest first."""
    b = op.bloch_norm
    return (op.trace_part + b, op.trace_part - b)


def ball_vectors(draw_tuples):
    return [v for v in draw_tuples if sum(c * c for c in v) <= 1.0]


class TestHermitianOp:
    def test_eigenvalues_match_matrix(self):
        op = HermitianOp(0.3, (0.1, -0.4, 0.2))
        want = np.linalg.eigvalsh(matrix(op))
        got = sorted(eigenvalues(op))
        assert got == pytest.approx(sorted(want), abs=1e-14)

    @given(st.floats(-2, 2), bloch3, st.floats(-2, 2), bloch3)
    @settings(max_examples=200, deadline=None)
    def test_linear_structure(self, t1, v1, t2, v2):
        a, b = HermitianOp(t1, v1), HermitianOp(t2, v2)
        np.testing.assert_allclose(
            matrix(a + b), matrix(a) + matrix(b), atol=1e-12
        )
        np.testing.assert_allclose(
            matrix(a - b), matrix(a) - matrix(b), atol=1e-12
        )
        np.testing.assert_allclose(
            matrix(0.7 * a), 0.7 * matrix(a), atol=1e-12
        )

    @given(st.floats(-2, 2), bloch3, st.floats(-2, 2), bloch3)
    @settings(max_examples=200, deadline=None)
    def test_dot_bloch_is_hilbert_schmidt_part(self, t1, v1, t2, v2):
        # tr(A B) = 2(t1 t2 + v1.v2); dot_bloch exposes the v1.v2 piece
        a, b = HermitianOp(t1, v1), HermitianOp(t2, v2)
        hs = np.trace(matrix(a) @ matrix(b)).real
        assert hs == pytest.approx(2 * (t1 * t2 + a.dot_bloch(b)), abs=1e-10)


class TestDensityOp:
    def test_matrix_is_valid_state(self):
        rho = DensityOp.from_bloch((0.3, -0.2, 0.5))
        m = matrix(rho)
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-15)
        assert min(np.linalg.eigvalsh(m)) >= -1e-15
        np.testing.assert_allclose(m, m.conj().T, atol=1e-15)

    def test_bloch_vector_round_trip(self):
        n = (0.1, 0.7, -0.3)
        assert DensityOp.from_bloch(n).bloch_vector == pytest.approx(n, abs=1e-15)

    def test_rejects_outside_ball(self):
        with pytest.raises(InvalidState):
            DensityOp.from_bloch((0.9, 0.6, 0.0))

    def test_rejects_nan(self):
        with pytest.raises(InvalidState):
            DensityOp.from_bloch((math.nan, 0.0, 0.0))

    def test_rejects_trace_part_other_than_half(self):
        with pytest.raises(InvalidState, match="trace_part = 1/2"):
            DensityOp(0.3, (0.0, 0.0, 0.0))

    def test_boundary_pure_state_accepted(self):
        v = 1.0 / math.sqrt(3.0)
        rho = DensityOp.from_bloch((v, v, v))
        assert min(eigenvalues(rho)) >= -1e-12


class TestSharpObservable:
    def test_from_axis_normalizes(self):
        b = SharpObservable.from_axis((3.0, 0.0, 4.0))
        assert np.linalg.norm(b.bloch) == pytest.approx(1.0, abs=1e-15)
        assert b.trace_part == 0.0

    def test_rejects_nan_axis(self):
        with pytest.raises(InvalidState):
            SharpObservable.from_axis((math.nan, 0.0, 1.0))

    def test_rejects_trace_part_and_null_axis(self):
        with pytest.raises(InvalidState, match="traceless"):
            SharpObservable(0.5, (1.0, 0.0, 0.0))
        with pytest.raises(DegeneratePair, match="null axis"):
            SharpObservable.from_axis((0, 0, 0))

    def test_square_is_identity(self):
        b = SharpObservable.from_axis((1.0, 2.0, -2.0))
        np.testing.assert_allclose(matrix(b) @ matrix(b), np.eye(2), atol=1e-14)

    def test_anticommutes_with(self):
        x = SharpObservable.from_axis((1.0, 0.0, 0.0))
        z = SharpObservable.from_axis((0.0, 0.0, 1.0))
        assert x.anticommutes_with(z)
        assert not x.anticommutes_with(x)
        m = matrix(x) @ matrix(z) + matrix(z) @ matrix(x)
        np.testing.assert_allclose(m, 0.0, atol=1e-15)


class TestTraceNorm:
    @given(bloch3, bloch3)
    @settings(max_examples=300, deadline=None)
    def test_matches_eigenvalue_oracle(self, n0, n1):
        if sum(c * c for c in n0) > 1 or sum(c * c for c in n1) > 1:
            return
        r0, r1 = DensityOp.from_bloch(n0), DensityOp.from_bloch(n1)
        diff = r0 - r1
        assert trace_norm(diff) == pytest.approx(
            _matrix_trace_norm(matrix(diff)), abs=1e-12
        )

    def test_distinguishability_is_half_trace_norm(self):
        r0 = DensityOp.from_bloch((0.2, 0.1, 0.6))
        r1 = DensityOp.from_bloch((-0.3, 0.0, 0.1))
        assert distinguishability(r0, r1) == pytest.approx(
            0.5 * _matrix_trace_norm(matrix(r0 - r1)), abs=1e-14
        )

    def test_orthogonal_pure_states_saturate(self):
        r0 = DensityOp.from_bloch((0.0, 0.0, 1.0))
        r1 = DensityOp.from_bloch((0.0, 0.0, -1.0))
        assert distinguishability(r0, r1) == pytest.approx(1.0, abs=1e-15)


class TestHelstrom:
    def test_observable_is_difference_direction(self):
        r0 = DensityOp.from_bloch((0.6, 0.0, 0.3))
        r1 = DensityOp.from_bloch((-0.2, 0.1, 0.0))
        b = helstrom_observable(r0, r1)
        d = np.array(r0.bloch_vector) - np.array(r1.bloch_vector)
        np.testing.assert_allclose(b.bloch, d / np.linalg.norm(d), atol=1e-14)

    def test_guessing_probability_achieves_bound(self):
        # optimum equals (1 + distinguishability) / 2
        r0 = DensityOp.from_bloch((0.5, -0.2, 0.4))
        r1 = DensityOp.from_bloch((0.0, 0.3, -0.5))
        b = helstrom_observable(r0, r1)
        assert guessing_probability(r0, r1, b) == pytest.approx(
            0.5 * (1.0 + distinguishability(r0, r1)), abs=1e-14
        )

    def test_no_other_axis_beats_helstrom(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([3, 0], dtype=np.uint64)))
        r0 = DensityOp.from_bloch((0.5, -0.2, 0.4))
        r1 = DensityOp.from_bloch((0.0, 0.3, -0.5))
        best = guessing_probability(r0, r1, helstrom_observable(r0, r1))
        for _ in range(200):
            v = rng.normal(size=3)
            b = SharpObservable.from_axis(tuple(v))
            assert guessing_probability(r0, r1, b) <= best + 1e-14

    def test_degenerate_pair_raises(self):
        rho = DensityOp.from_bloch((0.1, 0.2, 0.3))
        with pytest.raises(DegeneratePair):
            helstrom_observable(rho, rho)
