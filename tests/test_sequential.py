"""Sequential propagation: exact trace norms vs the closed-form recursion."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqrac import (
    AlignmentError,
    AxisError,
    DistinguishabilityPair,
    DomainError,
    PreparationFamily,
    SequentialChannelStep,
    SharpObservable,
    delta_pair,
    lemma2_violation_probe,
    marginals,
    nonselective_step,
    per_bob_success,
    propagate,
    square_preparations,
)
from seqrac.rac import BITS
from seqrac.sequential import ALIGNMENT_TOL

X = SharpObservable.from_axis((1.0, 0.0, 0.0))
Z = SharpObservable.from_axis((0.0, 0.0, 1.0))


def steps_for(lams):
    return [SequentialChannelStep(X, Z, lam) for lam in lams]


class TestPerBobSuccess:
    def test_formula(self):
        dp = DistinguishabilityPair(0.9, 0.3)
        assert per_bob_success(dp, 0.5) == pytest.approx(
            0.5 + 0.25 * (0.9 + 0.5 * 0.3), abs=1e-15
        )

    def test_lambda_domain(self):
        with pytest.raises(DomainError):
            per_bob_success(DistinguishabilityPair(0.5, 0.5), 1.1)


class TestPropagate:
    def test_trace_shape_and_final_entry(self):
        prep = square_preparations(0.3)
        trace = propagate(prep, steps_for([0.5, 0.8]))
        assert len(trace.entries) == 3
        assert trace.entries[-1].success_probability is None
        assert trace.entries[0].success_probability is not None

    def test_first_entry_is_input_family(self):
        prep = square_preparations(0.3, 0.9)
        trace = propagate(prep, steps_for([0.4]))
        dp = delta_pair(prep)
        assert trace.entries[0].exact.delta1 == pytest.approx(dp.delta1, abs=1e-15)
        assert trace.entries[0].exact.delta2 == pytest.approx(dp.delta2, abs=1e-15)

    def test_two_receiver_reference_values(self):
        # omega=0.3, lam=(0.5, 0.8): receiver successes from the recursion
        prep = square_preparations(0.3)
        trace = propagate(prep, steps_for([0.5, 0.8]))
        c, s = math.cos(0.3), math.sin(0.3)
        e1, e2 = trace.entries[0], trace.entries[1]
        assert e1.success_probability == pytest.approx(
            0.5 + 0.25 * (c + 0.5 * s), abs=1e-14
        )
        shrink = 0.5 * (1.0 + math.sqrt(1.0 - 0.25))
        assert e2.exact.delta1 == pytest.approx(shrink * c, abs=1e-14)
        assert e2.exact.delta2 == pytest.approx(s / 2.0, abs=1e-14)
        assert e2.success_probability == pytest.approx(
            0.5 + 0.25 * (shrink * c + 0.8 * s / 2.0), abs=1e-14
        )

    def test_recursion_matches_exact_for_orthogonal_axes(self):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(23)))
        for _ in range(100):
            omega = float(rng.uniform(0.05, 1.5))
            r = float(rng.uniform(0.1, 1.0))
            n = int(rng.integers(1, 9))
            lams = [float(v) for v in rng.uniform(0.0, 1.0, size=n)]
            trace = propagate(square_preparations(omega, r), steps_for(lams))
            assert trace.max_discrepancy() < 1e-12

    def test_projective_chain_kills_second_bit(self):
        # lam=1 dephases completely: Delta2 halves, Delta1 does not shrink
        prep = square_preparations(0.4, 0.8)
        trace = propagate(prep, steps_for([1.0, 1.0]))
        dp = delta_pair(prep)
        e3 = trace.entries[2]
        assert e3.exact.delta1 == pytest.approx(dp.delta1 / 4.0, abs=1e-14)
        assert e3.exact.delta2 == pytest.approx(dp.delta2 / 4.0, abs=1e-14)

    def test_trivial_measurement_keeps_sharp_axis(self):
        prep = square_preparations(0.4)
        trace = propagate(prep, steps_for([0.0]))
        dp = delta_pair(prep)
        e2 = trace.entries[1]
        assert e2.exact.delta1 == pytest.approx(dp.delta1, abs=1e-14)
        assert e2.exact.delta2 == pytest.approx(dp.delta2 / 2.0, abs=1e-14)


def reference_propagate(prep, steps):
    """The object path: a PreparationFamily stepped state by state through
    ``nonselective_step`` and measured by ``delta_pair`` at every receiver.
    Returns the (exact, recursion, success) entries and every family seen."""
    dp0 = delta_pair(prep)
    shrink1 = 1.0
    families = [prep]
    entries = []
    for k in range(len(steps) + 1):
        exact = delta_pair(families[-1])
        recursion = DistinguishabilityPair(dp0.delta1 * shrink1, dp0.delta2 / 2.0**k)
        success = per_bob_success(exact, steps[k].lam) if k < len(steps) else None
        entries.append((exact, recursion, success))
        if k < len(steps):
            lam = steps[k].lam
            shrink1 *= 0.5 * (1.0 + math.sqrt((1.0 - lam) * (1.0 + lam)))
            states = families[-1].states
            families.append(
                PreparationFamily(tuple(nonselective_step(rho, steps[k]) for rho in states))
            )
    return entries, families


def unit(theta, phi):
    sin = math.sin(theta)
    return (sin * math.cos(phi), sin * math.sin(phi), math.cos(theta))


angles = st.tuples(
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=2 * math.pi),
)
# Components below 0.58 keep |n| < 1; the families need not be aligned.
general_family = st.lists(
    st.tuples(*[st.floats(min_value=-0.57, max_value=0.57)] * 3), min_size=4, max_size=4
).map(PreparationFamily.from_bloch_vectors)
square_family = st.builds(
    square_preparations,
    st.floats(min_value=1e-3, max_value=math.pi / 2 - 1e-3),
    st.floats(min_value=0.05, max_value=1.0),
)


class TestReferenceOracle:
    @given(
        st.one_of(square_family, general_family),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40),
        st.one_of(st.none(), angles),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_object_path_exactly(self, prep, lams, tilt):
        b2 = Z if tilt is None else SharpObservable.from_axis(unit(*tilt))
        steps = [SequentialChannelStep(X, b2, lam) for lam in lams]
        want, families = reference_propagate(prep, steps)
        # The documented exception: DensityOp stores n/2, which rounds a
        # component below twice the smallest normal double.
        assume(all(
            c == 0.0 or abs(c) >= 2 * sys.float_info.min
            for family in families for rho in family.states for c in rho.bloch_vector
        ))
        trace = propagate(prep, steps, check_alignment=False)
        assert len(trace.entries) == len(want)
        for entry, (exact, recursion, success) in zip(trace.entries, want):
            assert entry.exact == exact
            assert entry.recursion == recursion
            assert entry.success_probability == success


class TestGuards:
    def test_empty_steps_rejected(self):
        with pytest.raises(DomainError, match="^at least one channel step is required$"):
            propagate(square_preparations(0.3), [])

    def test_axis_mismatch_rejected(self):
        steps = [
            SequentialChannelStep(X, Z, 0.5),
            SequentialChannelStep(Z, X, 0.5),
        ]
        with pytest.raises(AxisError):
            propagate(square_preparations(0.3), steps)

    def test_misaligned_preparation_rejected(self):
        # marginal differences along x and z, steps along z and x
        steps = [SequentialChannelStep(Z, X, 0.5)]
        with pytest.raises(AlignmentError):
            propagate(square_preparations(0.3), steps)

    def test_probe_bypasses_alignment(self):
        steps = [SequentialChannelStep(Z, X, 0.5)]
        lemma2_violation_probe(square_preparations(0.3), steps)


def tilted_family(omega, r, y, tilt):
    """``square_preparations(omega, r)`` with its bit-``y`` marginal difference
    moved ``tilt`` off its axis, along the y axis, which no step measures."""
    c, s = math.cos(omega), r * math.sin(omega)
    return PreparationFamily.from_bloch_vectors(
        [((-1) ** x1 * c, (-1) ** (x1, x2)[y - 1] * tilt / 2, (-1) ** x2 * s) for x1, x2 in BITS]
    )


def object_path_aligned(prep, step):
    """The alignment decision made on DensityOp marginals: unhalved
    differences, compared with ALIGNMENT_TOL as they are."""
    for y, obs in ((1, step.b1), (2, step.b2)):
        m0, m1 = marginals(prep, y)
        d = [a - b for a, b in zip(m0.bloch_vector, m1.bloch_vector)]
        along = sum(a * c for a, c in zip(obs.bloch, d))
        perp = [c - along * a for a, c in zip(obs.bloch, d)]
        if math.hypot(*perp) > ALIGNMENT_TOL or along < -ALIGNMENT_TOL:
            return False
    return True


omegas = st.floats(min_value=1e-3, max_value=math.pi / 2 - 1e-3)
radii = st.floats(min_value=0.05, max_value=1.0)


class TestAlignmentTolerance:
    @given(omegas, radii, st.sampled_from([1, 2]))
    @settings(max_examples=100, deadline=None)
    def test_tilts_either_side_of_the_tolerance(self, omega, r, y):
        steps = steps_for([0.5])
        propagate(tilted_family(omega, r, y, 0.5e-9), steps)
        with pytest.raises(AlignmentError, match=f"bit-{y} "):
            propagate(tilted_family(omega, r, y, 2e-9), steps)

    def test_anti_aligned_family_rejected(self):
        steps = [SequentialChannelStep(SharpObservable.from_axis((-1.0, 0.0, 0.0)), Z, 0.5)]
        with pytest.raises(AlignmentError, match="bit-1 "):
            propagate(square_preparations(0.3), steps)

    @given(
        omegas,
        radii,
        st.sampled_from([1, 2]),
        st.one_of(
            st.floats(min_value=0.0, max_value=4e-9),
            st.sampled_from([ALIGNMENT_TOL, math.nextafter(ALIGNMENT_TOL, 1.0)]),
        ),
        st.floats(min_value=-2e-9, max_value=2e-9),
    )
    @settings(max_examples=300, deadline=None)
    def test_decisions_match_the_object_path(self, omega, r, y, tilt, phi):
        # phi turns both step axes in the x-z plane, off both differences
        b1 = SharpObservable.from_axis((math.cos(phi), 0.0, math.sin(phi)))
        b2 = SharpObservable.from_axis((-math.sin(phi), 0.0, math.cos(phi)))
        prep = tilted_family(omega, r, y, tilt)
        step = SequentialChannelStep(b1, b2, 0.5)
        try:
            propagate(prep, [step])
            accepted = True
        except AlignmentError:
            accepted = False
        assert accepted == object_path_aligned(prep, step)


class TestTiltedNegativeControl:
    def test_orthogonal_probe_is_tiny(self):
        assert (
            lemma2_violation_probe(square_preparations(0.3, 0.9), steps_for([0.3, 0.7]))
            < 1e-14
        )

    def test_tilted_probe_is_large(self):
        tilted = SharpObservable.from_axis((0.5, 0.0, math.sqrt(3) / 2))
        steps = [SequentialChannelStep(X, tilted, 0.8)] * 3
        assert lemma2_violation_probe(square_preparations(0.3, 0.9), steps) > 1e-6
