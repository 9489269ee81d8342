"""The single-round 2->1 random access code over qubit preparations.

Alice encodes two bits into one of four states; a receiver asked for bit
``y`` effectively discriminates the two equal-weight marginal ensembles for
that bit.  The quantities of interest are the pair of marginal
distinguishabilities (Delta1, Delta2), the Born-rule average success
probability, and the critical unsharpness thresholds for beating the
classical bound of 3/4.  ``marginals`` and ``_half_differences`` alone pair
the four states (``BITS`` order) into marginals, as states and as tuples.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bloch import DensityOp, distinguishability
from .channel import UnsharpBinaryMeasurement
from .errors import DomainError, check_count, check_omega, check_r, check_seed, read, real

THRESHOLD_DENOM_TOL = 1e-15
QUANTUM_DISC_TOL = 1e-9

BITS = ((0, 0), (0, 1), (1, 0), (1, 1))


class PreparationFamily(NamedTuple):
    """Four qubit states indexed by the input bits (x1, x2)."""

    states: tuple[DensityOp, DensityOp, DensityOp, DensityOp]

    def state(self, x1: int, x2: int) -> DensityOp:
        return self.states[2 * x1 + x2]

    @classmethod
    def from_bloch_vectors(cls, vectors) -> "PreparationFamily":
        return cls(tuple(DensityOp.from_bloch(v) for v in vectors))


class DistinguishabilityPair(NamedTuple):
    """Marginal distinguishabilities (Delta1, Delta2), each in [0, 1]."""

    delta1: float
    delta2: float


class ThresholdReport(NamedTuple):
    """Critical unsharpness values for a distinguishability pair.

    Degenerate denominators are reported as the +inf sentinel so that
    region scans stay total.
    """

    lambda_symmetric_critical: float
    lambda_asymmetric_critical: float
    classical_simplex_violated: bool


def square_preparations(omega: float, r: float = 1.0) -> PreparationFamily:
    """Four states at ``((-1)^x1 cos(omega), 0, (-1)^x2 r sin(omega))``.

    The marginal distinguishabilities are then exactly
    ``(cos(omega), r sin(omega))``; the states are pure iff ``r = 1``.
    """
    omega = check_omega(read("omega", omega, lambda v: float(real(v))), math.pi / 2)
    r = check_r(read("r", r, lambda v: float(real(v))))
    c, s = math.cos(omega), r * math.sin(omega)
    vectors = [((-1) ** x1 * c, 0.0, (-1) ** x2 * s) for x1, x2 in BITS]
    return PreparationFamily.from_bloch_vectors(vectors)


def _check_family(prep) -> None:
    """``prep`` must be a ``PreparationFamily`` of four states, one per ``BITS`` entry."""
    states = prep.states if isinstance(prep, PreparationFamily) else prep
    count = len(states) if isinstance(states, (tuple, list)) else None
    if count != 4:
        raise DomainError(f"a preparation family holds 4 states, not {count or repr(states)}")


def marginals(prep: PreparationFamily, y: int) -> tuple[DensityOp, DensityOp]:
    """Equal-weight marginal ensembles for bit ``y`` in {1, 2}."""
    _check_family(prep)
    if y not in (1, 2):
        raise DomainError(f"bit index {y} not in {{1, 2}}")
    out = []
    for value in (0, 1):
        a, b = (rho for rho, bits in zip(prep.states, BITS) if bits[y - 1] == value)
        out.append(DensityOp.from_bloch(tuple(0.5 * (p + q) for p, q in zip(a.bloch_vector, b.bloch_vector))))
    return out[0], out[1]


def delta_pair(prep: PreparationFamily) -> DistinguishabilityPair:
    """(Delta1, Delta2) from the trace norms of the marginal differences."""
    d = []
    for y in (1, 2):
        m0, m1 = marginals(prep, y)
        d.append(distinguishability(m0, m1))
    return DistinguishabilityPair(d[0], d[1])


def _half_differences(vectors):
    """Halved bit-1 and bit-2 marginal differences of Bloch vectors in ``BITS`` order,
    by the float steps of ``distinguishability(*marginals(...))``: only a subnormal
    component, which ``DensityOp``'s halved storage rounds, can come out differently."""
    components = list(zip(*vectors))
    d1 = [(0.5 * (a + b) - 0.5 * (c + d)) * 0.5 for a, b, c, d in components]
    d2 = [(0.5 * (a + c) - 0.5 * (b + d)) * 0.5 for a, b, c, d in components]
    return d1, d2


def _vector_delta_pair(vectors) -> DistinguishabilityPair:
    """``delta_pair`` of the family with Bloch-vector tuples ``vectors``."""
    d1, d2 = _half_differences(vectors)
    return DistinguishabilityPair(math.hypot(*d1), math.hypot(*d2))


def avg_success(
    prep: PreparationFamily,
    m1: UnsharpBinaryMeasurement,
    m2: UnsharpBinaryMeasurement,
) -> float:
    """Born-rule average success over uniform inputs x in {0,1}^2, y in {1,2}.

    Bounded by ``1/2 + (lam1*Delta1 + lam2*Delta2)/4``, with equality when
    each observable is the Helstrom observable of its marginal pair.
    """
    _check_family(prep)
    total = 0.0
    for (x1, x2), rho in zip(BITS, prep.states):
        for y, m in ((1, m1), (2, m2)):
            bit = x1 if y == 1 else x2
            sign = +1 if bit == 0 else -1
            total += m.outcome_probability(rho, sign)
    return total / 8.0


def _check_delta(d):
    """``d`` if it is a real number in [0, 1]; the one distinguishability rule."""
    if type(d) is not float:  # as in channel._check_lambda
        read("distinguishability", d, real)
    if not 0.0 <= d <= 1.0:
        raise DomainError(f"distinguishability {d} outside [0, 1]")
    return d


def thresholds(dp: DistinguishabilityPair) -> ThresholdReport:
    """Symmetric and asymmetric critical unsharpness for a delta pair.

    symmetric: ``1/(Delta1+Delta2)``; asymmetric (lam1 = 1):
    ``(1-Delta1)/Delta2``.  A vanishing denominator gives +inf.
    """
    d1, d2 = _check_delta(dp.delta1), _check_delta(dp.delta2)
    return ThresholdReport(
        lambda_symmetric_critical=1.0 / (d1 + d2) if d1 + d2 >= THRESHOLD_DENOM_TOL else math.inf,
        lambda_asymmetric_critical=(1.0 - d1) / d2 if d2 >= THRESHOLD_DENOM_TOL else math.inf,
        classical_simplex_violated=d1 + d2 > 1.0,
    )


def _family_delta_sq(vectors):
    """Delta1^2 + Delta2^2 for a batch of families.

    ``vectors`` has shape (count, 4, 3); index 4 orders the states as
    (00, 01, 10, 11).  With ``s = v00 - v11`` and ``t = v01 - v10`` the
    marginal differences are ``(s + t)/2`` and ``(s - t)/2``, so the sum is
    ``(|s + t|^2 + |s - t|^2)/16 = (|s|^2 + |t|^2)/8``.  The work runs on
    component planes, which are contiguous for ``sample_bloch_vectors``.
    """
    planes = vectors.transpose(2, 1, 0)
    s = planes[:, 0] - planes[:, 3]
    t = planes[:, 1] - planes[:, 2]
    return ((s * s).sum(axis=0) + (t * t).sum(axis=0)) / 8.0


def sample_bloch_vectors(count: int, seed: int, pure: bool = False):
    """(count, 4, 3) Bloch vectors, uniform in the ball or on the sphere.

    By Archimedes' theorem, ``z`` uniform in [-1, 1) and an azimuth ``phi``
    uniform in [0, 2pi) make ``(rho cos phi, rho sin phi, z)`` with
    ``rho = sqrt(1 - z^2)`` uniform on the sphere; scaling by ``cbrt(u)``,
    ``u`` uniform in [0, 1), makes it uniform in the ball.  The array is a
    view of three contiguous (4, count) component planes.
    """
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=np.uint64(check_seed(seed))))
    planes = np.empty((3, 4, count))
    x, y, z = planes
    rng.random(out=z)
    z *= 2.0
    z -= 1.0
    rng.random(out=y)
    y *= 2.0 * np.pi
    np.cos(y, out=x)
    np.sin(y, out=y)
    rho = 1.0 - z
    rho *= 1.0 + z
    np.sqrt(rho, out=rho)
    if not pure:
        radius = np.cbrt(rng.random(size=z.shape))
        rho *= radius
        z *= radius
    x *= rho
    y *= rho
    return planes.transpose(2, 1, 0)


def theorem1_sampler(count: int, seed: int, pure: bool = False) -> float:
    """Maximum Delta1^2 + Delta2^2 over ``count`` random families.

    The bound asserts this never exceeds 1; pure-state sampling covers the
    saturating boundary, ball-uniform sampling the interior.
    """
    vectors = sample_bloch_vectors(check_count(count, "count"), seed, pure=pure)
    return float(_family_delta_sq(vectors).max())
