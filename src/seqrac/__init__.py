"""Sequential 2->1 qubit random access codes with unsharp measurements."""

from .bloch import (
    DensityOp,
    HermitianOp,
    SharpObservable,
    distinguishability,
    guessing_probability,
    helstrom_observable,
    trace_norm,
)
from .channel import (
    KrausPair,
    SequentialChannelStep,
    UnsharpBinaryMeasurement,
    kraus_pair,
    nonselective_step,
    projective_dephase,
    selective_outcome,
    transport_observable,
)
from .errors import (
    AlignmentError,
    AxisError,
    DegeneratePair,
    DegenerateThreshold,
    DomainError,
    InvalidState,
    SearchExhausted,
    SeqracError,
    ZeroProbabilityBranch,
)
from .montecarlo import (
    SimulationConfig,
    SimulationResult,
    analytic_reference,
    run,
)
from .rac import (
    DistinguishabilityPair,
    PreparationFamily,
    ThresholdReport,
    advantage_predicate,
    avg_success,
    delta_pair,
    marginals,
    square_preparations,
    theorem1_sampler,
    thresholds,
)
from .schedule import (
    Schedule,
    feasibility_report,
    find_omega,
    lambda_sequence,
    max_feasible_receivers,
)
from .sequential import (
    SequentialTrace,
    lemma2_violation_probe,
    per_bob_success,
    propagate,
)
from .smallangle import (
    RationalPolynomial,
    leading_coefficient,
    odd_power_expansion,
    omega_estimate,
    small_angle_poly,
)

__version__ = "0.1.0"
