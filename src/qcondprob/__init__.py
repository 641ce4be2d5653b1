"""Conditional probability over classical and quantum event algebras.

Events are orthogonal projection matrices, states are density matrices,
and conditioning follows the compression rule

    mu(d | e) = trace(rho @ e @ d @ e) / trace(rho @ e).

The package detects when such a conditional probability is
state-independent, decomposes two-part conditions into classical and
interference contributions, evaluates and samples sequential apparatus
chains, and searches finite event collections for noncontextual truth
assignments.
"""

from .errors import (
    ConvergenceError,
    InvariantError,
    QcpError,
    UndefinedProbabilityError,
    ValidationError,
)
from .tolerances import DEFAULT_TOL, Tolerances, clamp_probability
from .events import (
    Event,
    commutes,
    complement,
    identity_event,
    implies,
    is_orthogonal,
    lattice_meet,
    validate_event,
    zero_event,
)
from .classical import (
    ClassicalEvent,
    ClassicalSpace,
    classical_cond_prob,
    classical_prob,
    classical_repeated,
    embed_diagonal,
    embed_event,
)
from .conditioning import (
    PureVector,
    State,
    cond_prob,
    cond_state,
    repeated_cond_prob,
    state_value,
)
from .objective import (
    CondProbResult,
    objective_cond_prob,
    objective_seq,
    pure_event_prob,
    state_from_outcome,
    transition_prob,
)
from .interference import (
    InterferenceReport,
    ScanPoint,
    double_slit_scan,
    incoherent_combine,
    objective_split,
    scan_to_csv,
    split_cond_prob,
)
from .experiments import (
    Apparatus,
    Chain,
    ChainEvaluation,
    SampleReport,
    TraceStep,
    conditioned_on_record,
    evaluate_chain,
    sample_chain,
    spin_projector,
    spin_vector,
)
from .valuation import (
    MAX_EVENTS,
    ValuationProblem,
    ValuationResult,
    build_resolutions,
    search_valuation,
)

__version__ = "0.1.0"

__all__ = [
    "Apparatus",
    "Chain",
    "ChainEvaluation",
    "ClassicalEvent",
    "ClassicalSpace",
    "CondProbResult",
    "ConvergenceError",
    "DEFAULT_TOL",
    "Event",
    "InterferenceReport",
    "InvariantError",
    "MAX_EVENTS",
    "PureVector",
    "QcpError",
    "SampleReport",
    "ScanPoint",
    "State",
    "Tolerances",
    "TraceStep",
    "UndefinedProbabilityError",
    "ValidationError",
    "ValuationProblem",
    "ValuationResult",
    "build_resolutions",
    "clamp_probability",
    "classical_cond_prob",
    "classical_prob",
    "classical_repeated",
    "commutes",
    "complement",
    "cond_prob",
    "cond_state",
    "conditioned_on_record",
    "double_slit_scan",
    "embed_diagonal",
    "embed_event",
    "evaluate_chain",
    "identity_event",
    "implies",
    "incoherent_combine",
    "is_orthogonal",
    "lattice_meet",
    "objective_cond_prob",
    "objective_seq",
    "objective_split",
    "pure_event_prob",
    "repeated_cond_prob",
    "sample_chain",
    "scan_to_csv",
    "search_valuation",
    "spin_projector",
    "spin_vector",
    "split_cond_prob",
    "state_from_outcome",
    "state_value",
    "transition_prob",
    "validate_event",
    "zero_event",
]
