"""Discrete-time quantum process tensors, causal breaks, and operational
(non-)Markovianity measures."""

from .errors import (
    ConfigError,
    DimensionMismatch,
    FormatError,
    NotHermitian,
    NotPositive,
    PtError,
    QuadratureError,
    SingularFrame,
    SweepGuardError,
    TomographyDataError,
    UnresolvableConditional,
    ValidationError,
)
from .linalg import (
    LegShape,
    fidelity,
    hermitian_eig,
    matrix_log_on_support,
    partial_trace,
    permute_legs,
    singular_values,
    tensor_product,
    trace_norm_distance,
)
from .markov import (
    ClassicalCheck,
    ClassicalProcess,
    DivisibilityReport,
    MarkovReport,
    MeasureReport,
    apply_local_channel,
    bond_dimension,
    classical_markov_check,
    classical_process,
    closest_markov,
    confusion_probability,
    divisibility_test,
    markov_test,
    non_markovianity,
)
from .models import (
    ExperimentGrid,
    SEModel,
    b2_conditional_output,
    b2_env_after_break,
    build_process_tensor,
    model_b1,
    model_b2,
    model_b3,
    model_markov,
    simulate_sequence,
    swap_unitary,
)
from .process_tensor import (
    ConditionalState,
    ControlSequence,
    ProcessTensor,
    default_break,
    from_tomography,
)
from .qops import (
    CausalBreak,
    CptpReport,
    DensityMatrix,
    Instrument,
    OperationBasis,
    QuantumMap,
    apply_map,
    choi_of,
    compose,
    decompose_operation,
    ic_basis,
    ic_frame_states,
    is_cptp,
)

__version__ = "0.1.0"
