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
    fidelity,
    hermitian_eig,
    partial_trace,
    permute_legs,
    tensor_product,
    trace_norm_distance,
)
from .markov import (
    ClassicalCheck,
    ClassicalProcess,
    DivisibilityReport,
    MarkovReport,
    MeasureReport,
    bond_dimension,
    classical_markov_check,
    classical_process,
    confusion_probability,
    divisibility_test,
    markov_test,
    non_markovianity,
)
from .models import (
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
    ProcessTensor,
    from_tomography,
)
from .qops import (
    CausalBreak,
    DensityMatrix,
    Instrument,
    OperationBasis,
    QuantumMap,
    default_break,
    ic_basis,
    ic_frame_states,
)

__version__ = "0.1.0"
