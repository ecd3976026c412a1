import types

import ptmarkov

# Every public name of the package, submodules aside. Adding or removing an
# export is a deliberate edit of this tuple.
PUBLIC_NAMES = (
    "CausalBreak",
    "ClassicalCheck",
    "ClassicalProcess",
    "ConditionalState",
    "ConfigError",
    "DensityMatrix",
    "DimensionMismatch",
    "DivisibilityReport",
    "FormatError",
    "Instrument",
    "LegShape",
    "MarkovReport",
    "MeasureReport",
    "NotHermitian",
    "NotPositive",
    "OperationBasis",
    "ProcessTensor",
    "PtError",
    "QuadratureError",
    "QuantumMap",
    "SEModel",
    "SingularFrame",
    "SweepGuardError",
    "TomographyDataError",
    "UnresolvableConditional",
    "ValidationError",
    "apply_local_channel",
    "b2_conditional_output",
    "b2_env_after_break",
    "bond_dimension",
    "build_process_tensor",
    "classical_markov_check",
    "classical_process",
    "closest_markov",
    "confusion_probability",
    "default_break",
    "divisibility_test",
    "fidelity",
    "from_tomography",
    "hermitian_eig",
    "ic_basis",
    "ic_frame_states",
    "markov_test",
    "model_b1",
    "model_b2",
    "model_b3",
    "model_markov",
    "non_markovianity",
    "partial_trace",
    "permute_legs",
    "simulate_sequence",
    "swap_unitary",
    "tensor_product",
    "trace_norm_distance",
)


def test_public_surface_is_pinned():
    names = tuple(sorted(
        name for name, value in vars(ptmarkov).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)))
    assert names == PUBLIC_NAMES
