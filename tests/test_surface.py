import argparse
import dataclasses
import inspect
import types

import ptmarkov
from ptmarkov.cli import build_parser

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
    "b2_conditional_output",
    "b2_env_after_break",
    "bond_dimension",
    "build_process_tensor",
    "classical_markov_check",
    "classical_process",
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


# The keyword parameters (those with a default) of the public analysis entry
# points, and the option strings of `ptr analyze`. Adding or removing a
# setting is a deliberate edit of these tables.
ANALYSIS_KEYWORDS = {
    "markov_test": ("tol", "exhaustive"),
    "non_markovianity": ("bond_cutoff",),
    "divisibility_test": ("tol",),
    "bond_dimension": ("cutoff",),
    "classical_markov_check": ("tol", "marginal_tables"),
    "from_tomography": ("times",),
    "ic_basis": (),
    "ProcessTensor.conditional_state": ("past", "future"),
}

ANALYZE_OPTIONS = (
    "--bond-cutoff", "--bonddim", "--classical", "--csv", "--divisibility",
    "--exhaustive", "--help", "--markov", "--measure", "--output", "--tol",
    "-h", "-o",
)


def _parameters(name: str) -> list[inspect.Parameter]:
    """The parameters of a public function or method, named as
    ``func`` or ``Class.method``."""
    func = ptmarkov
    for part in name.split("."):
        func = getattr(func, part)
    return list(inspect.signature(func).parameters.values())


def test_analysis_keywords_are_pinned():
    got = {name: tuple(p.name for p in _parameters(name)
                       if p.default is not inspect.Parameter.empty)
           for name in ANALYSIS_KEYWORDS}
    assert got == ANALYSIS_KEYWORDS


# The positional parameters (those without a default) of the entry points
# whose IC frame follows from the dimension, and the keywords of
# QuantumMap, which takes a Kraus set or a Choi matrix. A basis, break or
# superoperator argument coming back is a deliberate edit of these tables.
FRAME_POSITIONALS = {
    "markov_test": ("pt",),
    "from_tomography": ("outputs",),
    "ProcessTensor.conditional_state": ("self", "k", "prep_index",
                                        "povm_outcome"),
}
QUANTUM_MAP_KEYWORDS = ("in_dim", "out_dim", "kraus", "choi")


def test_frame_follows_from_the_dimension():
    got = {name: tuple(p.name for p in _parameters(name)
                       if p.default is inspect.Parameter.empty)
           for name in FRAME_POSITIONALS}
    assert got == FRAME_POSITIONALS
    assert tuple(p.name for p in _parameters("QuantumMap.__init__")
                 if p.kind is inspect.Parameter.KEYWORD_ONLY) == \
        QUANTUM_MAP_KEYWORDS


# The fields of the operation basis: its contraction rows are the one
# layout of the frame. A dual frame or Gram field coming back is a
# deliberate edit.
OPERATION_BASIS_FIELDS = ("dimension", "elements", "rows", "label")


def test_operation_basis_fields_are_pinned():
    assert tuple(f.name for f in dataclasses.fields(ptmarkov.OperationBasis)) \
        == OPERATION_BASIS_FIELDS


# The fields of a model. Adding or removing one is a deliberate edit.
SEMODEL_FIELDS = ("system_dim", "env_dim", "initial_joint", "step_unitaries",
                  "ensemble")


def test_semodel_fields_are_pinned():
    assert tuple(f.name for f in dataclasses.fields(ptmarkov.SEModel)) == \
        SEMODEL_FIELDS


def test_analyze_options_are_pinned():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    options = tuple(sorted(s for a in sub.choices["analyze"]._actions
                           for s in a.option_strings))
    assert options == ANALYZE_OPTIONS
