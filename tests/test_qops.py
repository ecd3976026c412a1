import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptmarkov import (
    CausalBreak,
    DensityMatrix,
    DimensionMismatch,
    Instrument,
    PtError,
    QuantumMap,
    ValidationError,
    build_process_tensor,
    default_break,
    ic_basis,
    ic_frame_states,
    model_b1,
    model_markov,
    tensor_product,
)
from ptmarkov.linalg import hermitize
from ptmarkov.random_ops import computational_reprepare_instrument, random_cptp

from oracles import (
    P0,
    P1,
    PP,
    SX,
    apply_choi,
    apply_kraus,
    choi_from_superop,
    compose,
    depolarizing,
    link_compose_choi,
    operation_duals,
    random_reprepare_instrument,
)

RNG = np.random.default_rng(77)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def test_density_matrix_validation():
    DensityMatrix(PP)
    DensityMatrix(PP / 2)  # subnormalized is fine
    with pytest.raises(Exception):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(Exception):
        DensityMatrix(np.diag([1.0, 1.0]).astype(complex))  # trace 2


NAN_STATE = np.array([[0.5, np.nan], [np.nan, 0.5]])
NAN_DIAGONAL = np.diag([np.nan, 0.5])


@pytest.mark.parametrize("build", [
    lambda: hermitize(NAN_STATE),
    lambda: DensityMatrix(NAN_STATE),
    lambda: DensityMatrix(NAN_DIAGONAL),
    lambda: DensityMatrix(np.diag([np.inf, 0.0])),
    lambda: build_process_tensor(model_b1(1, 1, rho0=NAN_STATE), (0, 1)),
    lambda: CausalBreak(effects=(P0, np.diag([0.0, np.nan])),
                        preparations=(P0,)),
    lambda: CausalBreak(effects=(P0, P1), preparations=(NAN_DIAGONAL,)),
    lambda: Instrument(
        members=(QuantumMap.from_choi(np.full((4, 4), np.nan)),)),
    lambda: model_markov([QuantumMap.from_choi(np.full((4, 4), np.nan))], P0),
], ids=["hermitize", "state", "state-diagonal", "state-inf-diagonal",
        "b1-initial-state", "break-effect", "break-preparation", "instrument",
        "markov-channel"])
def test_nan_fails_validation(build):
    """Every bound is tested in its passing direction, so a NaN entry
    fails it with a PtError instead of being accepted, or of ending in a
    raw numpy error or warning further down; an infinite one too."""
    with pytest.raises(PtError):
        build()


def test_huge_finite_state_is_refused_by_its_trace():
    """Symmetrizing halves before it adds, so a Hermitian matrix with an
    entry near the float limit reaches the trace check, which refuses it
    with a ValidationError and no numpy overflow warning (filterwarnings
    makes a warning an error)."""
    with pytest.raises(ValidationError, match="trace"):
        DensityMatrix([[1.5e308, 0], [0, 0]])
    assert hermitize(np.diag([1.5e308, 0.0]))[0, 0] == 1.5e308


def test_density_matrix_helpers():
    psi = DensityMatrix(np.array([[1, -1j], [1j, 1]]) / 2)
    assert abs(psi.trace - 1.0) <= 1e-12
    sub = DensityMatrix(PP / 4)
    assert abs(sub.trace - 0.25) <= 1e-12
    assert abs(sub.normalized().trace - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# Choi matrices
# ---------------------------------------------------------------------------

def test_choi_identity_channel():
    c = QuantumMap.identity(2).choi
    assert abs(np.trace(c) - 2.0) <= 1e-14
    w = np.linalg.eigvalsh(c)
    assert (w > 1e-12).sum() == 1  # rank one


def test_choi_fully_depolarizing():
    c = QuantumMap.prepare(np.eye(2) / 2).choi
    assert np.abs(c - np.eye(4) / 2).max() <= 1e-14


def test_choi_vs_superoperator_oracle():
    qmap = random_cptp(2, RNG, kraus_rank=2)
    oracle = choi_from_superop(qmap.superoperator, 2)
    assert np.abs(qmap.choi - oracle).max() <= 1e-13


def test_representation_round_trips():
    qmap = random_cptp(3, RNG, kraus_rank=2)
    via_choi = QuantumMap.from_choi(qmap.choi)
    via_super = QuantumMap.from_choi(choi_from_superop(qmap.superoperator, 3))
    rho = np.eye(3, dtype=complex) / 3
    for other in (via_choi, via_super):
        assert np.abs(qmap.apply(rho) - other.apply(rho)).max() <= 1e-13
    rebuilt = QuantumMap.from_kraus(via_choi.kraus)
    assert np.abs(rebuilt.choi - qmap.choi).max() <= 1e-12


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def test_apply_unitary_flip():
    out = DensityMatrix(QuantumMap.from_unitary(SX).apply(P0))
    assert np.abs(out.matrix - P1).max() <= 1e-14


@pytest.mark.parametrize("theta", [0.3, 0.9, np.pi / 4])
def test_apply_depolarizing_closed_form(theta):
    qmap = depolarizing(2, np.sin(theta) ** 2)
    rho = PP
    expected = np.cos(theta) ** 2 * rho + np.sin(theta) ** 2 * np.eye(2) / 2
    assert np.abs(qmap.apply(rho) - expected).max() <= 1e-14


def test_apply_measure_and_discard_born_rule():
    qmap = QuantumMap.measure_and_prepare(P0, P0)
    out = DensityMatrix(qmap.apply(PP))
    assert abs(out.trace - 0.5) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_apply_is_linear(seed):
    rng = np.random.default_rng(seed)
    qmap = random_cptp(2, rng, kraus_rank=2)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    x = (x + x.conj().T) / 2
    y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    y = (y + y.conj().T) / 2
    a, b = rng.normal(), rng.normal()
    lhs = qmap.apply(a * x + b * y)
    rhs = a * qmap.apply(x) + b * qmap.apply(y)
    assert np.abs(lhs - rhs).max() <= 1e-11


# ---------------------------------------------------------------------------
# composition: the oracle's superoperator product against the package's
# representations
# ---------------------------------------------------------------------------

def test_compose_with_identity():
    qmap = random_cptp(2, RNG)
    got = compose(QuantumMap.identity(2), qmap)
    assert np.abs(got.choi - qmap.choi).max() <= 1e-13


def test_compose_depolarizing_factors_multiply():
    c1, c2 = np.cos(0.4) ** 2, np.cos(1.1) ** 2
    m1 = depolarizing(2, 1 - c1)
    m2 = depolarizing(2, 1 - c2)
    got = compose(m2, m1)
    expected = depolarizing(2, 1 - c1 * c2)
    assert np.abs(got.superoperator - expected.superoperator).max() <= 1e-13


def test_compose_after_prepare_is_prepare():
    qmap = random_cptp(2, RNG)
    prep = QuantumMap.prepare(PP)
    got = compose(qmap, prep)
    expected = QuantumMap.prepare(qmap.apply(PP))
    assert np.abs(got.choi - expected.choi).max() <= 1e-13


def test_compose_choi_against_link_oracle():
    f = random_cptp(2, RNG)
    g = random_cptp(2, RNG)
    got = compose(f, g).choi
    oracle = link_compose_choi(f.choi, g.choi, 2)
    assert np.abs(got - oracle).max() <= 1e-12


# ---------------------------------------------------------------------------
# CP and TP defects
# ---------------------------------------------------------------------------

def test_is_cptp_identity():
    qmap = QuantumMap.identity(2)
    assert qmap.cp_defect <= 1e-14 and qmap.tp_defect <= 1e-14


def test_is_cptp_transpose_map():
    # transpose superoperator: rho -> rho.T, i.e. SWAP of vec indices
    sup = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            sup[i * 2 + j, j * 2 + i] = 1.0
    qmap = QuantumMap.from_choi(choi_from_superop(sup, 2))
    assert abs(qmap.cp_defect - 1.0) <= 1e-12
    assert qmap.tp_defect <= 1e-14


def test_is_cptp_prepare():
    qmap = QuantumMap.prepare(P0)
    assert qmap.cp_defect <= 1e-14 and qmap.tp_defect <= 1e-14


@pytest.mark.parametrize("build", [
    lambda: QuantumMap.from_kraus([]),
    lambda: Instrument(members=()),
    lambda: CausalBreak(effects=(), preparations=(P0,)),
    lambda: CausalBreak(effects=(P0, P1), preparations=()),
], ids=["kraus", "instrument", "break-effects", "break-preparations"])
def test_empty_sets_are_refused(build):
    with pytest.raises(ValidationError, match="at least one"):
        build()


# ---------------------------------------------------------------------------
# instruments and causal breaks
# ---------------------------------------------------------------------------

def test_instrument_requires_tp_sum():
    half = QuantumMap.from_kraus([np.eye(2) / np.sqrt(2)])
    Instrument(members=(half, half))
    with pytest.raises(ValidationError):
        Instrument(members=(half,))


@pytest.mark.parametrize("shapes", [
    [(2, 2), (3, 2)],  # Choi sizes 4 and 6: numpy could not add them
    [(3, 2), (2, 3)],  # 2 -> 3 and 3 -> 2: both Choi matrices 6 x 6
], ids=["choi-sizes-differ", "dims-swapped"])
def test_instrument_refuses_members_of_other_dims(shapes):
    members = [QuantumMap.from_kraus([np.eye(*shape) / np.sqrt(2)])
               for shape in shapes]
    with pytest.raises(DimensionMismatch, match="instrument member 1 maps"):
        Instrument(members=tuple(members))


def test_instrument_choi_sum_is_tp(basis2):
    rng = np.random.default_rng(3)
    ins = random_reprepare_instrument(2, 3, rng)
    total = sum(m.choi for m in ins.members)
    red = np.einsum("aiaj->ij", total.reshape(2, 2, 2, 2))
    assert np.abs(red - np.eye(2)).max() <= 1e-10


def test_causal_break_default():
    brk = default_break(2)
    assert np.abs(sum(brk.effects) - np.eye(2)).max() <= 1e-10
    assert brk.n_outcomes == 4 and brk.n_preparations == 4
    m = brk.map(1, 2)
    # output independent of input
    out_a = m.apply(P0)
    out_b = m.apply(P1)
    assert np.abs(out_a / np.trace(out_a) - out_b / np.trace(out_b)).max() \
        <= 1e-12


def test_causal_break_rejects_bad_povm():
    with pytest.raises(ValidationError):
        CausalBreak(effects=(P0, P0), preparations=(P0,))


# ---------------------------------------------------------------------------
# informationally complete bases
# ---------------------------------------------------------------------------

def _frame_coefficients(qmap, basis):
    """Coefficients c of a map in the basis, sum_i c_i rows_i = its
    flattened superoperator, through the inverse of ``rows``: the dual
    frame that ``from_tomography`` uses."""
    return qmap.superoperator.reshape(-1) @ np.linalg.inv(basis.rows)


def test_frame_states_qubit():
    projs = ic_frame_states(2)
    assert len(projs) == 4
    for got, expected in zip(projs, (P0, P1, PP,
                                     np.array([[1, -1j], [1j, 1]]) / 2)):
        assert np.abs(got - expected).max() <= 1e-14


def test_ic_basis_counts_and_gram_rank(basis2):
    """The Gram matrix of the element Chois is that of the contraction
    rows, which a reshuffle only permutes, and it has full rank 16."""
    assert len(basis2) == 16
    vecs = np.stack([e.choi.reshape(-1) for e in basis2.elements])
    gram = basis2.rows.conj() @ basis2.rows.T
    assert np.abs(gram - vecs.conj() @ vecs.T).max() <= 1e-14
    svals = np.linalg.svd(gram, compute_uv=False)
    assert (svals > 1e-10 * svals.max()).sum() == 16


@pytest.mark.parametrize("d", [2, 3])
def test_ic_basis_frame_reconstruction(d):
    basis = ic_basis(d)
    rng = np.random.default_rng(d)
    qmap = random_cptp(d, rng, kraus_rank=2)
    coeffs = _frame_coefficients(qmap, basis)
    resummed = sum(c * e.choi for c, e in zip(coeffs, basis.elements))
    assert np.abs(resummed - qmap.choi).max() <= 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_ic_basis_is_built_once_and_read_only(d):
    """One basis per dimension, shared by every caller, so its arrays
    cannot be written through: the contraction rows, and each element's
    Choi matrix and the representations derived from it."""
    basis = ic_basis(d)
    assert ic_basis(d) is basis
    elements = [a for e in basis.elements
                for a in (e.choi, e.superoperator, *e.kraus)]
    for a in (basis.rows, *elements):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0


@pytest.mark.parametrize("d", [2, 3])
def test_default_break_is_built_once_and_read_only(d):
    """One default break per dimension, shared by every caller, so its
    effects and preparations cannot be written through."""
    brk = default_break(d)
    assert default_break(d) is brk
    for a in (*brk.effects, *brk.preparations):
        with pytest.raises(ValueError):
            a[0, 0] = 0


@pytest.mark.parametrize("d", [2, 3])
def test_frame_rows_are_cached_read_only_superoperators(d):
    """The contraction rows of the basis, (n, d**4), and of the break,
    (n_prep, n_out, d**4), are the stacked flattened superoperators of
    their maps, built once and read-only."""
    basis, brk = ic_basis(d), default_break(d)
    cases = [
        (basis.rows, [e.superoperator.reshape(-1) for e in basis.elements]),
        (brk.rows, [[brk.map(r, s).superoperator.reshape(-1)
                     for r in range(brk.n_outcomes)]
                    for s in range(brk.n_preparations)]),
    ]
    for rows, maps in cases:
        assert np.array_equal(rows, np.array(maps))
        assert rows.shape == (*np.shape(maps)[:-1], d ** 4)
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 0
    assert basis.rows.shape == (d ** 4, d ** 4)
    assert brk.rows.shape == (d * d, d * d, d ** 4)
    assert ic_basis(d).rows is basis.rows
    assert default_break(d).rows is brk.rows


@pytest.mark.parametrize("d", [2, 3])
def test_computational_instrument_is_built_once_and_read_only(d):
    """`ptr analyze --classical` takes one computational instrument per
    dimension, shared, so its member Choi matrices cannot be written
    through."""
    ins = computational_reprepare_instrument(d)
    assert computational_reprepare_instrument(d) is ins
    for m in ins.members:
        with pytest.raises(ValueError):
            m.choi[0, 0] = 0


def test_ic_basis_duals_biorthogonal(basis2):
    """The columns of the inverse of ``rows`` are the dual frame: read in
    Choi order and conjugated, they are the duals of the Gram
    pseudo-inverse, biorthogonal to the element Choi matrices."""
    inv = np.linalg.inv(basis2.rows)
    duals = operation_duals(basis2)
    for i in range(16):
        dual = choi_from_superop(inv[:, i].conj().reshape(4, 4), 2)
        assert np.abs(dual.reshape(-1) - duals[:, i]).max() <= 1e-10
        for j, elem in enumerate(basis2.elements):
            ip = np.vdot(dual.reshape(-1), elem.choi.reshape(-1))
            assert abs(ip - (1.0 if i == j else 0.0)) <= 1e-10


def test_decompose_basis_element_is_unit_vector(basis2):
    coeffs = _frame_coefficients(basis2.elements[5], basis2)
    expected = np.zeros(16)
    expected[5] = 1.0
    assert np.abs(coeffs - expected).max() <= 1e-10


@pytest.mark.parametrize("build", [QuantumMap.identity,
                                   lambda d: QuantumMap.from_unitary(SX)])
def test_decompose_resummation_residual(basis2, build):
    qmap = build(2)
    coeffs = _frame_coefficients(qmap, basis2)
    resummed = sum(c * e.choi for c, e in zip(coeffs, basis2.elements))
    assert np.abs(resummed - qmap.choi).max() <= 1e-10


def test_prepare_measure_choi_structure():
    qmap = QuantumMap.measure_and_prepare(PP, P0)
    expected = tensor_product(P0, PP.T)
    assert np.abs(qmap.choi - expected).max() <= 1e-14
    rho = np.array([[0.7, 0.2j], [-0.2j, 0.3]], dtype=complex)
    direct = np.trace(PP @ rho) * P0
    assert np.abs(qmap.apply(rho) - direct).max() <= 1e-13
    oracle = apply_choi(qmap.choi, rho, 2)
    assert np.abs(qmap.apply(rho) - oracle).max() <= 1e-13


def test_kraus_apply_matches_oracle():
    qmap = random_cptp(2, RNG)
    rho = PP
    assert np.abs(qmap.apply(rho) - apply_kraus(qmap.kraus, rho)).max() <= 1e-12
