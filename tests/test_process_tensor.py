import itertools
import json
import math

import numpy as np
import pytest

from ptmarkov import (
    DimensionMismatch,
    ProcessTensor,
    QuantumMap,
    SEModel,
    TomographyDataError,
    UnresolvableConditional,
    ValidationError,
    build_process_tensor,
    default_break,
    divisibility_test,
    from_tomography,
    markov_test,
    model_b2,
    model_markov,
    simulate_sequence,
    tensor_product,
)
from ptmarkov.random_ops import (
    random_cptp,
    random_control_sequence,
    random_density,
    random_unitary,
)

from oracles import (
    P0,
    PP,
    apply_local_channel,
    b3_choi_analytic,
    block_marginals_dense,
    causality_defect_dense,
    closest_markov,
    comb_choi,
    compose,
    contract_loop,
    depolarizing,
    entropy_of_spectrum,
    marginal_map_frame,
    random_reprepare_instrument,
    restrict_einsum,
    sketch_residual_full,
    spectrum_dense,
    tomography_process_tensor,
    traced_peak,
    von_neumann_entropy,
)

RNG = np.random.default_rng(202)
IDENT = QuantumMap.identity(2)


def _benchmark_tensor(model, k, seed):
    """A tensor of the kind the benchmark workloads build: a memoryless
    dilation of Kraus rank 2 on unit steps, or B.2 from a random state at
    an angle in [0.6, 1.0] per step."""
    rng = np.random.default_rng(seed)
    rho = random_density(2, rng)
    if model == "markov":
        return build_process_tensor(
            model_markov(random_control_sequence(2, k, rng), rho), range(k + 1))
    theta = rng.uniform(0.6, 1.0)
    return build_process_tensor(model_b2(1.0, rho_s=rho),
                                [j * theta for j in range(k + 1)])


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def test_identity_controls_containment(markov_maps, markov_pt2):
    """All-identity controls reduce the tensor to the composed channel
    acting on the initial state."""
    rho0 = np.eye(2) / 2
    out = markov_pt2.apply([IDENT, IDENT])
    expected = markov_maps[1].apply(markov_maps[0].apply(rho0))
    assert np.abs(out.matrix - expected).max() <= 1e-9


def test_identity_controls_match_dilation(b2_model, b2_pt):
    grid = (0.0, math.pi / 4, math.pi / 2)
    direct, _ = simulate_sequence(b2_model, grid, [IDENT, IDENT])
    out = b2_pt.apply([IDENT, IDENT])
    assert np.abs(out.matrix - direct.matrix).max() <= 1e-9


def test_b3_output_is_initial_state(b3_pt, b3_states):
    rho_s, _ = b3_states
    for _ in range(10):
        op = random_cptp(2, RNG)
        out = b3_pt.apply([IDENT, op])
        assert np.abs(out.matrix - rho_s).max() <= 1e-10


def test_instrument_sum_equals_average_map(b2_pt):
    ins = random_reprepare_instrument(2, 3, np.random.default_rng(9))
    summed = sum(b2_pt.apply([member, IDENT]).matrix
                 for member in ins.members)
    avg = QuantumMap.from_choi(sum(m.choi for m in ins.members))
    direct = b2_pt.apply([avg, IDENT]).matrix
    assert np.abs(summed - direct).max() <= 1e-12


def test_apply_multilinearity(b2_pt):
    """Convex combinations in one slot act linearly, residual below 1e-11."""
    rng = np.random.default_rng(4)
    for _ in range(5):
        x, y = random_cptp(2, rng), random_cptp(2, rng)
        lam = rng.uniform(0, 1)
        combo = QuantumMap.from_choi(lam * x.choi + (1 - lam) * y.choi)
        other = random_cptp(2, rng)
        lhs = b2_pt.apply([combo, other]).matrix
        rhs = lam * b2_pt.apply([x, other]).matrix \
            + (1 - lam) * b2_pt.apply([y, other]).matrix
        assert np.abs(lhs - rhs).max() <= 1e-11


def test_tp_controls_give_unit_trace(b1_pt, b2_pt, b3_pt):
    rng = np.random.default_rng(8)
    for pt in (b1_pt, b2_pt, b3_pt):
        for _ in range(5):
            seq = random_control_sequence(2, pt.n_steps, rng)
            assert abs(pt.apply(seq).trace - 1.0) <= 1e-9


def test_contract_matches_apply(markov_pt3, b2_pure_pt3):
    """Batched stacks give, row for row with slot 0 slowest, the outputs of
    per-sequence ``apply``; slots past the stacks hold the identity, at the
    final step and at an earlier readout step."""
    rng = np.random.default_rng(31)
    for pt in (markov_pt3, b2_pure_pt3):
        maps = [[random_cptp(2, rng) for _ in range(n)] for n in (2, 3, 1)]
        stacks = [np.stack([m.superoperator.reshape(-1) for m in slot])
                  for slot in maps]
        outs = pt.contract(stacks)
        assert outs.shape == (6, 2, 2)
        for row, seq in enumerate(itertools.product(*maps)):
            assert np.abs(outs[row] - pt.apply(seq).matrix).max() <= 1e-14
        for l in (1, 2, 3):
            outs = pt.contract(stacks[:1], l)
            early = restrict_einsum(pt, range(l + 1))
            for row, m in enumerate(maps[0]):
                want = early.apply([m] + [IDENT] * (l - 1)).matrix
                assert np.abs(outs[row] - want).max() <= 1e-14
        assert np.abs(pt.contract([], 0)[0]
                      - restrict_einsum(pt, [0]).choi).max() <= 1e-15
        with pytest.raises(DimensionMismatch):
            pt.contract(stacks, 2)


def _qutrit_memory_pt():
    """A seeded qutrit two-step dilation with memory: a random joint
    unitary on a qubit environment from a random joint state."""
    rng = np.random.default_rng(15)
    model = SEModel(system_dim=3, env_dim=2,
                    initial_joint=random_density(6, rng),
                    step_unitaries=(random_unitary(6, rng),
                                    random_unitary(6, rng)))
    return build_process_tensor(model, range(3))


@pytest.mark.parametrize("name", ["markov_pt3", "b2_pure_pt3", "qutrit"])
def test_contract_matches_apply_at_every_width_and_readout(name, request):
    """Stacks of widths 1, 2 and d**4 give, row for row with slot 0
    slowest, what per-sequence ``apply`` gives on the one-einsum
    restriction of the oracles: at every readout step l and for every
    count of leading stacks, with the identity on the slots past them;
    qubit K = 3 and qutrit K = 2."""
    pt = _qutrit_memory_pt() if name == "qutrit" \
        else request.getfixturevalue(name)
    d, k = pt.system_dim, pt.n_steps
    rng = np.random.default_rng(32)
    ident = QuantumMap.identity(d)
    for widths in ((d ** 4, 2, 1), (1, d ** 4, 2)):
        maps = [[random_cptp(d, rng) for _ in range(n)] for n in widths[:k]]
        stacks = [np.stack([m.superoperator.reshape(-1) for m in slot])
                  for slot in maps]
        for l in range(1, k + 1):
            early = restrict_einsum(pt, range(l + 1))
            for m in range(l + 1):
                outs = pt.contract(stacks[:m], l)
                seqs = list(itertools.product(*maps[:m]))
                assert outs.shape == (len(seqs), d, d)
                for row, seq in enumerate(seqs):
                    want = early.apply([*seq] + [ident] * (l - m)).matrix
                    assert np.abs(outs[row] - want).max() <= 1e-14


@pytest.mark.parametrize("name", ["markov_pt3", "qutrit"])
def test_contract_takes_superoperator_rows(name, request):
    """Stacks of ``QuantumMap.superoperator`` rows of random maps give, row
    for row with slot 0 slowest, what the one-slot-at-a-time oracle gives
    on their Choi matrices: qubit K = 3 and qutrit K = 2."""
    pt = _qutrit_memory_pt() if name == "qutrit" \
        else request.getfixturevalue(name)
    d, k = pt.system_dim, pt.n_steps
    rng = np.random.default_rng(33)
    maps = [[random_cptp(d, rng) for _ in range(n)] for n in (2, 3, 2)[:k]]
    outs = pt.contract([np.stack([m.superoperator.reshape(-1) for m in slot])
                        for slot in maps])
    seqs = list(itertools.product(*maps))
    assert outs.shape == (len(seqs), d, d)
    for row, seq in enumerate(seqs):
        want = contract_loop(pt, [m.choi for m in seq])
        assert np.abs(outs[row] - want).max() <= 1e-14


@pytest.mark.parametrize("shape", [(16,), (1, 4, 4), (1, 9)],
                         ids=["1d", "3d", "width"])
def test_contract_refuses_a_stack_of_the_wrong_shape(shape, markov_pt3):
    """A stack that is not 2-D with d**4 columns is refused, naming its
    slot, and not reshaped into some other reading."""
    ok = np.eye(4).reshape(1, -1)
    with pytest.raises(DimensionMismatch, match="slot 1"):
        markov_pt3.contract([ok, np.zeros(shape)])


def test_apply_slot_count_mismatch(b2_pt):
    with pytest.raises(DimensionMismatch):
        b2_pt.apply([IDENT])


def test_control_sequence_validation(b2_model, b2_pt):
    """Every reader of a control sequence refuses, at any slot, an entry
    that is not a QuantumMap (the instrument and break tuples included:
    those pass as ``ins.members[r]`` and ``brk.map(r, s)``), a map of
    another dimension, and a slot too few or too many."""
    bad_entries = [
        ((random_reprepare_instrument(2, 2, RNG), 0), ValidationError),
        ((default_break(2), 0, 1), ValidationError),
        (IDENT.choi, ValidationError),
        (QuantumMap.identity(3), DimensionMismatch),
    ]
    for bad, error in bad_entries:
        for seq in ([bad, IDENT], [IDENT, bad]):
            with pytest.raises(error):
                b2_pt.apply(seq)
            with pytest.raises(error):
                simulate_sequence(b2_model, b2_pt.times, seq)
        with pytest.raises(error):
            b2_pt.conditional_state(1, 0, 0, past=[bad])
        with pytest.raises(error):
            b2_pt.conditional_state(0, 0, 0, future=[bad])
    for seq in ([IDENT], [IDENT] * 3):
        with pytest.raises(DimensionMismatch):
            b2_pt.apply(seq)
        with pytest.raises(DimensionMismatch):
            simulate_sequence(b2_model, b2_pt.times, seq)
    with pytest.raises(DimensionMismatch):
        b2_pt.conditional_state(1, 0, 0, past=[])
    with pytest.raises(DimensionMismatch):
        b2_pt.conditional_state(0, 0, 0, future=[IDENT, IDENT])


# ---------------------------------------------------------------------------
# conditional states
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("prep_index, povm_outcome", [
    (0, 99), (0, -1), (4, 0), (-1, 0)])
def test_conditional_state_refuses_out_of_range_indices(b2_pt, prep_index,
                                                       povm_outcome):
    """The default qubit break has four outcomes and four preparations; an
    index outside them is refused, a negative one included, rather than
    raising a raw IndexError or wrapping around."""
    with pytest.raises(ValidationError, match="outside"):
        b2_pt.conditional_state(1, prep_index, povm_outcome, past=[IDENT])


def test_conditional_on_markov_product_is_propagated_prep(markov_maps,
                                                          markov_pt3):
    """On a memoryless tensor the conditional state is the later dynamics
    applied to the preparation, independent of outcome and past."""
    brk = default_break(2)
    cases = [((), markov_maps[1]),
             ((IDENT,), compose(markov_maps[2], markov_maps[1]))]
    for s in range(brk.n_preparations):
        for future, lam in cases:
            expected = lam.apply(brk.preparations[s])
            for r in range(brk.n_outcomes):
                for past in ([IDENT], [QuantumMap.prepare(PP)]):
                    cond = markov_pt3.conditional_state(
                        1, prep_index=s, povm_outcome=r, past=past,
                        future=future)
                    assert np.abs(cond.state.matrix - expected).max() <= 1e-9


def test_conditional_two_code_paths_agree(b2_pt):
    """conditional_state equals apply with the rank-one break map inserted,
    normalized."""
    brk = default_break(2)
    for r in range(4):
        for s in range(4):
            cond = b2_pt.conditional_state(1, prep_index=s, povm_outcome=r,
                                           past=[QuantumMap.prepare(P0)])
            out = b2_pt.apply([QuantumMap.prepare(P0), brk.map(r, s)])
            assert abs(cond.probability - out.trace) <= 1e-11
            assert np.abs(cond.state.matrix - out.matrix / out.trace).max() \
                <= 1e-11


def test_conditional_b3_always_initial_state(b3_pt, b3_states):
    rho_s, _ = b3_states
    for r in range(4):
        for s in range(4):
            cond = b3_pt.conditional_state(1, prep_index=s, povm_outcome=r,
                                           past=[IDENT])
            assert np.abs(cond.state.matrix - rho_s).max() <= 1e-10


def test_conditional_probability_floor():
    """An outcome of zero probability is reported unresolvable: slot 0
    prepares the state orthogonal to the vector of the rank-one effect of
    outcome 1 of the default break, and identity dynamics carry it to the
    break at slot 1. Outcome 0 stays resolvable."""
    vec = np.linalg.eigh(default_break(2).effects[1])[1][:, -1]
    orth = np.array([-vec[1].conj(), vec[0].conj()])
    past = [QuantumMap.prepare(np.outer(orth, orth.conj()))]
    pt = build_process_tensor(model_markov([IDENT, IDENT], np.eye(2) / 2),
                              (0.0, 1.0, 2.0))
    assert pt.conditional_state(1, 0, 0, past=past).probability > 0.1
    with pytest.raises(UnresolvableConditional):
        pt.conditional_state(1, prep_index=0, povm_outcome=1, past=past)


# ---------------------------------------------------------------------------
# tomography
# ---------------------------------------------------------------------------

def test_from_tomography_identity_single_step():
    """k=1 identity dynamics on the maximally mixed state reconstructs the
    product of the identity Choi and the initial state."""
    model = model_markov([QuantumMap.identity(2)], np.eye(2) / 2)
    pt = tomography_process_tensor(model, (0.0, 1.0))
    expected = tensor_product(QuantumMap.identity(2).choi, np.eye(2) / 2)
    assert np.abs(pt.choi - expected).max() <= 1e-9


def test_tomography_round_trip_b2(b1_model, b2_model, b2_pt, basis2):
    """pt.apply equals simulate_sequence on random controls: for B.2, for
    B.1 at K = 3 through the random-field ensemble, and for a qutrit
    dilation on a qubit environment."""
    qrng = np.random.default_rng(61)
    qutrit = SEModel(system_dim=3, env_dim=2,
                     initial_joint=random_density(6, qrng),
                     step_unitaries=(random_unitary(6, qrng),
                                     random_unitary(6, qrng)))
    b1_grid, qutrit_grid = (0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 2.0)
    cases = [(b2_model, (0.0, math.pi / 4, math.pi / 2), b2_pt),
             (b1_model, b1_grid, build_process_tensor(b1_model, b1_grid)),
             (qutrit, qutrit_grid, build_process_tensor(qutrit, qutrit_grid))]
    rng = np.random.default_rng(31)
    for model, grid, pt in cases:
        for _ in range(20):
            seq = random_control_sequence(model.system_dim, pt.n_steps, rng)
            direct, _ = simulate_sequence(model, grid, seq)
            assert np.abs(pt.apply(seq).matrix - direct.matrix).max() <= 1e-9


def test_b3_tensor_matches_analytic_product(b3_pt, b3_states):
    rho_s, rho_e = b3_states
    assert np.abs(b3_pt.choi - b3_choi_analytic(rho_s, rho_e)).max() <= 1e-9


def test_b3_reconstruction_against_random_slot_maps(b3_pt, b3_states):
    rho_s, _ = b3_states
    rng = np.random.default_rng(17)
    for _ in range(100):
        op = random_cptp(2, rng)
        out = b3_pt.apply([IDENT, op])
        assert np.abs(out.matrix - rho_s).max() <= 1e-9


def test_from_tomography_rejects_incomplete():
    records = [((0, 0), np.eye(2) / 2)]
    with pytest.raises(TomographyDataError):
        from_tomography(records, 2, 2)


def test_from_tomography_rejects_duplicates():
    records = [((0,), np.eye(2) / 2), ((0,), np.eye(2) / 2)]
    with pytest.raises(TomographyDataError):
        from_tomography(records, 2, 1)


def _b2_one_step_records(basis2, change=lambda mu, out: out):
    """K = 1 records of B.2 on the grid (0, 0.5) from ``apply``, each
    output passed through ``change(mu, output)``."""
    pt = build_process_tensor(model_b2(omega=1.0), (0.0, 0.5))
    return [((mu,), change(mu, pt.apply([e]).matrix))
            for mu, e in enumerate(basis2.elements)]


@pytest.mark.parametrize("change, message", [
    (lambda mu, out: (0.5 if mu % 4 == 0 else 0.25) * np.eye(2) / 2,
     "not a causal comb: causality defect 1.768e-01 exceeds 1.5e-08"),
    (lambda mu, out: np.zeros((2, 2)),
     r"trace 0 is not d\*\*k = 2 within 1.0e-08 \(tp_choi_trace_d\)"),
    (lambda mu, out: 1.5 * out,
     r"trace 3 is not d\*\*k = 2 within 3.0e-08"),
], ids=["acausal", "zero", "scaled"])
def test_from_tomography_refuses_what_load_refuses(basis2, change, message):
    """A reconstruction that is not a causal comb of trace d**k is refused
    with the message ``ptf.load`` gives: outputs that no comb produces
    (causality defect 0.177, trace 1.5), all-zero outputs and outputs
    scaled by 1.5. The unscaled records reconstruct."""
    records = _b2_one_step_records(basis2)
    assert from_tomography(records, 2, 1).trace == pytest.approx(2.0)
    with pytest.raises(TomographyDataError, match=f"^{message}"):
        from_tomography(_b2_one_step_records(basis2, change), 2, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
def test_from_tomography_refuses_non_finite_records(basis2, bad):
    """A NaN or infinite record output is refused at ingestion, naming its
    key, instead of reaching the eigensolve."""
    def change(mu, out):
        return out + bad if mu == 3 else out
    with pytest.raises(TomographyDataError,
                       match=r"record output for key \(3,\) is not finite"):
        from_tomography(_b2_one_step_records(basis2, change), 2, 1)


def test_from_tomography_refuses_overflowing_records(basis2):
    """Finite records whose reconstruction overflows are refused."""
    records = [((mu,), np.full((2, 2), 1e308)) for mu in range(16)]
    with pytest.raises(TomographyDataError,
                       match="reconstruction has non-finite entries"):
        from_tomography(records, 2, 1)


def test_from_tomography_refuses_inconsistent_records(basis2):
    """Outputs of the transpose map after each basis element reconstruct
    to a tensor with eigenvalue -0.7, beyond the PSD repair's clip band."""
    rho = np.diag([0.7, 0.3])
    records = [((mu,), e.apply(rho).T) for mu, e in enumerate(basis2.elements)]
    with pytest.raises(TomographyDataError, match=(
            r"reconstruction not PSD: eigenvalue -7.000e-01 below -1.0e-08 "
            r"\(inconsistent records\)")):
        from_tomography(records, 2, 1)


def test_from_tomography_spot_check_catches_a_perturbed_record(basis2):
    """The reconstruction is symmetrized, so an anti-Hermitian 1e-6 added
    to record 5 still gives a comb, and the spot check finds the record it
    does not reproduce."""
    def change(mu, out):
        return out + 1e-6 * np.array([[0, 1], [-1, 0]]) * (mu == 5)
    with pytest.raises(TomographyDataError,
                       match=r"reconstruction mismatch 1.000e-06 at key \(5,\)"):
        from_tomography(_b2_one_step_records(basis2, change), 2, 1)


def test_from_tomography_checks_the_time_tags_first(basis2):
    records = _b2_one_step_records(basis2)
    with pytest.raises(DimensionMismatch, match="3 time tags for k=1"):
        from_tomography(records, 2, 1, times=(0.0, 1.0, 2.0))
    with pytest.raises(ValidationError, match="strictly increasing"):
        from_tomography(records, 2, 1, times=(1.0, 0.0))


def test_reconstruction_psd(b1_pt, b2_pt, b3_pt, markov_pt3):
    for pt in (b1_pt, b2_pt, b3_pt, markov_pt3):
        assert pt.min_eigenvalue >= -1e-8


# ---------------------------------------------------------------------------
# marginal maps
# ---------------------------------------------------------------------------

def test_marginal_maps_of_product_tensor_compose(markov_maps, markov_pt3,
                                                 basis2):
    lam_02 = markov_pt3.marginal_map(0, 2)
    expected = compose(markov_maps[1], markov_maps[0])
    assert np.abs(lam_02.superoperator - expected.superoperator).max() <= 1e-9
    lam_13 = markov_pt3.marginal_map(1, 3)
    expected = compose(markov_maps[2], markov_maps[1])
    assert np.abs(lam_13.superoperator - expected.superoperator).max() <= 1e-9


def test_marginal_map_is_tp(b1_pt, b2_pt, b3_pt, basis2):
    for pt in (b1_pt, b2_pt, b3_pt):
        for j in range(pt.n_steps):
            for l in range(j + 1, pt.n_steps + 1):
                lam = pt.marginal_map(j, l)
                assert lam.tp_defect <= 1e-9


def test_marginal_map_matches_frame_oracle(b1_pt, b2_pt, b3_pt, markov_pt2,
                                          markov_pt3, b2_pure_pt3):
    """Preparing the matrix units in one contraction gives the Choi matrix
    that the per-state contractions and the dual-frame sum give, for every
    step pair."""
    for pt in (b1_pt, b2_pt, b3_pt, markov_pt2, markov_pt3, b2_pure_pt3):
        for j in range(pt.n_steps):
            for l in range(j + 1, pt.n_steps + 1):
                got = pt.marginal_map(j, l).choi
                want = marginal_map_frame(pt, j, l)
                assert np.abs(got - want).max() <= 1e-12


def test_b2_marginal_is_depolarizing(b2_pt, basis2):
    theta = math.pi / 4
    lam = b2_pt.marginal_map(1, 2)
    expected = depolarizing(2, math.sin(theta) ** 2)
    assert np.abs(lam.choi - expected.choi).max() <= 1e-10


# ---------------------------------------------------------------------------
# restriction: the one-einsum oracle that the contraction tests read
# ---------------------------------------------------------------------------

def test_restrict_matches_direct_tomography(b2_model, b2_pt):
    direct = build_process_tensor(b2_model, (0.0, math.pi / 4))
    restricted = restrict_einsum(b2_pt, [0, 1])
    assert np.abs(restricted.choi - direct.choi).max() <= 1e-9
    assert restricted.times == direct.times


def test_restrict_markov_product_form(markov_maps, markov_pt3):
    restricted = restrict_einsum(markov_pt3, [0, 1, 2])
    expected = tensor_product(markov_maps[1].choi, markov_maps[0].choi,
                              _markov_rho0())
    assert np.abs(restricted.choi - expected).max() <= 1e-9


def _markov_rho0():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho0 = a @ a.conj().T
    return rho0 / np.trace(rho0).real


def test_restrict_interior_skip_composes(markov_maps, markov_pt3):
    restricted = restrict_einsum(markov_pt3, [0, 2, 3])
    lam_20 = compose(markov_maps[1], markov_maps[0])
    expected = tensor_product(markov_maps[2].choi, lam_20.choi, _markov_rho0())
    assert np.abs(restricted.choi - expected).max() <= 1e-9


def _legs_reversed(pt):
    """The same matrix entries with the leg order reversed: Hermitian and
    PSD, but the final output now sits where the initial state was."""
    n = 2 * pt.n_steps + 1
    rev = list(range(n - 1, -1, -1))
    t = pt.choi.reshape((pt.system_dim,) * (2 * n))
    t = t.transpose(rev + [a + n for a in rev])
    return ProcessTensor(t.reshape(pt.dim, pt.dim), pt.system_dim, pt.times)


def _leg_paired_loops(m, d, n):
    """An operator on n legs of dimension d with one axis per leg, each
    leg's (row, column) index pair, set one entry at a time."""
    legs = (d,) * n
    out = np.empty((d * d,) * n, dtype=complex)
    for row in np.ndindex(*legs):
        for col in np.ndindex(*legs):
            out[tuple(r * d + c for r, c in zip(row, col))] = m[
                np.ravel_multi_index(row, legs),
                np.ravel_multi_index(col, legs)]
    return out


@pytest.mark.parametrize("d, k", [(2, 1), (2, 2), (2, 3), (3, 1)])
def test_contraction_forms_are_leg_paired(d, k):
    """The K form is ``choi`` with each leg's row and column index side by
    side in stored leg order, entry for entry; each lower form is, laid
    out the same way, the whole-matrix partial trace Tr_{O_l} Tr_{R_{l+1}}
    Upsilon_{l+1} divided by d (a random Hermitian tensor: the partial
    traces hold whether or not it is a comb)."""
    dim = d ** (2 * k + 1)
    g = RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))
    pt = ProcessTensor(g + g.conj().T, d, range(k + 1))
    for l in range(k, -1, -1):
        got = pt.contraction_form(l)
        want = _leg_paired_loops(comb_choi(pt, l), d, 2 * l + 1)
        assert got.shape == (d * d,) + (d ** 4,) * l
        if l == k:
            assert np.array_equal(got.reshape(want.shape), want)
        else:
            gap = np.abs(got.reshape(want.shape) - want).max()
            assert gap <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("d, k", [(2, 4), (3, 2)])
def test_lower_forms_are_the_einsum_trace_bit_for_bit(d, k):
    """Each lower contraction form is ``np.einsum("aabbij...->ij...")`` of
    the form above divided by d, bit for bit: the comb step sums the
    blocks in einsum's order."""
    rng = np.random.default_rng(32)
    dim = d ** (2 * k + 1)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    pt = ProcessTensor(g + g.conj().T, d, range(k + 1))
    for l in range(k, 0, -1):
        up = pt.contraction_form(l)
        want = np.einsum("aabbij...->ij...",
                         up.reshape((d,) * 6 + up.shape[2:])) / d
        got = pt.contraction_form(l - 1)
        assert got.tobytes() == want.tobytes()
        assert got.shape == (d * d,) + up.shape[2:]


@pytest.mark.parametrize("d, k", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1),
                                  (3, 2)])
def test_causality_defect_matches_dense_partial_traces(d, k):
    """The blockwise defect of a random Hermitian tensor, causal nowhere,
    is the one from partial traces of whole matrices: every block of
    every step is compared."""
    dim = d ** (2 * k + 1)
    g = RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))
    pt = ProcessTensor(g + g.conj().T, d, range(k + 1))
    want = causality_defect_dense(pt)
    assert abs(pt.causality_defect() - want) <= 1e-12 * want


@pytest.mark.parametrize("qutrit", [False, True])
def test_causality_defect_sees_a_gap_off_the_first_rows(markov_pt2, qutrit):
    """A defect confined to the last input value and to the last two
    output values of the leading slot is found: eps |0><0| (x) Z (x)
    |d-1><d-1| on the first three legs, with Z = |d-2><d-1| + |d-1><d-2|
    and the identity on the others, breaks the comb condition of the last
    step by eps there and nowhere else (Z is traceless, so the steps below
    are unchanged). At d = 3 no entry of it lies in a first row."""
    pt = _qutrit_memory_pt() if qutrit else markov_pt2
    d, eps = pt.system_dim, 1e-2
    unit = np.eye(d)
    z = np.outer(unit[d - 2], unit[d - 1])
    delta = eps * tensor_product(np.outer(unit[0], unit[0]), z + z.T,
                                 np.outer(unit[d - 1], unit[d - 1]),
                                 np.eye(d * d))
    bad = ProcessTensor(pt.choi + delta, d, pt.times)
    assert abs(bad.causality_defect() - eps) <= 1e-12


def test_causality_defect_of_overflowing_entries_is_nan(b2_pure_pt3):
    """A B.2 tensor scaled so that its largest entry is 1.5e308 overflows
    in the partial traces; the defect reads NaN, not the largest of the
    finite gaps around it."""
    choi = b2_pure_pt3.choi / np.abs(b2_pure_pt3.choi).max() * 1.5e308
    pt = ProcessTensor(choi, 2, b2_pure_pt3.times)
    with np.errstate(all="ignore"):
        assert math.isnan(pt.causality_defect())


def test_causality_defect_separates_combs(b1_model, b1_pt, b2_model, b2_pt,
                                          b3_model, b3_pt, markov_model2,
                                          markov_pt2, markov_pt3,
                                          b2_pure_pt3):
    """Tensors built by every model, directly or through tomography, are
    causal combs to rounding; a random PSD matrix and a leg-reversed B.2
    tensor are not."""
    for pt in (b1_pt, b2_pt, b3_pt, markov_pt2, markov_pt3, b2_pure_pt3):
        assert pt.causality_defect() <= 1e-13
    for model, pt in ((b1_model, b1_pt), (b2_model, b2_pt),
                      (b3_model, b3_pt), (markov_model2, markov_pt2)):
        tomo = tomography_process_tensor(model, pt.times)
        assert tomo.causality_defect() <= 1e-13
    g = RNG.normal(size=(32, 32)) + 1j * RNG.normal(size=(32, 32))
    wishart = g @ g.conj().T
    wishart *= 4 / np.trace(wishart).real
    assert ProcessTensor(wishart, 2, (0.0, 1.0, 2.0)).causality_defect() > 1e-3
    assert _legs_reversed(b2_pt).causality_defect() > 1e-3
    assert _legs_reversed(b2_pure_pt3).causality_defect() > 1e-3
    # causal at the last step, not below it
    lower = _legs_reversed(build_process_tensor(b2_model, (0.0, 1.0)))
    stacked = ProcessTensor(np.kron(IDENT.choi, lower.choi), 2, (0.0, 1.0, 2.0))
    assert stacked.causality_defect() > 1e-3


def test_analyses_build_no_restricted_tensor(markov_pt3, monkeypatch):
    """The causal-break test, the divisibility test and a conditional state
    read before the final step all contract the cached form at their
    readout step; none of them builds a restricted, or any other, tensor."""
    def tripwire(self, *args, **kwargs):
        raise AssertionError("a ProcessTensor was built")
    monkeypatch.setattr(ProcessTensor, "__init__", tripwire)
    markov_test(markov_pt3, exhaustive=True)
    divisibility_test(markov_pt3)
    cond = markov_pt3.conditional_state(1, 0, 0, past=[IDENT])
    assert cond.conditioning["readout_step"] == 2 < markov_pt3.n_steps


# ---------------------------------------------------------------------------
# Hermitian invariant
# ---------------------------------------------------------------------------

def test_every_construction_route_stores_exactly_hermitian_choi(
        tmp_path, b2_model, b2_pt):
    """Each route that makes a tensor leaves ``choi`` equal to its adjoint
    bit for bit and read-only: rounding-level asymmetry is symmetrized at
    construction, and an asymmetry above 1e-8 is refused there. The
    caller's own array keeps its flags."""
    from ptmarkov import FormatError
    path = tmp_path / "planted.ptf"
    b2_pt.save(path)
    line, blob = path.read_bytes().split(b"\n", 1)
    raw = np.frombuffer(blob, dtype="<f8").copy()
    raw[2] += 1e-10  # real part of entry (0, 1) only
    path.write_bytes(line + b"\n" + raw.tobytes())
    routes = {
        "build_process_tensor": b2_pt,
        "tomography": tomography_process_tensor(b2_model, b2_pt.times),
        "closest_markov": closest_markov(b2_pt),
        "apply_local_channel": apply_local_channel(
            b2_pt, 2, random_cptp(2, np.random.default_rng(5))),
        "ptf.load": ProcessTensor.load(path),
    }
    own = b2_pt.choi.copy()
    routes["constructor"] = ProcessTensor(own, 2, b2_pt.times)
    for route, pt in routes.items():
        assert np.array_equal(pt.choi, pt.choi.conj().T), route
        assert not pt.choi.flags.writeable, route
        with pytest.raises(ValueError, match="read-only"):
            pt.choi[0, 0] += 1
    assert routes["ptf.load"].choi[0, 1] != b2_pt.choi[0, 1]
    assert own.flags.writeable

    choi = b2_pt.choi.copy()
    choi[0, 1] += 2e-8
    with pytest.raises(ValidationError, match="choi asymmetry"):
        ProcessTensor(choi, 2, b2_pt.times)
    raw[2] += 2e-8
    path.write_bytes(line + b"\n" + raw.tobytes())
    with pytest.raises(FormatError, match="choi asymmetry"):
        ProcessTensor.load(path)


def test_construction_scans_hermiticity_in_blocks():
    """The constructor scans an exactly Hermitian K = 4 tensor without a
    full-size temporary: the traced peak stays below half its size."""
    choi = _benchmark_tensor("markov", 4, 1).choi
    _, peak, _ = traced_peak(lambda: ProcessTensor(choi, 2, range(5)))
    assert peak < choi.nbytes / 2


# entries of a qutrit K = 2 tensor (243 rows: 3 blocks of 64 and a last,
# partial one of 51) in the strictly lower and strictly upper triangle of
# the last row block, off and on its diagonal block
_LAST_BLOCK_PLANTS = ((240, 5), (5, 240), (240, 200), (200, 240))


def test_blocked_scan_refuses_and_symmetrizes_every_block():
    """The scan reads each Hermitian pair once, from the block on or below
    the diagonal, so a NaN or an asymmetry of 1e-6 planted on either side
    of the diagonal in the last, partial row block is refused. A
    rounding-level asymmetry in either triangle of any row block is
    symmetrized to the full-size expression bit for bit, signed zeros
    included."""
    for at in _LAST_BLOCK_PLANTS:
        for bad in (complex(math.nan, 0), 1e-6):
            choi = np.eye(243, dtype=complex)
            choi[at] = bad
            with pytest.raises(ValidationError, match="choi asymmetry"):
                ProcessTensor(choi, 3, range(3))
    choi = np.eye(243, dtype=complex)
    for n, at in enumerate(_LAST_BLOCK_PLANTS + ((5, 100), (100, 70))):
        choi[at] = (1e-12, 1e-12j)[n % 2]
    pt = ProcessTensor(choi, 3, range(3))
    assert pt.choi.tobytes() == ((choi + choi.conj().T) / 2).tobytes()


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

_CORPUS = ("b1_pt", "b2_pt", "b3_pt", "b2_pure_pt3", "markov_pt2",
           "markov_pt3")
_BENCHMARK_CASES = [(m, k, s) for m in ("markov", "b2") for k in (3, 4)
                    for s in (1, 2, 3)]


@pytest.mark.parametrize(
    "case", list(_CORPUS) + _BENCHMARK_CASES,
    ids=lambda c: c if isinstance(c, str) else "{}-k{}-seed{}".format(*c))
def test_spectrum_agrees_with_dense_route(case, request):
    """The measure is within 1e-12 of the one from a dense eigensolve, and
    the min eigenvalue is a lower bound within 1e-13 ||Upsilon||_F of the
    dense minimum, at or above -PSD_CLIP."""
    from ptmarkov import non_markovianity
    from ptmarkov.defaults import PSD_CLIP
    pt = request.getfixturevalue(case) if isinstance(case, str) \
        else _benchmark_tensor(*case)
    dense = spectrum_dense(pt)
    n_dense = _dense_measure(pt, dense)
    assert abs(non_markovianity(pt).n_value - max(0.0, n_dense)) <= 1e-12
    assert pt.spectrum.shape == dense.shape
    assert np.all(np.diff(pt.spectrum) >= 0)
    bound = pt.min_eigenvalue
    assert -PSD_CLIP <= bound <= dense[0] + 1e-13 * np.linalg.norm(pt.choi)


def _dense_measure(pt, dense):
    """N from partial traces of the stored Choi matrix and ``dense``, the
    tensor's spectrum from a dense eigensolve."""
    return sum(von_neumann_entropy(m / np.trace(m).real)
               for m in block_marginals_dense(pt)) \
        - entropy_of_spectrum(dense / pt.trace)


def _qutrit_memory_pt():
    """A seeded qutrit K = 2 dilation on a qubit environment."""
    rng = np.random.default_rng(61)
    model = SEModel(system_dim=3, env_dim=2,
                    initial_joint=random_density(6, rng),
                    step_unitaries=(random_unitary(6, rng),
                                    random_unitary(6, rng)))
    return build_process_tensor(model, (0.0, 1.0, 2.0))


def _non_causal_pt():
    """A seeded Hermitian PSD qubit K = 2 tensor of trace d**2 that is not
    a causal comb."""
    rng = np.random.default_rng(43)
    a = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    choi = a @ a.conj().T
    pt = ProcessTensor(choi * (4 / np.trace(choi).real), 2, range(3))
    assert pt.causality_defect() > 1e-3
    return pt


@pytest.mark.parametrize("case", list(_CORPUS) + ["qutrit", "non_causal"])
def test_product_blocks_match_dense_partial_traces(case, request):
    """The measure's block marginals, read off the comb forms, equal
    partial traces of the stored Choi matrix to 1e-14 after trace
    normalization, in the same order and shapes, on causal combs and on a
    Hermitian tensor that is not one; and the measure agrees with the
    dense route to 1e-12."""
    from ptmarkov import non_markovianity
    from ptmarkov.markov import _product_blocks
    pt = {"qutrit": _qutrit_memory_pt, "non_causal": _non_causal_pt}.get(
        case, lambda: request.getfixturevalue(case))()
    got, want = _product_blocks(pt), block_marginals_dense(pt)
    assert [g.shape for g in got] == [w.shape for w in want]
    for g, w in zip(got, want):
        assert np.abs(g / np.trace(g).real
                      - w / np.trace(w).real).max() <= 1e-14
    assert abs(non_markovianity(pt).n_value
               - max(0.0, _dense_measure(pt, spectrum_dense(pt)))) <= 1e-12


# Traced peak, in bytes, of the spectrum of the first memoryless K = 4
# benchmark tensor when B was Q^dagger Upsilon Q at every width and the
# residual was summed over whole rows.
_TWO_PASS_PEAK = 1_989_104


def test_spectrum_makes_no_full_size_temporary():
    """Sketching the spectrum of a K = 4 benchmark tensor (4 MiB) peaks
    below one tensor size: the residual is summed in row blocks, where a
    full-size residual would take two tensor sizes. The single-pass sketch
    keeps Omega for C = Q^dagger Omega but no Q and no Q B, so its peak
    also stays at or below the two-pass sketch's."""
    choi = _benchmark_tensor("markov", 4, 1).choi
    pt = ProcessTensor(choi, 2, range(5))
    _, peak, _ = traced_peak(lambda: pt.spectrum)
    assert peak < choi.nbytes
    assert peak <= _TWO_PASS_PEAK


def _eigvalsh_sizes(monkeypatch) -> list[int]:
    """Record the size of every eigvalsh call from here on: the accepted
    sketch width, or dim for the dense route."""
    sizes = []
    orig = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return orig(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return sizes


@pytest.mark.parametrize("case", _BENCHMARK_CASES,
                         ids=lambda c: "{}-k{}-seed{}".format(*c))
def test_sketch_accepts_the_two_pass_width(case, monkeypatch):
    """The single-pass B is accepted at the width the two-pass B was: 16
    at K = 3 and for B.2 at K = 4, 32 for a memoryless K = 4 tensor (rank
    e * r = 32)."""
    model, k, _ = case
    pt = _benchmark_tensor(*case)
    sizes = _eigvalsh_sizes(monkeypatch)
    pt.spectrum
    assert sizes == [32 if (model, k) == ("markov", 4) else 16]


@pytest.mark.parametrize("k, size", [(4, 64), (3, 128)])
def test_plant_outside_the_sketch_widens_or_falls_back(k, size,
                                                       monkeypatch):
    """A rank-one plant of 1e-9, orthogonal to the range of a memoryless
    tensor, is far above the 1e-12 relative residual: at K = 4 the sketch
    widens from 32 to 64, and at K = 3 (rank 16 of 128) the dense route
    takes over. The bound stays below the dense minimum."""
    base = _benchmark_tensor("markov", k, 1)
    w, v = np.linalg.eigh(base.choi)
    top = v[:, w > 1e-10 * w[-1]]
    rng = np.random.default_rng(3)
    x = rng.standard_normal(base.dim) + 1j * rng.standard_normal(base.dim)
    x -= top @ (top.conj().T @ x)
    x /= np.linalg.norm(x)
    pt = ProcessTensor(base.choi + 1e-9 * np.outer(x, x.conj()), 2,
                       base.times)
    dense = spectrum_dense(pt)
    sizes = _eigvalsh_sizes(monkeypatch)
    bound = pt.min_eigenvalue
    assert sizes == [size]
    assert bound <= dense[0] + 1e-13 * np.linalg.norm(pt.choi)
    assert np.abs(pt.spectrum - dense).max() <= 1e-12


@pytest.mark.parametrize("d, k", [(2, 4), (3, 2)])
def test_one_triangle_residual_matches_full_square(d, k):
    """The residual summed over the row blocks on and right of the
    diagonal (diagonal blocks once, the rest twice) agrees with the
    full-square one to 1e-12 relative. The tensor has rank 40 and Q only
    16 columns, so the residual is far above rounding; the qutrit K = 2
    tensor has 243 rows, so its last row block is partial."""
    from ptmarkov.process_tensor import _sketch_residual
    rng = np.random.default_rng(21)
    n = d ** (2 * k + 1)
    m = rng.standard_normal((n, 40)) + 1j * rng.standard_normal((n, 40))
    choi = ProcessTensor(m @ m.conj().T, d, range(k + 1)).choi
    q = np.linalg.qr(choi @ (rng.standard_normal((n, 16))
                             + 1j * rng.standard_normal((n, 16))))[0]
    qh = q.conj().T
    b = qh @ choi @ q
    b = (b + b.conj().T) / 2
    full = sketch_residual_full(choi, qh, b)
    assert full > 1e-3 * np.linalg.norm(choi)
    assert abs(_sketch_residual(choi, qh, b) - full) <= 1e-12 * full


def test_spectrum_bit_identical_across_loads(tmp_path):
    """The sketch draws from a fixed seed, so two loads of one file give
    the same spectrum and bound bit for bit."""
    path = tmp_path / "k4.ptf"
    _benchmark_tensor("markov", 4, 2).save(path)
    first, second = ProcessTensor.load(path), ProcessTensor.load(path)
    assert first.spectrum.tobytes() == second.spectrum.tobytes()
    assert first.min_eigenvalue == second.min_eigenvalue
    assert not first.spectrum.flags.writeable


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_spectrum_of_huge_entries_falls_back_to_dense(b2_pure_pt3,
                                                      monkeypatch, scale):
    """Entries of 1e160 or 1e300 overflow ||Upsilon||_F (at 1e160 the
    residual itself stays finite), so the sketch is never accepted: the
    spectrum comes from the dense eigensolve, with no residual taken off
    the min eigenvalue."""
    sizes = []
    orig = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return orig(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    pt = ProcessTensor(b2_pure_pt3.choi * scale, 2, b2_pure_pt3.times)
    spectrum = pt.spectrum
    assert sizes == [pt.dim]
    assert np.isfinite(spectrum).all()
    assert pt.min_eigenvalue == spectrum[0]


# ---------------------------------------------------------------------------
# PTF1 serialization
# ---------------------------------------------------------------------------

def test_ptf_round_trip_bit_exact(tmp_path, b2_pt):
    p1 = tmp_path / "a.ptf"
    p2 = tmp_path / "b.ptf"
    b2_pt.save(p1)
    loaded = ProcessTensor.load(p1)
    assert np.array_equal(loaded.choi, b2_pt.choi)
    assert loaded.times == b2_pt.times
    header = json.loads(p1.read_bytes().split(b"\n", 1)[0])
    assert header["leg_labels"] == ["O2", "O1", "I1", "O0", "I0"]
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_ptf_round_trip_keeps_signed_zeros(tmp_path):
    """The blob is read back bit for bit, signed zeros included."""
    choi = np.kron(IDENT.choi, np.eye(2) / 2)
    choi[choi == 0] = complex(-0.0, -0.0)
    path = tmp_path / "zeros.ptf"
    ProcessTensor(choi, 2, (0.0, 1.0)).save(path)
    assert ProcessTensor.load(path).choi.tobytes() == choi.tobytes()


def test_ptf_save_makes_no_full_size_copy(tmp_path):
    """Saving a K = 4 tensor (4 MiB) writes the array's own buffer: the
    traced peak stays below the tensor's size, and the blob is its bytes."""
    pt = ProcessTensor(tensor_product(*[IDENT.choi] * 4, np.eye(2) / 2),
                       2, (0.0, 1.0, 2.0, 3.0, 4.0))
    path = tmp_path / "k4.ptf"
    _, peak, _ = traced_peak(lambda: pt.save(path))
    assert peak < pt.choi.nbytes
    assert path.read_bytes().endswith(pt.choi.tobytes())


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_process_tensor_rejects_non_finite_times(bad):
    from ptmarkov import ValidationError
    choi = np.kron(IDENT.choi, np.eye(2) / 2)
    with pytest.raises(ValidationError, match="finite"):
        ProcessTensor(choi, 2, (0.0, bad))


@pytest.mark.parametrize("system_dim, choi", [
    (2.5, np.eye(8)), (2.0, np.eye(8)), (True, np.ones((1, 1))),
    (1, np.ones((1, 1))), (0, np.zeros((0, 0))), (np.int64(1), np.eye(1)),
])
def test_process_tensor_refuses_system_dim_below_2(system_dim, choi):
    """A bool, a non-integer or a dimension below 2 is refused, the rule
    that ``ptf.load`` applies to a header, even where ``choi`` has the
    shape that the coerced dimension would give."""
    with pytest.raises(ValidationError, match="system_dim must be an "
                                              "integer >= 2"):
        ProcessTensor(choi, system_dim, (0.0, 1.0))


def test_process_tensor_takes_a_numpy_integer_dimension():
    pt = ProcessTensor(np.kron(IDENT.choi, np.eye(2) / 2), np.int64(2),
                       (0.0, 1.0))
    assert pt.system_dim == 2 and type(pt.system_dim) is int


def test_ptf_refuses_oversize_header_before_reading(tmp_path):
    """A K = 6 qubit header (a 1 GiB tensor) is refused by the size guard
    before any blob is read: the file holds no blob at all."""
    from ptmarkov import SweepGuardError
    from ptmarkov.process_tensor import leg_labels
    header = {"format": "PTF1", "system_dim": 2, "k": 6,
              "times": [float(t) for t in range(7)],
              "leg_labels": list(leg_labels(6)), "leg_dims": [2] * 13,
              "trace_convention": "tp_choi_trace_d"}
    path = tmp_path / "k6.ptf"
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n")
    with pytest.raises(SweepGuardError):
        ProcessTensor.load(path)


def test_ptf_rejects_garbage(tmp_path):
    path = tmp_path / "junk.ptf"
    path.write_bytes(b"\x00\x01\x02 not a header")
    from ptmarkov import FormatError
    with pytest.raises(FormatError):
        ProcessTensor.load(path)


def test_ptf_load_reads_the_blob_once(tmp_path):
    """Tripwire: loading a K = 4 file (a 4 MiB tensor) peaks within 2.3
    tensor sizes and keeps within 2.1: the tensor, its slot-major form and
    the smaller forms. Reading the blob as one bytes object held it twice,
    and the causality check made 0.75 of a tensor in temporaries."""
    path = tmp_path / "k4.ptf"
    _benchmark_tensor("markov", 4, 1).save(path)
    ProcessTensor.load(path)  # the lazily built module state
    pt, peak, kept = traced_peak(lambda: ProcessTensor.load(path))
    size = pt.choi.nbytes
    assert peak <= 2.3 * size and kept <= 2.1 * size
    assert not pt.choi.flags.writeable


@pytest.mark.parametrize("extra", [16, -16, -(1 << 22) + 8])
def test_ptf_blob_size_is_checked_before_reading(tmp_path, extra):
    """Trailing bytes, a short blob and a file of eight blob bytes under a
    K = 4 header are refused with the blob's size, and nothing of the
    declared 4 MiB is allocated first."""
    from ptmarkov import FormatError
    path = tmp_path / "k4.ptf"
    tensor_k4 = ProcessTensor(tensor_product(*[IDENT.choi] * 4, np.eye(2) / 2),
                              2, range(5))
    tensor_k4.save(path)
    data = path.read_bytes()
    declared = tensor_k4.choi.nbytes
    path.write_bytes(data + bytes(extra) if extra > 0 else data[:extra])
    message = f"blob holds {declared + extra} bytes, expected {declared}"

    def load():
        with pytest.raises(FormatError, match=message):
            ProcessTensor.load(path)
    _, peak, _ = traced_peak(load)
    assert peak < declared / 16


def test_ptf_rejects_truncated_blob(tmp_path, b2_pt):
    path = tmp_path / "trunc.ptf"
    b2_pt.save(path)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    from ptmarkov import FormatError
    with pytest.raises(FormatError):
        ProcessTensor.load(path)


def test_ptf_save_over_longer_file_matches_fresh(tmp_path, b2_pt,
                                                 b2_pure_pt3):
    """A K = 2 save over an existing K = 3 file is rewritten in place and
    cut to length: the bytes are those of a save to a fresh path."""
    fresh, over = tmp_path / "fresh.ptf", tmp_path / "over.ptf"
    b2_pt.save(fresh)
    b2_pure_pt3.save(over)
    b2_pt.save(over)
    assert over.read_bytes() == fresh.read_bytes()
    assert np.array_equal(ProcessTensor.load(over).choi, b2_pt.choi)


def test_ptf_save_keeps_mode_and_writes_through_symlink(tmp_path, b2_pt):
    """As with ``open(path, "wb")``: an existing file keeps its mode, a new
    one gets the same mode, and a symlinked path writes its target."""
    ref, new = tmp_path / "ref.ptf", tmp_path / "new.ptf"
    with open(ref, "wb"):
        pass
    b2_pt.save(new)
    assert new.stat().st_mode == ref.stat().st_mode
    kept = tmp_path / "kept.ptf"
    kept.write_bytes(b"old")
    kept.chmod(0o640)
    b2_pt.save(kept)
    assert kept.stat().st_mode & 0o777 == 0o640
    link = tmp_path / "link.ptf"
    link.symlink_to(kept)
    kept.write_bytes(b"old")
    b2_pt.save(link)
    assert link.is_symlink()
    assert kept.read_bytes() == new.read_bytes()


def test_ptf_new_bytes_over_old_refused(tmp_path, b2_pt):
    """What a save killed part way over an older file of the same header
    can leave, the new bytes followed by the old ones, fails the
    Hermiticity scan of ``load``."""
    from ptmarkov import FormatError
    old, new = tmp_path / "old.ptf", tmp_path / "new.ptf"
    b2_pt.save(old)
    build_process_tensor(model_b2(0.5), b2_pt.times).save(new)
    raw_old, raw_new = old.read_bytes(), new.read_bytes()
    assert raw_old.split(b"\n")[0] == raw_new.split(b"\n")[0]
    half = len(raw_new) // 2
    old.write_bytes(raw_new[:half] + raw_old[half:])
    with pytest.raises(FormatError, match="asymmetry"):
        ProcessTensor.load(old)
