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
    random_reprepare_instrument,
    random_unitary,
)

from oracles import (
    P0,
    P1,
    PP,
    b3_choi_analytic,
    compose,
    depolarizing,
    entropy_of_spectrum,
    marginal_map_frame,
    restrict_einsum,
    spectrum_dense,
    tomography_process_tensor,
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
        stacks = [np.stack([m.choi.reshape(-1) for m in slot])
                  for slot in maps]
        outs = pt.contract(stacks)
        assert outs.shape == (6, 2, 2)
        for row, seq in enumerate(itertools.product(*maps)):
            assert np.abs(outs[row] - pt.apply(seq).matrix).max() <= 1e-14
        for l in (1, 2, 3):
            outs = pt.contract(stacks[:1], l)
            early = pt.restrict(range(l + 1))
            for row, m in enumerate(maps[0]):
                want = early.apply([m] + [IDENT] * (l - 1)).matrix
                assert np.abs(outs[row] - want).max() <= 1e-14
        assert np.abs(pt.contract([], 0)[0]
                      - pt.restrict([0]).choi).max() <= 1e-15
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
    slowest, what per-sequence ``apply`` gives: at every readout step l
    (below K through ``restrict``) and for every count of leading stacks,
    with the identity on the slots past them; qubit K = 3 and qutrit
    K = 2."""
    pt = _qutrit_memory_pt() if name == "qutrit" \
        else request.getfixturevalue(name)
    d, k = pt.system_dim, pt.n_steps
    rng = np.random.default_rng(32)
    ident = QuantumMap.identity(d)
    for widths in ((d ** 4, 2, 1), (1, d ** 4, 2)):
        maps = [[random_cptp(d, rng) for _ in range(n)] for n in widths[:k]]
        stacks = [np.stack([m.choi.reshape(-1) for m in slot])
                  for slot in maps]
        for l in range(1, k + 1):
            early = pt.restrict(range(l + 1))
            for m in range(l + 1):
                outs = pt.contract(stacks[:m], l)
                seqs = list(itertools.product(*maps[:m]))
                assert outs.shape == (len(seqs), d, d)
                for row, seq in enumerate(seqs):
                    want = early.apply([*seq] + [ident] * (l - m)).matrix
                    assert np.abs(outs[row] - want).max() <= 1e-14


def test_apply_slot_count_mismatch(b2_pt):
    with pytest.raises(DimensionMismatch):
        b2_pt.apply([IDENT])


def test_control_sequence_validation(b2_model, b2_pt):
    """Every reader of a control sequence refuses, at any slot, an entry
    that is not a QuantumMap (the instrument and break tuples included:
    those pass as ``ins.members[r]`` and ``brk.map(r, s)``), a map or break
    set of another dimension, and a slot too few or too many."""
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
    with pytest.raises(DimensionMismatch):
        b2_pt.conditional_state(1, 0, 0, past=[IDENT],
                                break_set=default_break(3))


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
    """An outcome with exactly zero probability is reported unresolvable."""
    prep_zero = QuantumMap.prepare(P0)
    maps = [prep_zero, QuantumMap.identity(2)]
    pt = build_process_tensor(model_markov(maps, np.eye(2) / 2),
                              (0.0, 1.0, 2.0))
    brk = _orthogonal_break()
    with pytest.raises(UnresolvableConditional):
        pt.conditional_state(1, prep_index=0, povm_outcome=1,
                             past=[prep_zero], break_set=brk)


def _orthogonal_break():
    from ptmarkov import CausalBreak
    return CausalBreak(effects=(P0, P1), preparations=(P0, P1))


# ---------------------------------------------------------------------------
# tomography
# ---------------------------------------------------------------------------

def test_from_tomography_identity_single_step(basis2):
    """k=1 identity dynamics on the maximally mixed state reconstructs the
    product of the identity Choi and the initial state."""
    model = model_markov([QuantumMap.identity(2)], np.eye(2) / 2)
    pt = tomography_process_tensor(model, (0.0, 1.0), basis2)
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


def test_from_tomography_rejects_incomplete(basis2):
    records = [((0, 0), np.eye(2) / 2)]
    with pytest.raises(TomographyDataError):
        from_tomography(records, basis2, 2, 2)


def test_from_tomography_rejects_duplicates(basis2):
    records = [((0,), np.eye(2) / 2), ((0,), np.eye(2) / 2)]
    with pytest.raises(TomographyDataError):
        from_tomography(records, basis2, 2, 1)


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
# restriction
# ---------------------------------------------------------------------------

def test_restrict_full_subset_is_identity(b2_pt):
    assert b2_pt.restrict([0, 1, 2]) is b2_pt


def test_restrict_matches_direct_tomography(b2_model, b2_pt):
    direct = build_process_tensor(b2_model, (0.0, math.pi / 4))
    restricted = b2_pt.restrict([0, 1])
    assert np.abs(restricted.choi - direct.choi).max() <= 1e-9
    assert restricted.times == direct.times


def test_restrict_markov_product_form(markov_maps, markov_pt3):
    restricted = markov_pt3.restrict([0, 1, 2])
    expected = tensor_product(markov_maps[1].choi, markov_maps[0].choi,
                              _markov_rho0())
    assert np.abs(restricted.choi - expected).max() <= 1e-9


def _markov_rho0():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho0 = a @ a.conj().T
    return rho0 / np.trace(rho0).real


def test_restrict_interior_skip_composes(markov_maps, markov_pt3):
    restricted = markov_pt3.restrict([0, 2, 3])
    lam_20 = compose(markov_maps[1], markov_maps[0])
    expected = tensor_product(markov_maps[2].choi, lam_20.choi, _markov_rho0())
    assert np.abs(restricted.choi - expected).max() <= 1e-9


def test_restrict_empty_subset_raises(b2_pt):
    with pytest.raises(Exception):
        b2_pt.restrict([])


def test_restrict_matches_einsum_oracle(b1_pt, b2_pt, b3_pt, markov_pt2,
                                       markov_pt3, b2_pure_pt3):
    """The trailing-step trace plus identity contractions equal the
    one-einsum restriction on every proper subset of the time grid."""
    rng = np.random.default_rng(61)
    qutrit = SEModel(system_dim=3, env_dim=2,
                     initial_joint=random_density(6, rng),
                     step_unitaries=(random_unitary(6, rng),
                                     random_unitary(6, rng)))
    corpus = [b1_pt, b2_pt, b3_pt, markov_pt2, markov_pt3, b2_pure_pt3,
              build_process_tensor(qutrit, (0.0, 1.0, 2.0))]
    for pt in corpus:
        for size in range(1, pt.n_steps + 1):
            for subset in itertools.combinations(range(pt.n_steps + 1), size):
                got = pt.restrict(subset)
                want = restrict_einsum(pt, subset)
                assert got.times == want.times
                assert np.abs(got.choi - want.choi).max() <= \
                    1e-14 * max(1.0, pt.trace)


def _legs_reversed(pt):
    """The same matrix entries with the leg order reversed: Hermitian and
    PSD, but the final output now sits where the initial state was."""
    n = pt.legs.n_legs
    rev = list(range(n - 1, -1, -1))
    t = pt.as_tensor().transpose(rev + [a + n for a in rev])
    return ProcessTensor(t.reshape(pt.dim, pt.dim), pt.system_dim, pt.times)


def test_causality_defect_separates_combs(b1_model, b1_pt, b2_model, b2_pt,
                                          b3_model, b3_pt, markov_model2,
                                          markov_pt2, markov_pt3,
                                          b2_pure_pt3, basis2):
    """Tensors built by every model, directly or through tomography, are
    causal combs to rounding; a random PSD matrix and a leg-reversed B.2
    tensor are not."""
    for pt in (b1_pt, b2_pt, b3_pt, markov_pt2, markov_pt3, b2_pure_pt3):
        assert pt.causality_defect() <= 1e-13
    for model, pt in ((b1_model, b1_pt), (b2_model, b2_pt),
                      (b3_model, b3_pt), (markov_model2, markov_pt2)):
        tomo = tomography_process_tensor(model, pt.times, basis2)
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


def test_analyses_build_no_restricted_tensor(markov_pt3, basis2, monkeypatch):
    """The causal-break test, the divisibility test and a conditional state
    read before the final step all contract the cached form at their
    readout step; none of them builds a restricted tensor."""
    def tripwire(self, subset):
        raise AssertionError(f"restrict({subset}) called")
    monkeypatch.setattr(ProcessTensor, "restrict", tripwire)
    markov_test(markov_pt3, basis2, exhaustive=True)
    divisibility_test(markov_pt3)
    cond = markov_pt3.conditional_state(1, 0, 0, past=[IDENT])
    assert cond.conditioning["readout_step"] == 2 < markov_pt3.n_steps


# ---------------------------------------------------------------------------
# Hermitian invariant
# ---------------------------------------------------------------------------

def test_every_construction_route_stores_exactly_hermitian_choi(
        tmp_path, b2_model, b2_pt, basis2):
    """Each route that makes a tensor leaves ``choi`` equal to its adjoint
    bit for bit: rounding-level asymmetry is symmetrized at construction,
    and an asymmetry above 1e-8 is refused there."""
    from ptmarkov import (FormatError, ValidationError, apply_local_channel,
                          closest_markov)
    path = tmp_path / "planted.ptf"
    b2_pt.save(path)
    line, blob = path.read_bytes().split(b"\n", 1)
    raw = np.frombuffer(blob, dtype="<f8").copy()
    raw[2] += 1e-10  # real part of entry (0, 1) only
    path.write_bytes(line + b"\n" + raw.tobytes())
    routes = {
        "build_process_tensor": b2_pt,
        "tomography": tomography_process_tensor(b2_model, b2_pt.times,
                                                basis2),
        "restrict": b2_pt.restrict([0, 2]),
        "closest_markov": closest_markov(b2_pt),
        "apply_local_channel": apply_local_channel(
            b2_pt, 2, random_cptp(2, np.random.default_rng(5))),
        "ptf.load": ProcessTensor.load(path),
    }
    for route, pt in routes.items():
        assert np.array_equal(pt.choi, pt.choi.conj().T), route
    assert routes["ptf.load"].choi[0, 1] != b2_pt.choi[0, 1]

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
    import tracemalloc
    choi = _benchmark_tensor("markov", 4, 1).choi
    tracemalloc.start()
    try:
        ProcessTensor(choi, 2, range(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < choi.nbytes / 2


def test_blocked_scan_refuses_and_symmetrizes_every_block():
    """A NaN or an asymmetry in the last, partial row block (a qutrit
    K = 2 tensor has 243 rows, so 3 blocks of 64 and one of 51) is refused
    as in the first block; a rounding-level asymmetry there is symmetrized
    to the full-size expression bit for bit."""
    from ptmarkov import ValidationError
    base = np.eye(243, dtype=complex)
    for bad in (complex(math.nan, 0), 1e-6):
        choi = base.copy()
        choi[240, 5] = bad
        with pytest.raises(ValidationError, match="choi asymmetry"):
            ProcessTensor(choi, 3, range(3))
    choi = base.copy()
    choi[240, 5] = 1e-12j
    choi[5, 100] = 1e-12
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
    from ptmarkov.markov import _block_marginals
    pt = request.getfixturevalue(case) if isinstance(case, str) \
        else _benchmark_tensor(*case)
    dense = spectrum_dense(pt)
    tr = pt.trace
    n_dense = sum(von_neumann_entropy(m / np.trace(m).real)
                  for m in _block_marginals(pt, pt.choi)) \
        - entropy_of_spectrum(dense / tr)
    assert abs(non_markovianity(pt).n_value - max(0.0, n_dense)) <= 1e-12
    assert pt.spectrum.shape == dense.shape
    assert np.all(np.diff(pt.spectrum) >= 0)
    bound = pt.min_eigenvalue
    assert -PSD_CLIP <= bound <= dense[0] + 1e-13 * np.linalg.norm(pt.choi)


def test_spectrum_makes_no_full_size_temporary():
    """Sketching the spectrum of a K = 4 benchmark tensor (4 MiB) peaks
    below one tensor size: the residual is summed in row blocks, where a
    full-size residual would take two tensor sizes."""
    import tracemalloc
    choi = _benchmark_tensor("markov", 4, 1).choi
    pt = ProcessTensor(choi, 2, range(5))
    tracemalloc.start()
    try:
        pt.spectrum
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < choi.nbytes


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
    assert loaded.legs.labels == b2_pt.legs.labels
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
    import tracemalloc
    pt = ProcessTensor(tensor_product(*[IDENT.choi] * 4, np.eye(2) / 2),
                       2, (0.0, 1.0, 2.0, 3.0, 4.0))
    path = tmp_path / "k4.ptf"
    tracemalloc.start()
    try:
        pt.save(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < pt.choi.nbytes
    assert path.read_bytes().endswith(pt.choi.tobytes())


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_process_tensor_rejects_non_finite_times(bad):
    from ptmarkov import ValidationError
    choi = np.kron(IDENT.choi, np.eye(2) / 2)
    with pytest.raises(ValidationError, match="finite"):
        ProcessTensor(choi, 2, (0.0, bad))


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


def test_ptf_rejects_truncated_blob(tmp_path, b2_pt):
    path = tmp_path / "trunc.ptf"
    b2_pt.save(path)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    from ptmarkov import FormatError
    with pytest.raises(FormatError):
        ProcessTensor.load(path)
