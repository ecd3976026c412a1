import math

import numpy as np
import pytest

from ptmarkov import (
    ClassicalProcess,
    QuantumMap,
    ValidationError,
    apply_local_channel,
    bond_dimension,
    build_process_tensor,
    classical_markov_check,
    classical_process,
    closest_markov,
    confusion_probability,
    divisibility_test,
    markov_test,
    model_markov,
    non_markovianity,
    partial_trace,
    relative_entropy,
    tensor_product,
    trace_norm_distance,
)
from ptmarkov.random_ops import (
    computational_reprepare_instrument,
    random_cptp,
    random_density,
    random_reprepare_instrument,
)

from oracles import (
    P0,
    P1,
    PP,
    b3_choi_analytic,
    b3_classical_table,
    relative_entropy_eig,
    schmidt_rank_across,
)

IDENT = QuantumMap.identity(2)


# ---------------------------------------------------------------------------
# markov_test
# ---------------------------------------------------------------------------

def test_markov_test_passes_on_product(markov_pt2, markov_pt3, basis2):
    for pt in (markov_pt2, markov_pt3):
        rep = markov_test(pt, basis2)
        assert rep.is_markov
        assert rep.max_deviation <= 1e-9
        assert rep.witness is None
        assert rep.conclusive


def test_markov_test_flags_b3_with_witness(b3_pt, basis2):
    rep = markov_test(b3_pt, basis2, exhaustive=True)
    assert not rep.is_markov
    assert rep.max_deviation > 0.1
    a, b = rep.witness
    # the memory enters through the past controls, not the break outcome
    assert a.past != b.past
    assert a.preparation == b.preparation


def test_markov_test_flags_b2_with_closed_form_deviation(b2_pt, basis2):
    from ptmarkov import b2_conditional_output, default_break
    rep = markov_test(b2_pt, basis2, exhaustive=True)
    assert not rep.is_markov
    assert rep.max_deviation > 10 * rep.tolerance
    # cross-check the scale of the deviation against the closed form for
    # prepared initial states and all break outcomes
    theta = math.pi / 4
    brk = default_break(2)
    closed = []
    for rho_n in brk.preparations:
        for r in range(4):
            closed.append(b2_conditional_output(
                brk.preparations[0], rho_n, brk.effects[r], theta, theta))
    spread = max(trace_norm_distance(a, b)
                 for i, a in enumerate(closed) for b in closed[i + 1:])
    assert rep.max_deviation >= spread - 1e-9


def test_markov_test_flags_b1(b1_pt, basis2):
    rep = markov_test(b1_pt, basis2)
    assert not rep.is_markov
    assert rep.max_deviation > 0.1


def test_markov_test_requires_two_steps(basis2):
    model = model_markov([IDENT], P0)
    pt = build_process_tensor(model, (0.0, 1.0))
    with pytest.raises(ValidationError):
        markov_test(pt, basis2)


def test_markov_test_breaks_scanned(b3_pt, basis2):
    rep = markov_test(b3_pt, basis2, exhaustive=True)
    assert rep.breaks_tested == ((1, 2),)


def test_markov_test_inconclusive_on_degenerate_data(b3_pt, basis2):
    """When every conditional at some group falls below the probability
    floor, the report is marked inconclusive rather than guessed."""
    from ptmarkov import ProcessTensor
    degenerate = ProcessTensor(np.zeros_like(b3_pt.choi), 2, b3_pt.times,
                               validate=False)
    rep = markov_test(degenerate, basis2, exhaustive=True)
    assert not rep.conclusive
    assert rep.inconclusive_groups
    assert rep.skipped_conditionals > 0


# ---------------------------------------------------------------------------
# divisibility
# ---------------------------------------------------------------------------

def test_divisibility_of_product_tensor(markov_pt3, basis2):
    rep = divisibility_test(markov_pt3, basis2)
    assert rep.max_defect <= 1e-9
    assert rep.is_divisible
    assert all(defect <= 1e-8 for _, _, defect in rep.pair_cp_defects)


def test_b1_divisible_but_non_markov(b1_pt, basis2):
    """The standing counterexample: CP-divisible dynamics with memory."""
    div = divisibility_test(b1_pt, basis2)
    assert div.max_defect <= 1e-6
    mk = markov_test(b1_pt, basis2)
    assert not mk.is_markov
    assert mk.max_deviation > 0.1


def test_b3_divisibility_structure(b3_pt, b3_states, basis2):
    """The extracted pair maps: (0,2) is the identity channel, (0,1)
    prepares the environment state, (1,2) prepares the (filler-dependent)
    swapped-out state; their composition defect is large."""
    rho_s, rho_e = b3_states
    lam_02 = b3_pt.marginal_map(0, 2, basis=basis2)
    assert np.abs(lam_02.choi - IDENT.choi).max() <= 1e-9
    lam_01 = b3_pt.marginal_map(0, 1, basis=basis2)
    assert np.abs(lam_01.choi - QuantumMap.prepare(rho_e).choi).max() <= 1e-9
    lam_12 = b3_pt.marginal_map(1, 2, filler="identity", basis=basis2)
    assert np.abs(lam_12.choi - QuantumMap.prepare(rho_s).choi).max() <= 1e-9
    rep = divisibility_test(b3_pt, basis2)
    assert rep.max_defect > 0.1


# ---------------------------------------------------------------------------
# closest memoryless tensor
# ---------------------------------------------------------------------------

def test_closest_markov_fixes_products(markov_pt2):
    cm = closest_markov(markov_pt2)
    assert trace_norm_distance(cm.choi, markov_pt2.choi) <= 1e-9


def test_closest_markov_preserves_marginals(b3_pt):
    cm = closest_markov(b3_pt)
    dims = b3_pt.legs.dims
    k = b3_pt.n_steps
    blocks = [(0, 1), (2, 3), (4,)]
    assert k == 2
    for block in blocks:
        ma = partial_trace(b3_pt.choi, dims, block)
        mb = partial_trace(cm.choi, dims, block)
        assert np.abs(ma - mb).max() <= 1e-12


def test_closest_markov_idempotent(b3_pt):
    cm = closest_markov(b3_pt)
    cm2 = closest_markov(cm)
    assert np.abs(cm.choi - cm2.choi).max() <= 1e-12


# ---------------------------------------------------------------------------
# the measure
# ---------------------------------------------------------------------------

def test_measure_zero_on_memoryless(markov_pt2, markov_pt3):
    for pt in (markov_pt2, markov_pt3):
        rep = non_markovianity(pt)
        assert 0.0 <= rep.n_value <= 1e-9
        assert all(b == 1 for b in rep.bond_dims)


def test_measure_b3_matches_independent_eigensolver(b3_pt):
    """Frozen expected value: for pure initial and environment states the
    two-swap tensor sits at exactly 2 ln 2 nats from its marginal product
    (entropy bookkeeping: ln 2 from the discarded slot output plus ln 4
    from the duplicated-output block, minus the ln 2 the tensor itself
    carries)."""
    rep = non_markovianity(b3_pt)
    rho = b3_pt.choi / b3_pt.trace
    sigma = closest_markov(b3_pt).choi
    sigma = sigma / np.trace(sigma).real
    oracle = relative_entropy_eig(rho, sigma)
    assert abs(rep.n_value - oracle) <= 1e-9
    assert abs(rep.n_value - 2 * math.log(2)) <= 1e-9


def test_measure_monotone_under_local_channels(b3_pt, b2_pt):
    rng = np.random.default_rng(61)
    for pt in (b3_pt, b2_pt):
        base = non_markovianity(pt).n_value
        for _ in range(10):
            leg = int(rng.integers(0, pt.legs.n_legs))
            chan = random_cptp(2, rng)
            post = apply_local_channel(pt, leg, chan)
            assert non_markovianity(post).n_value <= base + 1e-9


def test_measure_trace_distance_variant(b3_pt):
    rep = non_markovianity(b3_pt, metric="trace_distance")
    assert rep.is_upper_bound
    assert rep.n_value > 0.0


def test_relative_entropy_support_violation():
    rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
    sigma = np.diag([1.0, 0.0, 0.0]).astype(complex)
    assert relative_entropy(rho, sigma) == math.inf


def test_relative_entropy_against_oracle():
    rng = np.random.default_rng(62)
    for _ in range(5):
        rho = random_density(4, rng)
        sigma = random_density(4, rng)
        got = relative_entropy(rho, sigma)
        oracle = relative_entropy_eig(rho, sigma)
        assert abs(got - oracle) <= 1e-9


def test_minimizer_probe_random_product_perturbations(b3_pt):
    """Falsification probe for the discard-the-correlations minimizer: no
    random product candidate beats the marginal product."""
    rng = np.random.default_rng(63)
    rho = b3_pt.choi / b3_pt.trace
    sigma = closest_markov(b3_pt).choi
    sigma = sigma / np.trace(sigma).real
    base = relative_entropy(rho, sigma)
    dims = b3_pt.legs.dims
    blocks = [(0, 1), (2, 3), (4,)]
    marginals = [partial_trace(rho, dims, b) for b in blocks]
    for _ in range(200):
        factors = []
        for m in marginals:
            d = m.shape[0]
            eps = rng.uniform(0.0, 0.3)
            cand = (1 - eps) * m + eps * random_density(d, rng)
            factors.append(cand / np.trace(cand).real)
        candidate = tensor_product(*factors)
        assert relative_entropy(rho, candidate) >= base - 1e-9


# ---------------------------------------------------------------------------
# confusion probability
# ---------------------------------------------------------------------------

def test_confusion_probability_values():
    assert confusion_probability(0.0, 5) == 1.0
    assert confusion_probability(1.3, 0) == 1.0
    assert abs(confusion_probability(math.log(2), 10) - 2.0 ** -10) <= 1e-15
    with pytest.raises(ValidationError):
        confusion_probability(-1.0, 1)
    with pytest.raises(ValidationError):
        confusion_probability(1.0, -1)


# ---------------------------------------------------------------------------
# bond dimension
# ---------------------------------------------------------------------------

def test_bond_dimension_memoryless(markov_pt2, markov_pt3):
    assert bond_dimension(markov_pt2) == [1, 1]
    assert bond_dimension(markov_pt3) == [1, 1, 1]


def test_bond_dimension_b3(b3_pt, b3_states):
    dims = bond_dimension(b3_pt)
    assert dims[1] > 1
    # independent SVD oracle on the analytic tensor
    rho_s, rho_e = b3_states
    analytic = b3_choi_analytic(rho_s, rho_e)
    t = analytic.reshape([2] * 10)
    chrono = [4, 3, 2, 1, 0]
    mat = t.transpose([*chrono, *[c + 5 for c in chrono]]).reshape(32, 32)
    assert dims[1] == schmidt_rank_across(mat, [2] * 3, [2] * 2)
    assert dims[1] == 4


def test_bond_dimension_monotone_in_cutoff(b3_pt):
    loose = bond_dimension(b3_pt, cutoff=1e-2)
    tight = bond_dimension(b3_pt, cutoff=1e-12)
    assert all(a <= b for a, b in zip(loose, tight))


def test_measure_faithfulness_on_corpus(markov_pt2, markov_pt3, b1_pt, b2_pt,
                                        b3_pt, basis2):
    """N <= 1e-8, unit bond dims, and a passing causal-break test coincide
    across the corpus."""
    for pt in (markov_pt2, markov_pt3, b1_pt, b2_pt, b3_pt):
        rep = non_markovianity(pt)
        mk = markov_test(pt, basis2)
        small_n = rep.n_value <= 1e-8
        unit_bonds = all(b == 1 for b in rep.bond_dims)
        assert small_n == unit_bonds == mk.is_markov


def test_lemma_direction_on_corpus(markov_pt2, markov_pt3, b1_pt, b2_pt,
                                   b3_pt, basis2):
    """Markovian => divisible (never the converse; the b1 tensor is the
    counterexample exercised above)."""
    for pt in (markov_pt2, markov_pt3, b1_pt, b2_pt, b3_pt):
        mk = markov_test(pt, basis2)
        if mk.is_markov:
            div = divisibility_test(pt, basis2)
            assert div.max_defect <= 10 * mk.tolerance


# ---------------------------------------------------------------------------
# classical limit
# ---------------------------------------------------------------------------

def test_classical_table_b3_matches_enumeration(b3_pt, b3_states):
    rho_s, rho_e = b3_states
    inst = computational_reprepare_instrument(2)
    final = [P0, P1]
    cp = classical_process(b3_pt, [inst, inst], final_povm=final)
    assert np.abs(cp.table - b3_classical_table(rho_s, rho_e)).max() <= 1e-9
    chk = classical_markov_check(cp)
    assert not chk.is_markov
    assert chk.max_violation > 0.1
    assert chk.kolmogorov_ok


def test_classical_markov_process_satisfies_condition(markov_pt3, basis2):
    rng = np.random.default_rng(64)
    final = [P0, P1]
    for _ in range(20):
        instruments = [random_reprepare_instrument(2, 2, rng)
                       for _ in range(3)]
        cp = classical_process(markov_pt3, instruments, final_povm=final)
        chk = classical_markov_check(cp, tol=1e-9)
        assert chk.is_markov
        assert chk.max_violation <= 1e-9


def test_classical_single_step_trivially_markov():
    model = model_markov([IDENT], PP)
    pt = build_process_tensor(model, (0.0, 1.0))
    inst = computational_reprepare_instrument(2)
    cp = classical_process(pt, [inst], final_povm=[P0, P1])
    chk = classical_markov_check(cp)
    assert chk.is_markov
    assert chk.max_violation == 0.0


def test_classical_check_iid_coin():
    table = np.full((2, 2, 2), 1 / 8)
    cp = ClassicalProcess(table=table,
                          outcome_labels=(("0", "1"),) * 3)
    chk = classical_markov_check(cp)
    assert chk.is_markov and chk.max_violation <= 1e-12


def test_classical_check_copy_chain():
    table = np.zeros((2, 2, 2))
    table[0, 0, 0] = 0.4
    table[1, 1, 1] = 0.6
    cp = ClassicalProcess(table=table, outcome_labels=(("0", "1"),) * 3)
    chk = classical_markov_check(cp)
    assert chk.is_markov


def test_classical_check_violating_table(b3_states):
    rho_s, rho_e = b3_states
    table = b3_classical_table(rho_s, rho_e)
    cp = ClassicalProcess(table=table, outcome_labels=(("0", "1"),) * 3)
    chk = classical_markov_check(cp)
    assert not chk.is_markov
    assert chk.max_violation > 0.1


def test_classical_kolmogorov_marginals(b3_pt):
    inst = computational_reprepare_instrument(2)
    cp = classical_process(b3_pt, [inst, inst], final_povm=[P0, P1])
    good = {(0, 1): cp.table.sum(axis=2)}
    assert classical_markov_check(cp, marginal_tables=good).kolmogorov_ok
    bad = {(0, 1): np.full((2, 2), 0.25)}
    assert not classical_markov_check(cp, marginal_tables=bad).kolmogorov_ok


def test_classical_without_final_measurement(b3_pt):
    inst = computational_reprepare_instrument(2)
    cp = classical_process(b3_pt, [inst, inst])
    assert cp.table.shape == (2, 2)
    assert abs(cp.table.sum() - 1.0) <= 1e-9
