import math

import numpy as np
import pytest

from ptmarkov import (
    ExperimentGrid,
    QuadratureError,
    QuantumMap,
    ValidationError,
    b2_conditional_output,
    b2_env_after_break,
    build_process_tensor,
    default_break,
    markov_test,
    model_b1,
    model_b2,
    model_b3,
    model_markov,
    simulate_sequence,
    swap_unitary,
    tensor_product,
    trace_norm_distance,
)
from ptmarkov.models import _wrapped_cauchy_nodes
from ptmarkov.random_ops import random_cptp, random_pure_state

from oracles import (
    P0,
    P1,
    PP,
    SX,
    b2_env_state_direct,
    b2_output_direct,
    schmidt_rank_across,
    tomography_process_tensor,
    von_neumann_entropy,
)

IDENT = QuantumMap.identity(2)
FLIP = QuantumMap.from_unitary(SX)


def test_grid_validation():
    ExperimentGrid((0.0, 1.0, 2.0))
    with pytest.raises(ValidationError):
        ExperimentGrid((0.0, 1.0, 1.0))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_grid_rejects_non_finite_times(bad):
    with pytest.raises(ValidationError, match="finite"):
        ExperimentGrid((0.0, bad))


# ---------------------------------------------------------------------------
# B.1: random-field dephasing
# ---------------------------------------------------------------------------

def test_b1_ensemble_weights():
    x, w = _wrapped_cauchy_nodes((0.0, 1.0, 2.0), gamma=1.0, g=1.0,
                                 n_nodes=2001)
    assert w.min() >= 0.0
    assert abs(w.sum() - 1.0) <= 1e-8
    assert x.size == 2001


def test_b1_coherence_matches_characteristic_function(b1_model):
    """Decay factor exp(-gamma*g*t); oracle is the Cauchy characteristic
    function, cross-checked by Monte Carlo over 10**7 samples."""
    sys1, _ = simulate_sequence(b1_model, (0.0, 1.0), [IDENT])
    factor = sys1.matrix[0, 1] / PP[0, 1]
    assert abs(factor - math.exp(-1.0)) <= 1e-6

    rng = np.random.default_rng(123)
    samples = rng.standard_cauchy(10 ** 7)
    mc = np.exp(-1j * samples).mean()
    assert abs(factor - mc) <= 2e-3  # MC resolution ~ 1/sqrt(N)


def test_b1_zero_time_factor_is_one(b1_model):
    x, w = _wrapped_cauchy_nodes((0.0, 1.0), gamma=1.0, g=1.0, n_nodes=501)
    assert abs(np.sum(w * np.exp(-1j * 0 * x)) - 1.0) <= 1e-12


@pytest.mark.parametrize("gg_t", [0.5, 1.0, 2.0])
def test_b1_decay_factor_general_times(gg_t):
    model = model_b1(gamma=1.0, g=1.0)
    sys1, _ = simulate_sequence(model, (0.0, gg_t), [IDENT])
    factor = abs(sys1.matrix[0, 1]) * 2
    assert abs(factor - math.exp(-gg_t)) <= 1e-6


def test_b1_echo_restores_earlier_state(b1_model):
    """A flip at t_2 rewinds the dephasing: the state at t_2 + dt matches
    the t_1 state up to a further flip (here the plus state, flip
    invariant)."""
    sys2, _ = simulate_sequence(b1_model, (0.0, 1.0, 2.0), [IDENT, FLIP])
    assert np.abs(sys2.matrix - PP).max() <= 1e-6
    coherence = abs(sys2.matrix[0, 1]) * 2
    assert abs(coherence - 1.0) <= 1e-6


def test_b1_quadrature_converges_under_doubling():
    values = []
    for nodes in (2001, 4002):
        model = model_b1(gamma=1.0, g=1.0, nodes=nodes)
        sys1, _ = simulate_sequence(model, (0.0, 1.0), [IDENT])
        values.append(abs(sys1.matrix[0, 1]) * 2)
    assert abs(values[0] - values[1]) <= 1e-8


def test_b1_axis_parameter():
    # dephasing about x preserves x-basis populations, kills z-coherence
    model = model_b1(gamma=1.0, g=1.0, dephasing_axis="x", rho0=P0)
    sys1, _ = simulate_sequence(model, (0.0, 1.0), [IDENT])
    # <sigma_x> is conserved, <sigma_z> decays
    assert abs((sys1.matrix @ SX).trace().real) <= 1e-12
    pop_diff = (sys1.matrix[0, 0] - sys1.matrix[1, 1]).real
    assert abs(pop_diff - math.exp(-1.0)) <= 1e-6


def test_b1_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        model_b1(gamma=-1.0, g=1.0)
    with pytest.raises(ValidationError):
        model_b1(gamma=1.0, g=0.0)


def test_b1_incommensurate_grid_raises():
    model = model_b1(gamma=1.0, g=1.0)
    with pytest.raises(QuadratureError):
        simulate_sequence(model, (0.0, 1.0, 1.0 + math.pi * 1e-4), [IDENT, IDENT])


def test_b1_marginal_decay_factor(b1_pt, basis2):
    """Marginal dynamics over each step interval is dephasing with the
    characteristic-function factor."""
    for (j, l), t in (((0, 1), 1.0), ((1, 2), 1.0), ((0, 2), 2.0)):
        lam = b1_pt.marginal_map(j, l)
        out = lam.apply(PP)
        assert abs(abs(out[0, 1]) * 2 - math.exp(-t)) <= 1e-6


# ---------------------------------------------------------------------------
# B.2: partial swap
# ---------------------------------------------------------------------------

def test_b2_full_swap_at_quarter_period():
    u = np.cos(math.pi / 2) * np.eye(4) + 1j * np.sin(math.pi / 2) \
        * swap_unitary(2)
    model = model_b2(omega=1.0)
    sys1, joint = simulate_sequence(model, (0.0, math.pi / 2),
                                    [QuantumMap.prepare(P0)])
    # full swap: system ends maximally mixed (the environment state)
    assert np.abs(sys1.matrix - np.eye(2) / 2).max() <= 1e-12
    assert np.abs(u - 1j * swap_unitary(2)).max() <= 1e-12


def test_b2_one_step_depolarizing_closed_form():
    theta = 0.7
    model = model_b2(omega=1.0)
    for rho in (P0, PP, random_pure_state(2, np.random.default_rng(1))):
        out, _ = simulate_sequence(model, (0.0, theta),
                                   [QuantumMap.prepare(rho)])
        expected = math.cos(theta) ** 2 * rho \
            + math.sin(theta) ** 2 * np.eye(2) / 2
        assert np.abs(out.matrix - expected).max() <= 1e-12


@pytest.mark.parametrize("theta", [0.3, math.pi / 4, 1.2])
def test_b2_trace_distance_contraction(theta):
    model = model_b2(omega=1.0)
    out_m, _ = simulate_sequence(model, (0.0, theta), [QuantumMap.prepare(P0)])
    out_n, _ = simulate_sequence(model, (0.0, theta), [QuantumMap.prepare(P1)])
    ratio = trace_norm_distance(out_m.matrix, out_n.matrix) \
        / trace_norm_distance(P0, P1)
    assert abs(ratio - math.cos(theta) ** 2) <= 1e-12


def test_b2_conditional_env_state_closed_form():
    """The derived closed form matches direct dense evolution and the
    simulator's joint state after an explicit break."""
    theta = math.pi / 4
    rng = np.random.default_rng(40)
    brk = default_break(2)
    for rho_n in (P0, PP, random_pure_state(2, rng)):
        model = model_b2(omega=1.0, rho_s=rho_n)
        _, joint = simulate_sequence(model, (0.0, theta), [IDENT])
        for r in range(4):
            effect = brk.effects[r]
            oracle = b2_env_state_direct(rho_n, effect, theta)
            closed = b2_env_after_break(rho_n, effect, theta)
            assert np.abs(closed - oracle).max() <= 1e-10
            # same conditioning applied to the simulated joint state
            weighted = tensor_product(effect, np.eye(2)) @ joint.matrix
            env = np.trace(weighted.reshape(2, 2, 2, 2), axis1=0, axis2=2)
            env = env / np.trace(env)
            assert np.abs(env - closed).max() <= 1e-10


def test_b2_conditional_output_closed_form(b2_pt):
    theta = math.pi / 4
    brk = default_break(2)
    for rho_n in (P0, P1):
        for r in range(4):
            for s in range(4):
                cond = b2_pt.conditional_state(
                    1, prep_index=s, povm_outcome=r,
                    past=[QuantumMap.prepare(rho_n)])
                closed = b2_conditional_output(
                    brk.preparations[s], rho_n, brk.effects[r], theta, theta)
                oracle = b2_output_direct(
                    brk.preparations[s], rho_n, brk.effects[r], theta, theta)
                assert np.abs(closed - oracle).max() <= 1e-12
                assert np.abs(cond.state.matrix - closed).max() <= 1e-9


# ---------------------------------------------------------------------------
# B.3: double swap
# ---------------------------------------------------------------------------

def test_b3_output_under_arbitrary_intermediate_ops(b3_model, b3_states):
    rho_s, _ = b3_states
    rng = np.random.default_rng(21)
    grid = (0.0, 1.0, 2.0)
    for op in [IDENT, QuantumMap.prepare(P1), QuantumMap.from_unitary(SX),
               random_cptp(2, rng)]:
        out, _ = simulate_sequence(b3_model, grid, [IDENT, op])
        assert np.abs(out.matrix - rho_s).max() <= 1e-12


def test_b3_joint_state_stays_product(b3_model):
    """No system-environment correlations at any time, for any
    intermediate channel."""
    rng = np.random.default_rng(22)
    for op in [IDENT, random_cptp(2, rng), QuantumMap.prepare(PP)]:
        for grid, seq in (((0.0, 1.0), [IDENT]),
                          ((0.0, 1.0, 2.0), [IDENT, op])):
            _, joint = simulate_sequence(b3_model, grid, seq)
            j = joint.matrix / joint.trace
            sys = np.trace(j.reshape(2, 2, 2, 2), axis1=1, axis2=3)
            env = np.trace(j.reshape(2, 2, 2, 2), axis1=0, axis2=2)
            assert trace_norm_distance(j, tensor_product(sys, env)) <= 1e-10


def test_b3_mutual_information_zero(b3_model):
    _, joint = simulate_sequence(b3_model, (0.0, 1.0), [IDENT])
    j = joint.matrix
    sys = np.trace(j.reshape(2, 2, 2, 2), axis1=1, axis2=3)
    env = np.trace(j.reshape(2, 2, 2, 2), axis1=0, axis2=2)
    mi = von_neumann_entropy(sys) + von_neumann_entropy(env) \
        - von_neumann_entropy(j)
    assert abs(mi) <= 1e-10


def test_b3_dimension_mismatch():
    with pytest.raises(Exception):
        model_b3(P0, np.eye(3) / 3)


# ---------------------------------------------------------------------------
# memoryless dilations
# ---------------------------------------------------------------------------

def test_markov_identity_maps_are_trivial(basis2):
    model = model_markov([IDENT, IDENT], P0)
    out, _ = simulate_sequence(model, (0.0, 1.0, 2.0), [IDENT, FLIP])
    assert np.abs(out.matrix - P1).max() <= 1e-12


def test_markov_model_reproduces_channels(markov_maps):
    model = model_markov(markov_maps, np.eye(2) / 2)
    grid = (0.0, 1.0, 2.0, 3.0)
    out, _ = simulate_sequence(model, grid, [IDENT, IDENT, IDENT])
    expected = np.eye(2) / 2
    for m in markov_maps:
        expected = m.apply(expected)
    assert np.abs(out.matrix - expected).max() <= 1e-12


def test_markov_tensor_is_exact_product(markov_maps, markov_pt2):
    expected = tensor_product(markov_maps[1].choi, markov_maps[0].choi,
                              np.eye(2) / 2)
    assert np.abs(markov_pt2.choi - expected).max() <= 1e-9


def test_markov_tensor_schmidt_rank_one(markov_pt3):
    """Every temporal cut of the memoryless tensor has operator-Schmidt
    rank 1 (independent SVD oracle on the chronologically ordered legs)."""
    d = 2
    k = markov_pt3.n_steps
    n = 2 * k + 1
    t = markov_pt3.as_tensor()
    chrono = list(range(n - 1, -1, -1))
    mat = t.transpose([*chrono, *[c + n for c in chrono]]).reshape(
        d ** n, d ** n)
    for j in range(k):
        n_early = 2 * j + 1
        rank = schmidt_rank_across(mat, [d] * n_early, [d] * (n - n_early))
        assert rank == 1


def test_markov_tensor_passes_markov_test(markov_pt3, basis2):
    rep = markov_test(markov_pt3, basis2)
    assert rep.is_markov
    assert rep.max_deviation <= 1e-9


def test_markov_model_rejects_non_cptp():
    bad = QuantumMap.from_kraus([np.eye(2) * 0.5])
    with pytest.raises(ValidationError):
        model_markov([bad], P0)


# ---------------------------------------------------------------------------
# engine invariants
# ---------------------------------------------------------------------------

def test_unitarity_preserves_purity(b3_states):
    """Joint trace and purity survive each step for pure initial states."""
    psi_s = random_pure_state(2, np.random.default_rng(5))
    psi_e = random_pure_state(2, np.random.default_rng(6))
    model = model_b3(psi_s, psi_e)
    _, joint = simulate_sequence(model, (0.0, 1.0, 2.0), [IDENT, IDENT])
    j = joint.matrix
    assert abs(np.trace(j).real - 1.0) <= 1e-12
    assert abs(np.trace(j @ j).real - 1.0) <= 1e-12


def test_simulation_with_trace_decreasing_controls(b2_model):
    out, joint = simulate_sequence(
        b2_model, (0.0, 0.5), [QuantumMap.measure_and_prepare(P0, PP)])
    assert abs(out.trace - 0.5) <= 1e-12
    assert abs(joint.trace - 0.5) <= 1e-12


def test_build_admits_k5():
    """The size guard prices the dense tensor: a qubit K = 5 tensor takes
    64 MiB, inside the 128 MiB guard."""
    pt = build_process_tensor(model_b2(omega=1.0),
                              tuple(float(i) for i in range(6)))
    assert pt.dim == 2 ** 11
    assert abs(pt.trace - 2 ** 5) <= 1e-9


def test_build_guard():
    model = model_b2(omega=1.0)
    grid = tuple(float(i) for i in range(7))  # K = 6: a 1 GiB tensor
    from ptmarkov import SweepGuardError
    with pytest.raises(SweepGuardError):
        build_process_tensor(model, grid)


def test_direct_construction_matches_tomography(
        b1_model, b1_pt, b2_model, b2_pt, b3_model, b3_pt, markov_model2,
        markov_pt2, markov_model3, markov_pt3, basis2):
    """The link-product tensor equals the tomographic reconstruction from
    simulated basis-sequence outputs on the whole fixture corpus."""
    corpus = [
        (b1_model, b1_pt),
        (b2_model, b2_pt),
        (b3_model, b3_pt),
        (markov_model2, markov_pt2),
        (markov_model3, markov_pt3),
    ]
    for model, pt in corpus:
        tomo = tomography_process_tensor(model, pt.times, basis2)
        assert np.abs(pt.choi - tomo.choi).max() <= 1e-12
