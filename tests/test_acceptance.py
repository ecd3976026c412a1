"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run standalone with  pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
from ptmarkov import (
    QuantumMap,
    apply_local_channel,
    bond_dimension,
    build_process_tensor,
    b2_conditional_output,
    classical_markov_check,
    classical_process,
    confusion_probability,
    default_break,
    divisibility_test,
    fidelity,
    markov_test,
    model_b2,
    model_markov,
    non_markovianity,
    simulate_sequence,
    tensor_product,
    trace_norm_distance,
)
from ptmarkov.random_ops import (
    computational_reprepare_instrument,
    random_cptp,
    random_control_sequence,
    random_density,
    random_reprepare_instrument,
)

from oracles import P0, P1, PP, SX, b3_classical_table

IDENT = QuantumMap.identity(2)
FLIP = QuantumMap.from_unitary(SX)


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_b2_contraction():
    """Trace-distance contraction factor cos^2(pi/4) = 0.5 within 1e-9,
    in under a second."""
    theta = math.pi / 4
    start = time.perf_counter()
    model = model_b2(omega=1.0)
    out_m, _ = simulate_sequence(model, (0.0, theta), [QuantumMap.prepare(P0)])
    out_n, _ = simulate_sequence(model, (0.0, theta), [QuantumMap.prepare(P1)])
    ratio = trace_norm_distance(out_m.matrix, out_n.matrix) \
        / trace_norm_distance(P0, P1)
    elapsed = time.perf_counter() - start
    ok = abs(ratio - 0.5) <= 1e-9 and elapsed < 1.0
    _verdict(1, ok, f"contraction {ratio:.12f} (target 0.5 +/- 1e-9) "
                    f"in {elapsed:.3f} s")


def test_criterion_2_b2_memory_witness(b2_pt):
    """Conditional states after the causal break differ across initial
    preparations / outcomes by > 0.05 and match the closed form to 1e-9."""
    theta = math.pi / 4
    brk = default_break(2)
    states = []
    closed_err = 0.0
    for rho_n in (P0, P1):
        for r in range(brk.n_outcomes):
            cond = b2_pt.conditional_state(
                1, prep_index=0, povm_outcome=r,
                past=[QuantumMap.prepare(rho_n)])
            closed = b2_conditional_output(
                brk.preparations[0], rho_n, brk.effects[r], theta, theta)
            closed_err = max(closed_err,
                             float(np.abs(cond.state.matrix - closed).max()))
            states.append(cond.state.matrix)
    spread = max(trace_norm_distance(a, b)
                 for i, a in enumerate(states) for b in states[i + 1:])
    ok = spread > 0.05 and closed_err <= 1e-9
    _verdict(2, ok, f"conditional spread {spread:.6f} > 0.05, closed-form "
                    f"error {closed_err:.2e} <= 1e-9")


def test_criterion_3_b1_decay_and_echo(b1_model):
    """Coherence decays as exp(-gamma*g*t) (1e-6 against the Cauchy
    characteristic-function oracle) and a flip echo restores the earlier
    state to fidelity 1 - 1e-6."""
    sys1, _ = simulate_sequence(b1_model, (0.0, 1.0), [IDENT])
    factor = abs(sys1.matrix[0, 1]) * 2
    decay_err = abs(factor - math.exp(-1.0))
    sys2, _ = simulate_sequence(b1_model, (0.0, 1.0, 2.0), [IDENT, FLIP])
    fid = fidelity(sys2.matrix, PP)
    ok = decay_err <= 1e-6 and fid >= 1.0 - 1e-6
    _verdict(3, ok, f"decay factor {factor:.9f} (oracle e^-1, error "
                    f"{decay_err:.2e}), echo fidelity {fid:.12f}")


def test_criterion_4_divisible_yet_non_markov(b1_pt, basis2):
    """On the dephasing tensor: divisibility defect <= 1e-6 while the
    causal-break deviation exceeds 0.1."""
    div = divisibility_test(b1_pt)
    mk = markov_test(b1_pt, basis2, exhaustive=True)
    ok = div.max_defect <= 1e-6 and mk.max_deviation > 0.1 and not mk.is_markov
    _verdict(4, ok, f"divisibility defect {div.max_defect:.2e} <= 1e-6, "
                    f"break deviation {mk.max_deviation:.4f} > 0.1")


def test_criterion_5_b3_memory_without_correlations(b3_model, b3_pt,
                                                    b3_states, basis2):
    """Output equals the initial state for 100 random intermediate
    channels, the joint state stays product, the break test fails, and the
    middle temporal cut carries bond dimension > 1."""
    rho_s, _ = b3_states
    rng = np.random.default_rng(50)
    worst_out = 0.0
    worst_prod = 0.0
    for _ in range(100):
        op = random_cptp(2, rng)
        worst_out = max(worst_out, float(np.abs(
            b3_pt.apply([IDENT, op]).matrix - rho_s).max()))
        for grid, seq in (((0.0, 1.0), [IDENT]), ((0.0, 1.0, 2.0),
                                                  [IDENT, op])):
            _, joint = simulate_sequence(b3_model, grid, seq)
            j = joint.matrix / joint.trace
            sys = np.trace(j.reshape(2, 2, 2, 2), axis1=1, axis2=3)
            env = np.trace(j.reshape(2, 2, 2, 2), axis1=0, axis2=2)
            worst_prod = max(worst_prod, trace_norm_distance(
                j, tensor_product(sys, env)))
    mk = markov_test(b3_pt, basis2)
    dims = bond_dimension(b3_pt)
    ok = (worst_out <= 1e-10 and worst_prod <= 1e-10
          and not mk.is_markov and dims[1] > 1)
    _verdict(5, ok, f"output deviation {worst_out:.2e} <= 1e-10, product "
                    f"deviation {worst_prod:.2e} <= 1e-10, non-Markov, "
                    f"middle-cut bond dimension {dims[1]}")


def test_criterion_6_markov_soundness(basis2):
    """100 random memoryless dilations (K = 2 and 3): break test passes,
    measure <= 1e-8, unit bond dimensions, divisibility defect <= 1e-8;
    under five minutes."""
    rng = np.random.default_rng(60)
    start = time.perf_counter()
    worst = {"dev": 0.0, "n": 0.0, "bond": 1, "div": 0.0}
    for trial in range(100):
        k = 2 if trial % 2 == 0 else 3
        maps = [random_cptp(2, rng) for _ in range(k)]
        rho0 = random_density(2, rng)
        model = model_markov(maps, rho0)
        pt = build_process_tensor(model, tuple(float(i) for i in range(k + 1)))
        mk = markov_test(pt, basis2, tol=1e-8)
        assert mk.is_markov, f"trial {trial} flagged non-Markov"
        meas = non_markovianity(pt)
        div = divisibility_test(pt)
        worst["dev"] = max(worst["dev"], mk.max_deviation)
        worst["n"] = max(worst["n"], meas.n_value)
        worst["bond"] = max(worst["bond"], max(meas.bond_dims))
        worst["div"] = max(worst["div"], div.max_defect)
    elapsed = time.perf_counter() - start
    ok = (worst["dev"] <= 1e-8 and worst["n"] <= 1e-8
          and worst["bond"] == 1 and worst["div"] <= 1e-8
          and elapsed < 300.0)
    _verdict(6, ok, f"100 instances in {elapsed:.1f} s: max deviation "
                    f"{worst['dev']:.2e}, max N {worst['n']:.2e}, bond dims "
                    f"all {worst['bond']}, divisibility {worst['div']:.2e}")


def test_criterion_7_classical_limit(markov_pt3, b3_pt, b3_states, basis2):
    """Memoryless + 20 random reprepare instruments satisfy the classical
    chain condition to 1e-9; the double-swap with the computational
    instrument violates it by > 0.1, matching the enumeration oracle."""
    rng = np.random.default_rng(70)
    final = [P0, P1]
    worst = 0.0
    for _ in range(20):
        instruments = [random_reprepare_instrument(2, 2, rng)
                       for _ in range(3)]
        cp = classical_process(markov_pt3, instruments, final_povm=final)
        worst = max(worst, classical_markov_check(cp).max_violation)
    rho_s, rho_e = b3_states
    inst = computational_reprepare_instrument(2)
    cp3 = classical_process(b3_pt, [inst, inst], final_povm=final)
    table_err = float(np.abs(cp3.table - b3_classical_table(rho_s,
                                                            rho_e)).max())
    chk = classical_markov_check(cp3)
    ok = worst <= 1e-9 and chk.max_violation > 0.1 and table_err <= 1e-9
    _verdict(7, ok, f"memoryless violation {worst:.2e} <= 1e-9; double-swap "
                    f"violation {chk.max_violation:.3f} > 0.1 (oracle table "
                    f"error {table_err:.2e})")


def test_criterion_8_tomography_round_trip(b1_model, b1_pt, b2_model, b2_pt,
                                           b3_model, b3_pt, markov_maps,
                                           markov_pt2, markov_pt3):
    """Reconstructed tensors reproduce direct simulation on 50 random
    channel sequences to 1e-9 and are PSD to -1e-8."""
    rng = np.random.default_rng(80)
    corpus = [
        ("b1", b1_model, (0.0, 1.0, 2.0), b1_pt),
        ("b2", b2_model, (0.0, math.pi / 4, math.pi / 2), b2_pt),
        ("b3", b3_model, (0.0, 1.0, 2.0), b3_pt),
        ("markov2", model_markov(markov_maps[:2], np.eye(2) / 2),
         (0.0, 1.0, 2.0), markov_pt2),
    ]
    worst = 0.0
    min_eig = 0.0
    for name, model, grid, pt in corpus:
        for _ in range(50):
            seq = random_control_sequence(2, pt.n_steps, rng)
            direct, _ = simulate_sequence(model, grid, seq)
            worst = max(worst, float(np.abs(
                pt.apply(seq).matrix - direct.matrix).max()))
        min_eig = min(min_eig, pt.min_eigenvalue)
    min_eig = min(min_eig, markov_pt3.min_eigenvalue)
    ok = worst <= 1e-9 and min_eig >= -1e-8
    _verdict(8, ok, f"max apply/simulate mismatch {worst:.2e} <= 1e-9, "
                    f"min eigenvalue {min_eig:.2e} >= -1e-8")


def test_criterion_9_measure_properties(markov_pt2, markov_pt3, b1_pt, b2_pt,
                                        b3_pt):
    """N >= 0 everywhere, N = 0 on the memoryless corpus, N non-increasing
    under 50 random local channels on the memory-carrying corpus, and the
    confusion probability is exactly exp(-n N)."""
    rng = np.random.default_rng(90)
    all_nonneg = True
    for pt in (markov_pt2, markov_pt3, b1_pt, b2_pt, b3_pt):
        all_nonneg &= non_markovianity(pt).n_value >= 0.0
    markov_zero = max(non_markovianity(markov_pt2).n_value,
                      non_markovianity(markov_pt3).n_value) <= 1e-9
    monotone = True
    checks = 0
    for pt in (b1_pt, b2_pt, b3_pt):
        base = non_markovianity(pt).n_value
        for _ in range(17):
            leg = int(rng.integers(0, pt.legs.n_legs))
            post = apply_local_channel(pt, leg, random_cptp(2, rng))
            monotone &= non_markovianity(post).n_value <= base + 1e-9
            checks += 1
    exact = all(
        confusion_probability(nv, n) == math.exp(-n * nv)
        for nv in (0.0, 0.17, 2 * math.log(2)) for n in (0, 1, 7, 40))
    ok = all_nonneg and markov_zero and monotone and checks >= 50 and exact
    _verdict(9, ok, f"N >= 0 on corpus, N = 0 on memoryless corpus, "
                    f"monotone under {checks} local channels, confusion "
                    f"probability exact")
