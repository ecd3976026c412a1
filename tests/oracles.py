"""Independent oracle implementations for the test suite.

Everything here recomputes expected values through a different route than
the package (explicit index loops, direct dense evolution, enumeration, or
closed forms derived by hand), so agreement is meaningful.
"""

import itertools
import math

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
KETP = np.array([1, 1], dtype=complex) / np.sqrt(2)
KETPI = np.array([1, 1j], dtype=complex) / np.sqrt(2)

P0 = np.outer(KET0, KET0.conj())
P1 = np.outer(KET1, KET1.conj())
PP = np.outer(KETP, KETP.conj())
PPI = np.outer(KETPI, KETPI.conj())


def kron_loops(a, b):
    """Kronecker product by explicit nested loops."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def partial_trace_loops(m, dims, keep):
    """Partial trace by explicit index summation."""
    dims = list(dims)
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    t = m.reshape(dims + dims)
    out = np.zeros((d_keep, d_keep), dtype=complex)
    for row in np.ndindex(*dims):
        for col in np.ndindex(*dims):
            if any(row[i] != col[i] for i in traced):
                continue
            ri = 0
            ci = 0
            for i in keep:
                ri = ri * dims[i] + row[i]
                ci = ci * dims[i] + col[i]
            out[ri, ci] += t[row + col]
    return out


def choi_from_superop(sup, d):
    """Choi matrix built column by column from superoperator action."""
    out = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            mapped = (sup @ e.reshape(-1)).reshape(d, d)
            out += kron_loops(mapped, e)
    return out


def apply_kraus(kraus, rho):
    return sum(k @ rho @ k.conj().T for k in kraus)


def link_compose_choi(choi_later, choi_earlier, d):
    """Choi of a composition via element-wise action on a matrix basis."""
    out = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            mid = apply_choi(choi_earlier, e, d)
            mapped = apply_choi(choi_later, mid, d)
            out += kron_loops(mapped, e)
    return out


def apply_choi(choi, rho, d):
    """Map action from the Choi matrix: tr_in[C (I (x) rho^T)]."""
    c4 = choi.reshape(d, d, d, d)
    out = np.zeros((d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            for i in range(d):
                for j in range(d):
                    out[a, b] += c4[a, i, b, j] * rho[i, j]
    return out


def swap(d=2):
    s = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


def tomography_process_tensor(model, grid, basis):
    """Process tensor by the data route: every basis-element sequence run
    through the public ``simulate_sequence`` and reconstructed by
    ``from_tomography``."""
    from ptmarkov import from_tomography, simulate_sequence

    k = len(grid) - 1
    records = []
    for key in itertools.product(range(len(basis)), repeat=k):
        out, _ = simulate_sequence(model, grid,
                                   [basis.elements[i] for i in key])
        records.append((key, out))
    return from_tomography(records, basis, model.system_dim, k, times=grid)


def restrict_einsum(pt, subset):
    """Tensor on a subset of the time grid by one einsum over the full
    tensor: future legs traced, identity controls paired into skipped
    interior slots, a factor d divided out per discarded step; the route
    that the package's trailing-step trace replaced."""
    from ptmarkov import ProcessTensor

    k, d, n = pt.n_steps, pt.system_dim, 2 * pt.n_steps + 1
    subset = sorted(set(subset))
    l_max = subset[-1]
    labels = itertools.count()
    row, col = [None] * n, [None] * n
    if l_max == k:  # the final output leg stays open
        row[0], col[0] = next(labels), next(labels)
        out_rows, out_cols = [row[0]], [col[0]]
    else:
        row[0] = col[0] = next(labels)
        out_rows, out_cols = [], []
    for j in range(k - 1, -1, -1):
        o, i = 1 + 2 * (k - 1 - j), 2 + 2 * (k - 1 - j)
        if j >= l_max:  # a future slot: both legs traced
            row[o] = col[o] = next(labels)
            if j == l_max:  # I_{l_max} becomes the new final output
                row[i], col[i] = next(labels), next(labels)
                out_rows, out_cols = [row[i]], [col[i]]
            else:
                row[i] = col[i] = next(labels)
        elif j in subset:
            row[o], col[o] = next(labels), next(labels)
            row[i], col[i] = next(labels), next(labels)
        else:  # an identity control pairs the O and I legs
            row[o] = row[i] = next(labels)
            col[o] = col[i] = next(labels)
    for j in sorted((j for j in subset if j < l_max), reverse=True):
        o, i = 1 + 2 * (k - 1 - j), 2 + 2 * (k - 1 - j)
        out_rows.extend((row[o], row[i]))
        out_cols.extend((col[o], col[i]))
    res = np.einsum(pt.as_tensor(), row + col, out_rows + out_cols)
    dim = d ** len(out_rows)
    return ProcessTensor(res.reshape(dim, dim) / d ** (k - l_max), d,
                         [pt.times[s] for s in subset])


# ---------------------------------------------------------------------------
# partial-swap (B.2-style) closed forms, derived by hand and verified against
# direct dense evolution in test_models
# ---------------------------------------------------------------------------

def partial_swap_unitary(theta):
    return np.cos(theta) * np.eye(4, dtype=complex) + 1j * np.sin(theta) * swap()


def b2_env_state_direct(rho_n, effect, theta):
    """Conditional environment state by direct dense evolution: evolve
    rho_n (x) I/2 under the partial swap, apply the system effect, trace
    the system, normalize."""
    u = partial_swap_unitary(theta)
    joint = u @ np.kron(rho_n, np.eye(2) / 2) @ u.conj().T
    weighted = np.kron(effect, np.eye(2)) @ joint
    env = np.trace(weighted.reshape(2, 2, 2, 2), axis1=0, axis2=2)
    return env / np.trace(env)


def b2_output_direct(prep, rho_n, effect, theta12, theta23):
    """System state one step after a causal break, by direct evolution."""
    env = b2_env_state_direct(rho_n, effect, theta12)
    u = partial_swap_unitary(theta23)
    joint = u @ np.kron(prep, env) @ u.conj().T
    return np.trace(joint.reshape(2, 2, 2, 2), axis1=1, axis2=3)


# ---------------------------------------------------------------------------
# two-swap (B.3-style) closed forms
# ---------------------------------------------------------------------------

def b3_choi_analytic(rho_s, rho_e):
    """The two-swap process tensor built from its exact product structure.

    The final output duplicates the slot-0 output through an identity
    channel, the slot-1 input carries the environment state, the slot-1
    output is discarded, and the earliest leg carries the initial state.
    Leg order [O2, O1, I1, O0, I0].
    """
    d = rho_s.shape[0]
    choi_id = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            choi_id += kron_loops(e, e)
    # factor order [O2, O0, O1, I1, I0] -> permute to [O2, O1, I1, O0, I0]
    m = kron_loops(kron_loops(kron_loops(choi_id, np.eye(d, dtype=complex)),
                              rho_e), rho_s)
    dims = [d] * 5
    t = m.reshape(dims + dims)
    perm = [0, 2, 3, 1, 4]
    order = perm + [p + 5 for p in perm]
    return t.transpose(order).reshape(d ** 5, d ** 5)


def b3_classical_table(rho_s, rho_e):
    """Hand-enumerated outcome table for computational measure-and-reprepare
    instruments at both slots plus a final computational readout.

    Slot 0 measures the initial state, slot 1 measures the environment, and
    the final readout reproduces the slot-0 outcome deterministically.
    """
    table = np.zeros((2, 2, 2))
    for r0 in range(2):
        for r1 in range(2):
            for r2 in range(2):
                table[r0, r1, r2] = (rho_s[r0, r0].real * rho_e[r1, r1].real
                                     * (1.0 if r2 == r0 else 0.0))
    return table


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def relative_entropy_eig(rho, sigma):
    """Relative entropy via scipy's eigensolver and an explicit double sum
    over eigenpairs (independent of the package's implementation)."""
    from scipy.linalg import eigh

    wr, vr = eigh(rho)
    ws, vs = eigh(sigma)
    total = 0.0
    for i in range(len(wr)):
        if wr[i] <= 1e-12:
            continue
        total += wr[i] * np.log(wr[i])
        for j in range(len(ws)):
            ov = abs(np.vdot(vs[:, j], vr[:, i])) ** 2
            if ov < 1e-16:
                continue
            if ws[j] <= 1e-12:
                return np.inf
            total -= wr[i] * ov * np.log(ws[j])
    return total


def von_neumann_entropy(rho):
    return entropy_of_spectrum(np.linalg.eigvalsh(rho))


def entropy_of_spectrum(w):
    w = w[w > 1e-12]
    return float(-(w * np.log(w)).sum())


def spectrum_dense(pt):
    """Ascending eigenvalues of the whole tensor from one dense eigensolve,
    the route the package takes only for tensors that are not low rank."""
    return np.linalg.eigvalsh(pt.choi)


def schmidt_rank_across(mat, dims_early, dims_late, cutoff=1e-10):
    """Operator-Schmidt rank by reshaping a matrix on (early (x) late) legs
    and running an SVD; independent route used against bond_dimension."""
    de = int(np.prod(dims_early))
    dl = int(np.prod(dims_late))
    t = mat.reshape(de, dl, de, dl).transpose(0, 2, 1, 3).reshape(de * de,
                                                                  dl * dl)
    s = np.linalg.svd(t, compute_uv=False)
    return int((s > cutoff * s.max()).sum())


def bond_dimension_unfoldings(pt, cutoff=1e-10):
    """Operator-Schmidt rank of every temporal cut from a full SVD of that
    cut's own unfolding of the chronologically ordered tensor; the route
    that the package's one-sweep bond_dimension replaced."""
    k = pt.n_steps
    d = pt.system_dim
    n = 2 * k + 1
    t = pt.as_tensor()
    chrono = list(range(n - 1, -1, -1))
    t = t.transpose([*chrono, *[c + n for c in chrono]])
    dims = []
    for j in range(k):
        n_early = 2 * j + 1
        n_late = n - n_early
        order = (list(range(n_early)) + [n + i for i in range(n_early)]
                 + list(range(n_early, n)) + [n + i for i in range(n_early, n)])
        mat = t.transpose(order).reshape(d ** (2 * n_early), d ** (2 * n_late))
        svals = np.linalg.svd(mat, compute_uv=False)
        top = svals.max()
        dims.append(int((svals > cutoff * top).sum()) if top > 0 else 0)
    return dims


# ---------------------------------------------------------------------------
# the causal-break test by brute force: one Python pass per past sequence
# and an all-pairs Bloch diameter
# ---------------------------------------------------------------------------

def diameter_qubit_all_pairs(states):
    """Max pairwise trace distance of normalized qubit states by the
    all-pairs Bloch-space distance matrix, scanned in blocks of rows; the
    pair is the first (row, column) at the largest squared distance. Each
    block's argmax is compared with the best so far in squared distance,
    so the block size only bounds memory."""
    from ptmarkov.markov import _bloch_vectors

    return diameter_bloch_all_pairs(_bloch_vectors(states))


def diameter_bloch_all_pairs(b):
    """``diameter_qubit_all_pairs`` on an (n, 3) array of Bloch vectors."""
    n = b.shape[0]
    best, pair = 0.0, (0, 0)
    chunk = max(1, min(n, 2 ** 22 // max(n, 1)))
    for start in range(0, n, chunk):
        block = b[start:start + chunk]
        d2 = ((block[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        idx = np.unravel_index(np.argmax(d2), d2.shape)
        if d2[idx] > best:
            best, pair = float(d2[idx]), (start + int(idx[0]), int(idx[1]))
    return (math.sqrt(best), *pair)


def diameter_general_loop(states):
    """Max pairwise trace distance of (d, d) states by a double loop of
    pairwise SVDs; the pair is the first strict maximum in (i, j) order."""
    from ptmarkov.linalg import trace_norm_distance

    n = states.shape[0]
    best = (0.0, 0, 0)
    for i in range(n):
        for j in range(i + 1, n):
            val = trace_norm_distance(states[i], states[j])
            if val > best[0]:
                best = (val, i, j)
    return best


def _break_vectors(break_set):
    # break realization (r, s) has Choi  P_s (x) Pi_r^T
    return np.stack([np.kron(p, e.T).reshape(-1)
                     for e in break_set.effects
                     for p in break_set.preparations])


def reduced_form_loop(pt, k, l):
    """Contraction form at readout step l with identity controls paired
    into the slots strictly between k and l, one ``tensordot`` per slot.
    Shape (d*d, d**4 [slot k], d**4 [slot k-1], ..., d**4 [slot 0])."""
    form = pt.contraction_form(l)
    d = pt.system_dim
    ident = np.eye(d, dtype=complex).reshape(-1)
    ident = np.outer(ident, ident).reshape(-1)  # Choi of the identity map
    for _ in range(l - 1 - k):  # slots l-1 ... k+1 lead the slot axes
        form = np.tensordot(form, ident, axes=([1], [0]))
    return form


def contract_loop(pt, chois, l=None):
    """Raw (d, d) output at readout step l (default: the final step) for
    one Choi per slot 0 ... len(chois)-1, identity controls on the later
    slots, contracting one slot at a time."""
    d = pt.system_dim
    l = pt.n_steps if l is None else l
    arr = reduced_form_loop(pt, len(chois) - 1, l)
    for c in chois:  # slot 0 sits on the last axis
        arr = arr @ np.asarray(c, dtype=complex).reshape(-1)
    return arr.reshape(d, d)


def conditional_output_loop(pt, basis, break_set, k, l, past, r, s):
    """Unnormalized output at step l for one past sequence and one break
    realization, contracting one basis element at a time."""
    d = pt.system_dim
    arr = reduced_form_loop(pt, k, l)
    for mu in past:  # slot 0 sits on the last axis
        arr = arr @ basis.elements[mu].choi.reshape(-1)
    outs = (arr @ _break_vectors(break_set).T).reshape(
        d, d, break_set.n_outcomes, break_set.n_preparations)
    return outs[:, :, r, s]


def markov_test_loop(pt, basis, break_set=None, tol=None, exhaustive=False,
                     prob_floor=None):
    """The causal-break sweep with a Python loop over every past sequence
    and the all-pairs diameter; returns a ``MarkovReport``."""
    from ptmarkov.defaults import MARKOV_TOL, PROBABILITY_FLOOR
    from ptmarkov.markov import ConditioningRecord, MarkovReport
    from ptmarkov.process_tensor import default_break

    tol = MARKOV_TOL if tol is None else tol
    prob_floor = PROBABILITY_FLOOR if prob_floor is None else prob_floor
    n_steps = pt.n_steps
    d = pt.system_dim
    if break_set is None:
        break_set = default_break(d)
    basis_vecs = np.stack([e.choi.reshape(-1) for e in basis.elements])
    break_vecs = _break_vectors(break_set)
    n_out = break_set.n_outcomes
    n_prep = break_set.n_preparations

    best = 0.0
    witness = None
    skipped = 0
    inconclusive = []
    breaks_tested = []
    stop = False
    for k in range(n_steps - 1, 0, -1):
        for l in range(k + 1, n_steps + 1):
            breaks_tested.append((k, l))
            form = reduced_form_loop(pt, k, l)
            states_by_prep = {s: [] for s in range(n_prep)}
            records_by_prep = {s: [] for s in range(n_prep)}
            for past in itertools.product(range(len(basis)), repeat=k):
                arr = form
                for mu in past:
                    arr = arr @ basis_vecs[mu]
                outs = (arr @ break_vecs.T).reshape(d, d, n_out, n_prep)
                probs = np.einsum("aars->rs", outs).real
                for r in range(n_out):
                    for s in range(n_prep):
                        p = probs[r, s]
                        if p <= prob_floor:
                            skipped += 1
                            continue
                        states_by_prep[s].append(outs[:, :, r, s] / p)
                        records_by_prep[s].append(ConditioningRecord(
                            break_slot=k, readout_step=l, povm_outcome=r,
                            preparation=s, past=past))
            for s in range(n_prep):
                group = states_by_prep[s]
                if not group:
                    inconclusive.append((k, l, s))
                    continue
                stack = np.stack(group)
                if d == 2:
                    dev, i, j = diameter_qubit_all_pairs(stack)
                else:
                    dev, i, j = diameter_general_loop(stack)
                if dev > best:
                    best = dev
                    witness = (records_by_prep[s][i], records_by_prep[s][j])
                if best > tol and not exhaustive:
                    stop = True
                    break
            if stop:
                break
        if stop:
            break
    return MarkovReport(
        is_markov=bool(best <= tol),
        max_deviation=float(best),
        witness=witness if best > tol else None,
        tolerance=float(tol),
        breaks_tested=tuple(breaks_tested),
        skipped_conditionals=skipped,
        inconclusive_groups=tuple(inconclusive),
    )


# ---------------------------------------------------------------------------
# marginal maps and the classical limit by the routes that the batched
# ``ProcessTensor.contract`` replaced
# ---------------------------------------------------------------------------

def marginal_map_frame(pt, j, l, filler="identity"):
    """Choi matrix of the dynamics map from slot j's output to t_l: each
    frame state P_mu is prepared at slot j in its own contraction, and the
    outputs are summed against the dual frame,
    Choi = sum_mu out(P_mu) (x) conj(D_mu)."""
    from ptmarkov.qops import ic_frame_states

    d = pt.system_dim
    ident = np.eye(d, dtype=complex).reshape(-1)
    ident = np.outer(ident, ident)
    fill = ident if filler == "identity" else np.kron(np.eye(d) / d,
                                                      np.eye(d))
    preps = ic_frame_states(d)
    cols = np.stack([p.reshape(-1) for p in preps], axis=1)
    duals = cols @ np.linalg.pinv(cols.conj().T @ cols, hermitian=True)
    choi = np.zeros((d * d, d * d), dtype=complex)
    for mu, prep in enumerate(preps):
        out = contract_loop(pt, [fill] * j + [np.kron(prep, np.eye(d))], l)
        choi += np.kron(out, duals[:, mu].reshape(d, d).conj())
    return choi


def classical_process_einsum(pt, instruments, final_povm=None):
    """Joint outcome table by one labelled ``np.einsum`` of the final
    contraction form with every instrument's member stack and the final
    POVM (or a trace)."""
    k, d = pt.n_steps, pt.system_dim
    operands = [pt.contraction_form(), [0] + [1 + j for j in range(k - 1, -1, -1)]]
    out_labels = []
    for j, ins in enumerate(instruments):
        stack = np.stack([m.choi.reshape(-1) for m in ins.members])
        operands.extend([stack, [k + 1 + j, 1 + j]])
        out_labels.append(k + 1 + j)
    if final_povm is not None:
        # tr(E rho) = sum_ab E*_ab rho_ab for hermitian E
        pair = np.stack([np.asarray(e, dtype=complex).reshape(-1)
                         for e in final_povm])
        operands.extend([pair.conj(), [2 * k + 1, 0]])
        out_labels.append(2 * k + 1)
    else:
        operands.extend([np.eye(d, dtype=complex).reshape(-1), [0]])
    return np.einsum(*operands, out_labels, optimize=True).real
