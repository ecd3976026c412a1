"""Operational Markovianity: the causal-break test, divisibility, the
relative-entropy distance to the closest memoryless process, confusion
probabilities, temporal bond dimensions, and the induced classical
processes.

A process is operationally Markovian when the state after a causal break
depends only on the freshly prepared input, for every break position,
measurement outcome, and earlier control sequence. The test below sweeps an
informationally complete set of past controls and break outcomes; linearity
of the process tensor makes that finite sweep sufficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .defaults import (
    BOND_CUTOFF,
    MARKOV_TOL,
    PROBABILITY_FLOOR,
    SUPPORT_CUTOFF,
)
from .errors import DimensionMismatch, NotPositive, ValidationError
from .linalg import (
    Array,
    hermitian_eig,
    hermitize,
    partial_trace,
    tensor_product,
    trace_norm_distance,
)
from .process_tensor import ProcessTensor, default_break
from .qops import CausalBreak, Instrument, OperationBasis, QuantumMap

__all__ = [
    "MarkovReport",
    "DivisibilityReport",
    "MeasureReport",
    "ClassicalProcess",
    "ClassicalCheck",
    "markov_test",
    "divisibility_test",
    "closest_markov",
    "non_markovianity",
    "confusion_probability",
    "bond_dimension",
    "classical_process",
    "classical_markov_check",
    "relative_entropy",
    "apply_local_channel",
]


# ---------------------------------------------------------------------------
# report types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditioningRecord:
    """One realized conditioning: break position, readout step, outcome,
    preparation, and the basis indices of the past controls."""

    break_slot: int
    readout_step: int
    povm_outcome: int
    preparation: int
    past: tuple[int, ...]

    def as_dict(self) -> dict:
        return {
            "break_slot": self.break_slot,
            "readout_step": self.readout_step,
            "povm_outcome": self.povm_outcome,
            "preparation": self.preparation,
            "past": list(self.past),
        }


@dataclass(frozen=True)
class MarkovReport:
    is_markov: bool
    max_deviation: float
    witness: tuple[ConditioningRecord, ConditioningRecord] | None
    tolerance: float
    breaks_tested: tuple[tuple[int, int], ...]
    skipped_conditionals: int = 0
    inconclusive_groups: tuple[tuple[int, int, int], ...] = ()

    @property
    def conclusive(self) -> bool:
        return not self.inconclusive_groups

    def as_dict(self) -> dict:
        return {
            "is_markov": self.is_markov,
            "max_deviation": self.max_deviation,
            "witness": None if self.witness is None else
                [w.as_dict() for w in self.witness],
            "tolerance": self.tolerance,
            "breaks_tested": [list(b) for b in self.breaks_tested],
            "skipped_conditionals": self.skipped_conditionals,
            "inconclusive_groups": [list(g) for g in self.inconclusive_groups],
        }


@dataclass(frozen=True)
class DivisibilityReport:
    max_defect: float
    triple_defects: tuple[tuple[int, int, int, float], ...]
    pair_cp_defects: tuple[tuple[int, int, float], ...]
    tolerance: float
    filler: str

    @property
    def is_divisible(self) -> bool:
        return self.max_defect <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "max_defect": self.max_defect,
            "is_divisible": self.is_divisible,
            "triple_defects": [list(t) for t in self.triple_defects],
            "pair_cp_defects": [list(p) for p in self.pair_cp_defects],
            "tolerance": self.tolerance,
            "filler": self.filler,
        }


@dataclass(frozen=True)
class MeasureReport:
    n_value: float
    metric: str
    bond_dims: tuple[int, ...]
    is_upper_bound: bool = False

    def confusion(self, n: int) -> float:
        return confusion_probability(self.n_value, n)

    def as_dict(self) -> dict:
        return {
            "n_value": self.n_value,
            "metric": self.metric,
            "is_upper_bound": self.is_upper_bound,
            "bond_dims": list(self.bond_dims),
        }


@dataclass(frozen=True)
class ClassicalProcess:
    """Joint outcome distribution for fixed per-slot instruments.

    ``table`` axes run chronologically (slot 0 first); a final-readout
    POVM, when supplied, appends one more axis.
    """

    table: Array
    outcome_labels: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        object.__setattr__(self, "table", t)
        if t.min() < -1e-9:
            raise ValidationError(f"negative probability {t.min():.3e}")
        if abs(t.sum() - 1.0) > 1e-9:
            raise ValidationError(f"table sums to {t.sum()}, not 1")

    def as_dict(self) -> dict:
        return {
            "shape": list(self.table.shape),
            "outcome_labels": [list(l) for l in self.outcome_labels],
            "probabilities": self.table.reshape(-1).tolist(),
        }


class ClassicalCheck(NamedTuple):
    is_markov: bool
    max_violation: float
    kolmogorov_ok: bool


# ---------------------------------------------------------------------------
# the operational Markov test
# ---------------------------------------------------------------------------

def _bloch_vectors(states: Array) -> Array:
    """(n, 3) real Bloch vectors of a stack of normalized qubit states."""
    bx = (states[:, 0, 1] + states[:, 1, 0]).real
    by = (1j * (states[:, 0, 1] - states[:, 1, 0])).real
    bz = (states[:, 0, 0] - states[:, 1, 1]).real
    return np.stack([bx, by, bz], axis=1)


# The diameter search splits n points into about n / _CELL_POINTS cells and
# evaluates the distances of _PAIR_BATCH cell pairs per numpy call; bounds of
# at most _BOUND_BLOCK cell pairs are held at once, so memory stays linear.
_CELL_POINTS = 32
_PAIR_BATCH = 256
_BOUND_BLOCK = 2 ** 16
# Pairs whose distances round to the same maximum are ranked as the
# all-pairs scan that the search replaced ranked them, so that witnesses
# stay the same: that scan took rows in blocks of _SCAN_ENTRIES // n, kept
# the earliest block reaching the maximum and, inside it, the first pair of
# largest squared distance. Squared distances one ulp apart share a root
# often in real groups (B.2 data at K = 3 and 4).
_SCAN_ENTRIES = 2 ** 22


def _median_cells(b: Array) -> Array:
    """Split points into 2**L cells of equal width by halving every cell at
    the median of its widest axis; L is the smallest depth that leaves at
    most ``_CELL_POINTS`` points per cell.

    Returns an (n_cells, width) index array. When n is not a multiple of
    the cell count, the lowest indices are repeated to fill it; a repeated
    point adds no new distance and no new index pair.
    """
    n = b.shape[0]
    n_cells = 1 << max(0, math.ceil(math.log2(n / _CELL_POINTS)))
    idx = np.resize(np.arange(n), n_cells * -(-n // n_cells))[None]
    while idx.shape[0] < n_cells:
        pts = b[idx]
        axis = np.argmax(pts.max(axis=1) - pts.min(axis=1), axis=1)
        key = np.take_along_axis(pts, axis[:, None, None], axis=2)[..., 0]
        part = np.argpartition(key, idx.shape[1] // 2, axis=1)
        idx = np.take_along_axis(idx, part, axis=1).reshape(
            2 * idx.shape[0], -1)
    return idx


def _box_bound(lo_a: Array, hi_a: Array, lo_c: Array, hi_c: Array) -> Array:
    """Upper bound on the distance between a point of box a and a point of
    box c, computed with the float operations of
    ``sqrt(((x - y) ** 2).sum(axis=-1))``. Rounding is monotone, so the
    bound holds exactly for the rounded distances."""
    return np.sqrt((np.maximum(hi_a - lo_c, hi_c - lo_a) ** 2).sum(axis=-1))


def _bloch_diameter(b: Array) -> tuple[float, int, int]:
    """Exact Euclidean diameter of an (n, 3) cloud of Bloch vectors: the
    largest distance ``sqrt(((b_i - b_j) ** 2).sum())`` and a pair (i < j)
    at that distance, or (0.0, 0, 0) when no two points differ.

    Among pairs at the largest distance the pair is the first by the key
    (i // rows, -squared distance, i, j), rows = min(n, _SCAN_ENTRIES // n);
    for n <= 2048 that is the lexicographically first pair of largest
    squared distance.

    Cell pairs are visited in descending order of their box bound, starting
    from the distance of the point farthest from the point farthest from
    the centroid; a pair whose bound lies below the best distance found, or
    equals it with only later-ranked index pairs inside, is skipped. The
    bound is exact (see ``_box_bound``), so nothing that could win is
    skipped.
    """
    n = b.shape[0]
    lo_all, hi_all = b.min(axis=0), b.max(axis=0)
    if n < 2 or not (hi_all > lo_all).any():
        return (0.0, 0, 0)
    rows = max(1, min(n, _SCAN_ENTRIES // n))
    p = int(np.argmax(((b - b.mean(axis=0)) ** 2).sum(axis=-1)))
    d2_p = ((b - b[p]) ** 2).sum(axis=-1)
    q = int(np.argmax(d2_p))
    i0, j0 = min(p, q), max(p, q)
    best = math.sqrt(d2_p[q])
    rank = (i0 // rows, -float(d2_p[q]), i0, j0)

    cells = _median_cells(b)
    pts = b[cells]
    lo, hi = pts.min(axis=1), pts.max(axis=1)
    # a cell that cannot reach the best distance within the whole cloud's
    # box takes part in no candidate pair
    live = _box_bound(lo, hi, lo_all, hi_all) >= best
    cells, pts, lo, hi = cells[live], pts[live], lo[live], hi[live]
    first = cells.min(axis=1)

    ca, cc, cb = [], [], []
    step = max(1, _BOUND_BLOCK // len(cells))
    for a0 in range(0, len(cells), step):
        bound = _box_bound(lo[a0:a0 + step, None], hi[a0:a0 + step, None],
                           lo, hi)
        a, c = np.nonzero(bound >= best)
        keep = a + a0 <= c
        a, c = a[keep], c[keep]
        ca.append(a + a0)
        cc.append(c)
        cb.append(bound[a, c])
    ca, cc, cb = np.concatenate(ca), np.concatenate(cc), np.concatenate(cb)
    first_block = np.minimum(first[ca], first[cc]) // rows

    todo = np.argsort(-cb)
    while todo.size:
        batch, todo = todo[:_PAIR_BATCH], todo[_PAIR_BATCH:]
        a, c = ca[batch], cc[batch]
        d2 = ((pts[a][:, :, None] - pts[c][:, None]) ** 2).sum(axis=-1)
        dist = np.sqrt(d2)
        top = float(dist.max())
        if top >= best:
            t, r, s = np.nonzero(dist == top)
            i, j = cells[a[t], r], cells[c[t], s]
            i, j = np.minimum(i, j), np.maximum(i, j)
            d2_top = d2[t, r, s]
            w = np.lexsort((j, i, -d2_top, i // rows))[0]
            key = (int(i[w]) // rows, -float(d2_top[w]), int(i[w]), int(j[w]))
            if top > best or key < rank:
                best, rank = top, key
        todo = todo[(cb[todo] > best)
                    | ((cb[todo] == best) & (first_block[todo] <= rank[0]))]
    if best == 0.0:
        return (0.0, 0, 0)
    return (best, rank[2], rank[3])


def _diameter_general(states: Array) -> tuple[float, int, int]:
    """Largest pairwise trace-norm distance in a stack of (d, d) states and
    the first pair (i < j) in (i, j) order that reaches it, or (0.0, 0, 0)
    when no two states differ. Row i is compared with every later state in
    one batched SVD, the same singular values ``trace_norm_distance``
    computes pair by pair."""
    best = (0.0, 0, 0)
    for i in range(states.shape[0] - 1):
        dist = np.linalg.svd(states[i] - states[i + 1:],
                             compute_uv=False).sum(axis=-1)
        j = int(np.argmax(dist))
        if dist[j] > best[0]:
            best = (float(dist[j]), i, i + 1 + j)
    return best


def markov_test(pt: ProcessTensor, basis: OperationBasis,
                break_set: CausalBreak | None = None,
                tol: float = MARKOV_TOL,
                exhaustive: bool = False,
                prob_floor: float = PROBABILITY_FLOOR) -> MarkovReport:
    """Causal-break sweep for operational Markovianity.

    For every break position k in [1, K-1] and readout step l > k, every
    sequence of basis elements on the earlier slots and every POVM outcome
    of the break are realized; conditional states sharing a preparation are
    compared pairwise in trace distance. Break positions are scanned from
    the latest downward and the sweep stops at the first deviation above
    tolerance unless ``exhaustive`` is set. A process with fewer than two
    steps has no break to test and is reported Markovian.

    Informational completeness of the basis and of the break POVM makes the
    sweep sufficient: equality across the swept controls implies equality
    for every control sequence.

    Each group's diameter is exact, not estimated. The group's computed
    states run in (past, outcome) order, past sequences in
    ``itertools.product`` order, and its witness is the lexicographically
    first pair at the maximal distance. For qubits, pairs whose distances
    round to the same maximum are first ranked by the block of the first
    index and by squared Bloch distance (see ``_bloch_diameter``); with at
    most 2048 states per group that is the lexicographically first pair of
    largest squared distance.
    """
    n_steps = pt.n_steps
    d = pt.system_dim
    if break_set is None:
        break_set = default_break(d)
    n_basis = len(basis)
    basis_vecs = basis.choi_vectors
    # break realization (r, s) has Choi  P_s (x) Pi_r^T
    break_vecs = np.stack([
        tensor_product(p, e.T).reshape(-1)
        for e in break_set.effects for p in break_set.preparations])
    n_out = break_set.n_outcomes
    n_prep = break_set.n_preparations

    def record(k: int, l: int, s: int, row: int) -> ConditioningRecord:
        past, r = divmod(int(row), n_out)
        return ConditioningRecord(
            break_slot=k, readout_step=l, povm_outcome=r, preparation=s,
            past=tuple(int(m) for m in np.unravel_index(past, (n_basis,) * k)))

    best = 0.0
    witness = None
    skipped = 0
    inconclusive: list[tuple[int, int, int]] = []
    breaks_tested: list[tuple[int, int]] = []

    for k, l in [(k, l) for k in range(n_steps - 1, 0, -1)
                 for l in range(k + 1, n_steps + 1)]:
        breaks_tested.append((k, l))
        # axes (past, r, s, row, col); past[0] varies slowest
        outs = pt.contract([basis_vecs] * k + [break_vecs], l).reshape(
            -1, n_out, n_prep, d, d)
        probs = np.einsum("prsaa->prs", outs).real
        kept = probs > prob_floor
        skipped += kept.size - int(np.count_nonzero(kept))
        for s in range(n_prep):
            rows = np.flatnonzero(kept[:, :, s])  # flat (past, r) indices
            if rows.size == 0:
                inconclusive.append((k, l, s))
                continue
            states = outs[:, :, s].reshape(-1, d, d)
            group = states[rows] / probs[:, :, s].reshape(-1)[rows, None, None]
            if d == 2:
                dev, i, j = _bloch_diameter(_bloch_vectors(group))
            else:
                dev, i, j = _diameter_general(group)
            if dev > best:
                best = dev
                witness = (record(k, l, s, rows[i]), record(k, l, s, rows[j]))
            if best > tol and not exhaustive:
                break
        if best > tol and not exhaustive:
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
# divisibility
# ---------------------------------------------------------------------------

def divisibility_test(pt: ProcessTensor, tol: float = MARKOV_TOL,
                      filler: str = "identity") -> DivisibilityReport:
    """Extract the dynamics maps for every step pair and check that longer
    maps compose from shorter ones.

    The maps come from ``ProcessTensor.marginal_map``, which prepares the
    matrix units at slot j, so no operation basis is involved. The defect
    for a triple j < k < l is the max-norm difference of the superoperators
    of the extracted map (l:j) and the composition (l:k) o (k:j). Each
    extracted map's CP defect is reported alongside. A process with fewer
    than two steps has no triple and zero defect.
    """
    n_steps = pt.n_steps
    maps: dict[tuple[int, int], QuantumMap] = {}
    for j in range(n_steps):
        for l in range(j + 1, n_steps + 1):
            maps[(j, l)] = pt.marginal_map(j, l, filler=filler)
    triples = []
    max_defect = 0.0
    for j in range(n_steps - 1):
        for k in range(j + 1, n_steps):
            for l in range(k + 1, n_steps + 1):
                direct = maps[(j, l)].superoperator
                composed = maps[(k, l)].superoperator @ maps[(j, k)].superoperator
                defect = float(np.abs(direct - composed).max())
                triples.append((j, k, l, defect))
                max_defect = max(max_defect, defect)
    cp = tuple((j, l, float(m.cp_defect)) for (j, l), m in sorted(maps.items()))
    return DivisibilityReport(
        max_defect=max_defect,
        triple_defects=tuple(triples),
        pair_cp_defects=cp,
        tolerance=float(tol),
        filler=filler,
    )


# ---------------------------------------------------------------------------
# the closest memoryless process and the measures
# ---------------------------------------------------------------------------

def _block_legs(n_steps: int) -> list[tuple[int, ...]]:
    """Leg-index blocks of the memoryless product structure: adjacent pairs
    (final output with the last slot output, each slot input with the
    previous slot output) and the earliest input leg alone."""
    blocks = [(2 * m, 2 * m + 1) for m in range(n_steps)]
    blocks.append((2 * n_steps,))
    return blocks


def _block_marginals(pt: ProcessTensor, m: Array) -> list[Array]:
    """Block marginals of ``m``, an operator on the legs of ``pt``."""
    return [partial_trace(m, pt.legs.dims, block)
            for block in _block_legs(pt.n_steps)]


def closest_markov(pt: ProcessTensor) -> ProcessTensor:
    """Discard intertemporal correlations: the tensor product of the step
    marginals and the initial-state marginal, renormalized to the stored
    trace convention (trace d per step block, trace 1 for the initial
    state)."""
    d = pt.system_dim
    marginals = _block_marginals(pt, pt.choi)
    scaled = []
    for i, m in enumerate(marginals):
        target = float(d) if i < pt.n_steps else 1.0
        tr = np.trace(m).real
        scaled.append(m * (target / tr))
    product = tensor_product(*scaled)
    return ProcessTensor(product, d, pt.times)


def relative_entropy(rho: Array, sigma: Array,
                     support_tol: float = 1e-10,
                     cutoff: float = SUPPORT_CUTOFF) -> float:
    """Quantum relative entropy tr[rho (log rho - log sigma)] in nats.

    Inputs are unit-trace PSD matrices; if rho has weight outside the
    support of sigma beyond ``support_tol`` the result is +inf.
    """
    w_r, v_r = hermitian_eig(rho)
    w_s, v_s = hermitian_eig(sigma)
    if w_r.min() < -support_tol or w_s.min() < -support_tol:
        raise NotPositive("relative entropy inputs must be PSD")
    w_r = np.clip(w_r, 0.0, None)
    null = w_s <= cutoff
    if null.any():
        overlap_null = np.abs(v_s[:, null].conj().T @ v_r) ** 2
        weight = float((overlap_null @ w_r).sum())
        if weight > support_tol:
            return math.inf
    term_r = float(np.sum(w_r[w_r > cutoff] * np.log(w_r[w_r > cutoff])))
    overlaps = np.abs(v_s.conj().T @ v_r) ** 2  # [sigma eig, rho eig]
    log_ws = np.where(w_s > cutoff, np.log(np.clip(w_s, cutoff, None)), 0.0)
    term_cross = float(log_ws @ overlaps @ w_r)
    return term_r - term_cross


def _entropy(w: Array) -> float:
    """Von Neumann entropy in nats of a unit-trace spectrum. Eigenvalues
    at or below SUPPORT_CUTOFF contribute nothing (0 log 0 = 0)."""
    if w.min() < -1e-10:
        raise NotPositive(f"measure input not PSD: eigenvalue {w.min():.3e}")
    w = w[w > SUPPORT_CUTOFF]
    return float(-(w * np.log(w)).sum())


def non_markovianity(pt: ProcessTensor, metric: str = "relative_entropy",
                     bond_cutoff: float = BOND_CUTOFF) -> MeasureReport:
    """Distance from the unit-trace-normalized tensor rho to the closest
    memoryless one, in nats and clamped at 0.

    For relative entropy the minimizer over product structures is the
    product of the normalized block marginals rho_b, so the measure is the
    multi-information

        N = sum_b S(rho_b) - S(rho),

    with S(rho) read from ``pt.spectrum`` (rescaled by the trace; the same
    cached eigensolve that gives ``pt.min_eigenvalue``) and each S(rho_b)
    from the spectrum of a d**2 x d**2 (or d x d) marginal. The general
    ``relative_entropy`` returns +inf when rho has weight outside the
    support of sigma; that cannot happen here, since the support of rho
    lies inside the support of the product of its marginals. The
    trace-distance variant builds the product sigma, uses the same
    candidate and is reported as an upper bound. Both read ``pt.choi``
    as stored, since a ProcessTensor is Hermitian by construction.
    """
    if metric not in ("relative_entropy", "trace_distance"):
        raise ValidationError(f"unknown metric {metric!r}")
    tr = pt.trace
    marginals = _block_marginals(pt, pt.choi)
    traces = [tr] + [float(np.trace(m).real) for m in marginals]
    if not all(math.isfinite(t) and t > 0 for t in traces):
        raise ValidationError(
            f"measure needs a positive finite trace on the tensor and every "
            f"block marginal, got {traces}")
    marginals = [m / t for m, t in zip(marginals, traces[1:])]
    if metric == "relative_entropy":
        n_value = sum(_entropy(np.linalg.eigvalsh(m)) for m in marginals) \
            - _entropy(pt.spectrum / tr)
        upper = False
    else:
        n_value = trace_norm_distance(pt.choi / tr, tensor_product(*marginals))
        upper = True
    if n_value < -1e-10:
        raise ValidationError(f"measure came out negative: {n_value}")
    return MeasureReport(
        n_value=max(0.0, float(n_value)),
        metric=metric,
        bond_dims=tuple(bond_dimension(pt, cutoff=bond_cutoff)),
        is_upper_bound=upper,
    )


def confusion_probability(n_value: float, n: int) -> float:
    """exp(-n * N): the chance of mistaking the process for a memoryless
    hypothesis after n measurements of its Choi state."""
    if n < 0:
        raise ValidationError("measurement count must be nonnegative")
    if n_value < 0:
        raise ValidationError("the measure must be nonnegative")
    if n == 0:
        return 1.0
    return float(math.exp(-n * n_value))


# bond_dimension carries singular values down to this fraction of its
# counting threshold from one cut to the next; a fixed margin, not a knob.
_CARRY_MARGIN = 1e-3


def bond_dimension(pt: ProcessTensor, cutoff: float = BOND_CUTOFF) -> list[int]:
    """Operator-Schmidt ranks across the temporal cuts.

    Legs are ordered chronologically and cut at each control time t_j
    (between the slot's input and output legs); the rank counts the
    singular values of that cut's unfolding above ``cutoff`` times the
    largest. A memoryless process is rank 1 across every cut.

    The ranks come from one left-to-right sweep, the TT-SVD of Oseledets
    (SIAM J. Sci. Comput. 33, 2295, 2011), not from an SVD of each
    unfolding. The tensor is transposed once into chronological legs with
    each leg's row and column axes adjacent, shaped (d*d, -1) for cut 0.
    Each cut factors the current remainder; a wide one is first reduced to
    the R factor of a QR of its transpose, so no SVD is larger than the
    remainder's row count. The sweep then carries U^H times the remainder,
    reshaped to (r * d**4, -1), to the next cut: the r left singular
    vectors kept times the two legs between the cuts. Since the kept U has
    orthonormal columns, the unfolding at the next cut is (U (x) 1) times
    that remainder and has the same singular values, so each count is the
    rank of that cut's own unfolding. Only singular values at or below
    ``cutoff * _CARRY_MARGIN`` times the largest are dropped from the
    carry; the dropped tail moves later singular values by far less than
    the counting threshold.
    """
    k = pt.n_steps
    d = pt.system_dim
    n = 2 * k + 1
    # chronological leg order is the reverse of the stored order
    order = [a for leg in range(n - 1, -1, -1) for a in (leg, leg + n)]
    rest = pt.as_tensor().transpose(order).reshape(d * d, -1)
    dims = []
    for j in range(k):
        if rest.shape[0] < rest.shape[1]:
            # rest = R^T Q^T and Q^T has orthonormal rows: no conjugate
            # copy of rest is needed
            u, s, _ = np.linalg.svd(np.linalg.qr(rest.T, mode="r").T)
        else:
            u, s, _ = np.linalg.svd(rest, full_matrices=False)
        top = s[0]
        if top == 0:  # every unfolding of a zero tensor is zero
            return [0] * k
        dims.append(int((s > cutoff * top).sum()))
        if j < k - 1:
            # the largest always stays, so the next cut has a remainder
            keep = max(1, int((s > cutoff * _CARRY_MARGIN * top).sum()))
            rest = (u[:, :keep].conj().T @ rest).reshape(keep * d ** 4, -1)
    return dims


# ---------------------------------------------------------------------------
# classical limit
# ---------------------------------------------------------------------------

def classical_process(pt: ProcessTensor, instruments: Sequence[Instrument],
                      final_povm: Sequence[Array] | None = None
                      ) -> ClassicalProcess:
    """Joint outcome distribution for one fixed instrument per slot.

    With ``final_povm`` supplied, the final output is measured as well and
    contributes the last table axis; otherwise the final state is traced
    and the joint probabilities cover the slot outcomes alone.
    """
    k = pt.n_steps
    d = pt.system_dim
    if len(instruments) != k:
        raise DimensionMismatch(f"{len(instruments)} instruments for {k} slots")
    for idx, ins in enumerate(instruments):
        if ins.in_dim != d:
            raise DimensionMismatch(f"instrument {idx} dim != system dim")
    outs = pt.contract([np.stack([m.choi.reshape(-1) for m in ins.members])
                        for ins in instruments])
    labels = [tuple(ins.labels) for ins in instruments]
    if final_povm is not None:
        effects = np.stack([hermitize(np.asarray(e, dtype=complex))
                            for e in final_povm])
        total = effects.sum(axis=0)
        if np.abs(total - np.eye(d)).max() > 1e-10:
            raise ValidationError("final POVM must sum to identity")
        # tr(E rho) = sum_ab E*_ab rho_ab for hermitian E
        table = outs.reshape(len(outs), -1) @ effects.reshape(
            len(effects), -1).conj().T
        labels.append(tuple(str(i) for i in range(len(effects))))
    else:
        table = np.trace(outs, axis1=1, axis2=2)
    return ClassicalProcess(table=table.real.reshape([len(l) for l in labels]),
                            outcome_labels=tuple(labels))


def classical_markov_check(cp: ClassicalProcess, tol: float = 1e-9,
                           prob_floor: float = PROBABILITY_FLOOR,
                           marginal_tables: dict | None = None
                           ) -> ClassicalCheck:
    """Check the classical Markov chain condition on the outcome table.

    For every time index m >= 2 and every history with probability above
    the floor, compares P(r_m | r_{m-1}, history) with P(r_m | r_{m-1}).
    ``marginal_tables`` optionally maps tuples of retained time indices to
    separately measured tables; Kolmogorov consistency then requires each
    to equal the corresponding marginal of the full table (vacuously true
    when none are supplied).
    """
    table = cp.table
    n_axes = table.ndim
    max_violation = 0.0
    for m in range(2, n_axes):
        # joint over (r_0 ... r_m), later outcomes marginalized
        joint = table.sum(axis=tuple(range(m + 1, n_axes))) if m + 1 < n_axes \
            else table
        pair = joint.sum(axis=tuple(range(0, m - 1)))  # (r_{m-1}, r_m)
        pair_norm = pair.sum(axis=-1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            cond_pair = np.where(pair_norm > prob_floor, pair / pair_norm, np.nan)
        hist_norm = joint.sum(axis=-1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            cond_hist = np.where(hist_norm > prob_floor, joint / hist_norm, np.nan)
        diff = np.abs(cond_hist - cond_pair.reshape(
            (1,) * (m - 1) + cond_pair.shape))
        if not np.isnan(diff).all():
            max_violation = max(max_violation, float(np.nanmax(diff)))
    kolmogorov_ok = True
    if marginal_tables:
        for keep, sub in marginal_tables.items():
            keep = tuple(sorted(keep))
            drop = tuple(i for i in range(n_axes) if i not in keep)
            marg = table.sum(axis=drop) if drop else table
            if np.abs(marg - np.asarray(sub, dtype=float)).max() > tol:
                kolmogorov_ok = False
    return ClassicalCheck(is_markov=bool(max_violation <= tol),
                          max_violation=max_violation,
                          kolmogorov_ok=kolmogorov_ok)


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def apply_local_channel(pt: ProcessTensor, leg: int,
                        channel: QuantumMap) -> ProcessTensor:
    """Apply a channel to a single leg of the generalized Choi state
    (post-processing used by the CP-contractivity checks)."""
    d = pt.system_dim
    if channel.in_dim != d or channel.out_dim != d:
        raise DimensionMismatch("channel dims must match the leg dimension")
    n = pt.legs.n_legs
    if not 0 <= leg < n:
        raise ValidationError(f"leg {leg} outside [0, {n - 1}]")
    t = pt.as_tensor()
    s4 = channel.superoperator.reshape(d, d, d, d)
    row = list(range(n))
    col = list(range(n, 2 * n))
    out = row + col
    srow, scol = 2 * n, 2 * n + 1
    sub = [srow, scol, row[leg], col[leg]]
    out[leg], out[n + leg] = srow, scol
    res = np.einsum(s4, sub, t, row + col, out)
    return ProcessTensor(res.reshape(pt.dim, pt.dim), d, pt.times)
