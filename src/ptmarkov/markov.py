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
    """(n, 3) real Bloch vectors of a stack of normalized qubit states,
    stored column by column: the diameter's reductions over all n points
    then run along contiguous memory."""
    bx = (states[:, 0, 1] + states[:, 1, 0]).real
    by = (1j * (states[:, 0, 1] - states[:, 1, 0])).real
    bz = (states[:, 0, 0] - states[:, 1, 1]).real
    return np.stack([bx, by, bz]).T


# The diameter search splits n points into about n / _CELL_POINTS cells and
# evaluates the distances of _PAIR_BATCH cell pairs per numpy call.
_CELL_POINTS = 32
_PAIR_BATCH = 256
# The radial prefilter's relative margin and absolute floor (see
# _bloch_diameter): far above the rounding they cover, far below any
# spread they could hide.
_RADIAL_MARGIN = 2.0 ** -44
_RADIAL_FLOOR = 2.0 ** -530


def _box_bound(lo_a: Array, hi_a: Array, lo_c: Array, hi_c: Array) -> Array:
    """Upper bound on the squared distance between a point of box a and a
    point of box c, computed with the float operations of
    ``((x - y) ** 2).sum(axis=-1)``. Rounding is monotone, so the bound
    holds exactly for the rounded squared distances."""
    return (np.maximum(hi_a - lo_c, hi_c - lo_a) ** 2).sum(axis=-1)


def _bloch_diameter(b: Array) -> tuple[float, int, int]:
    """Exact Euclidean diameter of an (n, 3) cloud of Bloch vectors: the
    largest distance ``sqrt(((b_i - b_j) ** 2).sum())`` and the first pair
    (i < j) in (i, j) order at the largest squared distance, or
    (0.0, 0, 0) when no two points differ. ``sqrt`` is correctly rounded
    and monotone, so its root is the largest rounded distance.

    ``best`` starts at the squared distance of the seed pair: the point
    farthest from the centroid and the point farthest from that one. Two
    exact filters then cut the search:

    - a radial prefilter drops every point that cannot be in a pair at a
      squared distance of ``best`` or more (the bound is below);
    - the dual tree on the survivors (``_dual_tree``) splits, level by
      level, only the cells that some surviving cell pair references.

    The survivors keep their ascending original indices, so the first-pair
    rule is unchanged.

    The radial bound. With c the midpoint of the bounding box and r_x the
    computed ``|b_x - c|``, the exact triangle inequality gives
    ``|b_i - b_j| <= R_i + R_j <= R_i + R_max`` for the exact radii. With
    unit roundoff u = 2**-53 and gradual underflow, a computed squared
    distance of three coordinates lies within a factor (1 +- u)**5 of the
    exact one, plus at most 2**-1072 from squares that underflow. Hence
    the exact radii are at most r (1 + 4u) + 2**-535, and a pair whose
    computed squared distance reaches ``best`` lies at an exact distance
    of at least (sqrt(best) - 2**-536)(1 - 3u). A point is dropped only
    when

        (r_x + r_max) (1 + 2**-44) + 2**-530 < sqrt(best) (1 - 2**-44),

    whose margins also cover the rounding of this test itself; so no point
    of a pair at a squared distance of ``best`` or more is dropped, the
    seed pair included. A radius or a ``best`` that is not finite drops
    nothing.
    """
    n = b.shape[0]
    lo, hi = b.min(axis=0), b.max(axis=0)
    if n < 2 or not (hi > lo).any():
        return (0.0, 0, 0)
    p = int(np.argmax(((b - b.mean(axis=0)) ** 2).sum(axis=-1)))
    d2_p = ((b - b[p]) ** 2).sum(axis=-1)
    q = int(np.argmax(d2_p))
    best = float(d2_p[q])
    kept = np.arange(n)
    if math.isfinite(best):
        r = np.sqrt(((b - (lo + hi) / 2) ** 2).sum(axis=-1))
        reach = (r + r.max()) * (1 + _RADIAL_MARGIN) + _RADIAL_FLOOR
        kept = kept[~(reach < math.sqrt(best) * (1 - _RADIAL_MARGIN))]
    best, wi, wj = _dual_tree(b, kept, best, min(p, q), max(p, q))
    if best == 0.0:
        return (0.0, 0, 0)
    return (math.sqrt(best), wi, wj)


def _dual_tree(b: Array, kept: Array, best: float, wi: int, wj: int
               ) -> tuple[float, int, int]:
    """The largest squared distance among the points ``b[kept]`` and its
    first pair (i < j) of original indices, starting from a squared
    distance ``best`` at the pair (wi, wj), which it returns when nothing
    among them is larger or ties at an earlier pair.

    The search walks a median-split k-d tree (Bentley, CACM 18, 509, 1975)
    as a dual tree (Gray & Moore, NIPS 2000), starting from one cell of
    every kept point and the cell pair (0, 0). Each level drops the cell
    pairs that cannot win: their box bound lies below ``best``, or equals
    it with only later index pairs inside. Above the leaves, of at most
    ``_CELL_POINTS`` points, it then halves at the median of its widest
    axis every cell that a surviving pair references, renumbered in order
    so that each pair keeps its lower cell first, and replaces each pair
    by its child pairs; at the leaves it scans the pairs in descending
    order of bound, pruning as it goes. The bound is exact (see
    ``_box_bound``), so nothing that could win is dropped. When the kept
    count is not a multiple of the leaf count, the lowest kept indices are
    repeated to fill the cells; a repeated point adds no new distance and
    no new pair.
    """
    n, m = b.shape[0], kept.size
    n_cells = 1 << max(0, math.ceil(math.log2(m / _CELL_POINTS)))
    leaf = -(-m // n_cells)
    cells = np.resize(kept, n_cells * leaf)[None]

    def live(a: Array, c: Array, bound: Array) -> Array:
        # may hold a larger squared distance, or an equal one at an earlier
        # index pair
        return (bound > best) | ((bound == best) & (
            np.minimum(first[a], first[c]) <= wi))

    ca = cc = np.zeros(1, dtype=np.intp)
    while True:
        pts = b[cells]
        lo, hi, first = pts.min(axis=1), pts.max(axis=1), cells.min(axis=1)
        bound = _box_bound(lo[ca], hi[ca], lo[cc], hi[cc])
        keep = live(ca, cc, bound)
        ca, cc, bound = ca[keep], cc[keep], bound[keep]
        if cells.shape[1] == leaf:
            break
        used = np.zeros(len(cells), dtype=bool)
        used[ca] = used[cc] = True
        rank = np.cumsum(used) - 1
        ca, cc = rank[ca], rank[cc]
        cells, pts, lo, hi = cells[used], pts[used], lo[used], hi[used]
        axis = np.argmax(hi - lo, axis=1)
        key = np.take_along_axis(pts, axis[:, None, None], axis=2)[..., 0]
        part = np.argpartition(key, cells.shape[1] // 2, axis=1)
        cells = np.take_along_axis(cells, part, axis=1).reshape(
            2 * len(cells), -1)
        ca = (2 * ca[:, None] + [0, 0, 1, 1]).ravel()
        cc = (2 * cc[:, None] + [0, 1, 0, 1]).ravel()
        keep = ca <= cc
        ca, cc = ca[keep], cc[keep]

    todo = np.argsort(-bound)
    while todo.size:
        batch, todo = todo[:_PAIR_BATCH], todo[_PAIR_BATCH:]
        a, c = ca[batch], cc[batch]
        d2 = ((pts[a][:, :, None] - pts[c][:, None]) ** 2).sum(axis=-1)
        top = float(d2.max())
        if top >= best:
            t, r, s = np.nonzero(d2 == top)
            i, j = cells[a[t], r], cells[c[t], s]
            i, j = divmod(int((np.minimum(i, j) * n + np.maximum(i, j)).min()),
                          n)
            if top > best or (i, j) < (wi, wj):
                best, wi, wj = top, i, j
        todo = todo[live(ca[todo], cc[todo], bound[todo])]
    return best, wi, wj


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
    ``itertools.product`` order, and its witness is the first pair (i, j)
    at the largest distance; for qubits, at the largest squared Bloch
    distance (see ``_bloch_diameter``).
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
    cached spectrum that gives ``pt.min_eigenvalue``, sketched for a
    low-rank tensor and within 1e-12 ||Upsilon||_F of the dense one, so
    every eigenvalue it drops lies below SUPPORT_CUTOFF) and each S(rho_b)
    from the spectrum of a d**2 x d**2 (or d x d) marginal. The relative
    entropy is +inf when rho has weight outside the support of sigma;
    that cannot happen here, since the support of rho lies inside the
    support of the product of its marginals. The
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
