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
)
from .process_tensor import ProcessTensor, _contract_form, default_break
from .qops import Instrument, OperationBasis, QuantumMap

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
            # fixed field of the ptr-report-v1 contract: identity fills slots
            "filler": "identity",
        }


@dataclass(frozen=True)
class MeasureReport:
    n_value: float
    bond_dims: tuple[int, ...]

    def confusion(self, n: int) -> float:
        return confusion_probability(self.n_value, n)

    def as_dict(self) -> dict:
        return {
            "n_value": self.n_value,
            # fixed fields of the ptr-report-v1 contract: one exact measure
            "metric": "relative_entropy",
            "is_upper_bound": False,
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
        if t.size == 0:
            raise ValidationError("empty outcome table")
        if not t.min() >= -1e-9:
            raise ValidationError(f"negative or NaN probability {t.min():.3e}")
        if not abs(t.sum() - 1.0) <= 1e-9:
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

def _check_tol(tol: float) -> None:
    # the bound passes in its own direction, so a NaN fails it
    if not 0 <= tol < math.inf:
        raise ValidationError(f"tol must be finite and >= 0, got {tol!r}")


def _points(states: Array) -> Array:
    """Points of a stack of normalized (d, d) states whose distances bound
    the trace distances: for qubits the (n, 3) Bloch vectors, stored column
    by column so that reductions over the n points run along contiguous
    memory; for d > 2 the real and imaginary parts of the entries, an
    (n, 2 d**2) view whose distances are the Frobenius distances."""
    if states.shape[-1] > 2:
        return states.view(float).reshape(len(states), -1)
    bx = (states[:, 0, 1] + states[:, 1, 0]).real
    by = (1j * (states[:, 0, 1] - states[:, 1, 0])).real
    bz = (states[:, 0, 0] - states[:, 1, 1]).real
    return np.stack([bx, by, bz]).T


# The diameter search splits n points of D coordinates into cells of at
# most _CELL_COORDS / D points (32 Bloch vectors, 5 qutrit states), bounds
# _BOUND_CHUNK cell pairs and evaluates the leaf values of _PAIR_BATCH cell
# pairs per numpy call. Its pruning test has a relative margin and an absolute
# floor (see _diameter): far above the rounding they cover, far below any
# spread they could hide.
_CELL_COORDS = 96
_BOUND_CHUNK = 1 << 16
_PAIR_BATCH = 256
_MARGIN = 2.0 ** -40
_FLOOR = 2.0 ** -530


def _box_bound(lo_a: Array, hi_a: Array, lo_c: Array, hi_c: Array) -> Array:
    """Upper bound on the squared distance between a point of box a and a
    point of box c, computed with the float operations of
    ``((x - y) ** 2).sum(axis=-1)``. Rounding is monotone, so the bound
    holds exactly for the rounded squared distances."""
    return (np.maximum(hi_a - lo_c, hi_c - lo_a) ** 2).sum(axis=-1)


def _diameter(p: Array) -> tuple[float, int, int]:
    """Exact diameter of a group of states from its ``_points``: the
    largest trace distance and the first pair (i < j) in (i, j) order at
    the largest leaf value, or (0.0, 0, 0) when no two points differ.

    For qubits the leaf value is the squared Bloch distance, whose
    correctly rounded, monotone ``sqrt`` is returned; for d > 2 it is the
    trace norm ``svd(rho_i - rho_j).sum()``, i < j, of the states the
    points view: the numbers ``trace_norm_distance`` gives pair by pair.
    ``best`` starts at the leaf value of one seed pair: the point farthest
    from the centroid and the point farthest from it in Euclidean
    distance. Two exact filters then cut the search, with one test
    (``reach``) that bounds the trace distance by factor * x for a
    Euclidean bound x; the factor is 1 for qubits and sqrt(d) for d > 2,
    as ||X||_1 <= sqrt(d) ||X||_F for any d x d matrix. Any pair's leaf
    value is a valid start, so the result does not depend on the seed.
    A radial prefilter drops every point whose radius r_x about the
    bounding-box midpoint cannot reach ``best`` (a pair is at most
    r_i + r_max apart), and the dual tree on the survivors (``_dual_tree``)
    drops every cell pair whose box bound cannot reach it. The survivors keep their ascending indices, and the test
    keeps every tie, so the leaves alone apply the first-pair rule.

    The rounding margins. With u = 2**-53, gradual underflow and D
    coordinates, a computed squared distance lies within (1 +- u)**(D + 2)
    of the exact one, plus D 2**-1075 from squares that underflow, and a
    box bound is at least as large. So for the computed x = sqrt(bound) or
    x = r_i + r_max, the exact distance is at most x (1 + (D + 6) u) +
    sqrt(D) 2**-536. For qubits (D = 3) the root of a leaf value exceeds
    the exact distance by at most 4u, relative, plus 2**-536. For d > 2
    (D = 2 d**2) the computed difference is within 1 + u of the exact one
    entrywise, LAPACK's singular values lie within p(d) u sigma_max of the
    exact ones, p a modestly growing function (LAPACK Users' Guide,
    sec. 4.9.1, takes p = 1), and their sum adds (d - 1) u; so a leaf value
    is at most sqrt(d) x (1 + (2 d**2 + d p(d) + d + 6) u) + d**1.5 2**-536.
    A point or a cell pair is dropped only when

        factor x (1 + 2**-40) + 2**-530 < root(best) (1 - 2**-40),

    root(best) being sqrt(best) for qubits and best for d > 2. For d <= 8
    and p(d) up to 1000 the margins cover all of the above and the
    rounding of this test, so nothing at a leaf value of ``best`` or more
    is dropped, the seed pair included. A bound that is not finite drops
    nothing; a ``best`` that is not finite skips the prefilter.
    """
    n, width = p.shape
    if width == 3:
        factor, root, q = 1.0, math.sqrt, p.T

        def leaf(i: Array, j: Array) -> Array:
            return ((q.take(i, axis=1) - q.take(j, axis=1)) ** 2).sum(axis=0)
    else:
        d = math.isqrt(width // 2)
        states = p.reshape(n, d, 2 * d).view(complex)
        factor, root = math.sqrt(d), float

        def leaf(i: Array, j: Array) -> Array:
            return np.linalg.svd(states[np.minimum(i, j)] -
                                 states[np.maximum(i, j)],
                                 compute_uv=False).sum(axis=-1)

    def reach(x: Array, best: float) -> Array:
        return ~(factor * x * (1 + _MARGIN) + _FLOOR <
                 root(best) * (1 - _MARGIN))

    lo, hi = p.min(axis=0), p.max(axis=0)
    if n < 2 or not (hi > lo).any():
        return (0.0, 0, 0)
    i = int(np.argmax(((p - p.mean(axis=0)) ** 2).sum(axis=-1)))
    j = int(np.argmax(((p - p[i]) ** 2).sum(axis=-1)))
    best = float(leaf(i, j))
    kept = np.arange(n)
    if math.isfinite(best):
        r = np.sqrt(((p - (lo + hi) / 2) ** 2).sum(axis=-1))
        kept = kept[reach(r + r.max(), best)]
    best, wi, wj = _dual_tree(p, kept, leaf, reach, best, *sorted((i, j)))
    if best == 0.0:
        return (0.0, 0, 0)
    return (root(best), wi, wj)


def _dual_tree(p: Array, kept: Array, leaf, reach, best: float, wi: int,
               wj: int) -> tuple[float, int, int]:
    """The largest leaf value among the points ``p[kept]`` and its first
    pair (i < j) of original indices, starting from the value ``best`` at
    the pair (wi, wj), which it returns when nothing among them is larger
    or ties at an earlier pair.

    The search walks a median-split k-d tree (Bentley, CACM 18, 509, 1975)
    as a dual tree (Gray & Moore, NIPS 2000), starting from one cell of
    every kept point and the cell pair (0, 0). Each level drops the cell
    pairs whose box bound cannot reach ``best`` (see ``_diameter``). Above
    the leaves, of at most ``_CELL_COORDS`` coordinates, it then halves at
    the median of its widest axis every cell that a surviving pair
    references, renumbered in order so that each pair keeps its lower cell
    first, and replaces each pair by its child pairs. At the leaves it
    walks the pairs once in descending order of bound, ``_PAIR_BATCH`` at a
    time, and evaluates the pairs of each batch whose bound reaches the
    ``best`` found so far; a bound that is not finite always does. When the
    kept count is not a multiple of the leaf count, the lowest kept indices
    are repeated to fill the cells; a repeated point adds no new distance
    and no new pair.
    """
    (n, width), m = p.shape, kept.size
    n_cells = 1 << max(0, math.ceil(math.log2(m * width / _CELL_COORDS)))
    size = -(-m // n_cells)
    cells = np.resize(kept, n_cells * size)[None]
    ca = cc = np.zeros(1, dtype=np.intp)
    while True:
        pts = p[cells]
        lo, hi = pts.min(axis=1), pts.max(axis=1)
        bound = np.empty(ca.size)  # in chunks, so the box corners stay small
        for s in range(0, ca.size, _BOUND_CHUNK):
            a, c = ca[s:s + _BOUND_CHUNK], cc[s:s + _BOUND_CHUNK]
            bound[s:s + _BOUND_CHUNK] = _box_bound(lo[a], hi[a], lo[c], hi[c])
        keep = reach(np.sqrt(bound), best)
        ca, cc, bound = ca[keep], cc[keep], bound[keep]
        if cells.shape[1] == size:
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

    order = np.argsort(-bound)
    for start in range(0, order.size, _PAIR_BATCH):
        batch = order[start:start + _PAIR_BATCH]
        batch = batch[reach(np.sqrt(bound[batch]), best)]
        if batch.size == 0:
            continue
        i, j = cells[ca[batch], :, None], cells[cc[batch], None]
        value = leaf(i, j)
        top = float(value.max())
        if top >= best:
            first = (np.minimum(i, j) * n + np.maximum(i, j))[value == top]
            i, j = divmod(int(first.min()), n)
            if top > best or (i, j) < (wi, wj):
                best, wi, wj = top, i, j
    return best, wi, wj


def _below_floor(pt: ProcessTensor, stacks: Sequence[Array], l: int) -> int:
    """How many of the realizations that ``stacks`` contract at readout
    step l have a probability at or below the floor, read from the
    contraction form with its readout leg traced out first."""
    d = pt.system_dim
    form = pt.contraction_form(l)
    traced = np.einsum("aa...->...", form.reshape((d, d) + form.shape[1:]))
    probs = _contract_form(traced[None], stacks).real
    return probs.size - int(np.count_nonzero(probs > PROBABILITY_FLOOR))


def markov_test(pt: ProcessTensor, basis: OperationBasis,
                tol: float = MARKOV_TOL,
                exhaustive: bool = False) -> MarkovReport:
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

    Each break contracts one preparation group at a time: the past basis
    stacks and the n_out realizations of preparation s, the break slot
    first (``ProcessTensor.contract`` runs latest slot first), so a group
    costs 1/n_prep of the whole break. The stop comes right after the
    group whose diameter passes the tolerance; the break's later groups
    are then never contracted to states. ``skipped_conditionals`` still
    counts every conditional at or below the probability floor in every
    tested break: those of the untested groups are read from one
    contraction with the readout leg traced out first.

    Each group's diameter is exact, not estimated, from one routine for
    every d (``_diameter``). The group's computed states run in (past,
    outcome) order, past sequences in ``itertools.product`` order, and its
    witness is the first pair (i, j) at the largest distance; for qubits,
    at the largest squared Bloch distance. For d > 2 the search bounds
    trace distances by sqrt(d) times Frobenius distances.
    """
    _check_tol(tol)
    n_steps = pt.n_steps
    d = pt.system_dim
    break_set = default_break(d)
    n_basis = len(basis)
    basis_vecs = basis.choi_vectors
    n_out = break_set.n_outcomes
    n_prep = break_set.n_preparations
    # group s: the Chois P_s (x) Pi_r^T of its n_out realizations (r, s)
    break_vecs = np.einsum(
        "sac,reb->srabce", np.stack(break_set.preparations),
        np.stack(break_set.effects)).reshape(n_prep, n_out, -1)

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
        pasts = [basis_vecs] * k
        for s in range(n_prep):
            # rows (past, r); past[0] varies slowest
            outs = pt.contract(pasts + [break_vecs[s]], l)
            probs = np.einsum("naa->n", outs).real
            rows = np.flatnonzero(probs > PROBABILITY_FLOOR)
            skipped += probs.size - rows.size
            if rows.size == 0:
                inconclusive.append((k, l, s))
                continue
            group = outs[rows] / probs[rows, None, None]
            dev, i, j = _diameter(_points(group))
            if dev > best:
                best = dev
                witness = (record(k, l, s, rows[i]), record(k, l, s, rows[j]))
            if best > tol and not exhaustive:
                if s + 1 < n_prep:
                    untested = break_vecs[s + 1:].reshape(-1, d ** 4)
                    skipped += _below_floor(pt, pasts + [untested], l)
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

def divisibility_test(pt: ProcessTensor,
                      tol: float = MARKOV_TOL) -> DivisibilityReport:
    """Extract the dynamics maps for every step pair and check that longer
    maps are products of shorter ones.

    The maps come from ``ProcessTensor.marginal_map``, which prepares the
    matrix units at slot j, so no operation basis is involved. The defect
    for a triple j < k < l is the max-norm difference of the superoperators
    of the extracted map (l:j) and the composition (l:k) o (k:j). Each
    extracted map's CP defect is reported alongside. A process with fewer
    than two steps has no triple and zero defect.
    """
    _check_tol(tol)
    n_steps = pt.n_steps
    maps: dict[tuple[int, int], QuantumMap] = {}
    for j in range(n_steps):
        for l in range(j + 1, n_steps + 1):
            maps[(j, l)] = pt.marginal_map(j, l)
    triples = []
    max_defect = 0.0
    for j in range(n_steps - 1):
        for k in range(j + 1, n_steps):
            for l in range(k + 1, n_steps + 1):
                direct = maps[(j, l)].superoperator
                product = maps[(k, l)].superoperator @ maps[(j, k)].superoperator
                defect = float(np.abs(direct - product).max())
                triples.append((j, k, l, defect))
                max_defect = max(max_defect, defect)
    cp = tuple((j, l, float(m.cp_defect)) for (j, l), m in sorted(maps.items()))
    return DivisibilityReport(
        max_defect=max_defect,
        triple_defects=tuple(triples),
        pair_cp_defects=cp,
        tolerance=float(tol),
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


def non_markovianity(pt: ProcessTensor,
                     bond_cutoff: float = BOND_CUTOFF) -> MeasureReport:
    """Relative entropy from the unit-trace-normalized tensor rho to the
    closest memoryless one, in nats and clamped at 0.

    The minimizer over product structures is the product of the normalized
    block marginals rho_b, so the measure is the multi-information

        N = sum_b S(rho_b) - S(rho),

    with S(rho) read from ``pt.spectrum`` (rescaled by the trace; the same
    cached spectrum that gives ``pt.min_eigenvalue``, sketched for a
    low-rank tensor and within 1e-12 ||Upsilon||_F of the dense one, so
    every eigenvalue it drops lies below SUPPORT_CUTOFF) and each S(rho_b)
    from the spectrum of a d**2 x d**2 (or d x d) marginal. The relative
    entropy is +inf when rho has weight outside the support of sigma;
    that cannot happen here, since the support of rho lies inside the
    support of the product of its marginals. It reads ``pt.choi`` as
    stored, since a ProcessTensor is Hermitian by construction.
    """
    # first, so that a cutoff outside [0, 1) is refused before any spectrum
    bond_dims = tuple(bond_dimension(pt, cutoff=bond_cutoff))
    tr = pt.trace
    marginals = _block_marginals(pt, pt.choi)
    traces = [tr] + [float(np.trace(m).real) for m in marginals]
    if not all(math.isfinite(t) and t > 0 for t in traces):
        raise ValidationError(
            f"measure needs a positive finite trace on the tensor and every "
            f"block marginal, got {traces}")
    marginals = [m / t for m, t in zip(marginals, traces[1:])]
    n_value = sum(_entropy(np.linalg.eigvalsh(m)) for m in marginals) \
        - _entropy(pt.spectrum / tr)
    if n_value < -1e-10:
        raise ValidationError(f"measure came out negative: {n_value}")
    return MeasureReport(
        n_value=max(0.0, float(n_value)),
        bond_dims=bond_dims,
    )


def confusion_probability(n_value: float, n: int) -> float:
    """exp(-n * N): the chance of mistaking the process for a memoryless
    hypothesis after n measurements of its Choi state."""
    if not 0 <= n < math.inf:
        raise ValidationError(
            f"measurement count must be finite and nonnegative, got {n!r}")
    if not n_value >= 0:
        raise ValidationError(f"the measure must be nonnegative, got {n_value!r}")
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
    the counting threshold. ``cutoff`` must lie in [0, 1).
    """
    if not 0 <= cutoff < 1:
        raise ValidationError(f"cutoff must lie in [0, 1), got {cutoff!r}")
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
                           marginal_tables: dict | None = None
                           ) -> ClassicalCheck:
    """Check the classical Markov chain condition on the outcome table.

    For every time index m >= 2 and every history with probability above
    the floor, compares P(r_m | r_{m-1}, history) with P(r_m | r_{m-1}).
    ``marginal_tables`` optionally maps tuples of retained time indices to
    separately measured tables; Kolmogorov consistency then requires each
    to equal the corresponding marginal of the full table (vacuously true
    when none are supplied); a table of another shape than that marginal
    raises DimensionMismatch.
    """
    _check_tol(tol)
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
            cond_pair = np.where(pair_norm > PROBABILITY_FLOOR, pair / pair_norm, np.nan)
        hist_norm = joint.sum(axis=-1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            cond_hist = np.where(hist_norm > PROBABILITY_FLOOR, joint / hist_norm, np.nan)
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
            sub = np.asarray(sub, dtype=float)
            if sub.shape != marg.shape:
                raise DimensionMismatch(
                    f"marginal table for {keep} has shape {sub.shape}, "
                    f"not {marg.shape}")
            if not np.abs(marg - sub).max() <= tol:
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
