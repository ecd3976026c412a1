"""Operational Markovianity: the causal-break test, divisibility, the
relative-entropy distance to the closest memoryless process, confusion
probabilities, temporal bond dimensions, and the induced classical
processes.

A process is operationally Markovian when the state after a causal break
depends only on the freshly prepared input, for every break position,
measurement outcome, and earlier control sequence. The test below sweeps an
informationally complete set of past controls and break outcomes, read out
one step after each break; linearity makes that finite sweep sufficient.
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
from .linalg import Array, hermitize
from .process_tensor import ProcessTensor
from .qops import Instrument, QuantumMap, default_break, ic_basis

__all__ = [
    "MarkovReport",
    "DivisibilityReport",
    "MeasureReport",
    "ClassicalProcess",
    "ClassicalCheck",
    "markov_test",
    "divisibility_test",
    "non_markovianity",
    "confusion_probability",
    "bond_dimension",
    "classical_process",
    "classical_markov_check",
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


@dataclass(frozen=True)
class MarkovReport:
    is_markov: bool
    max_deviation: float
    witness: tuple[ConditioningRecord, ConditioningRecord] | None
    tolerance: float
    breaks_tested: tuple[tuple[int, int], ...]
    skipped_conditionals: int = 0
    inconclusive_groups: tuple[tuple[int, int, int], ...] = ()


@dataclass(frozen=True)
class DivisibilityReport:
    max_defect: float
    triple_defects: tuple[tuple[int, int, int, float], ...]
    pair_cp_defects: tuple[tuple[int, int, float], ...]
    tolerance: float

    @property
    def is_divisible(self) -> bool:
        return self.max_defect <= self.tolerance


@dataclass(frozen=True)
class MeasureReport:
    n_value: float
    bond_dims: tuple[int, ...]


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


def _points(outs: Array, probs: Array, rows: Array) -> Array:
    """Points of the normalized states ``outs[rows] / probs[rows]`` of a
    group, from its raw outputs ``outs`` and their probabilities, whose
    distances bound the trace distances: for qubits the (n, 3) Bloch
    vectors, stored column by column so that reductions over the n points
    run along contiguous memory; for d > 2 the real and imaginary parts of
    the entries, an (n, 2 d**2) view whose distances are the Frobenius
    distances.

    Each entry used is normalized by the complex division
    ``outs[r] / probs[r]``, so the points are those of the normalized
    states bit for bit. For d > 2 the states are ``outs`` itself, divided
    in place, when every row survives, and else one copy of the surviving
    rows. Qubit points are built ``_ROWS`` rows at a time, so no temporary
    grows with the group.
    """
    if outs.shape[-1] > 2:
        states = outs[rows] if rows.size < len(outs) else \
            np.ascontiguousarray(outs)
        states /= probs[rows, None, None]
        return states.view(float).reshape(len(states), -1)
    p = np.empty((3, rows.size))
    for s in range(0, rows.size, _ROWS):
        r = rows[s:s + _ROWS]
        w = probs[r]
        g01, g10 = outs[r, 0, 1] / w, outs[r, 1, 0] / w
        p[0, s:s + _ROWS] = (g01 + g10).real
        p[1, s:s + _ROWS] = (1j * (g01 - g10)).real
        p[2, s:s + _ROWS] = (outs[r, 0, 0] / w - outs[r, 1, 1] / w).real
    return p.T


# The diameter search splits n points of D coordinates into cells of at
# most _CELL_COORDS / D points (32 Bloch vectors, 5 qutrit states); a group
# of at most two cells takes every pair in one leaf call. Beyond that, its
# numpy calls take at most _PAIRS point pairs, a box bound counting as
# one, for every d, and ``_points`` takes _ROWS states at a time, so their
# temporaries do not grow with the group. Its pruning test has a relative
# margin and an absolute floor (see _diameter): far above the rounding
# they cover, far below any spread they could hide.
_CELL_COORDS = 96
_PAIRS = 1 << 13
_ROWS = 1 << 11
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

    A group of n points of D coordinates with n D <= 2 ``_CELL_COORDS``
    (64 Bloch vectors, 10 qutrit states) fills at most two leaf cells, where
    the tree can drop nothing. It goes straight to the leaf step: ``leaf``
    on every pair in one call, for qubits the n x n matrix, for d > 2 the
    pairs of ``np.triu_indices`` in (i, j) order, and the first ``argmax``.
    The search below returns the largest leaf value over all pairs and
    the first pair at it, and each value here comes from the same float
    operations, so the result is the search's, bit for bit.

    A larger group is searched. ``best`` starts at the leaf value of one
    seed pair: the point farthest from the centroid and the point farthest
    from it in Euclidean distance. Two exact filters then cut the search,
    with one test (``reach``) that bounds the trace distance by factor * x
    for a Euclidean bound x; the factor is 1 for qubits and sqrt(d) for
    d > 2, as ||X||_1 <= sqrt(d) ||X||_F for any d x d matrix. Any pair's
    leaf value is a valid start, so the result does not depend on the
    seed. A radial prefilter drops every point whose radius r_x about the
    bounding-box midpoint cannot reach ``best`` (a pair is at most
    r_i + r_max apart), and the dual tree on the survivors (``_dual_tree``)
    drops every cell pair whose box bound cannot reach it. The survivors
    keep their ascending indices, and the test keeps every tie, so the
    leaves alone apply the first-pair rule.

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
    if n * width <= 2 * _CELL_COORDS:
        # the leaf step on one cell of every point; qubit values form a
        # symmetric matrix with a zero diagonal, whose first maximum in
        # row-major order lies at i < j
        i, j = ((np.arange(n)[:, None], np.arange(n)[None]) if width == 3
                else np.triu_indices(n, 1))
        value = leaf(i, j)
        top = int(np.argmax(value))
        best = float(value.flat[top])
        wi, wj = divmod(top, n) if width == 3 else (int(i[top]), int(j[top]))
    else:
        i = int(np.argmax(((p - p.mean(axis=0)) ** 2).sum(axis=-1)))
        j = int(np.argmax(((p - p[i]) ** 2).sum(axis=-1)))
        best = float(leaf(i, j))
        kept = np.arange(n)
        if math.isfinite(best):
            r = np.sqrt(((p - (lo + hi) / 2) ** 2).sum(axis=-1))
            kept = kept[reach(r + r.max(), best)]
        best, wi, wj = _dual_tree(p, kept, leaf, reach, best,
                                  *sorted((i, j)))
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
    walks the pairs once in descending order of bound, in batches of whole
    cell pairs, and evaluates the pairs of each batch whose bound reaches
    the ``best`` found so far; a bound that is not finite always does. When
    the kept count is not a multiple of the leaf count, the lowest kept
    indices are repeated to fill the cells; a repeated point adds no new
    distance and no new pair.

    Every batch has one budget of ``_PAIRS`` point pairs for every d: the
    box bounds are computed ``_PAIRS`` cell pairs at a time, and a leaf
    batch holds ``_PAIRS // size**2`` cell pairs of ``size`` points each,
    at least one. The levels' cell-pair lists remain, but no temporary
    grows with them. The batch sizes do not change the result: every pair
    that can reach the largest leaf value is evaluated, ties included, and
    the first-pair rule picks among them.
    """
    (n, width), m = p.shape, kept.size
    n_cells = 1 << max(0, math.ceil(math.log2(m * width / _CELL_COORDS)))
    size = -(-m // n_cells)
    cells = np.resize(kept, n_cells * size)[None]
    ca = cc = np.zeros(1, dtype=np.intp)
    while True:
        pts = p[cells]
        lo, hi = pts.min(axis=1), pts.max(axis=1)
        bound = np.empty(ca.size)
        for s in range(0, ca.size, _PAIRS):
            a, c = ca[s:s + _PAIRS], cc[s:s + _PAIRS]
            bound[s:s + _PAIRS] = _box_bound(lo[a], hi[a], lo[c], hi[c])
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
    step = max(1, _PAIRS // size ** 2)
    for start in range(0, order.size, step):
        batch = order[start:start + step]
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


def _group_diameter(pt: ProcessTensor, stacks: Sequence[Array]
                    ) -> tuple[int, tuple[float, int, int] | None]:
    """One preparation group, contracted from ``stacks`` and read out at
    the next time: how many of its realizations have a probability at or
    below the floor, and the ``_diameter`` of the others' normalized
    outputs with its pair as output rows, or None when none is left. The
    raw outputs are dropped before the diameter runs."""
    outs = pt.contract(stacks)
    probs = np.einsum("naa->n", outs).real
    rows = np.flatnonzero(probs > PROBABILITY_FLOOR)
    below = probs.size - rows.size
    if rows.size == 0:
        return below, None
    points = _points(outs, probs, rows)
    del outs, probs
    dev, i, j = _diameter(points)
    return below, (dev, int(rows[i]), int(rows[j]))


def markov_test(pt: ProcessTensor, tol: float = MARKOV_TOL,
                exhaustive: bool = False) -> MarkovReport:
    """Causal-break sweep for operational Markovianity.

    For every break position k in [0, K-1], every sequence of elements of
    ``ic_basis(d)`` on the earlier slots and every POVM outcome of the
    break ``default_break(d)`` are realized and read out at the next time,
    t_{k+1}; conditional states sharing a preparation are compared
    pairwise in trace distance. Break positions are scanned from the
    latest downward and the sweep stops at the first deviation above
    tolerance unless ``exhaustive`` is set. A break at slot 0 has no past:
    its groups compare the states after each outcome r, which differ when
    the initial system-environment state is correlated, so a one-step
    process is tested too; a process with no step has no break and is
    reported Markovian.

    The K one-step breaks decide the verdict: a process is Markovian iff
    its tensor is the product of its step maps and the initial state
    (Pollock et al., PRL 120, 040405, 2018). Suppose every break k gives
    one state Lambda_k(P_s) at t_{k+1} for each preparation P_s, whatever
    the IC past and the outcome r. The realizations (r, s) span every slot
    map and the IC past spans every earlier control sequence, so by
    linearity the output at t_{k+1} is Lambda_k(A_k(rho_k)) for any slot
    map A_k, rho_k the output at t_k of any earlier controls. By induction
    the output for any A_0 ... A_{K-1} is Lambda_{K-1} o A_{K-1} o ... o
    Lambda_0 o A_0(rho_0): the tensor is a product, and no later readout
    can show memory. A realization's probability is the same at every
    readout step (below), so a later readout skips no other conditional
    and leaves no other group inconclusive. Any IC basis and break would
    do, so both follow from the dimension d.

    Each break contracts one preparation group at a time, with no
    identity slot: the cached ``ic_basis(d).rows`` on the past slots and
    ``default_break(d).rows[s]``, the n_out realizations of preparation s,
    on the break slot. The sweep stops right after the group whose
    diameter passes the tolerance, and the break's later groups are never
    contracted. ``skipped_conditionals`` still counts their conditionals
    at or below the floor, with no contraction: tracing the readout leg,
    and the identity slots of any later readout, reduces the comb to
    1_{O_k} (x) Upsilon_k (Chiribella, D'Ariano and Perinotti, PRA 80,
    022339, 2009), and Tr P_s = 1, so row (past, r) has the same
    probability in every group and at every readout step, and each
    untested group counts what the stopping group counted. ``ptf.load``
    and ``from_tomography`` refuse tensors that break the comb condition,
    and every model meets it to rounding.

    One array of a group's size is alive at a time: its raw outputs while
    ``_points`` reads them (for d > 2 normalized in place, or copied once
    when some fall below the floor), then only the points while
    ``_diameter`` runs, whose temporaries have a fixed size. Each group's
    diameter is exact, from one routine for every d; its states run in
    (past, outcome) order, past sequences in ``itertools.product`` order,
    and its witness is the first pair (i, j) at the largest distance (for
    qubits, at the largest squared Bloch distance).
    """
    _check_tol(tol)
    n_steps = pt.n_steps
    d = pt.system_dim
    basis_rows, break_rows = ic_basis(d).rows, default_break(d).rows
    n_basis, (n_prep, n_out) = len(basis_rows), break_rows.shape[:2]

    def record(k: int, s: int, row: int) -> ConditioningRecord:
        past, r = divmod(int(row), n_out)
        return ConditioningRecord(
            break_slot=k, readout_step=k + 1, povm_outcome=r, preparation=s,
            past=tuple(int(m) for m in np.unravel_index(past, (n_basis,) * k)))

    best = 0.0
    witness = None
    skipped = 0
    inconclusive: list[tuple[int, int, int]] = []
    breaks_tested: list[tuple[int, int]] = []

    for k in range(n_steps - 1, -1, -1):
        breaks_tested.append((k, k + 1))
        pasts = [basis_rows] * k
        for s in range(n_prep):
            # rows (past, r); past[0] varies slowest
            below, top = _group_diameter(pt, pasts + [break_rows[s]])
            skipped += below
            if top is None:
                inconclusive.append((k, k + 1, s))
                continue
            dev, i, j = top
            if dev > best:
                best = dev
                witness = (record(k, s, i), record(k, s, j))
            if best > tol and not exhaustive:
                skipped += (n_prep - s - 1) * below
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

def _product_blocks(pt: ProcessTensor) -> list[Array]:
    """The memoryless product's blocks (O_K, O_{K-1}), (I_{j+1}, O_j) and
    I_0, each up to scale: comb form l >= 1 (the legs after its readout leg
    traced out) with slot l-1's I leg and all earlier legs traced; form 0."""
    d, blocks = pt.system_dim, []
    for l in range(pt.n_steps, 0, -1):
        # readout leg, slot l-1's O and I legs, then legs of slots l-2 ... 0
        labels = [0, 1, 2, 3, 4, 4] + [5 + i // 2 for i in range(4 * l - 4)]
        form = pt.contraction_form(l).reshape((d,) * len(labels))
        blocks.append(np.einsum(form, labels, [0, 2, 1, 3]).reshape(d * d, -1))
    return blocks + [pt.contraction_form(0).reshape(d, d)]


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
    support of the product of its marginals (``_product_blocks``).
    """
    # first, so that a cutoff outside [0, 1) is refused before any spectrum
    bond_dims = tuple(bond_dimension(pt, cutoff=bond_cutoff))
    tr = pt.trace
    marginals = _product_blocks(pt)
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
# bond_dimension factors an unfolding of more entries than this in row
# slabs of at most this many: 1/64 of a qubit tensor at K = 4.
_SLAB = 1 << 12


def bond_dimension(pt: ProcessTensor, cutoff: float = BOND_CUTOFF) -> list[int]:
    """Operator-Schmidt ranks across the temporal cuts.

    Legs are ordered chronologically and cut at each control time t_j
    (between the slot's input and output legs); the rank counts the
    singular values of that cut's unfolding above ``cutoff`` times the
    largest. A memoryless process is rank 1 across every cut.

    The ranks come from one sweep, the TT-SVD of Oseledets (SIAM J. Sci.
    Comput. 33, 2295, 2011), over ``pt.contraction_form()``, which a
    tensor built in process, not loaded, gets cached first. Its legs are
    in stored order with each leg's row and column index side by side, so
    cut j's past is the trailing 2j+1 legs and its unfolding A, future by
    past, is a reshape. An A of more than ``_SLAB`` entries with more rows
    than columns is reduced to the R factor of a QR taken one row slab at
    a time under the R factor of the rows before, so no copy of A is made
    and no SVD is larger than A's column count. The carry to the next cut
    is A V for the right singular vectors V kept, with the two legs
    between the cuts moved to its columns: V has orthonormal columns, so
    the next unfolding, that carry times (1 (x) V^H), has the same
    singular values, and each count is the rank of that cut's own
    unfolding. Only singular values at or below ``cutoff *
    _CARRY_MARGIN`` times the largest leave the carry, which moves later
    ones by far less than the counting threshold. The first cut's carry,
    r/d**2 of the tensor, is the largest array made. ``cutoff`` must lie
    in [0, 1).
    """
    if not 0 <= cutoff < 1:
        raise ValidationError(f"cutoff must lie in [0, 1), got {cutoff!r}")
    k = pt.n_steps
    d = pt.system_dim
    rest = pt.contraction_form().reshape(-1, d * d)
    dims = []
    for j in range(k):
        rows, cols = rest.shape
        if rows > cols and rest.size > _SLAB:
            step = max(1, _SLAB // cols)
            r = rest[:0]
            for lo in range(0, rows, step):
                r = np.linalg.qr(np.concatenate([r, rest[lo:lo + step]]),
                                 mode="r")
            _, s, vh = np.linalg.svd(r)
        else:
            _, s, vh = np.linalg.svd(rest, full_matrices=False)
        top = s[0]
        if top == 0:  # every unfolding of a zero tensor is zero
            return [0] * k
        dims.append(int((s > cutoff * top).sum()))
        if j < k - 1:
            # the largest always stays, so the next cut has a remainder
            keep = max(1, int((s > cutoff * _CARRY_MARGIN * top).sum()))
            rest = (rest @ vh[:keep].conj().T).reshape(rows // d ** 4, -1)
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
        if any(m.in_dim != d or m.out_dim != d for m in ins.members):
            raise DimensionMismatch(
                f"instrument {idx} does not map dimension {d} to {d}")
    outs = pt.contract([np.stack([m.superoperator.reshape(-1)
                                  for m in ins.members])
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


def _conditional(joint: Array) -> Array:
    """P(last outcome | the others) from a joint table; NaN where the
    others' probability is at or below the floor."""
    norm = joint.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(norm > PROBABILITY_FLOOR, joint / norm, np.nan)


def classical_markov_check(cp: ClassicalProcess, tol: float = 1e-9,
                           marginal_tables: dict | None = None
                           ) -> ClassicalCheck:
    """Check the classical Markov chain condition on the outcome table.

    For every time index m >= 2 and every history with probability above
    the floor, compares P(r_m | r_{m-1}, history) with P(r_m | r_{m-1}).
    ``marginal_tables`` optionally maps tuples of retained time indices to
    separately measured tables; Kolmogorov consistency then requires each
    to equal the corresponding marginal of the full table (vacuously true
    when none are supplied). A key that repeats an index or names one
    outside [0, table.ndim), or a table of another shape than its
    marginal, raises DimensionMismatch.
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
        cond_pair, cond_hist = _conditional(pair), _conditional(joint)
        diff = np.abs(cond_hist - cond_pair.reshape(
            (1,) * (m - 1) + cond_pair.shape))
        if not np.isnan(diff).all():
            max_violation = max(max_violation, float(np.nanmax(diff)))
    kolmogorov_ok = True
    if marginal_tables:
        for keep, sub in marginal_tables.items():
            if len(set(keep)) != len(keep) or not all(
                    0 <= i < n_axes for i in keep):
                raise DimensionMismatch(
                    f"marginal table key {keep} does not name distinct "
                    f"time indices in [0, {n_axes})")
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
