"""The multi-time process tensor: storage, contraction against control
sequences, conditional states after causal breaks, restriction, marginal
maps, and tomographic reconstruction.

Leg convention
--------------
A K-step tensor on times (t_0, ..., t_K) carries 2K + 1 legs of dimension d,
ordered

    [O_K, O_{K-1}, I_{K-1}, ..., O_1, I_1, O_0, I_0]

where I_j / O_j are the input / output legs of the control slot at t_j and
O_K is the final output. With the package's Choi convention (output leg
leftmost, trace d for TP maps) a memoryless process is the literal Kronecker
product of its step Chois and the average initial state,

    Upsilon = Lambda_{K:K-1} (x) ... (x) Lambda_{1:0} (x) rho_0,

each step Choi occupying one adjacent leg pair and rho_0 the last leg.

Contraction of slot Chois A_j against the tensor follows

    rho[a, c] = sum_{s, t} Upsilon[(a, s), (c, t)] * prod_j A_j[s_j, t_j],

which reproduces ordinary channel composition on product tensors and defines
the multilinear action in general.

Earlier steps are read off through the causal-comb condition
Tr_{O_l} Upsilon_l = 1_{O_{l-1}} (x) Upsilon_{l-1} (Chiribella, D'Ariano and
Perinotti, PRA 80, 022339, 2009): ``contraction_form(l)`` traces one trailing
step at a time, and ``causality_defect`` measures how far a tensor is from
satisfying the condition. Every reader of the tensor evaluates the
multilinear map through ``ProcessTensor.contract``, which contracts stacks
of slot Chois against that form latest slot first: the form's leading slot
axis is the next one open, so each slot is one plain GEMM batched over the
rows made so far, no slot axis is moved and no per-slot copy is made, and
one output-sized transpose at the end puts slot 0 slowest. Only
``restrict``, which keeps slots open, contracts the form on its own.

Control sequences
-----------------
A control sequence is a list of ``QuantumMap`` objects of dimension d, one
per slot from slot 0 on (``checked_controls`` checks it). An instrument
outcome r enters as ``ins.members[r]`` and a causal-break realization
(r, s) as ``brk.map(r, s)``; ``conditional_state`` inserts the break
itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .defaults import PROBABILITY_FLOOR, PSD_CLIP, TENSOR_BYTES_GUARD
from .errors import (
    DimensionMismatch,
    SweepGuardError,
    TomographyDataError,
    UnresolvableConditional,
    ValidationError,
)
from .linalg import Array, LegShape, hermitize
from .qops import CausalBreak, DensityMatrix, OperationBasis, QuantumMap

__all__ = [
    "ProcessTensor",
    "ConditionalState",
    "leg_labels",
    "from_tomography",
]


def leg_labels(n_steps: int) -> tuple[str, ...]:
    labels = [f"O{n_steps}"]
    for j in range(n_steps - 1, -1, -1):
        labels.extend((f"O{j}", f"I{j}"))
    return tuple(labels)


def _slot_row_axes(n_steps: int, j: int) -> tuple[int, int]:
    """Row-tensor axes (O_j, I_j) of slot j in the stored leg order."""
    base = 1 + 2 * (n_steps - 1 - j)
    return base, base + 1


def checked_controls(controls: Iterable, n_slots: int,
                     d: int) -> list[QuantumMap]:
    """The slot maps as a list; raises ValidationError unless every entry
    is a QuantumMap, DimensionMismatch unless each maps dimension d to d
    and there are ``n_slots`` of them."""
    maps = list(controls)
    for pos, m in enumerate(maps):
        if not isinstance(m, QuantumMap):
            raise ValidationError(
                f"slot {pos}: expected a QuantumMap, got {type(m).__name__}")
        if m.in_dim != d or m.out_dim != d:
            raise DimensionMismatch(
                f"slot {pos} dims ({m.in_dim}, {m.out_dim}) != "
                f"system dim {d}")
    if len(maps) != n_slots:
        raise DimensionMismatch(
            f"sequence has {len(maps)} slots, expected {n_slots}")
    return maps


def checked_times(times: Iterable[float]) -> tuple[float, ...]:
    """Time tags t_0 ... t_K as floats; raises ValidationError unless
    there is at least one, all are finite and they strictly increase."""
    times = tuple(float(t) for t in times)
    if not times:
        raise ValidationError("need at least one time tag")
    if not all(math.isfinite(t) for t in times):
        raise ValidationError(f"times must be finite: {times}")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValidationError(f"times must be strictly increasing: {times}")
    return times


def check_tensor_size(d: int, k: int) -> None:
    """Raise SweepGuardError if a dense K-step tensor of dimension d, of
    16 * d**(4K + 2) bytes, exceeds TENSOR_BYTES_GUARD."""
    size = 16 * d ** (4 * k + 2)
    if size > TENSOR_BYTES_GUARD:
        raise SweepGuardError(
            f"{k}-step tensor of dimension {d} takes {size} bytes, above the "
            f"size guard of {TENSOR_BYTES_GUARD}")


# Rows per block in the Hermiticity scan and the sketch residual: a
# 64 x dim slab is 1/8 of a qubit tensor at K = 4 and 1/32 at K = 5.
_ROW_BLOCK = 64
# Randomized range finder of the spectrum: first sketch width, relative
# residual at which the sketch is accepted.
_SKETCH_WIDTH = 16
_SKETCH_RTOL = 1e-12


def _low_rank_spectrum(choi: Array) -> tuple[Array, float]:
    """Ascending eigenvalues of a Hermitian matrix and a bound on how far
    each may lie from the true one.

    The adaptive randomized range finder of Halko, Martinsson and Tropp
    (SIAM Rev. 53, 217, 2011, Alg. 4.2): Q is an orthonormal basis of
    Y = Upsilon Omega for a complex Gaussian Omega of width w drawn from
    ``default_rng(0)``, so the result is the same on every call, and
    B = Q^dagger Upsilon Q. The residual R = Upsilon - Q B Q^dagger is
    summed explicitly over row blocks of ``_ROW_BLOCK`` rows, so no
    full-size temporary is made. Upsilon = Q B Q^dagger + R with R
    Hermitian, so by Weyl's inequality every eigenvalue of Upsilon lies
    within ||R||_2 <= ||R||_F of the matching one of eig(B) padded with
    dim - w zeros.

    The sketch is accepted when ||Upsilon||_F is finite and
    ||R||_F <= ``_SKETCH_RTOL`` ||Upsilon||_F: at 1e-12 every eigenvalue
    it sets to zero lies below SUPPORT_CUTOFF after the trace is divided
    out, and the accepted residuals of rank-e*r model tensors are about
    1e-14. Otherwise w doubles from ``_SKETCH_WIDTH`` = 16, keeping the
    columns already sketched. Once w would pass dim/8, where a sketch
    saves little over it, the dense eigensolve is returned instead, with
    bound 0: at K <= 2 always, and for full-rank data such as noisy
    tomography or a malformed file.
    """
    n = choi.shape[0]
    norm = math.sqrt(np.vdot(choi, choi).real)
    rng = np.random.default_rng(0)
    y = np.empty((n, 0), dtype=complex)
    w = _SKETCH_WIDTH
    while w <= n // 8 and math.isfinite(norm):
        shape = (n, w - y.shape[1])
        omega = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        y = np.hstack([y, choi @ omega])
        q = np.linalg.qr(y)[0]
        qh = q.conj().T
        b = qh @ (choi @ q)
        qb = q @ b
        square = 0.0
        for s in range(0, n, _ROW_BLOCK):
            r = qb[s:s + _ROW_BLOCK] @ qh
            r -= choi[s:s + _ROW_BLOCK]
            square += np.vdot(r, r).real
        resid = math.sqrt(square)
        # the passing direction: a NaN fails it
        if resid <= _SKETCH_RTOL * norm:
            w_b = np.linalg.eigvalsh(b)
            return np.sort(np.concatenate([np.zeros(n - w), w_b])), resid
        w *= 2
    return np.linalg.eigvalsh(choi), 0.0


def _contract_form(form: Array, stacks: Sequence[Array]) -> Array:
    """Contract slot stacks into a contraction form, latest slot first.

    ``form`` has shape (a, d**4, ..., d**4) with one axis per slot, slot
    l-1 leading, as ``ProcessTensor.contraction_form(l)`` gives it (a =
    d*d), or with its readout leg traced out (a = 1). ``stacks[j]`` is an
    (n_j, d**4) stack for slot j; slots ``len(stacks)`` ... l-1 get the
    identity's one row. Each slot is one ``matmul`` of its stack against
    the leading open slot axis, batched over the rows made so far, and the
    last slot one GEMM of all those rows, so no slot axis is moved or
    copied. Returns the (n_0 * ... * n_{l-1}, a) outputs with slot 0
    slowest, from one output-sized transpose at the end.
    """
    l = form.ndim - 1
    if len(stacks) < l:
        d = math.isqrt(math.isqrt(form.shape[1]))
        ident = QuantumMap.identity(d).choi.reshape(1, -1)
        stacks = [*stacks, *[ident] * (l - len(stacks))]
    arr, counts = form, [form.shape[0]]
    for stack in reversed(stacks):
        stack = np.asarray(stack, dtype=complex)
        arr = arr.reshape(math.prod(counts), stack.shape[1], -1)
        # the last open axis: one GEMM in place of a batch of products
        arr = arr[..., 0] @ stack.T if arr.shape[2] == 1 else stack @ arr
        counts.append(len(stack))
    return arr.reshape(counts).T.reshape(-1, counts[0])


def _rows(chois: Iterable[Array]) -> list[Array]:
    """One-row contraction stacks, one per slot Choi."""
    return [np.asarray(c, dtype=complex).reshape(1, -1) for c in chois]


@dataclass(frozen=True)
class ConditionalState:
    """Normalized state after a causal break, with the realization
    probability kept separate."""

    state: DensityMatrix
    probability: float
    conditioning: dict


# ---------------------------------------------------------------------------
# the process tensor
# ---------------------------------------------------------------------------

class ProcessTensor:
    """Generalized Choi matrix of a K-step process with time and leg
    metadata. Immutable and Hermitian after construction: an asymmetry
    above 1e-8 is refused and a smaller one symmetrized away."""

    def __init__(self, choi: Array, system_dim: int, times: Sequence[float]):
        choi = np.asarray(choi, dtype=complex)
        self.system_dim = int(system_dim)
        self.times = checked_times(times)
        n_steps = len(self.times) - 1
        n_legs = 2 * n_steps + 1
        dim = self.system_dim ** n_legs
        if choi.shape != (dim, dim):
            raise DimensionMismatch(
                f"choi shape {choi.shape} != ({dim}, {dim}) for "
                f"{n_steps} steps of dimension {self.system_dim}")
        # scanned and symmetrized in row blocks, so an exactly Hermitian
        # input makes no full-size temporary; np.maximum carries a NaN
        # through and the check passes in its own direction, so NaN fails.
        # A difference of finite entries that overflows reads as inf; the
        # mean halves before it adds, so finite entries keep a finite mean.
        blocks = [slice(s, s + _ROW_BLOCK) for s in range(0, dim, _ROW_BLOCK)]
        asym = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for rows in blocks:
                asym = np.maximum(
                    asym, np.abs(choi[rows] - choi[:, rows].conj().T).max())
        if not asym <= 1e-8:
            raise ValidationError(f"choi asymmetry {asym:.3e} exceeds 1e-8")
        if asym:
            herm = np.empty_like(choi)
            for rows in blocks:
                herm[rows] = choi[rows] / 2 + choi[:, rows].conj().T / 2
            choi = herm
        self.choi = choi
        self.legs = LegShape(dims=(self.system_dim,) * n_legs,
                             labels=leg_labels(n_steps))
        self._forms: dict[int, Array] = {}
        self._spectrum = None
        self._residual = 0.0

    # -- basic properties ----------------------------------------------------

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def dim(self) -> int:
        return self.choi.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.choi).real)

    @property
    def spectrum(self) -> Array:
        """Cached ascending eigenvalues of the (Hermitian) tensor, all
        ``dim`` of them, read-only; the report header and the entropy
        measure share it.

        A low-rank tensor, such as a dilation's Upsilon = M M^dagger with
        M of e*r columns, takes the sketch route of
        :func:`_low_rank_spectrum`: the eigenvalues of Q^dagger Upsilon Q
        padded with zeros, each within the residual norm of the true one.
        Other tensors get a dense eigensolve.
        """
        if self._spectrum is None:
            w, self._residual = _low_rank_spectrum(self.choi)
            w.setflags(write=False)
            self._spectrum = w
        return self._spectrum

    @property
    def min_eigenvalue(self) -> float:
        """Certified lower bound on the smallest eigenvalue: ``spectrum[0]``
        minus the residual norm of the sketch route (0 after a dense
        eigensolve). By Weyl's inequality no eigenvalue lies below it."""
        return float(self.spectrum[0]) - self._residual

    def as_tensor(self) -> Array:
        """View with one axis per leg: row legs first, then column legs."""
        d, n = self.system_dim, self.legs.n_legs
        return self.choi.reshape((d,) * (2 * n))

    def contraction_form(self, l: int | None = None) -> Array:
        """Cached slot-major form of the tensor restricted to readout step
        l (default: the final step K), of shape (d*d, d**4, ..., d**4)
        with l slot axes.

        Axis 0 combines the readout leg's row/column indices; slot axes run
        from slot l-1 down to slot 0, each combining that slot's
        (O_row, I_row, O_col, I_col) indices in Choi-flattening order.

        Below K each form comes from the one above through the comb
        condition Tr_{O_{l+1}} Upsilon_{l+1} = 1_{O_l} (x) Upsilon_l: trace
        the readout leg and slot l's O leg, keep its I leg as the new
        readout leg, and divide by d. ``ptf.load`` refuses tensors for
        which this fails (see :meth:`causality_defect`).
        """
        k = self.n_steps
        l = k if l is None else int(l)
        if not 0 <= l <= k:
            raise ValidationError(f"readout step {l} outside [0, {k}]")
        form = self._forms.get(l)
        if form is None:
            d = self.system_dim
            if l == k:
                n = 2 * k + 1
                order = [0, n]
                for j in range(k - 1, -1, -1):
                    o, i = _slot_row_axes(k, j)
                    order.extend((o, i, o + n, i + n))
                form = np.ascontiguousarray(self.as_tensor().transpose(order)
                                            .reshape((d * d,) + (d ** 4,) * k))
            else:
                up = self.contraction_form(l + 1)
                form = np.einsum("aabibj...->ij...",
                                 up.reshape((d,) * 6 + up.shape[2:]))
                form = form.reshape((d * d,) + up.shape[2:]) / d
            self._forms[l] = form
        return form

    def causality_defect(self) -> float:
        """Largest entry of Tr_{O_l} Upsilon_l - 1_{O_{l-1}} (x)
        Upsilon_{l-1} over l = K ... 1, read off the cached contraction
        forms: rounding level for a causal comb, NaN when entries overflow.
        """
        d = self.system_dim
        eye = np.eye(d).reshape(d, 1, d, 1, 1)
        gaps = [0.0]
        for l in range(self.n_steps, 0, -1):
            up = self.contraction_form(l)
            traced = np.einsum("aa...->...", up.reshape((d, d) + up.shape[1:]))
            low = self.contraction_form(l - 1).reshape(1, d, 1, d, -1)
            gaps.append(np.abs(traced.reshape(d, d, d, d, -1) - eye * low).max())
        return float(np.max(gaps))

    # -- contraction ----------------------------------------------------------

    def contract(self, stacks: Sequence[Array], l: int | None = None) -> Array:
        """Raw outputs at readout step l (default: the final step K) for
        every combination of the rows of ``stacks``.

        ``stacks[j]`` is an (n_j, d**4) stack of flattened slot-j Chois;
        slots ``len(stacks)`` ... l-1 hold the identity. Returns an
        (n_0 * ... * n_{m-1}, d, d) array with slot 0 varying slowest. The
        slots are contracted into ``contraction_form(l)`` from slot l-1
        down to slot 0, one plain GEMM each on the leading slot axis, with
        no per-slot copy; one transpose of the output restores the order
        (see :func:`_contract_form`).
        """
        l = self.n_steps if l is None else int(l)
        if len(stacks) > l:
            raise DimensionMismatch(
                f"{len(stacks)} slot stacks for readout step {l}")
        d = self.system_dim
        outs = _contract_form(self.contraction_form(l), stacks)
        return outs.reshape(-1, d, d)

    def apply(self, controls) -> DensityMatrix:
        """Final-time output for a control sequence; the trace is the joint
        probability of realizing nondeterministic slots."""
        maps = checked_controls(controls, self.n_steps, self.system_dim)
        return DensityMatrix(self.contract(_rows(m.choi for m in maps))[0])

    # -- restriction -----------------------------------------------------------

    def restrict(self, subset: Sequence[int]) -> "ProcessTensor":
        """Tensor on a subset of the time grid.

        Starts from the contraction form at the subset's last step, which
        discards later times through the comb condition, and contracts
        identity controls into the skipped interior slots.
        """
        k = self.n_steps
        subset = sorted({int(s) for s in subset})
        if not subset:
            raise ValidationError("time subset must be nonempty")
        if subset[0] < 0 or subset[-1] > k:
            raise ValidationError(f"subset {subset} outside grid [0, {k}]")
        if len(subset) == k + 1:
            return self
        d, l = self.system_dim, subset[-1]
        form = self.contraction_form(l)
        ident = QuantumMap.identity(d).choi.reshape(-1)
        # slot j sits on axis l - j; contracting from slot 0 (the last axis)
        # up leaves the later slots on their axes
        for j in range(l):
            if j not in subset:
                form = np.tensordot(form, ident, axes=([l - j], [0]))
        m = form.ndim - 1
        rows = [0] + [a for s in range(m) for a in (2 + 4 * s, 3 + 4 * s)]
        cols = [1] + [a for s in range(m) for a in (4 + 4 * s, 5 + 4 * s)]
        dim = d ** (2 * m + 1)
        choi = form.reshape((d,) * (2 + 4 * m)).transpose(rows + cols)
        return ProcessTensor(choi.reshape(dim, dim), d,
                             [self.times[s] for s in subset])

    # -- conditional states ----------------------------------------------------

    def conditional_state(self, k: int, prep_index: int, povm_outcome: int,
                          past=(), future=(), break_set: CausalBreak | None = None
                          ) -> ConditionalState:
        """State at t_l after a causal break at slot k, where
        l = k + 1 + len(future).

        ``past`` supplies the controls on slots 0..k-1 and ``future`` the
        controls strictly between the break and the readout time.
        """
        n_steps = self.n_steps
        d = self.system_dim
        if not 0 <= k < n_steps:
            raise ValidationError(f"break slot {k} outside [0, {n_steps - 1}]")
        if break_set is None:
            break_set = default_break(d)
        past, future = list(past), list(future)
        if len(past) != k:
            raise DimensionMismatch(f"past must cover slots 0..{k - 1}")
        l = k + 1 + len(future)
        if l > n_steps:
            raise DimensionMismatch(
                f"readout step {l} beyond final step {n_steps}")
        break_map = break_set.map(povm_outcome, prep_index)
        maps = checked_controls(past + [break_map] + future, l, d)
        out = self.contract(_rows(m.choi for m in maps), l)[0]
        p = float(np.trace(out).real)
        if p <= PROBABILITY_FLOOR:
            raise UnresolvableConditional(
                f"outcome probability {p:.3e} at or below floor "
                f"{PROBABILITY_FLOOR:.1e}")
        state = DensityMatrix(out / p)
        record = {
            "break_slot": k,
            "readout_step": l,
            "povm_outcome": int(povm_outcome),
            "preparation": int(prep_index),
            "n_past": len(past),
        }
        return ConditionalState(state=state, probability=min(max(p, 0.0), 1.0),
                                conditioning=record)

    # -- marginal dynamics -------------------------------------------------------

    def marginal_map(self, j: int, l: int) -> QuantumMap:
        """The dynamics map from slot j's output to the state at t_l.

        The d**2 matrix units |a><b| are prepared at slot j (discarding its
        input; slot Choi |a><b| (x) 1) in one ``contract`` call, and
        identity controls fill every other slot before l. Output (a, b) is
        the map's image of |a><b|, so the outputs are the columns of its
        Choi matrix.
        """
        n_steps = self.n_steps
        d = self.system_dim
        if not 0 <= j < l <= n_steps:
            raise ValidationError(f"invalid slot range ({j}, {l})")
        fill = QuantumMap.identity(d).choi
        # row (a, b): the Choi |a><b| (x) 1, entries delta_xa delta_zb delta_yw
        preps = np.einsum("axz,yw->axyzw", np.eye(d * d).reshape(d * d, d, d),
                          np.eye(d)).reshape(d * d, -1)
        outs = self.contract(_rows([fill] * j) + [preps], l)
        # Choi[(x, a), (y, b)] = outs[(a, b), x, y]
        choi = outs.reshape((d,) * 4).transpose(2, 0, 3, 1).reshape(d * d, -1)
        return QuantumMap.from_choi(hermitize(choi, atol=1e-8),
                                    in_dim=d, out_dim=d)

    # -- io ---------------------------------------------------------------------

    def save(self, path) -> None:
        from . import ptf
        ptf.save(self, path)

    @classmethod
    def load(cls, path) -> "ProcessTensor":
        from . import ptf
        return ptf.load(path)

    def __repr__(self):
        return (f"ProcessTensor(d={self.system_dim}, steps={self.n_steps}, "
                f"trace={self.trace:.6g})")


@lru_cache(maxsize=8)
def default_break(d: int) -> CausalBreak:
    return CausalBreak.default(d)


# ---------------------------------------------------------------------------
# tomographic reconstruction
# ---------------------------------------------------------------------------

def from_tomography(records, basis: OperationBasis, d: int, k: int,
                    times: Sequence[float] | None = None) -> ProcessTensor:
    """Reconstruct a K-step tensor from a complete basis-product sweep.

    ``records`` holds pairs ``(key, output)`` where ``key`` is the tuple of
    basis-element indices applied at slots (0, ..., k-1) and ``output`` the
    (possibly subnormalized) final state. Every index tuple must appear
    exactly once. The reconstruction is the dual-frame sum

        Upsilon = sum_mu  rho(mu) (x) D*_{mu_{k-1}} (x) ... (x) D*_{mu_0},

    followed by a PSD repair that clips eigenvalues in [-PSD_CLIP, 0) and
    a spot check of 16 evenly spaced records against the result.
    """
    if d != basis.dimension:
        raise DimensionMismatch(f"basis dimension {basis.dimension} != {d}")
    n = len(basis)
    shape = (n,) * k
    table = np.zeros(shape + (d, d), dtype=complex)
    seen = np.zeros(shape, dtype=bool)
    count = 0
    for key, out in records:
        key = tuple(int(i) for i in key)
        if len(key) != k or any(i < 0 or i >= n for i in key):
            raise TomographyDataError(f"bad record key {key}")
        if seen[key]:
            raise TomographyDataError(f"duplicate record for key {key}")
        m = out.matrix if isinstance(out, DensityMatrix) else \
            np.asarray(out, dtype=complex)
        if m.shape != (d, d):
            raise TomographyDataError(
                f"record output shape {m.shape} != ({d}, {d})")
        seen[key] = True
        table[key] = m
        count += 1
    if count != n ** k:
        raise TomographyDataError(
            f"incomplete record set: {count} of {n ** k} basis sequences")

    dc = basis.dual_conj_tensors  # (n, d, d, d, d)
    operands = [table, list(range(k)) + [k, k + 1]]
    row_out, col_out = [k], [k + 1]
    lbl = k + 2
    # slot axes of ``table`` run chronologically; leg order wants slot k-1 first
    for j in range(k - 1, -1, -1):
        labels = [j, lbl, lbl + 1, lbl + 2, lbl + 3]
        operands.extend([dc, labels])
        row_out.extend((lbl, lbl + 1))
        col_out.extend((lbl + 2, lbl + 3))
        lbl += 4
    ups = np.einsum(*operands, row_out + col_out, optimize=True)
    dim = d ** (2 * k + 1)
    ups = ups.reshape(dim, dim)
    ups = (ups + ups.conj().T) / 2

    w, v = np.linalg.eigh(ups)
    if w.min() < -PSD_CLIP:
        raise TomographyDataError(
            f"reconstruction not PSD: eigenvalue {w.min():.3e} below "
            f"-{PSD_CLIP:.1e} (inconsistent records)")
    if w.min() < 0:
        tr_before = ups.trace().real
        w = np.clip(w, 0.0, None)
        ups = (v * w) @ v.conj().T
        tr_after = ups.trace().real
        if tr_after > 0:
            ups *= tr_before / tr_after

    pt = ProcessTensor(ups, d, times if times is not None else range(k + 1))

    flat = list(np.ndindex(shape))
    for key in flat[::max(1, len(flat) // 16)][:16]:
        got = pt.contract(_rows(basis.elements[i].choi for i in key))[0]
        err = np.abs(got - table[key]).max()
        if err > 1e-9:
            raise TomographyDataError(
                f"reconstruction mismatch {err:.3e} at key {key}")
    return pt
