"""The multi-time process tensor: storage, contraction against control
sequences, conditional states after causal breaks, marginal maps, and
tomographic reconstruction.

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

Every reader of the tensor goes through ``contraction_form`` or the
cached ``trace`` and ``spectrum``. The form is one layout of the tensor:
the legs in stored order, each leg's row and column index side by side,
so a slot axis is (O_row, O_col, I_row, I_col) and every temporal cut's
unfolding is a reshape. ``choi`` as stored is read only by the load checks
(``checked_comb``: the Hermiticity scan, ``trace``, ``spectrum`` and the
K form, which a tensor built in process makes on first use), by
``from_tomography``'s PSD repair and by ``ptf.save``. Earlier steps are
read off through the causal-comb condition Tr_{O_l} Upsilon_l =
1_{O_{l-1}} (x) Upsilon_{l-1} (Chiribella, D'Ariano and Perinotti, PRA
80, 022339, 2009): one comb step builds each lower ``contraction_form``
and the gap that ``causality_defect`` reports. ``ProcessTensor.contract``
is the one contraction kernel: a slot axis is the slot map's flattened
superoperator (Zyczkowski and Bengtsson, Open Syst. Inf. Dyn. 11, 3,
2004), so it contracts stacks of superoperator rows as they come, latest
slot first, and reads out right after the last one. The leading slot axis
is the next one open, so each slot is one plain GEMM batched over the rows
made so far, no axis of the form is moved or copied, and one output-sized
transpose puts slot 0 slowest.

Control sequences
-----------------
A control sequence is a list of ``QuantumMap`` objects of dimension d, one
per slot from slot 0 on (``checked_controls`` checks it). An instrument
outcome r enters as ``ins.members[r]`` and a causal-break realization
(r, s) as ``brk.map(r, s)``; ``conditional_state`` inserts the break
``default_break(d)`` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .defaults import (
    PROBABILITY_FLOOR,
    PSD_CLIP,
    SUPPORT_CUTOFF,
    TENSOR_BYTES_GUARD,
)
from .errors import (
    DimensionMismatch,
    PtError,
    SweepGuardError,
    TomographyDataError,
    UnresolvableConditional,
    ValidationError,
)
from .linalg import Array, hermitize
from .qops import DensityMatrix, QuantumMap, default_break, ic_basis

__all__ = [
    "ProcessTensor",
    "ConditionalState",
    "leg_labels",
    "from_tomography",
]

# The trace convention of every tensor that ``checked_comb`` accepts, and
# of the PTF1 header: trace d per step.
TRACE_CONVENTION = "tp_choi_trace_d"


def leg_labels(n_steps: int) -> tuple[str, ...]:
    labels = [f"O{n_steps}"]
    for j in range(n_steps - 1, -1, -1):
        labels.extend((f"O{j}", f"I{j}"))
    return tuple(labels)


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
    try:
        times = tuple(float(t) for t in times)
    except OverflowError:  # an integer beyond float range
        raise ValidationError("times must be finite, not beyond float range")
    if not times:
        raise ValidationError("need at least one time tag")
    if not all(math.isfinite(t) for t in times):
        raise ValidationError(f"times must be finite: {times}")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValidationError(f"times must be strictly increasing: {times}")
    return times


def check_matrix_size(side: int, what: str, cols: int | None = None) -> None:
    """Raise SweepGuardError if a dense complex side x cols matrix (square
    when ``cols`` is None), of 16 * side * cols bytes, exceeds
    TENSOR_BYTES_GUARD. A K-step tensor of dimension d has side d**(2K + 1);
    the joint unitary of a dilation with a d-dimensional system and an
    e-dimensional environment has side d * e.
    """
    size = 16 * side * (side if cols is None else cols)
    if size > TENSOR_BYTES_GUARD:
        raise SweepGuardError(f"{what} takes {size} bytes, above the size "
                              f"guard of {TENSOR_BYTES_GUARD}")


# Rows per block in the Hermiticity scan and the sketch residual: a
# 64 x dim slab is 1/8 of a qubit tensor at K = 4 and 1/32 at K = 5.
_ROW_BLOCK = 64
# Randomized range finder of the spectrum: first sketch width, relative
# residual at which the sketch is accepted.
_SKETCH_WIDTH = 16
_SKETCH_RTOL = 1e-12
# Relative squared residual from the closed form at or above which a width
# is rejected without the explicit residual: far above the 1e-24 that
# acceptance needs and far above rounding.
_SKETCH_SKIP = 1e-6


def _low_rank_spectrum(choi: Array) -> tuple[Array, float]:
    """Ascending eigenvalues of a Hermitian matrix and a bound on how far
    each may lie from the true one.

    The adaptive randomized range finder of Halko, Martinsson and Tropp
    (SIAM Rev. 53, 217, 2011, Alg. 4.2): Q is an orthonormal basis of
    Y = Upsilon Omega for a complex Gaussian Omega of width w drawn from
    ``default_rng(0)``, so the result is the same on every call.

    B comes from the sketch alone, in the single pass of their sec. 5.5:
    if Upsilon = Q B Q^dagger, then Q^dagger Y = B (Q^dagger Omega), and
    Q^dagger Y is the R factor of Y = Q R, so B solves B C = R with
    C = Q^dagger Omega and needs no product Upsilon Q. B is then
    symmetrized, so R_res = Upsilon - Q B Q^dagger is Hermitian and, by
    Weyl's inequality, every eigenvalue of Upsilon lies within
    ||R_res||_2 <= ||R_res||_F of the matching one of eig(B) padded with
    dim - w zeros, whatever B is. That residual is summed explicitly, in
    row blocks of ``_ROW_BLOCK`` rows on and right of the diagonal: a
    Hermitian R_res has ||R_res||_F^2 = sum_i ||R_ii||^2 +
    2 sum_{i<j} ||R_ij||^2 over its row and column blocks, so each
    diagonal block counts once and the blocks right of it twice, and no
    full-size temporary is made.

    The explicit residual is the only acceptance: the sketch is accepted
    when ||Upsilon||_F is finite and ||R_res||_F <= ``_SKETCH_RTOL``
    ||Upsilon||_F. At 1e-12 every eigenvalue it sets to zero lies below
    SUPPORT_CUTOFF after the trace is divided out, and the accepted
    residuals of rank-e*r model tensors are about 1e-14. A width that
    fails doubles from ``_SKETCH_WIDTH`` = 16, keeping the columns already
    sketched. The single-pass B is less accurate than Q^dagger Upsilon Q
    by about cond(C); for that projection ||R_res||_F^2 = ||Upsilon||_F^2
    - ||B||_F^2, so a width at which the single-pass B gives a difference
    of at least ``_SKETCH_SKIP`` ||Upsilon||_F^2, far above what cond(C)
    can move it by at an acceptable width, is rejected without the
    residual; a wrong rejection costs a wider sketch, never a wrong
    bound. Once w would pass dim/8, where a sketch saves little over it,
    the dense eigensolve is returned instead, with bound 0: at K <= 2
    always, and for full-rank data such as noisy tomography or a
    malformed file.
    """
    n = choi.shape[0]
    square = np.vdot(choi, choi).real
    norm = math.sqrt(square)
    rng = np.random.default_rng(0)
    omega = y = np.empty((n, 0), dtype=complex)
    w = _SKETCH_WIDTH
    while w <= n // 8 and math.isfinite(norm):
        shape = (n, w - y.shape[1])
        new = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        y = np.hstack([y, choi @ new])
        omega = np.hstack([omega, new])
        del new
        q, r = np.linalg.qr(y)
        qh = q.conj().T
        del q  # qh is all the residual needs of it
        # B C = R through its adjoint, C^dagger B^dagger = R^dagger
        b = np.linalg.solve((qh @ omega).conj().T, r.conj().T)
        b = b / 2 + b.conj().T / 2
        if square - np.vdot(b, b).real < _SKETCH_SKIP * square:
            resid = _sketch_residual(choi, qh, b)
            # the passing direction: a NaN fails it
            if resid <= _SKETCH_RTOL * norm:
                w_b = np.linalg.eigvalsh(b)
                return np.sort(np.concatenate([np.zeros(n - w), w_b])), resid
        w *= 2
    return np.linalg.eigvalsh(choi), 0.0


def _sketch_residual(choi: Array, qh: Array, b: Array) -> float:
    """||Upsilon - Q B Q^dagger||_F for a Hermitian ``choi`` and ``b`` and
    ``qh`` = Q^dagger: each row block's diagonal block once and the part
    right of it twice (see :func:`_low_rank_spectrum`). A row block of
    Q B is the adjoint of B Q^dagger's columns, so Q itself is not
    needed."""
    total = 0.0
    for s in range(0, len(choi), _ROW_BLOCK):
        rows = slice(s, s + _ROW_BLOCK)
        qb = (b @ qh[:, rows]).conj().T
        for cols, weight in ((rows, 1), (slice(s + _ROW_BLOCK, None), 2)):
            r = qb @ qh[:, cols]
            r -= choi[rows, cols]
            total += weight * np.vdot(r, r).real
    return math.sqrt(total)


def _comb_step(up: Array, d: int) -> tuple[Array, float]:
    """The form one readout step below the contraction form ``up``,
    low = sum_{a, b} up[a, a, b, b] / d, and the comb gap max |sum_a
    up[a, a, o, p] - delta_op low| (NaN or inf on overflow). Sums run from
    zero, a-major, over contiguous 1/d**4 blocks, as ``np.einsum`` does."""
    up = up.reshape((d,) * 4 + (d * d,) + up.shape[2:])
    low = sum(up[a, a, b, b] for a, b in np.ndindex(d, d)) / d
    gaps, gap = [], np.empty_like(low)  # reused: one gap block at a time
    for o, p in np.ndindex(d, d):
        gap[...] = 0
        for a in range(d):
            gap += up[a, a, o, p]
        if o == p:
            gap -= low
        gaps.append(np.abs(gap).max())
    return low, float(np.max(gaps))


def _rows(maps: Iterable[QuantumMap]) -> list[Array]:
    """One-row contraction stacks, one per slot map."""
    return [m.superoperator.reshape(1, -1) for m in maps]


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
    metadata, for a system of integer dimension at least 2. Immutable and
    Hermitian after construction: an asymmetry above 1e-8 is refused and
    a smaller one symmetrized away."""

    def __init__(self, choi: Array, system_dim: int, times: Sequence[float]):
        choi = np.asarray(choi, dtype=complex)
        if isinstance(system_dim, bool) or not isinstance(
                system_dim, (int, np.integer)) or system_dim < 2:
            raise ValidationError(
                f"system_dim must be an integer >= 2, got {system_dim!r}")
        self.system_dim = int(system_dim)
        self.times = checked_times(times)
        n_steps = len(self.times) - 1
        dim = self.system_dim ** (2 * n_steps + 1)
        if choi.shape != (dim, dim):
            raise DimensionMismatch(
                f"choi shape {choi.shape} != ({dim}, {dim}) for "
                f"{n_steps} steps of dimension {self.system_dim}")
        # scanned one row block at a time, on and below the diagonal only:
        # |a - conj(b)| = |b - conj(a)| bit for bit, so each Hermitian pair
        # is read once and an exactly Hermitian input makes no full-size
        # temporary. np.maximum carries a NaN through and the check passes
        # in its own direction, so NaN fails. A difference of finite
        # entries that overflows reads as inf. The symmetrization takes
        # whole rows, so every entry, signed zeros included, is the one
        # (c + c^dagger) / 2 gives; the mean halves before it adds, so
        # finite entries keep a finite mean.
        blocks = [slice(s, s + _ROW_BLOCK) for s in range(0, dim, _ROW_BLOCK)]
        asym = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for rows in blocks:
                end = min(rows.stop, dim)
                asym = np.maximum(asym, np.abs(
                    choi[rows, :end] - choi[:end, rows].conj().T).max())
        if not asym <= 1e-8:
            raise ValidationError(f"choi asymmetry {asym:.3e} exceeds 1e-8")
        if asym:
            herm = np.empty_like(choi)
            for rows in blocks:
                herm[rows] = choi[rows] / 2 + choi[:, rows].conj().T / 2
            choi = herm
        # a read-only view: the caller's array keeps its own flags
        self.choi = choi.view()
        self.choi.setflags(write=False)
        self._forms, self._gaps = [], []  # forms K, K-1, ..., gaps below
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
        :func:`_low_rank_spectrum`: the eigenvalues of the sketch's
        Hermitian w x w matrix B padded with zeros, each within the
        residual norm of the true one.
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

    def contraction_form(self, l: int | None = None) -> Array:
        """Cached slot-major form of the tensor restricted to readout step
        l (default: the final step K), of shape (d*d, d**4, ..., d**4)
        with l slot axes.

        The legs keep their stored order with each leg's row and column
        index side by side: axis 0 is the readout leg's (row, column) and
        the slot axes run from slot l-1 down to slot 0, each (O_row,
        O_col, I_row, I_col). The K form is one transpose of ``choi``,
        cached on first use (``ptf.load`` makes it for the comb check).

        Below K the forms are built top-down through the comb condition
        Tr_{O_{l+1}} Upsilon_{l+1} = 1_{O_l} (x) Upsilon_l, one
        :func:`_comb_step` each: trace the readout leg and slot l's O leg,
        keep its I leg as the new readout leg, divide by d, and record the
        condition's gap for :meth:`causality_defect`.
        """
        k = self.n_steps
        l = k if l is None else int(l)
        if not 0 <= l <= k:
            raise ValidationError(f"readout step {l} outside [0, {k}]")
        d = self.system_dim
        if not self._forms:
            n = 2 * k + 1
            legs = self.choi.reshape((d,) * (2 * n))
            order = [a for leg in range(n) for a in (leg, leg + n)]
            self._forms.append(np.ascontiguousarray(
                legs.transpose(order).reshape((d * d,) + (d ** 4,) * k)))
        while len(self._forms) <= k - l:
            low, gap = _comb_step(self._forms[-1], d)
            self._forms.append(low)
            self._gaps.append(gap)
        return self._forms[k - l]

    def causality_defect(self) -> float:
        """Largest entry of Tr_{O_l} Upsilon_l - 1_{O_{l-1}} (x)
        Upsilon_{l-1} over l = K ... 1, the gaps of the comb steps down to
        step 0: rounding level for a causal comb, NaN or inf when entries
        overflow."""
        self.contraction_form(0)
        return float(np.max([0.0, *self._gaps]))

    # -- contraction ----------------------------------------------------------

    def contract(self, stacks: Sequence[Array]) -> Array:
        """Raw outputs at readout step l = ``len(stacks)``, right after the
        last stack, for every combination of the rows of ``stacks``.

        ``stacks[j]`` is an (n_j, d**4) stack of slot-j superoperators,
        each flattened as ``QuantumMap.superoperator.reshape(-1)`` gives
        it: (O_row, O_col, I_row, I_col), the form's own slot axis, so no
        stack is reordered. They are contracted into ``contraction_form(l)``
        latest slot first: one ``matmul`` of the stack against the leading
        open slot axis, batched over the rows made so far, and the last
        slot one GEMM of all those rows, so no axis of the form is moved or
        copied. Returns an (n_0 * ... * n_{l-1}, d, d) array with slot 0
        varying slowest. Raises DimensionMismatch for more stacks than
        steps or a stack that is not 2-D with d**4 columns.
        """
        if len(stacks) > self.n_steps:
            raise DimensionMismatch(
                f"{len(stacks)} slot stacks for {self.n_steps} steps")
        d = self.system_dim
        for j, stack in enumerate(stacks):
            shape = getattr(stack, "shape", None)
            if shape is None or len(shape) != 2 or shape[1] != d ** 4:
                raise DimensionMismatch(
                    f"slot {j} stack of shape {shape}, expected (n, {d ** 4})")
        arr, counts = self.contraction_form(len(stacks)), [d * d]
        for stack in reversed(stacks):
            arr = arr.reshape(math.prod(counts), stack.shape[1], -1)
            # the last open axis: one GEMM in place of a batch of products
            arr = arr[..., 0] @ stack.T if arr.shape[2] == 1 else stack @ arr
            counts.append(len(stack))
        return arr.reshape(counts).T.reshape(-1, d, d)

    def apply(self, controls) -> DensityMatrix:
        """Final-time output for a control sequence; the trace is the joint
        probability of realizing nondeterministic slots."""
        maps = checked_controls(controls, self.n_steps, self.system_dim)
        return DensityMatrix(self.contract(_rows(maps))[0])

    # -- conditional states ----------------------------------------------------

    def conditional_state(self, k: int, prep_index: int, povm_outcome: int,
                          past=(), future=()) -> ConditionalState:
        """State at t_l after the realization (``povm_outcome``,
        ``prep_index``) of the causal break ``default_break(d)`` at slot k,
        where l = k + 1 + len(future).

        ``past`` supplies the controls on slots 0..k-1 and ``future`` the
        controls strictly between the break and the readout time.
        """
        n_steps = self.n_steps
        d = self.system_dim
        if not 0 <= k < n_steps:
            raise ValidationError(f"break slot {k} outside [0, {n_steps - 1}]")
        past, future = list(past), list(future)
        if len(past) != k:
            raise DimensionMismatch(f"past must cover slots 0..{k - 1}")
        l = k + 1 + len(future)  # contract refuses l > n_steps
        break_map = default_break(d).map(povm_outcome, prep_index)
        maps = checked_controls(past + [break_map] + future, l, d)
        out = self.contract(_rows(maps))[0]
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
        input, X -> tr(X) |a><b|) in one ``contract`` call, and the
        identity's row fills every other slot before l. Output (a, b) is
        the map's image of |a><b|, so the outputs are the columns of its
        Choi matrix.
        """
        n_steps = self.n_steps
        d = self.system_dim
        if not 0 <= j < l <= n_steps:
            raise ValidationError(f"invalid slot range ({j}, {l})")
        # row (a, b): X -> tr(X) |a><b|, entry ((x, y), (z, w)) delta_ax
        # delta_by delta_zw
        preps = np.outer(np.eye(d * d), np.eye(d)).reshape(d * d, -1)
        ident = np.eye(d * d).reshape(1, -1)
        outs = self.contract([ident] * j + [preps] + [ident] * (l - j - 1))
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


def checked_comb(choi: Array | ProcessTensor, d: int,
                 times: Sequence[float],
                 error: type[PtError]) -> ProcessTensor:
    """The tensor of ``choi`` if it is a causal comb, else ``error``: the
    check of ``ptf.load`` (raising ``FormatError``) and of
    ``from_tomography`` (raising ``TomographyDataError``), which passes
    the ProcessTensor it built, so the check reads its cached spectrum."""
    try:
        pt = choi if isinstance(choi, ProcessTensor) else \
            ProcessTensor(choi, d, times)
        with np.errstate(all="ignore"):
            trace = pt.trace
        if not math.isfinite(trace):
            raise error(f"trace {trace} is not finite")
        tol = PSD_CLIP * max(1.0, abs(trace))
        # a certified lower bound; a dense fallback's full-size copy is
        # freed before the contraction forms that the defect caches are built
        min_eig = pt.min_eigenvalue
        defect = pt.causality_defect()
    except (PtError, np.linalg.LinAlgError) as exc:
        # any non-finite entry fails the Hermiticity scan
        if not isinstance(choi, ProcessTensor) and \
                not np.isfinite(choi).all():
            raise error("blob holds non-finite entries") from exc
        raise error(str(exc)) from exc
    # each check passes in its own direction, so a NaN fails it
    if not defect <= tol:
        raise error(f"not a causal comb: causality defect {defect:.3e} "
                    f"exceeds {tol:.1e}")
    if not min_eig >= -tol:
        raise error(f"not positive semidefinite: eigenvalue "
                    f"{min_eig:.3e} below {-tol:.1e}")
    k = pt.n_steps
    if not abs(pt.trace - d ** k) <= tol:
        raise error(f"trace {pt.trace:.6g} is not d**k = {d ** k} "
                    f"within {tol:.1e} ({TRACE_CONVENTION})")
    return pt


# ---------------------------------------------------------------------------
# tomographic reconstruction
# ---------------------------------------------------------------------------

def from_tomography(outputs, times: Sequence[float] | None = None
                    ) -> ProcessTensor:
    """Reconstruct a K-step tensor from its outputs on every sequence of
    elements of ``ic_basis(d)``: ``contract`` run backwards.

    ``outputs`` has shape (d**4,) * k + (d, d), and ``outputs[mu_0, ...,
    mu_{k-1}]`` is the (possibly subnormalized) final state after element
    mu_j at slot j, the array ``pt.contract([ic_basis(d).rows] * k)
    .reshape((d**4,) * k + (d, d))`` gives; d and k are read off the
    shape, and every entry must be finite. ``contract`` multiplies each
    slot axis of the K form by the square, invertible ``rows``, so each
    slot axis of ``outputs`` is multiplied by its inverse, one GEMM per
    slot, and one transpose gives the Choi matrix, raw: the constructor's
    Hermiticity scan refuses an asymmetry above 1e-8, as for a loaded file.

    The PSD repair is judged on the certified ``min_eigenvalue``: below
    -PSD_CLIP the records are refused as inconsistent; below
    -SUPPORT_CUTOFF times the trace (noisy data) the negative eigenvalues
    are clipped to zero and the trace is restored. Clean data is not
    eigensolved again: ``checked_comb`` reads the same cached spectrum, so
    a tensor that ``ptf.load`` would refuse is refused here with the same
    message. Last, 16 evenly spaced sequences are contracted against their
    outputs. Every refusal is a TomographyDataError, apart from the time
    tags' ValidationError and DimensionMismatch.
    """
    try:
        outputs = np.asarray(outputs, dtype=complex)
    except (TypeError, ValueError) as exc:  # ragged or not numbers
        raise TomographyDataError(f"outputs are not a numeric array: {exc}"
                                  ) from exc
    k = outputs.ndim - 2
    d = outputs.shape[-1] if k >= 0 else 0
    n = d ** 4
    if d < 2 or outputs.shape != (n,) * k + (d, d):
        raise TomographyDataError(
            f"outputs of shape {outputs.shape}, expected (d**4,) * k + "
            f"(d, d) for a dimension d >= 2")
    times = checked_times(range(k + 1) if times is None else times)
    if len(times) != k + 1:
        raise DimensionMismatch(f"{len(times)} time tags for k={k}")
    finite = np.isfinite(outputs).all(axis=(-2, -1))
    if not finite.all():
        key = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise TomographyDataError(f"record output for key {key} is not finite")

    rows = ic_basis(d).rows
    inv_t = np.linalg.inv(rows).T
    arr = outputs if k else outputs.copy()  # the tensor views no input
    with np.errstate(over="ignore", invalid="ignore"):
        # slot 0 leads: undo its GEMM, which moves its axis to the end, so
        # after k slots the axes are (O_K row, O_K col, slot 0, ..., k-1)
        for _ in range(k):
            arr = arr.reshape(n, -1).T @ inv_t
        # slot j's axis is (O_j row, O_j col, I_j row, I_j col) at 2 + 4j
        slots = range(2 + 4 * (k - 1), 1, -4)
        order = [0, *(a for s in slots for a in (s, s + 2)),
                 1, *(a for s in slots for a in (s + 1, s + 3))]
        dim = d ** (2 * k + 1)
        ups = arr.reshape((d,) * (4 * k + 2)).transpose(order).reshape(dim, dim)
    del arr
    try:
        pt = ProcessTensor(ups, d, times)
    except ValidationError as exc:  # the scan, which overflow fails too
        raise TomographyDataError(
            str(exc) if np.isfinite(ups).all() else
            "reconstruction has non-finite entries") from exc
    del ups  # pt.choi is the array or, if it was symmetrized, a new one
    lam = pt.min_eigenvalue
    if not lam >= -PSD_CLIP:
        raise TomographyDataError(
            f"reconstruction not PSD: eigenvalue {lam:.3e} below "
            f"-{PSD_CLIP:.1e} (inconsistent records)")
    if lam < -SUPPORT_CUTOFF * pt.trace:
        w, v = np.linalg.eigh(pt.choi)  # Hermitian: eigh reads one triangle
        ups = (v * np.clip(w, 0.0, None)) @ v.conj().T
        tr_after = ups.trace().real
        if tr_after > 0:
            ups *= pt.trace / tr_after
        pt = ProcessTensor(ups, d, times)
        del ups, v
    pt = checked_comb(pt, d, times, TomographyDataError)

    for flat in range(0, n ** k, max(1, n ** k // 16))[:16]:
        key = tuple(int(i) for i in np.unravel_index(flat, (n,) * k))
        got = pt.contract([rows[i:i + 1] for i in key])[0]
        err = np.abs(got - outputs[key]).max()
        if err > 1e-9:
            raise TomographyDataError(
                f"reconstruction mismatch {err:.3e} at key {key}")
    return pt
