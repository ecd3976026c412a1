"""States, CP maps, instruments, causal breaks, and informationally
complete operation bases.

Representation conventions (fixed package-wide):

* density matrices are vectorized row-major, ``vec(rho)[i*d + j] = rho[i, j]``,
  so the superoperator of a Kraus set {K} is ``sum_K  K (x) K.conj()``;
* the Choi matrix of a map places the output leg leftmost and is
  unnormalized: ``C = sum_ij  Map(|i><j|) (x) |i><j|`` with ``tr C = in_dim``
  for trace-preserving maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .defaults import (
    CPTP_DEFECT_TOL,
    FRAME_CUTOFF,
    HERMITIAN_ATOL,
    PSD_ATOL,
    SUPPORT_CUTOFF,
    TRACE_ATOL,
)
from .errors import (
    DimensionMismatch,
    NotPositive,
    SingularFrame,
    ValidationError,
)
from .linalg import Array, as_operator, hermitian_eig, hermitize, tensor_product

__all__ = [
    "DensityMatrix",
    "QuantumMap",
    "Instrument",
    "OperationBasis",
    "CausalBreak",
    "default_break",
    "ic_basis",
    "ic_frame_states",
]


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

class DensityMatrix:
    """A positive, Hermitian state with trace in (0, 1].

    Subnormalized states are allowed; their trace carries the probability
    of the conditioning event that produced them.
    """

    def __init__(self, matrix):
        m = hermitize(as_operator(matrix))
        w = np.linalg.eigvalsh(m)
        if not w.min() >= -PSD_ATOL:
            raise NotPositive(f"state eigenvalue {w.min():.3e} below -{PSD_ATOL:.1e}")
        tr = float(np.trace(m).real)
        if not -TRACE_ATOL <= tr <= 1.0 + TRACE_ATOL:
            raise ValidationError(f"state trace {tr} outside [0, 1]")
        self.matrix = m
        self.dim = m.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def normalized(self) -> "DensityMatrix":
        tr = self.trace
        if tr <= 0:
            raise ValidationError("cannot normalize a zero-trace state")
        return DensityMatrix(self.matrix / tr)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, trace={self.trace:.6g})"


def _state_matrix(state) -> Array:
    if isinstance(state, DensityMatrix):
        return state.matrix
    return as_operator(state)


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

def _choi_to_super(choi: Array, out_dim: int, in_dim: int) -> Array:
    c4 = choi.reshape(out_dim, in_dim, out_dim, in_dim)
    return c4.transpose(0, 2, 1, 3).reshape(out_dim * out_dim, in_dim * in_dim)


class QuantumMap:
    """A linear map on operators, given by a Kraus set or a Choi matrix;
    the other of the two and the superoperator are derived lazily, and
    each one it derives is cached read-only."""

    def __init__(self, *, in_dim: int, out_dim: int, kraus=None, choi=None):
        if kraus is None and choi is None:
            raise ValidationError("QuantumMap needs at least one representation")
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self._kraus = None if kraus is None else [
            np.asarray(k, dtype=complex) for k in kraus]
        self._choi = None if choi is None else np.asarray(choi, dtype=complex)
        self._super = None
        self._check_shapes()

    def _check_shapes(self):
        din, dout = self.in_dim, self.out_dim
        if self._kraus is not None:
            for k in self._kraus:
                if k.shape != (dout, din):
                    raise DimensionMismatch(
                        f"Kraus shape {k.shape} != ({dout}, {din})")
        if self._choi is not None and self._choi.shape != (dout * din, dout * din):
            raise DimensionMismatch(
                f"Choi shape {self._choi.shape} != ({dout * din}, {dout * din})")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_kraus(cls, kraus: Sequence) -> "QuantumMap":
        ks = [np.asarray(k, dtype=complex) for k in kraus]
        if not ks:
            raise ValidationError("a Kraus set needs at least one operator")
        out_dim, in_dim = ks[0].shape
        return cls(in_dim=in_dim, out_dim=out_dim, kraus=ks)

    @classmethod
    def from_choi(cls, choi, in_dim: int | None = None,
                  out_dim: int | None = None) -> "QuantumMap":
        c = as_operator(choi)
        if in_dim is None and out_dim is None:
            d = int(round(np.sqrt(c.shape[0])))
            in_dim = out_dim = d
        elif in_dim is None:
            in_dim = c.shape[0] // out_dim
        elif out_dim is None:
            out_dim = c.shape[0] // in_dim
        return cls(in_dim=in_dim, out_dim=out_dim, choi=c)

    @classmethod
    def from_unitary(cls, u) -> "QuantumMap":
        u = as_operator(u)
        return cls.from_kraus([u])

    @classmethod
    def identity(cls, d: int) -> "QuantumMap":
        return cls.from_kraus([np.eye(d)])

    @classmethod
    def prepare(cls, state) -> "QuantumMap":
        """X -> tr(X) * state (discard input, prepare fresh state)."""
        return cls.measure_and_prepare(np.eye(_state_matrix(state).shape[0]), state)

    @classmethod
    def measure_and_prepare(cls, effect, state) -> "QuantumMap":
        """X -> tr(effect X) * state; Choi = state (x) effect.T."""
        e = as_operator(effect)
        s = _state_matrix(state)
        return cls(in_dim=e.shape[0], out_dim=s.shape[0],
                   choi=tensor_product(s, e.T))

    # -- representations ---------------------------------------------------

    @property
    def choi(self) -> Array:
        if self._choi is None:
            vs = np.stack([k.reshape(-1) for k in self._kraus])
            self._choi = vs.T @ vs.conj()
            self._choi.setflags(write=False)
        return self._choi

    @property
    def superoperator(self) -> Array:
        """S with vec(Map(X)) = S vec(X), the reshuffled Choi matrix
        S[(a, b), (x, y)] = C[(a, x), (b, y)]; flattened, the map's row in
        ``ProcessTensor.contract``."""
        if self._super is None:
            self._super = _choi_to_super(self.choi, self.out_dim, self.in_dim)
            self._super.setflags(write=False)
        return self._super

    @property
    def kraus(self) -> list[Array]:
        """Kraus operators; defined only for CP maps (PSD Choi)."""
        if self._kraus is None:
            w, v = hermitian_eig(self.choi)
            if w.min() < -CPTP_DEFECT_TOL:
                raise NotPositive(
                    f"not CP: Choi eigenvalue {w.min():.3e}; no Kraus form")
            ks = []
            for wi, vi in zip(w, v.T):
                if wi > SUPPORT_CUTOFF:
                    ks.append(np.sqrt(wi) * vi.reshape(self.out_dim, self.in_dim))
            self._kraus = ks or [np.zeros((self.out_dim, self.in_dim), complex)]
            for k in self._kraus:
                k.setflags(write=False)
        return self._kraus

    # -- behaviour ---------------------------------------------------------

    def apply(self, rho: Array) -> Array:
        rho = _state_matrix(rho)
        if rho.shape[0] != self.in_dim:
            raise DimensionMismatch(
                f"state dim {rho.shape[0]} != map input dim {self.in_dim}")
        out = self.superoperator @ rho.reshape(-1)
        return out.reshape(self.out_dim, self.out_dim)

    @property
    def tp_defect(self) -> float:
        c4 = self.choi.reshape(self.out_dim, self.in_dim, self.out_dim, self.in_dim)
        red = np.einsum("aiaj->ij", c4)
        return float(np.abs(red - np.eye(self.in_dim)).max())

    @property
    def cp_defect(self) -> float:
        w = np.linalg.eigvalsh(hermitize(self.choi, atol=np.inf))
        return float(max(0.0, -w.min()))

    def __repr__(self):
        return f"QuantumMap(in_dim={self.in_dim}, out_dim={self.out_dim})"


# ---------------------------------------------------------------------------
# instruments and causal breaks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Instrument:
    """A finite set of CP maps, all with the first member's input and
    output dimensions, whose sum is trace preserving."""

    members: tuple[QuantumMap, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValidationError("an instrument needs at least one member")
        object.__setattr__(self, "members", members)
        labels = tuple(self.labels) or tuple(str(i) for i in range(len(members)))
        if len(labels) != len(members):
            raise ValidationError("instrument labels must match member count")
        object.__setattr__(self, "labels", labels)
        dims = (members[0].in_dim, members[0].out_dim)
        for idx, m in enumerate(members):
            if (m.in_dim, m.out_dim) != dims:
                raise DimensionMismatch(
                    f"instrument member {idx} maps {m.in_dim} -> "
                    f"{m.out_dim}, member 0 maps {dims[0]} -> {dims[1]}")
        total = sum(m.choi for m in members)
        avg = QuantumMap.from_choi(total, in_dim=dims[0], out_dim=dims[1])
        if not avg.tp_defect <= HERMITIAN_ATOL:
            raise ValidationError(
                f"instrument members do not sum to a TP map "
                f"(defect {avg.tp_defect:.3e})")

    def __len__(self):
        return len(self.members)

    @property
    def in_dim(self) -> int:
        return self.members[0].in_dim


@dataclass(frozen=True)
class CausalBreak:
    """A POVM plus a set of fresh preparations.

    Realization (r, s) measures effect r and re-prepares state s; its output
    is independent of its input, severing the causal link through the system.
    Its effect and preparation arrays are read-only.
    """

    effects: tuple[Array, ...]
    preparations: tuple[Array, ...]

    def __post_init__(self):
        effs = tuple(hermitize(as_operator(e)) for e in self.effects)
        preps = tuple(hermitize(as_operator(p)) for p in self.preparations)
        if not (effs and preps):
            raise ValidationError(
                "a causal break needs at least one effect and one preparation")
        for a in effs + preps:
            a.setflags(write=False)
        object.__setattr__(self, "effects", effs)
        object.__setattr__(self, "preparations", preps)
        d = effs[0].shape[0]
        total = sum(effs)
        if not np.abs(total - np.eye(d)).max() <= HERMITIAN_ATOL:
            raise ValidationError("POVM effects do not sum to identity")
        for e in effs:
            if not np.linalg.eigvalsh(e).min() >= -PSD_ATOL:
                raise ValidationError("POVM effect is not PSD")
        for p in preps:
            if not abs(np.trace(p).real - 1.0) <= TRACE_ATOL:
                raise ValidationError("break preparations must be normalized")

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)

    @property
    def n_preparations(self) -> int:
        return len(self.preparations)

    def map(self, outcome: int, preparation: int) -> QuantumMap:
        if not (0 <= outcome < self.n_outcomes
                and 0 <= preparation < self.n_preparations):
            raise ValidationError(
                f"realization ({outcome}, {preparation}) outside "
                f"{self.n_outcomes} outcomes x {self.n_preparations} preparations")
        return QuantumMap.measure_and_prepare(
            self.effects[outcome], self.preparations[preparation])

    @cached_property
    def rows(self) -> Array:
        """Read-only ``contract`` rows, ``map(r, s)``'s at [s, r]."""
        rows = np.array([[self.map(r, s).superoperator.reshape(-1)
                          for r in range(self.n_outcomes)]
                         for s in range(self.n_preparations)])
        rows.setflags(write=False)
        return rows


# ---------------------------------------------------------------------------
# the informationally complete frame: states, causal break, operation basis
# ---------------------------------------------------------------------------

def ic_frame_states(d: int) -> list[Array]:
    """d**2 linearly independent pure-state projectors.

    For d = 2 this is the standard frame {|0>, |1>, |+>, |+i>}; higher
    dimensions extend it with (|j> + |k>)/sqrt(2) and (|j> + i|k>)/sqrt(2).
    """
    if d < 2:
        raise ValidationError("frame requires dimension >= 2")
    kets = [np.eye(d, dtype=complex)[:, j] for j in range(d)]
    for j in range(d):
        for k in range(j + 1, d):
            kets.append((np.eye(d, dtype=complex)[:, j]
                         + np.eye(d, dtype=complex)[:, k]) / np.sqrt(2))
            kets.append((np.eye(d, dtype=complex)[:, j]
                         + 1j * np.eye(d, dtype=complex)[:, k]) / np.sqrt(2))
    return [np.outer(k, k.conj()) for k in kets]


@lru_cache(maxsize=8)
def default_break(d: int) -> CausalBreak:
    """The informationally complete causal break, built once per dimension
    and shared, so its arrays are read-only: the frame projectors squeezed
    into a POVM as effects, the frame states as preparations."""
    projs = ic_frame_states(d)
    w, v = hermitian_eig(sum(projs))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    effects = tuple(inv_sqrt @ p @ inv_sqrt for p in projs)
    return CausalBreak(effects=effects, preparations=tuple(projs))


@dataclass(frozen=True)
class OperationBasis:
    """d**4 linearly independent prepare-and-measure maps with their
    ``contract`` rows, for process tomography and the Markov test."""

    dimension: int
    elements: tuple[QuantumMap, ...]
    rows: Array  # (n, d**4), each element's flattened superoperator
    label: str = "ic-default"

    def __len__(self):
        return len(self.elements)


@lru_cache(maxsize=8)
def ic_basis(d: int) -> OperationBasis:
    """The default informationally complete operation basis, built once
    per dimension and shared, so every array in it is read-only: ``rows``
    and each element's Choi matrix (and, through ``QuantumMap``, each
    representation derived from it).

    Element (mu, nu) at flat index ``mu * d**2 + nu`` is
    X -> tr(Pi_mu X) P_nu built from the frame states. ``rows`` is square;
    the squares of its singular values are those of the frame's Gram
    matrix, and fewer than d**4 of them above FRAME_CUTOFF times the
    largest raise SingularFrame, so ``from_tomography`` can invert it.
    """
    projs = ic_frame_states(d)
    n_frame = len(projs)
    elements = []
    for mu in range(n_frame):
        for nu in range(n_frame):
            elements.append(QuantumMap.measure_and_prepare(projs[mu], projs[nu]))
    rows = np.stack([e.superoperator.reshape(-1) for e in elements])
    gram_svals = np.linalg.svd(rows, compute_uv=False) ** 2
    if (gram_svals > FRAME_CUTOFF * gram_svals.max()).sum() < d ** 4:
        raise SingularFrame("operation frame Gram is rank deficient")
    for a in (rows, *(e.choi for e in elements)):
        a.setflags(write=False)
    return OperationBasis(
        dimension=d,
        elements=tuple(elements),
        rows=rows,
        label=f"ic-default-d{d}",
    )
