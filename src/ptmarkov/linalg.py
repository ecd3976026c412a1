"""Dense complex linear-algebra primitives shared by every other module.

Operators are numpy ``complex128`` arrays in row-major layout. One global
convention holds throughout the package: in every Kronecker product the
first factor's indices vary slowest, i.e. ``tensor_product(a, b)`` places
``a`` on the leftmost leg.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np

from .defaults import HERMITIAN_ATOL, PSD_ATOL
from .errors import DimensionMismatch, NotHermitian, NotPositive, ValidationError

Array = np.ndarray


def as_operator(m) -> Array:
    """Coerce to a complex128 square matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def _split_legs(m: Array, dims: Sequence[int]) -> Array:
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    m = as_operator(m)
    if m.shape[0] != total:
        raise DimensionMismatch(
            f"matrix dimension {m.shape[0]} does not match leg dims {dims}"
        )
    return m.reshape(dims + dims)


def tensor_product(*ops) -> Array:
    """Kronecker product with the first operand's indices slowest-varying."""
    mats = [np.asarray(op, dtype=complex) for op in ops]
    return reduce(np.kron, mats)


def partial_trace(m: Array, dims: Sequence[int],
                  keep: Sequence[int]) -> Array:
    """Trace out all legs not listed in ``keep``; ``dims`` are the leg
    dimensions, slowest-varying leg first.

    Kept legs stay in their original relative order. ``keep`` may be empty,
    in which case the full trace is returned as a 1x1 matrix.
    """
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise DimensionMismatch(f"keep={keep} out of range for {n} legs")
    t = _split_legs(m, dims)
    row = list(range(n))
    col = [i + n if i in keep else i for i in range(n)]
    out = [i for i in keep] + [i + n for i in keep]
    res = np.einsum(t, row + col, out)
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return res.reshape(d_keep, d_keep)


def permute_legs(m: Array, dims: Sequence[int],
                 perm: Sequence[int]) -> Array:
    """Reorder tensor factors: new leg ``i`` is old leg ``perm[i]``."""
    n = len(dims)
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(n)):
        raise ValidationError(f"{perm} is not a permutation of {n} legs")
    t = _split_legs(m, dims)
    order = perm + [p + n for p in perm]
    new_dim = int(np.prod(dims))
    return t.transpose(order).reshape(new_dim, new_dim)


def hermitize(m: Array, atol: float = HERMITIAN_ATOL) -> Array:
    """Symmetrize m/2 + m†/2 after checking the asymmetry is within atol;
    a NaN or infinite entry fails the check. Halving before the sum keeps
    the mean of finite entries finite."""
    m = as_operator(m)
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.abs(m - m.conj().T).max()
    if not defect <= atol:
        raise NotHermitian(f"asymmetry {defect:.3e} exceeds tolerance {atol:.1e}")
    return m / 2 + m.conj().T / 2


def hermitian_eig(m: Array) -> tuple[Array, Array]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ascending real eigenvalues and the unitary eigenvector matrix.
    """
    w, v = np.linalg.eigh(hermitize(m))
    return w, v


def trace_norm_distance(a: Array, b: Array) -> float:
    """Sum of singular values of (a - b)."""
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.linalg.svd(a - b, compute_uv=False).sum())


def sqrtm_psd(m: Array) -> Array:
    """Principal square root of a PSD Hermitian matrix."""
    w, v = hermitian_eig(m)
    if w.min() < -PSD_ATOL:
        raise NotPositive(f"eigenvalue {w.min():.3e} below -{PSD_ATOL:.1e}")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def fidelity(a: Array, b: Array) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(a) b sqrt(a)))**2 of two states."""
    sa = sqrtm_psd(a)
    w = np.linalg.eigvalsh(sa @ as_operator(b) @ sa)
    return float(np.sqrt(np.clip(w, 0.0, None)).sum() ** 2)
