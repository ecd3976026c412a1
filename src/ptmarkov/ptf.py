"""PTF1 on-disk format for process tensors.

Layout: one UTF-8 JSON header line terminated by ``\\n``, then a binary
blob of 2 * dim**2 little-endian IEEE-754 doubles (row-major entries,
interleaved real/imaginary). Round-trips are bit exact.

``load`` raises ``FormatError`` unless the tensor is a causal comb:
Hermitian, and PSD and causal within ``PSD_CLIP`` times max(1, |trace|).
A header above the size guard raises ``SweepGuardError`` before the blob
is read.

The same header-plus-blob scheme serializes plain matrix bundles
(``PTF1-mats``), used to supply unitaries for custom models.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .defaults import PSD_CLIP
from .errors import FormatError, PtError

TRACE_CONVENTION = "tp_choi_trace_d"


def _interleave(matrix: np.ndarray) -> bytes:
    return np.asarray(matrix).astype("<c16", copy=False).tobytes()


def _deinterleave(blob: bytes, rows: int, cols: int) -> np.ndarray:
    """Read-only complex view of a blob; every bit, signed zeros included,
    comes back as written."""
    expected = 2 * rows * cols * 8
    if len(blob) != expected:
        raise FormatError(f"blob holds {len(blob)} bytes, expected {expected}")
    return np.frombuffer(blob, dtype="<c16").reshape(rows, cols)


def save(pt, path) -> None:
    header = {
        "format": "PTF1",
        "system_dim": pt.system_dim,
        "k": pt.n_steps,
        "times": list(pt.times),
        "leg_labels": list(pt.legs.labels),
        "leg_dims": list(pt.legs.dims),
        "trace_convention": TRACE_CONVENTION,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(_interleave(pt.choi))


def _read_header(fh, fmt: str) -> dict:
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise FormatError("missing header line")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError("header is not a JSON object")
    if header.get("format") != fmt:
        raise FormatError(f"unsupported format {header.get('format')!r}")
    return header


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load(path):
    from .process_tensor import ProcessTensor, check_tensor_size, leg_labels

    with open(path, "rb") as fh:
        header = _read_header(fh, "PTF1")
        for key in ("system_dim", "k", "times", "leg_dims"):
            if key not in header:
                raise FormatError(f"header missing field {key!r}")
        d = header["system_dim"]
        k = header["k"]
        times = header["times"]
        leg_dims = header["leg_dims"]
        if not _is_int(d) or d < 1:
            raise FormatError(f"system_dim must be a positive integer, got {d!r}")
        if not _is_int(k) or k < 0:
            raise FormatError(f"k must be a nonnegative integer, got {k!r}")
        if not isinstance(times, list) or not all(
                isinstance(t, (int, float)) and not isinstance(t, bool)
                and math.isfinite(t) for t in times):
            raise FormatError(f"times must be a list of finite numbers, "
                              f"got {times!r}")
        if len(times) != k + 1:
            raise FormatError(f"{len(times)} times for k={k}")
        if not isinstance(leg_dims, list) or not all(
                _is_int(n) and n >= 1 for n in leg_dims):
            raise FormatError(f"leg_dims must be a list of positive integers, "
                              f"got {leg_dims!r}")
        if leg_dims != [d] * (2 * k + 1):
            raise FormatError(
                f"leg dims {leg_dims} inconsistent with "
                f"system_dim={d}, k={k}")
        if header.get("leg_labels") != list(leg_labels(k)):
            raise FormatError(
                f"leg labels {header.get('leg_labels')!r} are not the "
                f"k={k} labels {list(leg_labels(k))}")
        if header.get("trace_convention") != TRACE_CONVENTION:
            raise FormatError(
                f"trace convention {header.get('trace_convention')!r} is "
                f"not {TRACE_CONVENTION!r}")
        check_tensor_size(d, k)
        dim = d ** (2 * k + 1)
        choi = _deinterleave(fh.read(), dim, dim)
    if not np.isfinite(choi).all():
        raise FormatError("blob holds non-finite entries")
    try:
        pt = ProcessTensor(choi, d, times)
        tol = PSD_CLIP * max(1.0, abs(pt.trace))
        # the spectrum's full-size temporaries are freed before the
        # contraction forms that the defect caches are built
        min_eig = pt.min_eigenvalue
        defect = pt.causality_defect()
    except (PtError, np.linalg.LinAlgError) as exc:
        raise FormatError(str(exc)) from exc
    # each check passes in its own direction, so a NaN fails it
    if not defect <= tol:
        raise FormatError(f"not a causal comb: causality defect {defect:.3e} "
                          f"exceeds {tol:.1e}")
    if not min_eig >= -tol:
        raise FormatError(f"not positive semidefinite: eigenvalue "
                          f"{min_eig:.3e} below {-tol:.1e}")
    return pt


def save_matrices(path, matrices) -> None:
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    header = {
        "format": "PTF1-mats",
        "count": len(mats),
        "dims": [list(m.shape) for m in mats],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for m in mats:
            fh.write(_interleave(m))


def load_matrices(path) -> list[np.ndarray]:
    """Matrices of a ``PTF1-mats`` bundle; ``FormatError`` unless ``dims``
    lists ``count`` (at least one) pairs of positive integers and the blob
    holds exactly those matrices, all finite."""
    with open(path, "rb") as fh:
        header = _read_header(fh, "PTF1-mats")
        count, dims = header.get("count"), header.get("dims")
        if not (_is_int(count) and isinstance(dims, list)
                and len(dims) == count > 0 and all(
                    isinstance(pair, list) and len(pair) == 2
                    and all(_is_int(n) and n >= 1 for n in pair)
                    for pair in dims)):
            raise FormatError(f"dims must be a nonempty list of "
                              f"count={count!r} pairs of positive integers, "
                              f"got {dims!r}")
        # one read of the whole file, so no header can make it allocate more
        blob = memoryview(fh.read())
    mats, start = [], 0
    for rows, cols in dims:
        stop = start + 2 * rows * cols * 8
        mats.append(_deinterleave(blob[start:stop], rows, cols))
        start = stop
    if start != len(blob):
        raise FormatError("trailing bytes after declared matrices")
    if not all(np.isfinite(m).all() for m in mats):
        raise FormatError("blob holds non-finite entries")
    return mats
