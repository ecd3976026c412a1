"""PTF1 on-disk format for process tensors.

Layout: one UTF-8 JSON header line terminated by ``\\n``, then a binary
blob of 2 * dim**2 little-endian IEEE-754 doubles (row-major entries,
interleaved real/imaginary). Round-trips are bit exact.

``load`` raises ``FormatError`` unless the tensor is a causal comb, by
``process_tensor.checked_comb``, the check ``from_tomography`` runs too.
It checks, in this order, that the entries are finite (read from the
Hermiticity scan, which any non-finite entry fails), that the tensor is
Hermitian, that its trace is finite, and that it is causal, PSD and of
trace d**k (the ``tp_choi_trace_d`` convention), the last three within
``PSD_CLIP`` times max(1, |trace|). A header above the size guard raises
``SweepGuardError`` before the blob is read. The blob's length is checked
against the header with ``os.fstat`` before anything is allocated, and
the blob is then read straight into the read-only array the tensor keeps,
so a load holds it once. A caller that passes a ``hashlib`` object gets
the file's digest from the same read, so the file is read once and the
digest covers exactly the bytes analyzed: the header line is fed to it
first and then the blob. A blob of at least ``THREAD_DIGEST_BYTES`` is fed
on one worker thread while the checks run, and the thread is joined before
``load`` returns or raises; a smaller one is fed inline. There is no
option for either.

The same header-plus-blob scheme serializes plain matrix bundles
(``PTF1-mats``), used to supply unitaries for custom models; their blob is
read the same way, its length checked against the declared ``dims``
before anything is allocated.

Every file written here or by ``ptr`` (PTF1 tensors, ``PTF1-mats``
bundles, the ``ptr analyze`` report, the CSVs) goes through ``_write``. It
rewrites an existing file in place, from offset 0, and then cuts it at the
written length, instead of truncating it first. On an ext4 disk, saving a
K = 4 tensor (4 MiB) over an existing file took a median 3.2 ms through a
truncating open and 0.85 ms in place, and 1.2 ms to a fresh path either
way; a temp file renamed over the old one (``os.replace``) took 4.3 ms, no
faster than the truncate. The final bytes, the mode of an existing file
and the symlinks followed are those of ``open(path, "wb")``, and a command
that fails opens nothing, since each writes only after its work has
succeeded. An exception inside the write leaves the prefix written so far;
a process killed mid-write can leave the new bytes followed by the old
ones. ``load`` refuses a prefix in its size check, and new bytes followed
by old ones in its Hermiticity scan unless the old and new tensors agree
to 1e-8. Nothing is synced to disk.
"""

from __future__ import annotations

import json
import math
import os
import stat
import threading

import numpy as np

from .errors import FormatError
from .process_tensor import (
    TRACE_CONVENTION,
    check_matrix_size,
    checked_comb,
    leg_labels,
)

# Blobs of at least this many bytes are hashed on a worker thread, which
# runs beside the checks because OpenSSL's hashlib releases the GIL on
# buffers over 2 KiB. ``load`` with a SHA-256, minimum of 80 calls, inline
# -> threaded (2-vCPU Xeon, one BLAS thread): 16 KiB (qubit K = 2) 0.25 ->
# 0.38 ms, 256 KiB (qubit K = 3) 1.40 -> 1.37 ms, 923 KiB (qutrit K = 2)
# 3.05 -> 2.71 ms, 4 MiB (qubit K = 4) 14.6 -> 11.9 ms.
THREAD_DIGEST_BYTES = 1 << 19


def _read_blob(fh, rows: int, cols: int) -> np.ndarray:
    """Read-only complex array read straight from the rest of an open
    file, whose size is checked before anything is allocated; every bit,
    signed zeros included, comes back as written."""
    expected = 2 * rows * cols * 8
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if size != expected:
        raise FormatError(f"blob holds {size} bytes, expected {expected}")
    arr = np.empty((rows, cols), dtype="<c16")
    got = fh.readinto(memoryview(arr).cast("B"))
    if got != expected:  # the file shrank after the size check
        raise FormatError(f"blob holds {got} bytes, expected {expected}")
    arr.setflags(write=False)
    return arr


def _write(path, *chunks) -> None:
    """Write the bytes-like ``chunks`` to ``path`` from offset 0 without
    truncating it first, then cut a regular file at the written length,
    also when a write raises; a non-regular target (``/dev/null``, a pipe)
    is not cut. Created files get mode 0o666 less the umask."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        for chunk in chunks:
            view = memoryview(chunk).cast("B")
            while view:
                view = view[os.write(fd, view):]
    finally:
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
        finally:
            os.close(fd)


def save(pt, path) -> None:
    """Write ``pt`` as PTF1. An existing file is rewritten in place and
    cut to length, with the bytes of a save to a fresh path: at K = 4 on
    ext4 this took 0.85 ms against 3.2 ms through a truncating open. An
    interrupted save leaves a prefix, or new bytes followed by old ones,
    and ``load`` refuses both (see the module docstring)."""
    header = {
        "format": "PTF1",
        "system_dim": pt.system_dim,
        "k": pt.n_steps,
        "times": list(pt.times),
        "leg_labels": list(leg_labels(pt.n_steps)),
        "leg_dims": [pt.system_dim] * (2 * pt.n_steps + 1),
        "trace_convention": TRACE_CONVENTION,
    }
    # the array's own buffer, not a bytes copy of it
    _write(path, json.dumps(header, sort_keys=True).encode("utf-8") + b"\n",
           np.ascontiguousarray(pt.choi, dtype="<c16"))


def _read_header(fh, fmt: str, digest=None) -> dict:
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise FormatError("missing header line")
    if digest is not None:
        digest.update(line)
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


class _Feed(threading.Thread):
    """Feeds ``data`` to ``digest.update`` when run, in the calling thread
    (``run``) or its own (``start``), and keeps what that raised for
    ``load`` to raise."""

    def __init__(self, digest, data):
        super().__init__(name="ptf.load digest")
        self.digest, self.data, self.error = digest, data, None

    def run(self):
        try:
            self.digest.update(self.data)
        except BaseException as exc:
            self.error = exc


def load(path, digest=None):
    """The checked tensor of a PTF1 file; ``digest``, a ``hashlib`` object
    if given, is updated with every byte of the file in order. A blob of at
    least ``THREAD_DIGEST_BYTES`` is hashed on one worker thread while the
    checks run; the thread is joined before ``load`` returns or raises, and
    an exception it hit is raised here."""
    with open(path, "rb") as fh:
        header = _read_header(fh, "PTF1", digest)
        for key in ("system_dim", "k", "times", "leg_dims"):
            if key not in header:
                raise FormatError(f"header missing field {key!r}")
        d = header["system_dim"]
        k = header["k"]
        times = header["times"]
        leg_dims = header["leg_dims"]
        if not _is_int(d) or d < 2:
            raise FormatError(f"system_dim must be an integer >= 2, got {d!r}")
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
        dim = d ** (2 * k + 1)
        check_matrix_size(dim, f"{k}-step tensor of dimension {d}")
        choi = _read_blob(fh, dim, dim)
    if digest is None:
        return checked_comb(choi, d, times, FormatError)
    feed = _Feed(digest, choi)
    if choi.nbytes >= THREAD_DIGEST_BYTES:
        feed.start()
    else:
        feed.run()
    try:
        return checked_comb(choi, d, times, FormatError)
    finally:
        if feed.ident is not None:
            feed.join()
        if feed.error is not None:
            raise feed.error


def save_matrices(path, matrices) -> None:
    mats = [np.ascontiguousarray(m, dtype="<c16") for m in matrices]
    header = {
        "format": "PTF1-mats",
        "count": len(mats),
        "dims": [list(m.shape) for m in mats],
    }
    _write(path, json.dumps(header, sort_keys=True).encode("utf-8") + b"\n",
           *mats)


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
        blob = _read_blob(fh, 1, sum(rows * cols for rows, cols in dims))
    if not np.isfinite(blob).all():
        raise FormatError("blob holds non-finite entries")
    mats, start = [], 0
    for rows, cols in dims:
        mats.append(blob[0, start:start + rows * cols].reshape(rows, cols))
        start += rows * cols
    return mats
