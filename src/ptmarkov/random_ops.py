"""Seeded random states, channels, and instruments.

Used by the property-style tests and by the CLI when a run configuration
asks for randomly drawn step maps; everything is a pure function of the
supplied generator, so fixed seeds give bitwise-reproducible artifacts.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .linalg import Array
from .qops import Instrument, QuantumMap


def random_unitary(d: int, rng: np.random.Generator) -> Array:
    """Haar-distributed unitary via the QR decomposition of a Ginibre matrix."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_density(d: int, rng: np.random.Generator,
                   rank: int | None = None) -> Array:
    rank = d if rank is None else rank
    a = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = a @ a.conj().T
    return m / np.trace(m).real


def random_cptp(d: int, rng: np.random.Generator,
                kraus_rank: int = 2) -> QuantumMap:
    """Random channel from a Haar isometry (Stinespring with a
    ``kraus_rank``-dimensional ancilla)."""
    a = rng.normal(size=(d * kraus_rank, d)) + \
        1j * rng.normal(size=(d * kraus_rank, d))
    q = np.linalg.qr(a)[0]
    kraus = [q[i * d:(i + 1) * d, :] for i in range(kraus_rank)]
    return QuantumMap.from_kraus(kraus)


@lru_cache(maxsize=8)
def computational_reprepare_instrument(d: int) -> Instrument:
    """Measure in the computational basis and re-prepare the outcome state;
    built once per dimension and shared, so each member's Choi matrix is
    read-only."""
    members = []
    for r in range(d):
        proj = np.zeros((d, d), dtype=complex)
        proj[r, r] = 1.0
        members.append(QuantumMap.measure_and_prepare(proj, proj))
        members[-1].choi.setflags(write=False)
    return Instrument(members=tuple(members),
                      labels=tuple(str(r) for r in range(d)))


def random_control_sequence(d: int, n_slots: int, rng: np.random.Generator,
                            kraus_rank: int = 2) -> list[QuantumMap]:
    return [random_cptp(d, rng, kraus_rank) for _ in range(n_slots)]
