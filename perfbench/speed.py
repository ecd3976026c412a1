"""Speed-normalized timing for a machine whose speed drifts.

On a shared virtual machine the same work can take up to 1.8x longer for
tens of seconds at a time, and CPU time drifts with wall time, so run-to-run
spreads of raw wall times reach 30 %. A `SpeedSampler` interrupts the
process every `INTERVAL_S` with SIGALRM, times a fixed reference kernel
(benchmark code only, so no change to ptmarkov can move it) and keeps the
samples. `scaled(t0, t1)` returns an interval's wall time, minus the
sampler's own time in it, at the speed at which the kernel takes
`NOMINAL_S`, rated by the samples around the interval. That cut the run-to-run
spread of identical work from up to 30 % to about 1-8 %. The
raw wall times are kept next to the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.25
# A typical kernel time on the 2-vCPU box the benchmark was defined on,
# where it ranged from about 8 to 14 ms; scaled seconds read close to that
# box's wall seconds.
NOMINAL_S = 0.011
WINDOW_S = 1.0

# Interpreter work, the tomography sweep's einsum and matrix products at
# 32 x 32 (a 16-dim environment) and at 4 x 4 (a 2-dim environment, where
# the cost is per numpy call rather than per flop), a vectorized
# pairwise-distance block like the causal-break diameter's, and a small
# symmetric eigensolve.
_S4 = np.arange(16, dtype=complex).reshape(2, 2, 2, 2) / 16
_rng = np.random.default_rng(0)
_JOINT = _rng.normal(size=(32, 32)) + 0j
_U = np.linalg.qr(_rng.normal(size=(32, 32)) + 1j * _rng.normal(size=(32, 32)))[0]
_JOINT_SMALL = _rng.normal(size=(4, 4)) + 0j
_U_SMALL = np.linalg.qr(_rng.normal(size=(4, 4)) + 1j * _rng.normal(size=(4, 4)))[0]
_PTS = _rng.normal(size=(1024, 3))
_SYM = _rng.normal(size=(96, 96))
_SYM = _SYM + _SYM.T


def reference_kernel() -> float:
    acc = 0.0
    for i in range(1000):
        acc += (i % 7) * 0.5
    joint = _JOINT
    for _ in range(30):
        t = joint.reshape(2, 16, 2, 16)
        joint = np.einsum("klxy,xayb->kalb", _S4, t).reshape(32, 32)
        joint = _U @ joint @ _U.conj().T
    for _ in range(30):
        # Restarted every 10 steps, so the entries stay far from underflow.
        small = _JOINT_SMALL
        for _ in range(10):
            t = small.reshape(2, 2, 2, 2)
            small = np.einsum("klxy,xayb->kalb", _S4, t).reshape(4, 4)
            small = _U_SMALL @ small @ _U_SMALL.conj().T
        acc += float(small[0, 0].real)
    dist = ((_PTS[:64, None, :] - _PTS[None, :, :]) ** 2).sum(axis=2).max()
    return acc + float(dist) + float(np.linalg.eigvalsh(_SYM)[0])


def _trimmed_mean(values: list[float], cut: float = 0.1) -> float:
    """Mean without the top and bottom ``cut`` share, which drops samples
    the handler itself lost to preemption."""
    v = sorted(values)
    k = int(len(v) * cut)
    return statistics.fmean(v[k:len(v) - k])


def time_kernel(repeats: int = 5) -> tuple[float, float]:
    """Median and total duration of ``repeats`` reference-kernel runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), sum(times)


class SpeedSampler:
    """Context manager that samples the reference kernel's duration."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)  # at least one sample, even for short runs
        return False

    def scaled(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1] minus the sampler's own time in it, at the
        nominal speed. The speed is rated by the samples within WINDOW_S
        of the interval, so that a short interval gets a few."""
        inside = sum(d for s, d in self.samples if t0 <= s < t1)
        near = [d for s, d in self.samples
                if t0 - WINDOW_S <= s < t1 + WINDOW_S] \
            or [d for _, d in self.samples]
        return (t1 - t0 - inside) * NOMINAL_S / _trimmed_mean(near)

    def speed(self) -> float:
        """Mean kernel time relative to nominal (above 1: slower)."""
        return _trimmed_mean([d for _, d in self.samples]) / NOMINAL_S
