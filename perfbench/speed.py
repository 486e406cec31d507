"""Machine-speed calibration for timings taken on a shared host.

On a host shared with other machines' work, the speed of the same code
drifts by more than half within minutes, far beyond any useful bound.  So
after every op the benchmark times a fixed kernel: Python-level loops and
small NumPy calls, the instruction mix of quadfree's hot paths.  It runs
once per started 25 ms of the op, at most 16 times.  Each op's latency is
multiplied by ``NOMINAL_S`` over the median kernel time of the nearest ops
on both sides holding at least 32 kernel samples, which reports it at the
speed where the kernel takes exactly 1 ms.  The raw wall-clock figures are
printed next to the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 1e-3
_SAMPLE_EVERY_S = 0.025
_MAX_SAMPLES = 16
_MIN_WINDOW = 32
_A = np.linspace(-1.0, 1.0, 64).reshape(8, 8)


def kernel() -> float:
    acc = 0.0
    for i in range(80):
        rows = _A[[i % 8, (i + 3) % 8], :]
        acc += float(np.linalg.norm(rows @ _A[:, :2]))
        for j in range(24):
            acc += (i * j) % 7 * 0.5
    return acc


def timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def sample_after(latency_s: float) -> list:
    """Kernel times taken after an op that ran ``latency_s`` seconds."""
    count = min(_MAX_SAMPLES, 1 + int(latency_s / _SAMPLE_EVERY_S))
    return [timed_kernel() for _ in range(count)]


def factors(samples) -> np.ndarray:
    """Per op: NOMINAL_S / median kernel time over the ops i − h … i + h,
    with h ≥ 1 the smallest that holds ``_MIN_WINDOW`` samples."""
    n = len(samples)
    out = np.empty(n)
    for i in range(n):
        h = 1
        while True:
            window = [t for s in samples[max(0, i - h) : i + h + 1] for t in s]
            if len(window) >= _MIN_WINDOW or h >= n:
                break
            h += 1
        out[i] = NOMINAL_S / np.median(window)
    return out
