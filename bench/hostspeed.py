"""Host-speed reference for the gated times.

On a shared host the CPU runs up to 1.7 times slower for seconds to minutes
at a time, and every operation slows with it: raw wall times of one commit
spread by a quarter or more between runs. So the benchmark times a fixed
numpy kernel next to the work it measures and scales each wall time ``t`` to
``t * REFERENCE_MS / kernel_ms``, the time the work would have taken on a
host where the kernel takes ``REFERENCE_MS``. The kernel uses numpy only and
no warpdet code, so a change to warpdet moves a scaled time as it moves the
wall time.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's time on an idle 2-vCPU x86-64 VM with numpy 2.4, so that
# scaled times read close to wall times on such a host.
REFERENCE_MS = 1.0


class HostSpeed:
    """A fixed gather, matrix product and Python loop, like the workloads'."""

    def __init__(self):
        rng = np.random.default_rng(0)
        c, k, n = 8, 5, 26  # im2col of a (8, 30, 30) map with 5x5 patches
        self.x = rng.standard_normal((c, n + k - 1, n + k - 1))
        self.w = rng.standard_normal((12, c * k * k))
        self.chan = np.repeat(np.arange(c), k * k)[:, None]
        self.rows = np.tile(np.repeat(np.arange(k), k), c)[:, None] + np.repeat(np.arange(n), n)
        self.cols = np.tile(np.tile(np.arange(k), k), c)[:, None] + np.tile(np.arange(n), n)
        self.v = rng.standard_normal(64)
        self.idx = rng.integers(0, 64, 16)

    def _kernel(self) -> float:
        total = float((self.w @ self.x[self.chan, self.rows, self.cols]).sum())
        for _ in range(100):
            total += float(self.v[self.idx].sum())
        return total

    def kernel_ms(self) -> float:
        """Best of three timings of the kernel, in ms."""
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - start)
        return best * 1000.0

    def scale(self, before_ms: float, after_ms: float) -> float:
        """Factor from wall time to scaled time for work done between two
        kernel timings."""
        return 2.0 * REFERENCE_MS / (before_ms + after_ms)
