"""A fixed reference kernel: how fast the machine runs right now.

The benchmark's machine is a few cores of a shared host, and their speed
drifts by up to 25% over minutes as other tenants come and go, more than
any median within one run removes. The runner times this kernel three
times before the set-ups, three times after them and once after every
repetition. It scales each repetition's time by NOMINAL_S over the mean
of the two kernel times around it, and each set-up's by NOMINAL_S over
the median of the six around the set-ups. A timing metric is then the
time the step would take at the speed the kernel ran at when NOMINAL_S
was measured: a uniform slowdown of the host cancels, and a change in
the program shows in full, because the kernel does not use it.

The kernel mixes, in about equal shares, kinds of work the program does:
c=200-sized matrix products (sampling and training on the default rig),
image-sized gathers and blends (rendering) and a plain Python loop (the
per-call overhead that dominates at tiny shapes). A loop of small matrix
products was tried as well and left out: over 30 s windows its time
moved two to four times as much as any workload's, so it over-corrected.
Its inputs are fixed, not drawn from the workload seed, so it does the
same work in every run.
"""

from __future__ import annotations

import time

import numpy as np

# About the median of `Reference.time()` between repetitions on a shared
# 2-core x86_64 machine (Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31 on
# one thread), so that timings there read close to wall seconds. It sets
# the scale only and never needs to match the machine the benchmark runs on.
NOMINAL_S = 0.08


class Reference:
    """The kernel's inputs and buffers. Every array larger than a few
    kilobytes is allocated here, once: a fresh allocation of that size
    costs page faults or not depending on what the allocator went through
    before, which would make the kernel's time depend on the workload."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((200, 200))
        self.product = np.empty((200, 200))
        self.grid = rng.standard_normal((160 * 160, 2))
        self.image = rng.random((160 * 160, 3))
        self.coords = np.empty((160 * 160, 2))
        self.cells = np.empty((160 * 160, 2), dtype=np.intp)
        self.index = np.empty(160 * 160, dtype=np.intp)
        self.pixels = np.empty((160 * 160, 3))

    def _work(self) -> float:
        acc = 0.0
        for _ in range(70):
            np.matmul(self.a, self.a, out=self.product)
            acc += float(self.product[0, 0])
        for _ in range(52):
            np.multiply(self.grid, 1.01, out=self.coords)
            np.add(self.coords, 80.0, out=self.coords)
            np.clip(self.coords, 0, 159, out=self.coords)
            np.copyto(self.cells, self.coords, casting="unsafe")
            np.multiply(self.cells[:, 0], 160, out=self.index)
            np.add(self.index, self.cells[:, 1], out=self.index)
            np.take(self.image, self.index, axis=0, out=self.pixels)
            np.multiply(self.pixels, 0.5, out=self.pixels)
            np.add(self.pixels, self.image, out=self.pixels)
            acc += float(self.pixels[0, 0])
        n = 0
        for k in range(290_000):
            n += k * k
        return acc + n

    def time(self) -> float:
        """Wall time of one pass of the kernel, in seconds."""
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0
