"""Reverse-chain step noise drawn ahead in a forked helper process.

Drawing a chain's Philox normals is about half of sampling on the
default rig, and it depends on nothing the denoiser computes. A
NoiseRing forks one helper that draws each requested chain's step blocks
(rng.step_block of StepNoise(seed) for every seed, steps T..1, the
values an in-process chain draws) while the parent denoises, and hands
them over through a ring of SLOTS page-aligned slots in an anonymous
shared mmap made before the fork. Three pipes carry the rest: chain
requests (seeds, rows) to the helper, one byte per ready slot to the
parent, and one byte per freed slot back.

The parent holds one slot at a time, the block it took last, and frees
it when it takes the next. The helper blocks only on these pipes and
leaves when the parent closes them or dies; close() waits for it, so no
helper outlives the ring.
"""

from __future__ import annotations

import mmap
import os
import pickle

import numpy as np

from .errors import InvalidArgumentError
from .rng import StepNoise, step_block
from .workers import fork_call, join, usable_cores

SLOTS = 4  # a chain's whole noise would raise the parent's peak memory

# A call that draws fewer normals keeps its noise in-process. Drawing 10^6
# normals takes about 17 ms on one core. Forking and joining a helper
# takes about 2 ms, each chain waits for its first block, and every block
# costs a pipe round trip, as long as drawing a small block (640 normals
# at c = 8) takes; below this the helper would save a few ms at best.
HELPER_NORMALS = 1_000_000


def use_helper(normals: int) -> bool:
    """Whether a call that draws `normals` step normals in all gets a
    helper: at least HELPER_NORMALS of them, and a second usable core."""
    return normals >= HELPER_NORMALS and usable_cores() >= 2


class NoiseRing:
    """The parent's end of one helper; `blocks` is the feed that
    diffusion.sample and sample_heads take. Close it (or use it as a
    context manager) to end the helper."""

    def __init__(self, n_steps: int, channels: int, rows: int):
        """A ring for chains of n_steps steps over `channels` channels,
        none stacking more than `rows` rows."""
        self._n_steps, self._channels = n_steps, channels
        page = mmap.PAGESIZE
        self._slot_bytes = -(-rows * channels * 8 // page) * page
        self._mem = mmap.mmap(-1, SLOTS * self._slot_bytes)
        self._taken = 0
        self._error = None
        req_r, self._req_w = os.pipe()
        self._ready_r, ready_w = os.pipe()
        free_r, self._free_w = os.pipe()
        mine = (self._req_w, self._ready_r, self._free_w)
        try:
            self._pid, self._report = fork_call(
                _serve, self._mem, self._slot_bytes, n_steps, channels,
                req_r, ready_w, free_r, mine)
        except BaseException:
            for fd in mine:
                os.close(fd)
            raise
        finally:
            for fd in (req_r, ready_w, free_r):
                os.close(fd)

    def blocks(self, seeds, rows: int):
        """The n_steps step blocks of one chain, (len(seeds) * rows, C)
        each, steps T..1. Each is a view of a slot, valid until the next
        block is taken. A chain takes all its blocks before the next
        chain's first."""
        shape = (len(seeds) * rows, self._channels)
        if shape[0] * shape[1] * 8 > self._slot_bytes:
            raise InvalidArgumentError(f"a {shape} block does not fit the ring's slots")
        self._send(pickle.dumps((list(seeds), rows)))
        for _ in range(self._n_steps):
            yield self._take(shape)

    def _send(self, request: bytes) -> None:
        view = memoryview(request)
        try:
            while view:
                view = view[os.write(self._req_w, view):]
        except OSError:
            raise self._failure() from None

    def _take(self, shape) -> np.ndarray:
        try:
            if self._taken:
                os.write(self._free_w, b"\0")
            ready = os.read(self._ready_r, 1)
        except OSError:
            ready = b""
        if not ready:
            raise self._failure()
        offset = self._taken % SLOTS * self._slot_bytes
        self._taken += 1
        return np.ndarray(shape, np.float64, self._mem, offset)

    def _failure(self) -> BaseException:
        """The helper is gone before its last block: end the ring and
        return what it failed with."""
        return self.close() or OSError(
            f"noise helper {self._pid} ended before its last block")

    def close(self):
        """Close the pipes, wait for the helper and let the ring go (it is
        unmapped when no block view is left); returns the exception the
        helper failed with, or None. Closing again returns it again."""
        if self._mem is not None:
            for fd in (self._req_w, self._ready_r, self._free_w):
                os.close(fd)
            self._mem = None
            self._error = join(self._pid, self._report, "noise helper")
        return self._error

    def __enter__(self) -> "NoiseRing":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        error = self.close()
        if error is not None and exc_type is None:
            raise error


def _serve(mem, slot_bytes: int, n_steps: int, channels: int,
           req_r: int, ready_w: int, free_r: int, parents: tuple) -> None:
    """The helper: serve chain requests in order until the parent closes
    the pipes. It writes a block only into a slot the parent has freed,
    SLOTS of them at first."""
    for fd in parents:  # the parent's ends: their closing must reach us
        os.close(fd)
    requests = os.fdopen(req_r, "rb")
    free, written = SLOTS, 0
    try:
        while True:
            try:
                seeds, rows = pickle.load(requests)
            except EOFError:
                return
            noise = [StepNoise(s) for s in seeds]
            shape = (len(noise) * rows, channels)
            for step in range(n_steps, 0, -1):
                if not free:
                    freed = os.read(free_r, SLOTS)
                    if not freed:
                        return
                    free += len(freed)
                offset = written % SLOTS * slot_bytes
                step_block(noise, step, np.ndarray(shape, np.float64, mem, offset))
                os.write(ready_w, b"\0")
                free, written = free - 1, written + 1
    except BrokenPipeError:  # the parent closed its end of the ready pipe
        return
