"""Scratch buffers that one render reuses for every frame.

A render warps one source image through a new flow per frame, and every
frame needs the same image-sized arrays. The render loop makes one
`Workspace` and hands it to each layer (TPS grid evaluation, the flow
blend, the upsample, the warp and the PPM quantiser), which take their
buffers from it by name. The first frame sizes the buffers; every later
frame writes into the same memory, so a frame allocates no image-sized
array. A layer called without a workspace makes a fresh one, which is
the same code path with buffers that live for that call only.
"""

from __future__ import annotations

import numpy as np


class Workspace:
    """Named buffers, made on first request and then reused.

    `get` returns the same array for a name as long as the shape and
    dtype asked for stay the same, and a new one otherwise. Contents are
    not cleared between requests: each layer writes every element it
    later reads, so no frame sees values from the frame before it.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def get(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        shape = tuple(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty(shape, dtype)
        return buf
