"""Seeded random generators with a counter-based engine.

Every stochastic operation in the package draws from a generator built
here, so a fixed seed yields the same stream regardless of how work is
batched or threaded. Philox is counter-based, which is what makes that
guarantee cheap to keep: StepNoise sets the counter to jump straight to
one reverse step's noise.

Every package key ends in a nonzero tag naming its stream's purpose,
from the table below. SeedSequence pads a key shorter than four words
with zeros, so a key ending in 0 is also every shorter key: (seed, 1, 0)
is (seed, 1). Two keys that end in nonzero words are one key only if
they are one tuple, so distinct tags keep purposes apart.
"""

from __future__ import annotations

import numpy as np

# the last seed part of each package key; seed may be an int or a tuple
MOTION_TAG = 0x4D4F544E  # "MOTN": synth_sequence, (seed, index, MOTION_TAG)
AUDIO_TAG = 0xA0D1  # synth_condition, (seed, AUDIO_TAG)
INIT_TAG = 0xD1FF  # MlpDenoiser weights, (seed, INIT_TAG)
BATCH_TAG = 1  # train_denoiser minibatches, (seed, BATCH_TAG)
PROBE_TAG = 2  # train_denoiser probe batch, (seed, PROBE_TAG)
NOISE_TAG = 0x4E4F4953  # "NOIS": every StepNoise key, (seed, NOISE_TAG)


def generator(*seed_parts) -> np.random.Generator:
    """Build a Generator from one or more integer seed components.

    The same tuple always yields the same stream, read in order from
    counter 0. Multi-part seeds are how derived streams (per sequence,
    per purpose) stay apart without coordination. Tuple components are
    flattened, so a caller's seed may be an int or a tuple:
    generator((1, 2), 3) is generator(1, 2, 3).
    """
    parts = [int(q) for p in seed_parts
             for q in (p if isinstance(p, tuple) else (p,))]
    if not parts:
        raise ValueError("at least one seed component is required")
    seq = np.random.SeedSequence(parts)
    return np.random.Generator(np.random.Philox(seq))


class StepNoise:
    """Standard normals of one diffusion draw, keyed by (seed, step).

    The Philox key is generator(seed, NOISE_TAG)'s, so sampling keys
    have a space of their own. Before each draw the 4-word counter is set
    to (0, step, 0, 0): word 0 runs within the step, word 1 holds it.
    A step's (rows, C) normals are therefore the first rows of its
    (m, C) normals, and no step reads another's words (that would take
    2^64 blocks). Steps start at 1, so a sequential generator on the same
    key, whose counter is (n, 0, 0, 0), never reads a step's words.
    """

    def __init__(self, seed):
        self._gen = generator(seed, NOISE_TAG)
        # counter 0 and an empty buffer: the first word after each reset
        # comes from the step's own counter
        self._state = self._gen.bit_generator.state

    def normals(self, step: int, shape) -> np.ndarray:
        self._state["state"]["counter"][1] = step
        self._gen.bit_generator.state = self._state
        return self._gen.standard_normal(shape)
