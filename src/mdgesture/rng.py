"""Seeded random generators with a counter-based engine.

Every stochastic operation in the package draws from a generator built
here, so a fixed seed yields the same stream regardless of how work is
batched or threaded. Philox is counter-based, which is what makes that
guarantee cheap to keep.
"""

from __future__ import annotations

import numpy as np


def generator(*seed_parts) -> np.random.Generator:
    """Build a Generator from one or more integer seed components.

    The same tuple always yields the same stream. Multi-part seeds are how
    derived streams (per segment, per candidate) stay collision-free
    without coordination. Tuple components are flattened, so a caller's
    seed may be an int or a tuple: generator((1, 2), 3) is generator(1, 2, 3).
    """
    parts = [int(q) for p in seed_parts
             for q in (p if isinstance(p, tuple) else (p,))]
    if not parts:
        raise ValueError("at least one seed component is required")
    seq = np.random.SeedSequence(parts)
    return np.random.Generator(np.random.Philox(seq))
