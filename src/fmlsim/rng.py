"""Keyed RNG streams.

Every random draw in the simulator comes from a stream derived from an
integer key tuple.  The local updates of round k draw, for each local step,
every device's three batches from one stream keyed (seed, k, step,
ROLE_BATCH), unless every batch is its device's full dataset: that step
draws nothing, and its stream is never created.  Selection, allocation and
the environment have streams of their own.  Streams are independent of each
other and of execution order, so outputs are a pure function of (config,
seed).
"""

from __future__ import annotations

import numpy as np

# role tags that end a stream key
ROLE_BATCH = 1000
ROLE_SELECT = 1001
ROLE_ENV = 1002
ROLE_ALLOC = 1003


def stream(*key: int) -> np.random.Generator:
    """Return a generator keyed to the given integer tuple."""
    if not key:
        raise ValueError("stream key must be nonempty")
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))
