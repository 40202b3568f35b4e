"""Keyed RNG streams.

Every random draw in the simulator comes from a stream derived from an
integer key tuple.  The local updates of round k draw, for each local step,
every device's three batches from one stream keyed (seed, k, step,
ROLE_BATCH), unless every batch is its device's full dataset: that step
draws nothing, and its stream is never created.  Selection, allocation and
the environment have streams of their own.  Streams are independent of each
other and of execution order, so outputs are a pure function of (config,
seed).

A stream's ``SeedSequence`` is built from the key's 32-bit words, each
element split little-endian as ``SeedSequence`` splits a Python int (0 is
the single word 0), so a key gives the same state and draws as
``np.random.default_rng(np.random.SeedSequence(list(key)))``, without that
form's per-element coercion in Python.
"""

from __future__ import annotations

import numpy as np

# role tags that end a stream key
ROLE_BATCH = 1000
ROLE_SELECT = 1001
ROLE_ENV = 1002
ROLE_ALLOC = 1003


def stream(*key: int) -> np.random.Generator:
    """Return a generator keyed to the given tuple of non-negative integers."""
    if not key:
        raise ValueError("stream key must be nonempty")
    words = []
    for k in key:
        k = int(k)
        if k < 0:
            raise ValueError(f"stream key elements must be non-negative, got {k}")
        words.append(k & 0xFFFFFFFF)
        while k > 0xFFFFFFFF:
            k >>= 32
            words.append(k & 0xFFFFFFFF)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.array(words, np.uint32))))
