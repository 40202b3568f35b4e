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
form's per-element coercion in Python.  ``SeedSequence`` hashes a key of
fewer than 4 words as its zero-padded form, so appending zero words to such
a key gives the same stream: ``(s, 9002, 1001)`` and ``(s, 9002, 1001, 0)``
are one stream.

``stream`` builds one key's generator and is the reference.  A family of
keys that differ in one element, such as a run's batch streams, one per
round and step, or a population's device streams, is seeded in one array
pass instead: ``family_states`` runs ``SeedSequence``'s hash on
uint32 arrays and gives each key's PCG64 seed, and ``generator`` turns one
into the generator ``stream`` gives for that key, bit for bit.
"""

from __future__ import annotations

import functools

import numpy as np

# role tags that end a stream key
ROLE_BATCH = 1000
ROLE_SELECT = 1001
ROLE_ENV = 1002
ROLE_ALLOC = 1003

_MASK = 0xFFFFFFFF

# numpy's SeedSequence constants: a pool of 4 words and its hashes' multipliers
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _key_words(key) -> list[int]:
    """The key's 32-bit words, each element little-endian; ValueError on a negative one."""
    words = []
    for k in key:
        k = int(k)
        if k < 0:
            raise ValueError(f"stream key elements must be non-negative, got {k}")
        words.append(k & _MASK)
        while k > _MASK:
            k >>= 32
            words.append(k & _MASK)
    return words


def stream(*key: int) -> np.random.Generator:
    """Return a generator keyed to the given tuple of non-negative integers."""
    if not key:
        raise ValueError("stream key must be nonempty")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        np.array(_key_words(key), np.uint32))))


def _constants(first: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A hash's n (xor, multiplier) pairs: the running constant before and after each step."""
    c = [first]
    for _ in range(n):
        c.append(c[-1] * mult & _MASK)
    return np.array(c[:-1], np.uint32), np.array(c[1:], np.uint32)


@functools.cache
def _pool_constants(words: int) -> tuple[np.ndarray, np.ndarray]:
    # one hashmix per pool word, 3 per ordered pair of pool words, 4 per word past the pool
    return _constants(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1)
                      + _POOL * max(words - _POOL, 0))


_OUT_XOR, _OUT_MUL = _constants(_INIT_B, _MULT_B, 2 * _POOL)
_OTHERS = [[d for d in range(_POOL) if d != s] for s in range(_POOL)]


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mul
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` of each row of uint32 words, (R, 4).

    numpy's algorithm, one pool column at a time over all rows: the first 4
    words (zero-padded) are hashed into the pool, every pool word is mixed
    into every other, each word past the pool is mixed into all four, and
    the pool is hashed out to 8 words read as 4 little-endian uint64.
    """
    words = entropy.shape[1]
    xor, mul = _pool_constants(words)
    pool = np.zeros((entropy.shape[0], _POOL), np.uint32)
    pool[:, :min(words, _POOL)] = entropy[:, :_POOL]
    pool = _hashmix(pool, xor[:_POOL], mul[:_POOL])
    j = _POOL
    for src, dst in enumerate(_OTHERS):
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], xor[j:j + 3], mul[j:j + 3]))
        j += 3
    for src in range(_POOL, words):
        pool = _mix(pool, _hashmix(entropy[:, src, None], xor[j:j + _POOL], mul[j:j + _POOL]))
        j += _POOL
    out = _hashmix(np.tile(pool, 2), _OUT_XOR, _OUT_MUL)
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def family_states(prefix: tuple, index, suffix: tuple = ()) -> np.ndarray:
    """The PCG64 seeds of the keys ``(*prefix, i, *suffix)`` for each i of ``index``, (R, 4) uint64.

    Row r equals ``np.random.SeedSequence(words).generate_state(4, np.uint64)``
    for key r's words, as ``stream`` splits them, so ``generator(row)`` is
    ``stream(*key)`` bit for bit.  An index of 2**32 or more is two words,
    so those keys are seeded apart from the others.  ValueError on a
    negative element.
    """
    index = np.asarray(index)
    if index.ndim != 1 or index.dtype.kind not in "iu":
        raise ValueError(f"a key family needs a 1-D integer index, got {index.dtype} "
                         f"of shape {index.shape}")
    if index.size and index.min() < 0:
        raise ValueError(f"stream key elements must be non-negative, got {index.min()}")
    head, tail = _key_words(prefix), _key_words(suffix)
    i = index.astype(np.uint64)
    low = (i & _MASK).astype(np.uint32)[:, None]
    wide = i > _MASK

    def seed(cols):
        entropy = np.empty((cols.shape[0], len(head) + cols.shape[1] + len(tail)), np.uint32)
        entropy[:, :len(head)] = head
        entropy[:, len(head):len(head) + cols.shape[1]] = cols
        entropy[:, len(head) + cols.shape[1]:] = tail
        return _states(entropy)

    if not wide.any():
        return seed(low)
    out = np.empty((i.size, 4), np.uint64)
    out[~wide] = seed(low[~wide])
    out[wide] = seed(np.column_stack([low[wide], (i[wide] >> 32).astype(np.uint32)]))
    return out


@functools.cache
def _seeded() -> type:
    """The seed sequence that hands PCG64 a seed ``family_states`` computed.

    Defined at first use: importing this module leaves ``numpy.random``
    unloaded until a stream is made, as ``stream`` alone does.
    """

    class Seeded(np.random.bit_generator.ISeedSequence):
        __slots__ = ("state",)

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for 4 uint64 words once, at construction
            return self.state

    return Seeded


def generator(state: np.ndarray) -> np.random.Generator:
    """The PCG64 generator of one ``family_states`` row: ``stream`` of that row's key."""
    return np.random.Generator(np.random.PCG64(_seeded()(state)))

