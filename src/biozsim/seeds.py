"""numpy's `SeedSequence` as array arithmetic over a stack of seeds.

`default_rng(SeedSequence(entropy, spawn_key=key))` seeds PCG64 with
`generate_state(4, np.uint64)`: the entropy's 32-bit words hashed into a
pool of four, then hashed out.  `seed_words` runs those same uint32
steps (numpy's hashmix, mix and output hash, with its constants) on every
row of a stack at once, and `SeedWords` hands one row's words to PCG64 as
an `ISeedSequence`, so `default_rng(SeedWords(row))` draws bit for bit
what `default_rng(SeedSequence(...))` draws, with no SeedSequence built.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_POOL = 4
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _constants(init: int, mult: int, n: int) -> tuple:
    """The constants of n successive hash steps, as (n, 1) uint32 columns:
    the running constant each step XORs in, and the next value, which it
    multiplies by."""
    c = [init]
    for _ in range(n):
        c.append(c[-1] * mult & _MASK)
    c = np.array(c, np.uint32)[:, None]
    return c[:-1], c[1:]


def _hash(value, xor, mul):
    value = (value ^ xor) * mul
    return value ^ (value >> 16)


def _mix(x, y):
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ (r >> 16)


def _words(values) -> list:
    """Each value's uint32 words, little end first, as numpy assembles
    entropy: an int is its words (0 is one word), an array of per-row
    values one word per row."""
    words = []
    for v in values:
        if np.ndim(v):
            v = np.asarray(v)
            if v.size and not (0 <= v.min() and v.max() <= _MASK):
                raise ValueError("per-row seed values must lie in 0 .. 2**32 - 1")
            words.append(v)
            continue
        v = operator.index(v)
        if v < 0:
            raise ValueError(f"seed values must be non-negative, got {v}")
        words += [v >> s & _MASK for s in range(0, max(v.bit_length(), 1), 32)]
    return words


def seed_words(entropy, spawn_key) -> np.ndarray:
    """`SeedSequence(entropy, spawn_key=spawn_key).generate_state(4,
    np.uint64)` of every row of a stack, as a (rows, 4) array.

    `entropy` is an int or a sequence of them, and `spawn_key` a sequence;
    each entry is a non-negative int shared by every row, or a 1-D array
    of per-row values below 2**32.  A spawned child's key is its parent's
    key plus its own index, so child r of `SeedSequence(s).spawn(n)[i]` is
    `seed_words(s, (i, r))`.
    """
    entropy = list(entropy) if isinstance(entropy, (list, tuple)) else [entropy]
    rows = max([len(v) for v in [*entropy, *spawn_key] if np.ndim(v)], default=1)
    run, key = _words(entropy), _words(spawn_key)
    if key:  # numpy pads the entropy with zeros to the pool size before a spawn key
        run += [0] * (_POOL - len(run))
    # one row of words per entropy word (zeros, which numpy hashes in place
    # of words the pool has no entropy for, fill it to the pool size)
    words = np.zeros((max(len(run) + len(key), _POOL), rows), np.uint32)
    for i, w in enumerate(run + key):
        words[i] = w

    # numpy's mix_entropy: hash the first words into the pool, hash every
    # pool word into each other one, then each further word into all four;
    # the hash constant runs on through every step in that order.  Within
    # one source word's round the steps are independent, so each round is
    # one array step over the rows it updates.
    xor, mul = _constants(_INIT_A, _MULT_A, _POOL * len(words))
    pool = _hash(words[:_POOL], xor[:_POOL], mul[:_POOL])
    k = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[k : k + 3], mul[k : k + 3]))
        k += 3
    for word in words[_POOL:]:
        pool = _mix(pool, _hash(word, xor[k : k + _POOL], mul[k : k + _POOL]))
        k += _POOL
    # generate_state: eight uint32 words from the pool, cycled, paired
    # little end first into four uint64 words
    state = _hash(np.concatenate([pool, pool]), *_constants(_INIT_B, _MULT_B, 2 * _POOL))
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


class SeedWords(ISeedSequence):
    """A row of `seed_words` as the seed of a PCG64 generator: its four
    uint64 words are the state PCG64 asks for, the only state it asks."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("SeedWords holds PCG64's 4 uint64 words only")
        return self.words


def seed_grid(groups: int, repeats: int, words) -> list:
    """`repeats` seeds for each of `groups` groups of a stack, as
    `SeedWords`, one list per group: `words(k, r)`, given the arrays of
    every row's group k and repeat r (group by group), returns the rows'
    `seed_words`."""
    k, r = np.divmod(np.arange(groups * repeats), repeats)
    rows = [SeedWords(w) for w in words(k, r)]
    return [rows[i : i + repeats] for i in range(0, len(rows), repeats)]
