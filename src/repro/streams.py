"""Every keyed RNG stream of a run, in one table.

A run never draws from shared-generator call order: each stochastic
choice draws from a fresh ``default_rng`` stream whose key is a pure
function of what the choice is about — the run's seed, the round, the
client.  This module owns those keys.  :func:`stream` builds one
stream of a :data:`PURPOSES` entry; the key is the word list

    ``[seed, tag, *keys]``

with the purpose's tag in word 1 and exactly ``arity`` key words after
it.  ``SeedSequence`` fills a key shorter than its four-word pool with
zeros, so ``[s, r]`` and ``[s, r, 0]`` are the *same* stream; the
layout rules that out:

* tags are distinct and non-zero, so keys of two purposes differ in
  word 1 even after zero-fill;
* keys of one purpose have the same length, so they differ wherever
  their key words differ;
* every word is checked to be an int in ``[0, 2**32)`` — a bigger int
  would be split into several words and could alias again.

The dataset-level streams (each image or text corpus, its partition,
the fleet's class prototypes) are keyed by a bare integer seed: one
word, so word 1 is zero after zero-fill and no tagged key can alias
them.

A cohort's streams
------------------
:func:`streams` builds one stream per client of a cohort.  From
:data:`VECTOR_MIN_KEYS` keys up it does ``SeedSequence``'s work for all
of them at once: the pool mixing and ``generate_state(4, uint64)`` in
vectorised ``uint32`` arithmetic, then one ``PCG64`` per key seeded
from the precomputed state.  The generators equal ``default_rng(key)``
in state and in every draw (``tests/test_streams.py`` checks this, so a
change to ``SeedSequence`` fails loudly instead of drifting).  They
pickle with their state, but cannot ``spawn``.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["PURPOSES", "VECTOR_MIN_KEYS", "key", "stream", "streams"]

#: ``purpose -> (tag, arity)``: the tag sits in word 1 of the key,
#: after the seed, and ``arity`` words follow it.  The data and trait
#: tags are the ones their pinned payload digests were drawn with.
PURPOSES: dict[str, tuple[int, int]] = {
    # the simulation's streams
    "setup": (0x5E7, 0),  # FederatedMethod.setup's generator
    "model_init": (0xBEEF, 0),  # the initial global model
    "selection": (0x5E1EC7, 1),  # (round,): the round's cohort
    "system": (0x5C1, 1),  # (round,): device availability
    "engine": (0xC11E47, 2),  # (round, client): one local round
    # data and device traits
    "fleet_shard": (0xF7EE7, 1),  # (client,): a fleet client's shard
    "test_split": (0x7E57, 0),  # the fleet's test set
    "trace_traits": (0x7ACE, 1),  # (client,): a synthetic trace record
}

_WORD_LIMIT = 1 << 32


def _word(value) -> int:
    """``value`` as one ``SeedSequence`` word, or ``ValueError``."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"stream key words must be ints, got {value!r}")
    if not 0 <= value < _WORD_LIMIT:
        raise ValueError(f"stream key word {value} is outside [0, 2**32)")
    return int(value)


def _tag(purpose: str, n_keys: int) -> int:
    """``purpose``'s tag, once ``n_keys`` is checked against its arity."""
    try:
        tag, arity = PURPOSES[purpose]
    except KeyError:
        raise ValueError(f"unknown stream purpose {purpose!r}") from None
    if n_keys != arity:
        raise ValueError(f"stream {purpose!r} takes {arity} key words, got {n_keys}")
    return tag


def key(purpose: str, seed: int, *keys) -> list[int]:
    """The checked word list of one ``purpose`` stream."""
    return [_word(seed), _tag(purpose, len(keys)), *map(_word, keys)]


def stream(purpose: str, seed: int, *keys) -> np.random.Generator:
    """A fresh generator for one ``purpose`` stream of ``seed``."""
    return np.random.default_rng(key(purpose, seed, *keys))


#: Fewest keys :func:`streams` hashes in one vectorised pass; below it,
#: ``default_rng`` per key is cheaper.  Measured on a 2-core x86-64 host
#: (numpy 2.4.6, best of 5 x 400 calls of 4-word keys): the pass costs
#: 0.10–0.13 ms up to 16 keys and 0.79 ms for 200, where ``default_rng``
#: per key costs 13–14 µs a key (0.105 ms for 8 keys, 0.133 ms for 10,
#: 3.0 ms for 200), so the two cross between 8 and 10 keys.  Fig. 7's
#: 3-client cohorts stay per key; the fleet's 200-client cohorts take
#: the pass.
VECTOR_MIN_KEYS = 10

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _hash_steps(init: int, mult: int, n: int) -> list[tuple[np.uint32, np.uint32]]:
    """``(xor, multiplier)`` of ``n`` successive hash calls.  The running
    hash constant never depends on the data, so all keys share them."""
    steps, const = [], init
    for _ in range(n):
        nxt = (const * mult) & 0xFFFFFFFF
        steps.append((np.uint32(const), np.uint32(nxt)))
        const = nxt
    return steps


# the pool takes one hash per word, then one per ordered pair of words
_MIX_STEPS = _hash_steps(_INIT_A, _MULT_A, _POOL_WORDS * _POOL_WORDS)
# generate_state(4, uint64) hashes eight uint32 words out of the pool
_STATE_STEPS = _hash_steps(_INIT_B, _MULT_B, 2 * _POOL_WORDS)


def _hashed(words: np.ndarray, step) -> np.ndarray:
    out = words ^ step[0]
    out *= step[1]
    out ^= out >> _SHIFT
    return out


def _pcg64_states(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(key).generate_state(4, np.uint64)`` for each row of
    a zero-padded ``(n, 4)`` ``uint32`` key table."""
    steps = iter(_MIX_STEPS)
    pool = [_hashed(words[:, i], next(steps)) for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                mixed = _MIX_L * pool[dst]
                mixed -= _MIX_R * _hashed(pool[src], next(steps))
                mixed ^= mixed >> _SHIFT
                pool[dst] = mixed
    state = np.empty((words.shape[0], 2 * _POOL_WORDS), dtype=np.uint32)
    for i, step in enumerate(_STATE_STEPS):
        state[:, i] = _hashed(pool[i % _POOL_WORDS], step)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _PresetState(ISeedSequence):
    """Hands ``PCG64`` one precomputed ``generate_state(4, uint64)``."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a preset stream state serves PCG64 seeding only")
        return self.state


def streams(purpose: str, seed: int, *keys, ids) -> list[np.random.Generator]:
    """``[stream(purpose, seed, *keys, i) for i in ids]``, built at once.

    ``ids`` fill the purpose's last key word.  At :data:`VECTOR_MIN_KEYS`
    or more ids the keys are hashed in one vectorised pass.
    """
    prefix = [_word(seed), _tag(purpose, len(keys) + 1), *map(_word, keys)]
    words = [_word(i) for i in ids]
    if len(words) < VECTOR_MIN_KEYS:
        return [np.random.default_rng(prefix + [w]) for w in words]
    table = np.zeros((len(words), _POOL_WORDS), dtype=np.uint32)
    table[:, : len(prefix)] = prefix
    table[:, len(prefix)] = words
    return [
        np.random.Generator(np.random.PCG64(_PresetState(state)))
        for state in _pcg64_states(table)
    ]
