"""The keyed-stream table: no two streams of a run share a seed pool.

``SeedSequence`` zero-fills a key shorter than its four-word pool, so
two different word lists can seed the same stream.  These tests derive
every purpose's stream over small ranges of seed, round and client and
check that all their pools are distinct, with the data and trait
purposes at the keys their payloads are drawn from.
"""

from __future__ import annotations

import copy
import itertools
import pickle

import numpy as np
import pytest

from repro.streams import PURPOSES, VECTOR_MIN_KEYS, _pcg64_states, key, stream, streams

SEEDS = range(4)
ROUNDS = range(41)
CLIENTS = range(2001)


def _pool(words) -> bytes:
    return np.random.SeedSequence(words).pool.tobytes()


def _key_words(arity: int):
    """Key words after the tag: a one-word key spans rounds and clients
    alike, a two-word key is ``(round, client)``."""
    if arity == 0:
        return [()]
    if arity == 1:
        return [(w,) for w in CLIENTS]
    return itertools.product(ROUNDS, CLIENTS)


def test_no_two_streams_share_a_pool():
    owners: dict[bytes, tuple] = {}
    clashes = []
    for seed in SEEDS:
        # the fleet's class prototypes: a dataset-level, bare-seed stream
        labelled = [(("prototypes", seed), [seed])]
        for purpose, (_, arity) in PURPOSES.items():
            labelled += [
                ((purpose, seed) + words, key(purpose, seed, *words))
                for words in _key_words(arity)
            ]
        for label, words in labelled:
            other = owners.setdefault(_pool(words), label)
            if other != label:
                clashes.append((other, label))
    assert not clashes, f"{len(clashes)} aliased streams, e.g. {clashes[:3]}"


def test_selection_and_system_streams_are_no_client_stream():
    """The two aliases the table removed: the selection stream was client
    0's engine stream, the system stream client 1473's."""
    for seed, round_index in itertools.product(SEEDS, (1, 7, 40)):
        engine = {_pool(key("engine", seed, round_index, c)) for c in (0, 1473)}
        assert _pool(key("selection", seed, round_index)) not in engine
        assert _pool(key("system", seed, round_index)) not in engine


def test_table_layout():
    """Distinct non-zero tags that fit one word, and keys that fit the
    four-word pool (a longer key is mixed in differently)."""
    tags = [tag for tag, _ in PURPOSES.values()]
    assert len(set(tags)) == len(tags)
    assert all(0 < tag < 2**32 for tag in tags)
    assert all(2 + arity <= 4 for _, arity in PURPOSES.values())


# ----------------------------------------------------------------------
# the cohort pass
# ----------------------------------------------------------------------


def _random_prefixes(gen, arity: int, n: int):
    """``n`` random ``(seed, *keys)`` prefixes for a purpose of ``arity``
    (its last key word is the cohort id), with words at both ends."""
    edges = [0, 2**32 - 1]
    words = gen.integers(0, 2**32, size=(n, arity), dtype=np.uint64).tolist()
    return [tuple(w) for w in words] + [tuple([e] * arity) for e in edges]


@pytest.mark.parametrize("purpose", sorted(p for p, (_, arity) in PURPOSES.items() if arity))
@pytest.mark.parametrize("n_ids", [1, VECTOR_MIN_KEYS - 1, VECTOR_MIN_KEYS, 64])
def test_cohort_pass_equals_default_rng(purpose, n_ids):
    """Either side of the crossover, every generator equals
    ``default_rng(key)`` in state and in its first draws."""
    gen = np.random.default_rng([n_ids, len(purpose)])
    arity = PURPOSES[purpose][1]
    for prefix in _random_prefixes(gen, arity, 3):
        seed, keys = prefix[0], prefix[1:]
        ids = [0, 2**32 - 1] + gen.integers(0, 2**32, n_ids, dtype=np.uint64).tolist()
        ids = ids[:n_ids]
        built = streams(purpose, seed, *keys, ids=ids)
        assert len(built) == n_ids
        for client, g in zip(ids, built):
            ref = np.random.default_rng(key(purpose, seed, *keys, client))
            assert g.bit_generator.state == ref.bit_generator.state
            assert g.random(3).tobytes() == ref.random(3).tobytes()
            assert g.integers(0, 2**63, 2).tobytes() == ref.integers(0, 2**63, 2).tobytes()


@pytest.mark.parametrize("n_words", [1, 2, 3, 4])
def test_vectorised_hash_equals_seed_sequence(n_words):
    """The hash behind the pass, at every key length a purpose can have
    (arity-0 purposes included), equals ``SeedSequence``'s state."""
    gen = np.random.default_rng(n_words)
    table = np.zeros((40, 4), dtype=np.uint32)
    table[:, :n_words] = gen.integers(0, 2**32, (40, n_words), dtype=np.uint64)
    table[0, :n_words] = 0
    table[1, :n_words] = 2**32 - 1
    expected = [
        np.random.SeedSequence([int(w) for w in row[:n_words]]).generate_state(4, np.uint64)
        for row in table
    ]
    assert _pcg64_states(table).tobytes() == np.array(expected).tobytes()


def test_cohort_pass_takes_numpy_ids():
    ids = np.arange(40, 40 + 2 * VECTOR_MIN_KEYS, dtype=np.int64)
    built = streams("engine", 3, 5, ids=ids)
    assert [g.bit_generator.state for g in built] == [
        stream("engine", 3, 5, int(c)).bit_generator.state for c in ids
    ]


@pytest.mark.parametrize(
    "call",
    [
        lambda: stream("engine", 0, 1, -1),
        lambda: stream("engine", 0, 1, 2**32),
        lambda: stream("engine", -1, 1, 0),
        lambda: stream("engine", 0, 1),
        lambda: stream("engine", 0, 1, 2, 3),
        lambda: stream("engine", 0, 1, True),
        lambda: stream("engine", 0, 1.0, 2),
        lambda: stream("no-such-purpose", 0),
        lambda: streams("engine", 0, 1, ids=[0, -1]),
        lambda: streams("engine", 0, 1, ids=[2**32] * VECTOR_MIN_KEYS),
        lambda: streams("engine", 0, ids=range(VECTOR_MIN_KEYS)),
        lambda: streams("setup", 0, ids=[0]),
    ],
)
def test_bad_keys_raise(call):
    with pytest.raises(ValueError):
        call()


def test_fast_path_generator_pickles_with_its_state():
    """A checkpoint can hold a fast-path generator: it unpickles (and
    deep-copies) to the same state and the same draws."""
    g = streams("engine", 7, 2, ids=range(VECTOR_MIN_KEYS))[-1]
    g.random(5)
    for copied in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert copied.bit_generator.state == g.bit_generator.state
        assert copied.random(4).tobytes() == copy.deepcopy(g).random(4).tobytes()


def test_fast_path_generators_cannot_spawn():
    g = streams("engine", 7, 2, ids=range(VECTOR_MIN_KEYS))[0]
    with pytest.raises(TypeError):
        g.spawn(1)
