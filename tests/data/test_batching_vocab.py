"""Tests for batching and vocabulary utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.batching import (
    ImageBatcher,
    SequenceBatcher,
    eval_image_batches,
    eval_sequence_batches,
)
from repro.data.vocab import Vocabulary


def _lone_image(x, y, batch_size, rng) -> ImageBatcher:
    """A stack of one client owning every row, labels in ``[0, 10)``."""
    return ImageBatcher(x, y, [0], [x.shape[0]], batch_size, [rng], n_classes=10)


def _lone_sequence(stream, batch_size, seq_len, rng) -> SequenceBatcher:
    return SequenceBatcher(stream, [0], [stream.shape[0]], batch_size, seq_len, [rng])


class TestImageBatcher:
    def test_batch_shapes(self, rng):
        x = rng.normal(size=(50, 8))
        y = rng.integers(0, 3, size=50)
        b = _lone_image(x, y, 16, rng)
        bx, by = b.next_batch()
        assert bx.shape == (1, 16, 8) and by.shape == (1, 16)

    def test_batch_clamped_to_shard(self, rng):
        b = _lone_image(rng.normal(size=(5, 4)), np.zeros(5, dtype=int), 20, rng)
        bx, _ = b.next_batch()
        assert bx.shape[1] == 5

    def test_no_duplicates_within_batch(self, rng):
        x = np.arange(40, dtype=float)[:, None]
        b = _lone_image(x, np.zeros(40, dtype=int), 20, rng)
        bx, _ = b.next_batch()
        assert len(np.unique(bx)) == 20

    def test_mismatched_lengths(self, rng):
        with pytest.raises(ValueError):
            _lone_image(np.zeros((3, 2)), np.zeros(4, dtype=int), 2, rng)

    def test_empty_shard(self, rng):
        with pytest.raises(ValueError):
            _lone_image(np.zeros((0, 2)), np.zeros(0, dtype=int), 2, rng)

    def test_n_samples(self, rng):
        b = _lone_image(np.zeros((9, 2)), np.zeros(9, dtype=int), 2, rng)
        assert b.n_samples.tolist() == [9]


class TestSequenceBatcher:
    def test_target_is_shifted_input(self, rng):
        stream = np.arange(200)
        b = _lone_sequence(stream, 4, 10, rng)
        x, y = b.next_batch()
        np.testing.assert_array_equal(y, x + 1)

    def test_shapes(self, rng):
        b = _lone_sequence(np.arange(100), 5, 7, rng)
        x, y = b.next_batch()
        assert x.shape == (1, 5, 7) and y.shape == (1, 5, 7)

    def test_stream_too_short(self, rng):
        with pytest.raises(ValueError):
            _lone_sequence(np.arange(5), 2, 10, rng)

    def test_windows_in_bounds(self, rng):
        stream = np.arange(30)
        b = _lone_sequence(stream, 8, 5, rng)
        for _ in range(20):
            x, y = b.next_batch()
            assert y.max() <= 29


class TestEvalIterators:
    def test_image_eval_covers_all(self):
        x = np.arange(23, dtype=float)[:, None]
        y = np.arange(23)
        seen = sum(len(by) for _, by in eval_image_batches(x, y, batch_size=5))
        assert seen == 23

    def test_sequence_eval_non_overlapping(self):
        stream = np.arange(100)
        windows = list(eval_sequence_batches(stream, seq_len=8, batch_size=3))
        xs = np.concatenate([x.reshape(-1) for x, _ in windows])
        assert len(np.unique(xs)) == len(xs)

    def test_sequence_eval_targets(self):
        stream = np.arange(50)
        for x, y in eval_sequence_batches(stream, seq_len=5):
            np.testing.assert_array_equal(y, x + 1)


class TestVocabulary:
    def test_build_from_tokens(self):
        v = Vocabulary(["a", "b", "a", "c", "a", "b"])
        assert len(v) == 4  # unk + 3
        assert v.most_common(1)[0] == ("a", 3)

    def test_encode_decode_roundtrip(self):
        v = Vocabulary(["x", "y", "z"])
        ids = v.encode(["x", "z"])
        assert v.decode(ids) == ["x", "z"]

    def test_unknown_maps_to_unk(self):
        v = Vocabulary(["x"])
        assert v.encode(["nope"])[0] == v.unk_id

    def test_max_size_truncates(self):
        v = Vocabulary(["a", "b", "c", "a", "b", "a"], max_size=3)
        assert len(v) == 3
        assert "c" not in v

    def test_synthetic(self):
        v = Vocabulary.synthetic(10)
        assert len(v) == 10
        assert v.decode([1]) == ["w0000"]

    def test_contains(self):
        v = Vocabulary(["tok"])
        assert "tok" in v and "other" not in v
