"""Tests for payload sizing and evaluation metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fl.metrics import History, RoundRecord, topk_accuracy
from repro.fl.parameters import ParamSet
from repro.fl.rows import RowSpace
from repro.fl.sizing import (
    bits_to_bytes,
    dense_bits,
    element_masked_bits,
    format_bytes,
    masked_bits,
    quantized_bits,
    sign_bits,
    sparse_bits,
    ternary_sparse_bits,
)


class TestSizing:
    def test_dense_bits(self):
        params = ParamSet({"w": np.zeros((4, 3)), "b": np.zeros(4)})
        assert dense_bits(params) == 32 * 16

    def test_masked_bits(self, tiny_mlp, rng):
        space = RowSpace.from_module(tiny_mlp)
        params = ParamSet.from_module(tiny_mlp)
        beta = space.sample_pattern(0.4, rng)  # keep 3 of 5 hidden rows
        got = masked_bits(params, space, beta)
        dense_non_droppable = 5 + 4 * 5 + 4  # b1, W2, b2
        assert got == 32 * (3 * 6 + dense_non_droppable) + 5

    def test_masked_bits_smaller_than_dense(self, tiny_lstm, rng):
        space = RowSpace.from_module(tiny_lstm)
        params = ParamSet.from_module(tiny_lstm)
        beta = space.sample_pattern(0.5, rng)
        assert masked_bits(params, space, beta) < dense_bits(params)

    def test_element_masked_bits(self):
        params = ParamSet({"w": np.zeros((10, 10))})
        assert element_masked_bits(params, 40) == 32 * 40 + 100

    def test_sparse_bits(self):
        assert sparse_bits(10) == 10 * 96
        assert sparse_bits(10, n_tensors=2) == 10 * 96 + 64

    def test_sign_bits(self):
        assert sign_bits(100, 3) == 100 + 96

    def test_quantized_bits(self):
        assert quantized_bits(100, 2, bits=8) == 800 + 128

    def test_ternary_sparse_bits(self):
        assert ternary_sparse_bits(10, 1) == 10 * 65 + 32

    def test_bits_to_bytes(self):
        assert bits_to_bytes(16) == 2.0

    def test_format_bytes(self):
        assert format_bytes(512) == "512B"
        assert format_bytes(4096) == "4KB"
        assert format_bytes(2 * 1024 * 1024) == "2.0MB"


class TestTopKAccuracy:
    def test_top1(self):
        logits = np.array([[1.0, 3.0, 2.0], [5.0, 1.0, 0.0]])
        assert topk_accuracy(logits, np.array([1, 0]), k=1) == 1.0
        assert topk_accuracy(logits, np.array([0, 0]), k=1) == 0.5

    def test_top3(self):
        logits = np.array([[4.0, 3.0, 2.0, 1.0]])
        assert topk_accuracy(logits, np.array([2]), k=3) == 1.0
        assert topk_accuracy(logits, np.array([3]), k=3) == 0.0

    def test_3d_input(self, rng):
        logits = rng.normal(size=(2, 5, 7))
        targets = logits.argmax(axis=-1)
        assert topk_accuracy(logits, targets, k=1) == 1.0

    def test_empty(self):
        assert topk_accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int)) == 0.0


def record(i, acc, loss=1.0):
    return RoundRecord(
        round_index=i,
        train_loss=loss,
        test_loss=loss,
        test_accuracy=acc,
        upload_bits_mean=1000.0,
        upload_bits_total=3000,
        download_bits_per_client=2000,
        n_selected=3,
        lttr_seconds_mean=0.01,
        sim_round_seconds=2.5,
        sim_clock_seconds=2.5 * i,
    )


class TestHistory:
    def test_series_and_final(self):
        h = History("m", "t")
        for i, acc in enumerate([0.1, 0.5, 0.4], start=1):
            h.append(record(i, acc))
        np.testing.assert_allclose(h.series("test_accuracy"), [0.1, 0.5, 0.4])
        assert h.final_accuracy == 0.4
        assert h.best_accuracy == 0.5
        assert len(h) == 3

    def test_best_ignores_nan(self):
        h = History("m", "t")
        h.append(record(1, 0.3))
        h.append(record(2, float("nan")))
        assert h.best_accuracy == 0.3

    def test_rounds_to_accuracy(self):
        h = History("m", "t")
        for i, acc in enumerate([0.1, 0.5, 0.9], start=1):
            h.append(record(i, acc))
        assert h.rounds_to_accuracy(0.5) == 2
        assert h.rounds_to_accuracy(0.95) is None

    def test_time_to_accuracy_reads_first_hit_clock(self):
        h = History("m", "t")
        for i, acc in enumerate([0.1, 0.5, 0.9], start=1):
            h.append(record(i, acc))
        assert h.time_to_accuracy(0.5) == 5.0
        assert h.time_to_accuracy(0.05) == 2.5
        assert isinstance(h.time_to_accuracy(0.5), float)

    def test_time_to_accuracy_skips_unevaluated_rounds(self):
        h = History("m", "t")
        for i, acc in enumerate([float("nan"), float("nan"), 0.6], start=1):
            h.append(record(i, acc))
        assert h.time_to_accuracy(0.0) == 7.5

    def test_time_to_accuracy_unreachable(self):
        h = History("m", "t")
        for i, acc in enumerate([0.1, float("nan"), 0.4], start=1):
            h.append(record(i, acc))
        assert h.time_to_accuracy(0.95) is None
        assert History("m", "t").time_to_accuracy(0.0) is None

    def test_mean_upload(self):
        h = History("m", "t")
        h.append(record(1, 0.1))
        assert h.mean_upload_bits() == 1000.0

    def test_moving_average(self):
        h = History("m", "t")
        for i in range(1, 7):
            h.append(record(i, 0.1, loss=float(i)))
        smoothed = h.moving_average("train_loss", window=3)
        np.testing.assert_allclose(smoothed, [2.0, 3.0, 4.0, 5.0])
