"""Tests for the federated task registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.registry import TASK_NAMES, make_task, task_summary


class TestMakeTask:
    @pytest.mark.parametrize("name", TASK_NAMES)
    def test_builds_every_small_task(self, name):
        task = make_task(name, "small", seed=0)
        assert task.n_clients > 1
        assert task.client_size(0) > 0
        summary = task_summary(task)
        assert name in summary

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            make_task("cifar", "small")

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            make_task("mnist", "huge")

    def test_image_task_structure(self):
        task = make_task("mnist", "small", seed=0)
        assert task.kind == "image" and task.metric == "top1" and task.topk == 1
        x, y = task.client_data[0]
        assert x.shape[0] == y.shape[0] == task.client_size(0)
        assert task.model_spec["kind"] == "mlp"

    def test_text_task_structure(self):
        task = make_task("ptb", "small", seed=0)
        assert task.kind == "text" and task.metric == "top3" and task.topk == 3
        assert task.model_spec["kind"] == "lstm"
        assert task.seq_len > 0

    def test_reddit_clients_unequal(self):
        task = make_task("reddit", "small", seed=0)
        sizes = [task.client_size(c) for c in range(task.n_clients)]
        assert max(sizes) > min(sizes)

    def test_image_partition_is_noniid(self):
        task = make_task("mnist", "small", seed=0)
        distinct = []
        for x, y in task.client_data:
            distinct.append(len(np.unique(y)))
        assert np.mean(distinct) < 10  # label-shard skew

    def test_batcher_and_eval(self):
        task = make_task("ptb", "small", seed=0)
        b = task.batcher([0], 4, [np.random.default_rng(0)])
        x, y = b.next_batch()
        assert x.shape == y.shape == (1, 4, task.seq_len)
        ex, ey = next(iter(task.eval_batches(8)))
        assert ex.shape[1] == task.seq_len

    def test_default_dropout_rates(self):
        assert make_task("mnist", "small").default_dropout_rate == 0.2
        assert make_task("fmnist", "small").default_dropout_rate == 0.5

    def test_deterministic_by_seed(self):
        a = make_task("fmnist", "small", seed=5)
        b = make_task("fmnist", "small", seed=5)
        np.testing.assert_array_equal(a.client_data[0][0], b.client_data[0][0])
