"""Tests for functional ops: losses, softmax, stack/concat, embedding."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.functional import (
    concat,
    cross_entropy,
    embedding_lookup,
    log_softmax,
    softmax,
    stack,
)
from repro.nn.gradcheck import check_gradients
from repro.nn.tensor import Tensor


def leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


class TestLogSoftmax:
    def test_normalizes(self, rng):
        logits = leaf(rng.normal(size=(5, 7)))
        probs = np.exp(log_softmax(logits).numpy())
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones(5))

    def test_shift_invariant(self, rng):
        x = rng.normal(size=(3, 4))
        a = log_softmax(leaf(x)).numpy()
        b = log_softmax(leaf(x + 1000.0)).numpy()
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_stable_for_large_values(self):
        out = log_softmax(leaf([[1e5, 0.0]])).numpy()
        assert np.all(np.isfinite(out))

    def test_gradcheck(self, rng):
        logits = leaf(rng.normal(size=(3, 5)))
        check_gradients(lambda: (log_softmax(logits) ** 2).sum(), [logits])

    def test_softmax_sums_to_one(self, rng):
        s = softmax(leaf(rng.normal(size=(4, 6)))).numpy()
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(4))


class TestCrossEntropy:
    def test_matches_manual(self, rng):
        logits = rng.normal(size=(6, 4))
        targets = rng.integers(0, 4, size=6)
        got = cross_entropy(leaf(logits), targets).item()
        shifted = logits - logits.max(axis=1, keepdims=True)
        lp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -lp[np.arange(6), targets].mean()
        assert got == pytest.approx(expected)

    def test_reduction_sum(self, rng):
        logits = rng.normal(size=(6, 4))
        targets = rng.integers(0, 4, size=6)
        mean = cross_entropy(leaf(logits), targets, reduction="mean").item()
        total = cross_entropy(leaf(logits), targets, reduction="sum").item()
        assert total == pytest.approx(6 * mean)

    def test_reduction_none_shape(self, rng):
        logits = leaf(rng.normal(size=(2, 3, 5)))
        targets = rng.integers(0, 5, size=(2, 3))
        out = cross_entropy(logits, targets, reduction="none")
        assert out.shape == (2, 3)

    def test_unknown_reduction(self, rng):
        with pytest.raises(ValueError):
            cross_entropy(leaf(rng.normal(size=(2, 3))), np.zeros(2, dtype=int), "max")

    def test_target_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            cross_entropy(leaf(rng.normal(size=(2, 3))), np.zeros((3,), dtype=int))

    def test_target_out_of_range(self, rng):
        with pytest.raises(ValueError):
            cross_entropy(leaf(rng.normal(size=(2, 3))), np.array([0, 5]))

    def test_gradcheck_mean(self, rng):
        logits = leaf(rng.normal(size=(4, 5)))
        targets = rng.integers(0, 5, size=4)
        check_gradients(lambda: cross_entropy(logits, targets), [logits])

    def test_gradcheck_sum_3d(self, rng):
        logits = leaf(rng.normal(size=(2, 3, 4)))
        targets = rng.integers(0, 4, size=(2, 3))
        check_gradients(
            lambda: cross_entropy(logits, targets, reduction="sum").sum(), [logits]
        )

    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    def test_reduces_last_target_axis(self, rng, reduction):
        """A stack of minibatches gives one value per minibatch, each
        bit-equal to reducing that minibatch alone."""
        logits = rng.normal(size=(3, 5, 4))
        targets = rng.integers(0, 4, size=(3, 5))
        out = cross_entropy(leaf(logits), targets, reduction=reduction)
        assert out.shape == (3,)
        for i in range(3):
            alone = cross_entropy(leaf(logits[i]), targets[i], reduction=reduction)
            assert alone.shape == ()
            assert out.data[i] == alone.data

    def test_perfect_prediction_low_loss(self):
        logits = leaf([[100.0, 0.0], [0.0, 100.0]])
        loss = cross_entropy(logits, np.array([0, 1])).item()
        assert loss < 1e-6


class TestStackConcat:
    def test_stack_shape(self, rng):
        parts = [leaf(rng.normal(size=(2, 3))) for _ in range(4)]
        assert stack(parts, axis=1).shape == (2, 4, 3)

    def test_stack_gradcheck(self, rng):
        parts = [leaf(rng.normal(size=(2, 2))) for _ in range(3)]
        check_gradients(lambda: (stack(parts) ** 2).sum(), parts)

    def test_concat_shape(self, rng):
        parts = [leaf(rng.normal(size=(2, 3))), leaf(rng.normal(size=(4, 3)))]
        assert concat(parts, axis=0).shape == (6, 3)

    def test_concat_gradcheck(self, rng):
        parts = [leaf(rng.normal(size=(2, 2))), leaf(rng.normal(size=(2, 3)))]
        check_gradients(lambda: (concat(parts, axis=1) ** 2).sum(), parts)


class TestEmbeddingLookup:
    def test_gathers_rows(self, rng):
        weight = leaf(rng.normal(size=(5, 3)))
        idx = np.array([[0, 4], [2, 2]])
        out = embedding_lookup(weight, idx)
        assert out.shape == (2, 2, 3)
        np.testing.assert_allclose(out.numpy()[0, 1], weight.numpy()[4])

    def test_repeated_indices_accumulate_grads(self, rng):
        weight = leaf(rng.normal(size=(4, 2)))
        idx = np.array([1, 1, 1])
        embedding_lookup(weight, idx).sum().backward()
        np.testing.assert_allclose(weight.grad[1], [3.0, 3.0])
        np.testing.assert_allclose(weight.grad[0], [0.0, 0.0])

    def test_gradcheck(self, rng):
        weight = leaf(rng.normal(size=(6, 3)))
        idx = rng.integers(0, 6, size=(2, 4))
        check_gradients(lambda: (embedding_lookup(weight, idx) ** 2).sum(), [weight])
