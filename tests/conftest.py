"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.registry import FederatedTask
from repro.fl.config import FLConfig
from repro.nn.models import MLPClassifier, WordLSTM


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_mlp(rng) -> MLPClassifier:
    return MLPClassifier(input_dim=6, hidden_dims=(5,), n_classes=4, rng=rng)


@pytest.fixture
def tiny_lstm(rng) -> WordLSTM:
    return WordLSTM(vocab_size=9, embed_dim=5, hidden_size=5, num_layers=2, rng=rng)


class LoneBatcher:
    """One client's batches from a stack-of-one batcher
    (``task.batcher([client], ...)``) without the client axis, for
    training a bare, unstacked model."""

    def __init__(self, task, client: int, batch_size: int, rng, steps: int = 1) -> None:
        self.stack = task.batcher([client], batch_size, [rng], steps)

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(a[0] for a in self.stack.next_batch())


def mask_pairs(masks: dict[str, np.ndarray]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Bool masks as ``run_local_sgd`` and ``bind_masks`` take them:
    ``(keep, drop)`` pairs of float keep-masks and bool drop-masks."""
    return {name: (m.astype(np.float64), ~m) for name, m in masks.items()}


def make_tiny_image_task(n_clients: int = 4, seed: int = 0) -> FederatedTask:
    """A minimal image task for integration tests (fast to train)."""
    gen = np.random.default_rng(seed)
    protos = gen.normal(size=(4, 12))
    client_data = []
    for _ in range(n_clients):
        y = gen.integers(0, 4, size=40)
        x = protos[y] + 0.3 * gen.normal(size=(40, 12))
        client_data.append((x, y))
    y_test = gen.integers(0, 4, size=80)
    x_test = protos[y_test] + 0.3 * gen.normal(size=(80, 12))
    return FederatedTask(
        name="tiny-image",
        kind="image",
        model_spec={"kind": "mlp", "input_dim": 12, "hidden_dims": (8,), "n_classes": 4},
        metric="top1",
        client_data=client_data,
        test_data=(x_test, y_test),
    )


def make_tiny_text_task(n_clients: int = 3, seed: int = 0) -> FederatedTask:
    """A minimal text task for integration tests."""
    gen = np.random.default_rng(seed)
    streams = [gen.integers(0, 12, size=300) for _ in range(n_clients)]
    return FederatedTask(
        name="tiny-text",
        kind="text",
        model_spec={
            "kind": "lstm",
            "vocab_size": 12,
            "embed_dim": 6,
            "hidden_size": 6,
            "num_layers": 1,
        },
        metric="top3",
        client_data=streams,
        test_data=gen.integers(0, 12, size=200),
        seq_len=8,
    )


@pytest.fixture
def tiny_image_task() -> FederatedTask:
    return make_tiny_image_task()


@pytest.fixture
def tiny_text_task() -> FederatedTask:
    return make_tiny_text_task()


@pytest.fixture(scope="session")
def session_image_task() -> FederatedTask:
    """Session-scoped tiny image task for integration tests.

    Tasks are read-only during simulation (client shards are indexed,
    never written), so sharing one instance across the whole session is
    safe and skips rebuilding the data per test.
    """
    return make_tiny_image_task(n_clients=6)


@pytest.fixture(scope="session")
def session_config() -> FLConfig:
    """Small-run config (few rounds/clients) shared across the session."""
    return FLConfig(
        rounds=2,
        kappa=0.5,
        local_iterations=6,
        batch_size=10,
        lr=0.3,
        dropout_rate=0.4,
        tau=2,
        seed=0,
        eval_every=1,
    )


@pytest.fixture
def fast_config() -> FLConfig:
    return FLConfig(
        rounds=3,
        kappa=0.5,
        local_iterations=8,
        batch_size=10,
        lr=0.3,
        dropout_rate=0.4,
        tau=2,
        seed=0,
        eval_every=1,
    )
