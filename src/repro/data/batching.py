"""Minibatch construction for local client training and evaluation.

Local training in the paper runs ``V`` SGD *iterations* per round (not
epochs), so batch samplers draw random minibatches; evaluation iterates
the full test set deterministically.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = [
    "ImageBatcher",
    "SequenceBatcher",
    "eval_image_batches",
    "eval_sequence_batches",
]


class ImageBatcher:
    """Draws random ``(x, y)`` minibatches from a client's image shard.

    Each batch is ``min(batch_size, n)`` distinct rows of the shard.  A
    call that finds no batch ready draws ``steps`` batches at once: row
    ``v`` of ``rng.random((steps, n)).argsort(axis=1)``, cut to the
    batch size, is a uniform subset of the shard, and one ``take``
    gathers them all.  A block of ``random`` rows consumes the stream
    exactly as the same rows drawn one per call, so while nothing else
    draws from ``rng`` between batches, the batches do not depend on
    ``steps``.
    """

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        batch_size: int,
        rng: np.random.Generator,
        steps: int = 1,
    ) -> None:
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y length mismatch")
        if x.shape[0] == 0:
            raise ValueError("empty client shard")
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        self.x = x
        self.y = y
        self.batch_size = min(batch_size, x.shape[0])
        self.rng = rng
        self.steps = steps
        self._ready: Iterator[tuple[np.ndarray, np.ndarray]] = iter(())

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        batch = next(self._ready, None)
        if batch is None:
            keys = self.rng.random((self.steps, self.x.shape[0]))
            idx = keys.argsort(axis=1)[:, : self.batch_size]
            self._ready = zip(self.x.take(idx, axis=0), self.y.take(idx))
            batch = next(self._ready)
        return batch


class SequenceBatcher:
    """Draws random BPTT windows from a client's token stream.

    Each batch is a pair of ``(batch, seq_len)`` arrays where the target
    is the input shifted by one token (next-word prediction).
    """

    def __init__(
        self,
        stream: np.ndarray,
        batch_size: int,
        seq_len: int,
        rng: np.random.Generator,
    ) -> None:
        if stream.shape[0] < seq_len + 1:
            raise ValueError(
                f"stream of {stream.shape[0]} tokens too short for seq_len {seq_len}"
            )
        self.stream = stream
        self.batch_size = batch_size
        self.seq_len = seq_len
        self.rng = rng

    @property
    def n_samples(self) -> int:
        """Number of training positions (used as |D_k| in aggregation)."""
        return self.stream.shape[0]

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        max_start = self.stream.shape[0] - self.seq_len - 1
        starts = self.rng.integers(0, max_start + 1, size=self.batch_size)
        offsets = np.arange(self.seq_len)
        idx = starts[:, None] + offsets[None, :]
        return self.stream[idx], self.stream[idx + 1]


def eval_image_batches(
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int = 256,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Deterministic full sweep over an evaluation set."""
    for start in range(0, x.shape[0], batch_size):
        yield x[start : start + batch_size], y[start : start + batch_size]


def eval_sequence_batches(
    stream: np.ndarray,
    seq_len: int,
    batch_size: int = 64,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Deterministic non-overlapping windows over a test stream."""
    n_windows = (stream.shape[0] - 1) // seq_len
    starts = np.arange(n_windows) * seq_len
    offsets = np.arange(seq_len)
    for batch_start in range(0, n_windows, batch_size):
        s = starts[batch_start : batch_start + batch_size]
        idx = s[:, None] + offsets[None, :]
        yield stream[idx], stream[idx + 1]
