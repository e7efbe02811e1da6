"""Minibatch construction for local client training and evaluation.

Local training in the paper runs ``V`` SGD *iterations* per round (not
epochs), so batch samplers draw random minibatches; evaluation iterates
the full test set deterministically.

A training batcher serves a *stack*: the clients that train together
(:meth:`repro.fl.client.FederatedMethod.cohort_update`), a lone client
being a stack of one.  Client ``i`` owns rows ``starts[i]`` to
``starts[i] + sizes[i]`` of the rows it is given and draws only from its
own ``rngs[i]``, so its slice of every batch is the one it would get
alone; ``next_batch`` hands out arrays with a leading client axis.
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


def _rows(starts, sizes, n_rows: int, ids, need: int, what) -> tuple[np.ndarray, np.ndarray]:
    """The stack's row starts and sizes as int64 arrays, checking each
    client holds at least ``need`` of the ``n_rows`` rows; the first
    that does not raises ``ValueError`` naming its id (its stack slot
    when ``ids`` is ``None``)."""
    starts = np.asarray(starts, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    ids = list(range(sizes.shape[0])) if ids is None else list(ids)
    if not (starts.shape == sizes.shape == (len(ids),) and len(ids)):
        raise ValueError("a stack needs one row start, row count and id per client")
    short = np.flatnonzero(sizes < need)
    if short.size:
        raise ValueError(f"client {ids[short[0]]}: {what(int(sizes[short[0]]))}")
    if (starts < 0).any() or (starts + sizes > n_rows).any():
        raise ValueError(f"client rows outside the {n_rows} rows given")
    return starts, sizes


class ImageBatcher:
    """Draws a stack's random ``(x, y)`` minibatches from its clients' rows.

    Each client's batch is ``min(batch_size, n)`` distinct rows of its
    ``n`` rows; every client of a stack must get the same batch size.  A
    call that finds no batch ready draws ``steps`` batches at once: each
    client draws ``random((steps, n))`` from its own rng, row ``v`` of
    its argsort, cut to the batch size, is a uniform subset of its rows,
    and one ``take`` per array gathers the whole block, step ``v`` being
    one contiguous ``(c, batch, ...)`` slice.  A block of ``random``
    rows consumes the stream exactly as the same rows drawn one per
    call, so while nothing else draws from a client's rng between
    batches, the batches do not depend on ``steps``.  Each block's
    labels are checked to lie in ``[0, n_classes)`` once, for the models
    that train on them unchecked
    (:meth:`repro.nn.models.MLPClassifier.loss_and_grads`).
    """

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        starts,
        sizes,
        batch_size: int,
        rngs: list[np.random.Generator],
        steps: int = 1,
        ids=None,
        *,
        n_classes: int,
    ) -> None:
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y length mismatch")
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        self.starts, self.sizes = _rows(
            starts, sizes, x.shape[0], ids, 1, lambda n: "empty client shard"
        )
        batch = set(np.minimum(batch_size, self.sizes).tolist())
        if len(batch) != 1:
            raise ValueError(f"a stack's clients must share one batch size, got {sorted(batch)}")
        self.x = x
        self.y = y
        self.batch_size = batch.pop()
        self.rngs = list(rngs)
        self.steps = steps
        self.n_classes = n_classes
        self._block: tuple[np.ndarray, np.ndarray] = (x[:0], y[:0])
        self._next = 0

    @property
    def n_samples(self) -> np.ndarray:
        """Each client's row count."""
        return self.sizes

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        if self._next == self._block[0].shape[0]:
            sizes = self.sizes.tolist()
            widest = max(sizes)
            # rows shorter than the widest are padded with keys above
            # every draw in [0, 1), so they sort after the real rows
            keys = np.full((len(sizes), self.steps, widest), 2.0)
            for i, (rng, n) in enumerate(zip(self.rngs, sizes)):
                keys[i, :, :n] = rng.random((self.steps, n))
            idx = keys.argsort(axis=2)[:, :, : self.batch_size]
            idx += self.starts[:, None, None]
            idx = idx.transpose(1, 0, 2)
            labels = self.y.take(idx)
            if labels.min() < 0 or labels.max() >= self.n_classes:
                raise ValueError("target labels out of range")
            self._block = (self.x.take(idx, axis=0), labels)
            self._next = 0
        v = self._next
        self._next += 1
        return self._block[0][v], self._block[1][v]


class SequenceBatcher:
    """Draws a stack's random BPTT windows from its clients' token rows.

    Each batch is a pair of ``(c, batch, seq_len)`` arrays where the
    target is the input shifted by one token (next-word prediction).
    Every step each client draws its window starts with one ``integers``
    call on its own rng (a method may draw from the same rng between
    steps), and one ``take`` gathers the stack's windows.
    """

    def __init__(
        self,
        stream: np.ndarray,
        starts,
        sizes,
        batch_size: int,
        seq_len: int,
        rngs: list[np.random.Generator],
        ids=None,
    ) -> None:
        self.starts, self.sizes = _rows(
            starts, sizes, stream.shape[0], ids, seq_len + 1,
            lambda n: f"stream of {n} tokens too short for seq_len {seq_len}",
        )
        self.stream = stream
        self.batch_size = batch_size
        self.seq_len = seq_len
        self.rngs = list(rngs)
        # exclusive bound of each client's window starts
        self._highs = (self.sizes - seq_len).tolist()
        self._window = np.arange(seq_len + 1)

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        firsts = np.empty((len(self.rngs), self.batch_size), dtype=np.int64)
        for i, (rng, high) in enumerate(zip(self.rngs, self._highs)):
            firsts[i] = rng.integers(0, high, size=self.batch_size)
        firsts += self.starts[:, None]
        windows = self.stream.take(firsts[:, :, None] + self._window)
        return windows[..., :-1], windows[..., 1:]


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
