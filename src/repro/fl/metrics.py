"""Evaluation metrics and per-round history recording.

The paper reports top-1 accuracy for image classification and top-3 for
next-word prediction ("mobile keyboards generally include three
candidates"), plus training-loss and test-accuracy curves per round
(Fig. 6) and per-round upload sizes (Tables I/II).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..nn.functional import _log_softmax_data

__all__ = ["topk_accuracy", "evaluate", "RoundRecord", "History"]


def topk_accuracy(logits: np.ndarray, targets: np.ndarray, k: int = 1) -> float:
    """Fraction of positions whose target is within the top-k logits.

    ``logits`` may be ``(n, classes)`` or ``(batch, time, classes)``;
    ``targets`` matches the leading dimensions.
    """
    logits = np.asarray(logits)
    targets = np.asarray(targets)
    flat_logits = logits.reshape(-1, logits.shape[-1])
    flat_targets = targets.reshape(-1)
    if flat_targets.size == 0:
        return 0.0
    if k == 1:
        hits = flat_logits.argmax(axis=1) == flat_targets
    else:
        # argpartition is O(n) per row versus full sort
        top = np.argpartition(-flat_logits, kth=k - 1, axis=1)[:, :k]
        hits = (top == flat_targets[:, None]).any(axis=1)
    return float(hits.mean())


def evaluate(model, task, batch_size: int = 256) -> tuple[float, float]:
    """Global test loss and top-k accuracy of ``model`` on ``task``.

    Loss is the mean cross-entropy over every test position, computed
    from raw logits with a stable log-softmax (no graph construction).
    """
    total_loss = 0.0
    total_hits = 0.0
    total_count = 0
    k = task.topk
    for x, y in task.eval_batches(batch_size):
        logits = model.predict_logits(x)
        log_probs = _log_softmax_data(logits)
        flat_lp = log_probs.reshape(-1, log_probs.shape[-1])
        flat_y = np.asarray(y).reshape(-1)
        total_loss += float(-flat_lp[np.arange(flat_y.size), flat_y].sum())
        total_hits += topk_accuracy(logits, y, k) * flat_y.size
        total_count += flat_y.size
    if total_count == 0:
        raise ValueError("empty evaluation set")
    return total_loss / total_count, total_hits / total_count


@dataclass
class RoundRecord:
    """Everything measured in one global round.

    ``n_selected`` counts the clients whose updates were aggregated;
    ``n_scheduled`` counts everyone the server asked to train.  The
    difference (``n_stragglers``) missed the system model's round
    deadline.  ``sim_round_seconds``/``sim_clock_seconds`` are virtual
    clock readings (see :mod:`repro.fl.systems`), not host wall-clock.

    Sync and async runs come out of the same round loop
    (:meth:`repro.fl.simulation.FederatedSimulation.run_round`).  In
    async (FedBuff-style) mode a round is one *buffer flush*:
    ``flush_index`` numbers the flush (0 on sync records),
    ``staleness_mean``/``staleness_max`` describe how many flushes old
    the buffered updates' base models were (always 0 in sync mode),
    ``sim_clock_seconds`` is the virtual clock at the flush, and
    nobody is a straggler.
    """

    round_index: int
    train_loss: float
    test_loss: float
    test_accuracy: float
    upload_bits_mean: float
    upload_bits_total: int
    download_bits_per_client: int
    n_selected: int
    lttr_seconds_mean: float
    n_scheduled: int = 0
    n_stragglers: int = 0
    sim_round_seconds: float = 0.0
    sim_clock_seconds: float = 0.0
    #: mean *simulated* local compute across the round's scheduled
    #: clients (sync) or the flush's buffered clients (async) — the
    #: system model's per-device view of LTTR; 0.0 only on histories
    #: predating the column
    sim_compute_seconds_mean: float = 0.0
    flush_index: int = 0
    staleness_mean: float = 0.0
    staleness_max: int = 0

    @property
    def participation_rate(self) -> float:
        """Fraction of scheduled clients that reported before the deadline."""
        if self.n_scheduled <= 0:
            return 1.0
        return self.n_selected / self.n_scheduled


@dataclass
class History:
    """Per-round records of one simulation run, with series accessors."""

    method: str
    task: str
    records: list[RoundRecord] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def series(self, key: str) -> np.ndarray:
        """Extract one field across rounds as an array."""
        return np.array([getattr(r, key) for r in self.records])

    @property
    def final_accuracy(self) -> float:
        return self.records[-1].test_accuracy

    @property
    def best_accuracy(self) -> float:
        """Highest evaluated accuracy (rounds without eval are NaN)."""
        return float(np.nanmax(self.series("test_accuracy")))

    @property
    def total_sim_seconds(self) -> float:
        """Virtual-clock time of the whole run (last round's clock)."""
        return float(self.records[-1].sim_clock_seconds) if self.records else 0.0

    def participation(self) -> np.ndarray:
        """Per-round fraction of scheduled clients that made the deadline."""
        return np.array([r.participation_rate for r in self.records])

    def mean_upload_bits(self) -> float:
        """Average per-client upload per round — Table I's 'Upload Size'."""
        return float(self.series("upload_bits_mean").mean())

    def mean_staleness(self) -> float:
        """Average buffered-update staleness across flushes (async runs;
        identically 0.0 for sync histories)."""
        if not self.records:
            return 0.0
        return float(self.series("staleness_mean").mean())

    def _first_reaching(self, target: float) -> RoundRecord | None:
        """First record whose test accuracy reaches ``target`` (rounds
        without evaluation are NaN and never do)."""
        hits = np.flatnonzero(self.series("test_accuracy") >= target)
        return self.records[hits[0]] if hits.size else None

    def rounds_to_accuracy(self, target: float) -> int | None:
        """First round index reaching ``target`` test accuracy, else None."""
        hit = self._first_reaching(target)
        return None if hit is None else int(hit.round_index)

    def time_to_accuracy(self, target: float) -> float | None:
        """Time-To-Accuracy (Fig. 7c/d, Fig. 8b): the virtual clock
        (``sim_clock_seconds``) at the first round reaching ``target``
        test accuracy, else None.  The clock covers download, compute and
        upload under the run's system model, in sync and async mode."""
        hit = self._first_reaching(target)
        return None if hit is None else float(hit.sim_clock_seconds)

    def moving_average(self, key: str, window: int = 3) -> np.ndarray:
        """Smoothed series (the paper smooths Fig. 6b curves)."""
        values = self.series(key)
        if window <= 1 or values.size == 0:
            return values
        kernel = np.ones(min(window, values.size)) / min(window, values.size)
        return np.convolve(values, kernel, mode="valid")
