"""The result record of one federated simulation run.

:class:`RunResult` lives in its own module (rather than in
:mod:`repro.experiments.runner`) so the on-disk
:class:`~repro.experiments.store.RunStore` can serialize it without
importing the runner; the runner re-exports it for compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fl.metrics import History

__all__ = ["RunResult"]


@dataclass
class RunResult:
    """One simulation run: its history and the task's dense upload size.

    Every Table/Figure quantity is a view over :attr:`history`.
    """

    task_name: str
    method_spec: str
    history: History
    dense_bits: int

    @property
    def final_accuracy(self) -> float:
        return self.history.final_accuracy

    @property
    def best_accuracy(self) -> float:
        return self.history.best_accuracy

    @property
    def upload_bits(self) -> float:
        """Mean per-client upload per round."""
        return self.history.mean_upload_bits()

    @property
    def lttr(self) -> float:
        """Mean host-measured local training time per round (Fig. 7a/7b)."""
        return float(np.mean(self.history.series("lttr_seconds_mean")))

    @property
    def sim_seconds(self) -> float:
        """Virtual-clock duration of the whole run."""
        return self.history.total_sim_seconds

    @property
    def participation(self) -> float:
        """Mean fraction of scheduled clients that reported on time."""
        return float(self.history.participation().mean()) if len(self.history) else 1.0

    @property
    def save_ratio(self) -> float:
        """Table I's 'Save Ratio': dense upload / method upload."""
        return self.dense_bits / self.upload_bits

    def tta(self, target: float) -> float | None:
        """Time-to-accuracy on the virtual clock
        (:meth:`~repro.fl.metrics.History.time_to_accuracy`)."""
        return self.history.time_to_accuracy(target)
