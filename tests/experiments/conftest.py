"""Fixtures for the experiments tests."""

from __future__ import annotations

import pytest

from repro.experiments.results import RunResult
from repro.fl.metrics import History, RoundRecord


@pytest.fixture
def make_result():
    """Factory for synthetic RunResults — store and row-folding tests
    exercise the sweep plumbing without paying for real simulations."""

    def factory(
        task: str = "mnist",
        method: str = "fedavg",
        accs: tuple[float, ...] = (0.5, 0.6),
        upload_bits: float = 800.0,
        dense_bits: int = 1600,
    ) -> RunResult:
        history = History(method=method, task=task)
        for i, acc in enumerate(accs):
            history.append(
                RoundRecord(
                    round_index=i,
                    train_loss=1.0 - 0.1 * i,
                    test_loss=1.2 - 0.1 * i,
                    test_accuracy=acc,
                    upload_bits_mean=upload_bits,
                    upload_bits_total=int(upload_bits * 10),
                    download_bits_per_client=dense_bits,
                    n_selected=10,
                    lttr_seconds_mean=0.01,
                    n_scheduled=10,
                    sim_round_seconds=1.0,
                    sim_clock_seconds=float(i + 1),
                )
            )
        return RunResult(task_name=task, method_spec=method, history=history, dense_bits=dense_bits)

    return factory
