"""Fig. 2 (motivation): PTB test loss/accuracy for five methods.

The paper's point: FedDrop, AFD and Fjord fall *below* FedAvg on the
LSTM next-word task, while FedBIAD does not suffer the same recurrent-
dropout penalty.

Declarative form: :func:`fig2_spec` (one PTB cell per method) +
:func:`fig2_result`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .configs import FIG2_METHODS
from .reporting import format_series
from .spec import SweepSpec
from .sweep import SweepResult

__all__ = ["Fig2Result", "fig2_spec", "fig2_result", "format_fig2"]


@dataclass
class Fig2Result:
    methods: tuple[str, ...]
    rounds: np.ndarray
    test_loss: dict[str, np.ndarray]
    test_accuracy: dict[str, np.ndarray]


def fig2_spec(
    methods: tuple[str, ...] = FIG2_METHODS,
    scale: str | None = None,
    seed: int = 0,
    overrides: dict | None = None,
) -> SweepSpec:
    """Fig. 2's sweep: every method on the PTB-like task."""
    return SweepSpec.grid(
        "fig2", tasks=("ptb",), methods=methods, seeds=(seed,),
        scale=scale, overrides=overrides,
    )


def fig2_result(results: SweepResult) -> Fig2Result:
    """Assemble the figure's loss/accuracy curves from finished cells."""
    methods: list[str] = []
    test_loss: dict[str, np.ndarray] = {}
    test_accuracy: dict[str, np.ndarray] = {}
    rounds: np.ndarray | None = None
    for cell, result in results:
        if result is None:
            raise LookupError(f"sweep incomplete: no result for cell {cell.label()}")
        methods.append(cell.method)
        test_loss[cell.method] = result.history.series("test_loss")
        test_accuracy[cell.method] = result.history.series("test_accuracy")
        if rounds is None:
            rounds = result.history.series("round_index").astype(int)
    return Fig2Result(
        methods=tuple(methods),
        rounds=rounds if rounds is not None else np.array([], dtype=int),
        test_loss=test_loss,
        test_accuracy=test_accuracy,
    )


def format_fig2(result: Fig2Result) -> str:
    lines = ["Fig. 2: PTB next-word prediction (test loss / top-3 accuracy)"]
    lines.append("-- test loss --")
    for m in result.methods:
        lines.append(format_series(m, result.rounds, result.test_loss[m]))
    lines.append("-- test accuracy --")
    for m in result.methods:
        lines.append(format_series(m, result.rounds, result.test_accuracy[m]))
    return "\n".join(lines)
