"""Fig. 6: training-loss and test-accuracy curves vs rounds.

Panel (a) is the MNIST-like task (non-IID images), panel (b) the
WikiText-2-like task; all seven Table-I methods are drawn.  The paper
smooths panel (b) with a moving average — :func:`format_fig6` does the
same.

Declarative form: :func:`fig6_spec` + :func:`fig6_panels`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .configs import TABLE1_METHODS
from .reporting import format_series
from .spec import SweepSpec
from .sweep import SweepResult

__all__ = ["Fig6Panel", "fig6_spec", "fig6_panels", "format_fig6"]


@dataclass
class Fig6Panel:
    dataset: str
    methods: tuple[str, ...]
    rounds: np.ndarray
    train_loss: dict[str, np.ndarray]
    test_accuracy: dict[str, np.ndarray]


def fig6_spec(
    datasets: tuple[str, ...] = ("mnist", "wikitext2"),
    methods: tuple[str, ...] = TABLE1_METHODS,
    scale: str | None = None,
    seed: int = 0,
    overrides: dict | None = None,
) -> SweepSpec:
    """Fig. 6's sweep: every Table-I method on each panel's dataset."""
    return SweepSpec.grid(
        "fig6", tasks=datasets, methods=methods, seeds=(seed,),
        scale=scale, overrides=overrides,
    )


def fig6_panels(results: SweepResult) -> list[Fig6Panel]:
    """Assemble per-dataset panels from finished cells (grid order
    keeps cells of one dataset contiguous)."""
    by_dataset: dict[str, list] = {}
    for cell, result in results:
        if result is None:
            raise LookupError(f"sweep incomplete: no result for cell {cell.label()}")
        by_dataset.setdefault(cell.task, []).append((cell.method, result))
    panels = []
    for dataset, methods_results in by_dataset.items():
        rounds = methods_results[0][1].history.series("round_index").astype(int)
        panels.append(
            Fig6Panel(
                dataset=dataset,
                methods=tuple(m for m, _ in methods_results),
                rounds=rounds,
                train_loss={m: r.history.series("train_loss") for m, r in methods_results},
                test_accuracy={
                    m: r.history.series("test_accuracy") for m, r in methods_results
                },
            )
        )
    return panels


def format_fig6(panels: list[Fig6Panel], smooth_window: int = 3) -> str:
    lines = ["Fig. 6: training loss and test accuracy versus rounds"]
    for panel in panels:
        lines.append(f"== {panel.dataset} ==")
        lines.append("-- train loss (smoothed) --")
        for m in panel.methods:
            loss = panel.train_loss[m]
            if smooth_window > 1 and loss.size >= smooth_window:
                kernel = np.ones(smooth_window) / smooth_window
                loss = np.convolve(loss, kernel, mode="valid")
            lines.append(format_series(m, panel.rounds[: loss.size], loss))
        lines.append("-- test accuracy --")
        for m in panel.methods:
            lines.append(format_series(m, panel.rounds, panel.test_accuracy[m]))
    return "\n".join(lines)
