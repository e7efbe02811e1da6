"""Table I: accuracy / upload size / save ratio, 7 methods x 5 datasets.

Declarative form: :func:`table1_spec` expands the paper's grid into a
:class:`~repro.experiments.spec.SweepSpec`, any scheduler
(:func:`~repro.experiments.sweep.run_sweep`, the CLI ``sweep``
subcommand) executes it, and :func:`table1_rows` folds the finished
cells back into the paper's row order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.registry import TASK_NAMES
from ..fl.sizing import format_bytes
from .configs import TABLE1_METHODS
from .reporting import format_table, pm
from .spec import SweepSpec
from .sweep import SweepResult

__all__ = [
    "Table1Row",
    "table1_spec",
    "table1_rows",
    "fold_accuracy_rows",
    "format_table1",
]


@dataclass
class Table1Row:
    dataset: str
    method: str
    accuracy_mean: float
    accuracy_std: float
    upload_bytes: float
    save_ratio: float


def table1_spec(
    datasets: tuple[str, ...] = TASK_NAMES,
    methods: tuple[str, ...] = TABLE1_METHODS,
    scale: str | None = None,
    seeds: tuple[int, ...] = (0,),
    overrides: dict | None = None,
) -> SweepSpec:
    """Table I's (dataset x method x seed) grid as a sweep."""
    return SweepSpec.grid(
        "table1", tasks=datasets, methods=methods, seeds=seeds,
        scale=scale, overrides=overrides,
    )


def fold_accuracy_rows(results: SweepResult, row_cls):
    """Shared Table I/II fold: group finished cells by (dataset, method)
    in grid order and aggregate over seeds into ``row_cls`` rows.

    Accuracy is the mean of each run's best evaluated test accuracy,
    with the sample std (ddof=1) over seeds when more than one seed
    ran (0.0 for a single seed); upload size is the mean per-client,
    per-round payload; save ratio is relative to FedAvg's dense upload.
    """
    groups: dict[tuple[str, str], list] = {}
    for cell, result in results:
        if result is None:
            raise LookupError(f"sweep incomplete: no result for cell {cell.label()}")
        groups.setdefault((cell.task, cell.method), []).append(result)
    rows = []
    for (dataset, method), runs in groups.items():
        accs = np.array([r.best_accuracy for r in runs])
        upload_bits = float(np.mean([r.upload_bits for r in runs]))
        rows.append(
            row_cls(
                dataset=dataset,
                method=method,
                accuracy_mean=float(accs.mean()),
                accuracy_std=float(accs.std(ddof=1)) if accs.size > 1 else 0.0,
                upload_bytes=upload_bits / 8.0,
                save_ratio=runs[0].dense_bits / upload_bits,
            )
        )
    return rows


def table1_rows(results: SweepResult) -> list[Table1Row]:
    """Fold a finished Table I sweep into the paper's rows (see
    :func:`fold_accuracy_rows` for the aggregation rules)."""
    return fold_accuracy_rows(results, Table1Row)


def format_table1(rows: list[Table1Row]) -> str:
    """Render rows in the paper's Table I layout."""
    table_rows = [
        [
            r.dataset,
            r.method,
            pm(r.accuracy_mean, r.accuracy_std),
            format_bytes(r.upload_bytes),
            f"{r.save_ratio:.2f}x",
        ]
        for r in rows
    ]
    return format_table(
        ["Dataset", "Method", "Acc (%)", "Upload Size", "Save Ratio"],
        table_rows,
        title="Table I: test accuracy and per-round upload size",
    )
