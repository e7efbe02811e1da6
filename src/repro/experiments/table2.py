"""Table II: sketched compression vs FedBIAD+DGC.

Declarative form mirrors :mod:`repro.experiments.table1`:
:func:`table2_spec` + :func:`table2_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..data.registry import TASK_NAMES
from ..fl.sizing import format_bytes
from .configs import TABLE2_METHODS
from .reporting import format_table, pm
from .spec import SweepSpec
from .sweep import SweepResult
from .table1 import fold_accuracy_rows

__all__ = ["Table2Row", "table2_spec", "table2_rows", "format_table2"]


@dataclass
class Table2Row:
    dataset: str
    method: str
    accuracy_mean: float
    accuracy_std: float
    upload_bytes: float
    save_ratio: float


def table2_spec(
    datasets: tuple[str, ...] = TASK_NAMES,
    methods: tuple[str, ...] = TABLE2_METHODS,
    scale: str | None = None,
    seeds: tuple[int, ...] = (0,),
    overrides: dict | None = None,
) -> SweepSpec:
    """Table II's (dataset x method x seed) grid as a sweep."""
    return SweepSpec.grid(
        "table2", tasks=datasets, methods=methods, seeds=seeds,
        scale=scale, overrides=overrides,
    )


def table2_rows(results: SweepResult) -> list[Table2Row]:
    """Fold a finished Table II sweep into rows (save ratios are
    relative to dense FedAvg; aggregation rules shared with Table I —
    see :func:`~repro.experiments.table1.fold_accuracy_rows`)."""
    return fold_accuracy_rows(results, Table2Row)


def format_table2(rows: list[Table2Row]) -> str:
    table_rows = [
        [
            r.dataset,
            r.method,
            pm(r.accuracy_mean, r.accuracy_std),
            format_bytes(r.upload_bytes),
            f"{r.save_ratio:.0f}x",
        ]
        for r in rows
    ]
    return format_table(
        ["Dataset", "Method", "Acc (%)", "Upload Size", "Save Ratio"],
        table_rows,
        title="Table II: sketched compression methods vs FedBIAD+DGC",
    )
