"""Fig. 8: effect of the dropout rate (the paper's Reddit-like task by
default; any one dataset can be swept).

Panel (a): accuracy of FedAvg / FedDrop / AFD / FedBIAD at dropout
rates 0.1-0.7 (FedAvg is flat — it ignores ``p``).  Panel (b): TTA at
rates 0.3-0.6, read off the virtual clock
(:meth:`~repro.fl.metrics.History.time_to_accuracy`), so every row is
identical across reruns and sweep shard counts.

Declarative form: :func:`fig8_spec` builds explicit cells (FedAvg's
rows all share one cell — content addressing deduplicates it across
rates) and :func:`fig8_rows` reads the rows off the finished cells.
"""

from __future__ import annotations

from dataclasses import dataclass

from .configs import TTA_TARGETS
from .reporting import format_table
from .spec import ExperimentSpec, SweepSpec
from .sweep import SweepResult

__all__ = ["Fig8Row", "fig8_spec", "fig8_rows", "format_fig8"]

FIG8_METHODS = ("fedavg", "feddrop", "afd", "fedbiad")
#: panel (a)'s accuracy rates and panel (b)'s TTA rates
FIG8A_RATES = (0.1, 0.3, 0.5, 0.7)
FIG8B_RATES = (0.3, 0.4, 0.5, 0.6)
FIG8_RATES = tuple(sorted(set(FIG8A_RATES) | set(FIG8B_RATES)))


@dataclass
class Fig8Row:
    dropout_rate: float
    method: str
    accuracy: float
    tta_seconds: float | None


def fig8_spec(
    dataset: str = "reddit",
    methods: tuple[str, ...] = FIG8_METHODS,
    scale: str | None = None,
    seed: int = 0,
    overrides: dict | None = None,
) -> SweepSpec:
    """Fig. 8's sweep: each method at every dropout rate of both panels
    (FedAvg ignores the rate, so it runs once)."""
    cells = []
    for rate in FIG8_RATES:
        for method in methods:
            cell_overrides = dict(overrides or {})
            if method != "fedavg":
                cell_overrides["dropout_rate"] = rate
            cells.append(
                ExperimentSpec.make(dataset, method, scale=scale, seed=seed, overrides=cell_overrides)
            )
    return SweepSpec.from_cells("fig8", cells)


def fig8_rows(results: SweepResult) -> list[Fig8Row]:
    """One row per (dropout rate, method) of a finished Fig. 8 sweep,
    FedAvg's one cell filling every rate; TTA only at
    :data:`FIG8B_RATES`, against the cell's scale and task target."""
    by_key, methods = {}, []
    for cell, result in results:
        if result is None:
            raise LookupError(f"sweep incomplete: no result for cell {cell.label()}")
        if cell.method not in methods:
            methods.append(cell.method)
        rate = None if cell.method == "fedavg" else cell.overrides_dict()["dropout_rate"]
        by_key[cell.method, rate] = cell, result
    rows = []
    for rate in FIG8_RATES:
        for method in methods:
            cell, result = by_key[method, None if method == "fedavg" else rate]
            target = TTA_TARGETS[cell.scale][cell.task]
            rows.append(
                Fig8Row(
                    dropout_rate=rate,
                    method=method,
                    accuracy=result.best_accuracy,
                    tta_seconds=result.tta(target) if rate in FIG8B_RATES else None,
                )
            )
    return rows


def format_fig8(rows: list[Fig8Row], dataset: str = "reddit") -> str:
    table_rows = []
    for r in rows:
        tta = "-" if r.tta_seconds is None else f"{r.tta_seconds:.2f}s"
        table_rows.append(
            [f"{r.dropout_rate:.1f}", r.method, f"{100 * r.accuracy:.2f}", tta]
        )
    return format_table(
        ["Dropout rate", "Method", "Acc (%)", "TTA"],
        table_rows,
        title=f"Fig. 8: accuracy and TTA versus dropout rate ({dataset})",
    )
