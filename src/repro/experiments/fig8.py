"""Fig. 8: effect of the dropout rate on the Reddit-like task.

Panel (a): accuracy of FedAvg / FedDrop / AFD / FedBIAD at dropout
rates 0.1-0.7 (FedAvg is flat — it ignores ``p``).  Panel (b): TTA at
rates 0.3-0.6.

Declarative form: :func:`fig8_spec` builds explicit cells (FedAvg's
rows all share one cell — content addressing deduplicates it across
rates) and :func:`fig8_rows` rebuilds the same cells to look results
up, so both must be called with the same arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..comm.network import TMOBILE_5G, NetworkModel
from .configs import TTA_TARGETS, active_scale
from .reporting import format_table
from .spec import ExperimentSpec, SweepSpec
from .sweep import SweepResult

__all__ = ["Fig8Row", "fig8_spec", "fig8_rows", "format_fig8"]

FIG8_METHODS = ("fedavg", "feddrop", "afd", "fedbiad")
FIG8A_RATES = (0.1, 0.3, 0.5, 0.7)
FIG8B_RATES = (0.3, 0.4, 0.5, 0.6)


@dataclass
class Fig8Row:
    dropout_rate: float
    method: str
    accuracy: float
    tta_seconds: float | None


def _cells(dataset, methods, rates, scale, seed, overrides):
    for rate in rates:
        for method in methods:
            cell_overrides = dict(overrides or {})
            if method != "fedavg":
                cell_overrides["dropout_rate"] = rate
            yield ExperimentSpec.make(
                dataset, method, scale=scale, seed=seed, overrides=cell_overrides
            )


def fig8_spec(
    dataset: str = "reddit",
    methods: tuple[str, ...] = FIG8_METHODS,
    accuracy_rates: tuple[float, ...] = FIG8A_RATES,
    tta_rates: tuple[float, ...] = FIG8B_RATES,
    scale: str | None = None,
    seed: int = 0,
    overrides: dict | None = None,
) -> SweepSpec:
    """Fig. 8's sweep: each method at every dropout rate of both panels."""
    rates = sorted(set(accuracy_rates) | set(tta_rates))
    return SweepSpec.from_cells(
        "fig8", _cells(dataset, methods, rates, scale, seed, overrides)
    )


def fig8_rows(
    results: SweepResult,
    dataset: str = "reddit",
    methods: tuple[str, ...] = FIG8_METHODS,
    accuracy_rates: tuple[float, ...] = FIG8A_RATES,
    tta_rates: tuple[float, ...] = FIG8B_RATES,
    scale: str | None = None,
    seed: int = 0,
    network: NetworkModel = TMOBILE_5G,
    overrides: dict | None = None,
) -> list[Fig8Row]:
    """Rebuild the (rate, method) rows from a finished Fig. 8 sweep
    (arguments must match the :func:`fig8_spec` call that produced it)."""
    scale_name = scale or active_scale()
    target = TTA_TARGETS[scale_name][dataset]
    rates = sorted(set(accuracy_rates) | set(tta_rates))
    rows = []
    for rate in rates:
        for cell, method in zip(
            _cells(dataset, methods, (rate,), scale, seed, overrides), methods
        ):
            result = results[cell]
            rows.append(
                Fig8Row(
                    dropout_rate=rate,
                    method=method,
                    accuracy=result.best_accuracy,
                    tta_seconds=result.tta(target, network) if rate in tta_rates else None,
                )
            )
    return rows


def format_fig8(rows: list[Fig8Row]) -> str:
    table_rows = []
    for r in rows:
        tta = "-" if r.tta_seconds is None else f"{r.tta_seconds:.2f}s"
        table_rows.append(
            [f"{r.dropout_rate:.1f}", r.method, f"{100 * r.accuracy:.2f}", tta]
        )
    return format_table(
        ["Dropout rate", "Method", "Acc (%)", "TTA"],
        table_rows,
        title="Fig. 8: accuracy and TTA versus dropout rate (Reddit-like)",
    )
