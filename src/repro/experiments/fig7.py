"""Fig. 7: LTTR (local compute per round) and Time-To-Accuracy.

TTA is read off the virtual clock
(:meth:`~repro.fl.metrics.History.time_to_accuracy`): download, compute
and upload under the cell's system model, so it is identical across
reruns and sweep shard counts.  LTTR on an untraced cell is the measured
wall-clock of one client's local update in our simulator (the paper
measured a MacBook Pro; we measure the simulating host — absolute values
differ, relative ordering is the target: FedBIAD slightly above the
other dropout methods because of its pattern/score bookkeeping, yet
lowest TTA thanks to fewer bits and fewer rounds to target).

Declarative form: :func:`fig7_spec` + :func:`fig7_rows` (targets come
from each cell's recorded scale).

Traced variant: ``fig7_spec(trace=...)`` pins every cell to a device
trace (``FLConfig.system = "trace:<name-or-path>"``; ``trace="preset"``
resolves the scale's :data:`~repro.experiments.configs.FIG7_TRACED`
entry).  :func:`fig7_rows` reports a traced cell's LTTR as the trace's
device-scaled compute (``sim_compute_seconds_mean``) instead of host
wall-clock, so the whole traced row is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..traces import is_trace_spec, trace_system_spec
from .configs import TTA_TARGETS, resolve_fig7_trace
from .reporting import format_table
from .spec import SweepSpec
from .sweep import SweepResult

__all__ = ["Fig7Row", "fig7_spec", "fig7_rows", "format_fig7"]

#: the five methods drawn in Fig. 7's bars
FIG7_METHODS = ("feddrop", "afd", "fjord", "fedmp", "fedbiad")


@dataclass
class Fig7Row:
    dataset: str
    method: str
    lttr_seconds: float
    tta_seconds: float | None
    target_accuracy: float
    #: the cell's device behaviour: a profile name or a trace spec
    system: str = "ideal"


def fig7_spec(
    datasets: tuple[str, ...] = ("mnist", "fmnist", "wikitext2", "reddit"),
    methods: tuple[str, ...] = FIG7_METHODS,
    scale: str | None = None,
    seed: int = 0,
    overrides: dict | None = None,
    trace: str | None = None,
) -> SweepSpec:
    """Fig. 7's sweep: the five bar methods on each dataset.

    ``trace`` switches the sweep to the traced variant: a registered
    trace name, a trace-file path, or the literal ``"preset"`` for the
    scale's :data:`~repro.experiments.configs.FIG7_TRACED` default.
    """
    overrides = dict(overrides or {})
    name = "fig7"
    if trace is not None:
        trace = resolve_fig7_trace(trace, scale)
        overrides["system"] = trace_system_spec(trace)
        name = "fig7-traced"
    return SweepSpec.grid(
        name, tasks=datasets, methods=methods, seeds=(seed,),
        scale=scale, overrides=overrides or None,
    )


def fig7_rows(results: SweepResult) -> list[Fig7Row]:
    """One row per finished cell, with the TTA target read from the
    cell's scale (the spec records the resolved scale, so rows survive
    ``REPRO_SCALE`` changing after the sweep ran).

    TTA is the virtual clock at the target round; LTTR is the
    trace-scaled simulated compute on traced cells and the measured
    LTTR elsewhere.
    """
    rows = []
    for cell, result in results:
        if result is None:
            raise LookupError(f"sweep incomplete: no result for cell {cell.label()}")
        target = TTA_TARGETS[cell.scale][cell.task]
        system = cell.overrides_dict().get("system", "ideal")
        if is_trace_spec(system):
            lttr = float(result.history.series("sim_compute_seconds_mean").mean())
        else:
            lttr = result.lttr
        rows.append(
            Fig7Row(
                dataset=cell.task,
                method=cell.method,
                lttr_seconds=lttr,
                tta_seconds=result.tta(target),
                target_accuracy=target,
                system=system,
            )
        )
    return rows


def format_fig7(rows: list[Fig7Row]) -> str:
    # the System column only appears when some row ran under a non-ideal
    # device model, so untraced output stays byte-identical
    with_system = any(r.system != "ideal" for r in rows)
    table_rows = []
    for r in rows:
        tta = "not reached" if r.tta_seconds is None else f"{r.tta_seconds:.2f}s"
        row = [
            r.dataset,
            r.method,
            f"{r.lttr_seconds * 1e3:.1f}ms",
            tta,
            f"{100 * r.target_accuracy:.0f}%",
        ]
        if with_system:
            row.append(r.system)
        table_rows.append(row)
    headers = ["Dataset", "Method", "LTTR", "TTA", "Target"]
    if with_system:
        headers.append("System")
    return format_table(
        headers,
        table_rows,
        title="Fig. 7: local training time per round and time-to-accuracy",
    )
