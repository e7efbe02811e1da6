"""Experiment harness regenerating every table and figure of Section V.

The harness is declarative: each artifact is an
:class:`~repro.experiments.spec.SweepSpec` grid of content-addressed
:class:`~repro.experiments.spec.ExperimentSpec` cells, executed by a
:class:`~repro.experiments.sweep.SweepScheduler` against a
:class:`~repro.experiments.store.RunStore` (sharded across processes,
resumable after interruption), with a rows/result function folding the
finished cells back into the paper's layout.
"""

from .ablations import AblationRow, ablation_rows, ablations_spec, format_ablations
from .configs import (
    FIG2_METHODS,
    FIG7_TRACED,
    TABLE1_METHODS,
    TABLE2_METHODS,
    TTA_TARGETS,
    ExperimentPreset,
    active_scale,
    preset_for,
)
from .context import ExecutionContext
from .fig2 import Fig2Result, fig2_result, fig2_spec, format_fig2
from .fig6 import Fig6Panel, fig6_panels, fig6_spec, format_fig6
from .fig7 import FIG7_METHODS, Fig7Row, fig7_rows, fig7_spec, format_fig7
from .fig8 import FIG8_METHODS, Fig8Row, fig8_rows, fig8_spec, format_fig8
from .reporting import format_series, format_table, percent, pm, sparkline
from .runner import (
    RunResult,
    clear_cache,
    dense_upload_bits,
    resolve_method,
    run_experiment,
)
from .spec import ExperimentSpec, SweepSpec
from .store import MemoryRunStore, RunStore
from .sweep import SweepResult, SweepScheduler, run_sweep
from .table1 import Table1Row, format_table1, table1_rows, table1_spec
from .table2 import Table2Row, format_table2, table2_rows, table2_spec

__all__ = [
    "AblationRow",
    "ablation_rows",
    "ablations_spec",
    "format_ablations",
    "FIG2_METHODS",
    "TABLE1_METHODS",
    "TABLE2_METHODS",
    "TTA_TARGETS",
    "FIG7_TRACED",
    "ExperimentPreset",
    "active_scale",
    "preset_for",
    "ExecutionContext",
    "Fig2Result",
    "fig2_result",
    "fig2_spec",
    "format_fig2",
    "Fig6Panel",
    "fig6_panels",
    "fig6_spec",
    "format_fig6",
    "FIG7_METHODS",
    "Fig7Row",
    "fig7_rows",
    "fig7_spec",
    "format_fig7",
    "FIG8_METHODS",
    "Fig8Row",
    "fig8_rows",
    "fig8_spec",
    "format_fig8",
    "format_series",
    "format_table",
    "percent",
    "pm",
    "sparkline",
    "RunResult",
    "clear_cache",
    "dense_upload_bits",
    "resolve_method",
    "run_experiment",
    "ExperimentSpec",
    "SweepSpec",
    "MemoryRunStore",
    "RunStore",
    "SweepResult",
    "SweepScheduler",
    "run_sweep",
    "Table1Row",
    "format_table1",
    "table1_rows",
    "table1_spec",
    "Table2Row",
    "format_table2",
    "table2_rows",
    "table2_spec",
]
