"""Ablations of FedBIAD's design choices (DESIGN.md §3, last row).

Not in the paper's evaluation, but each knob corresponds to a design
decision the paper makes implicitly; the ablation bench quantifies it:

* ``aggregation`` — per-row normalization (our default) vs the literal
  Eq. (10) divisor;
* ``adaptive`` — the loss-trend rule of Eq. (8) vs unconditional
  pattern resampling every tau iterations;
* ``use_stage2`` — the score-driven stage two of Section IV-D;
* ``bayesian_init`` — sampling from N(U, s2 I) vs copying U;
* ``rescale`` — inverted-dropout rescaling of kept rows.

Declarative form: :func:`ablations_spec` (one cell per variant, in
:data:`ABLATIONS` order) + :func:`ablation_rows` (labels the finished
cells in that order).
"""

from __future__ import annotations

from dataclasses import dataclass

from .reporting import format_table
from .spec import ExperimentSpec, SweepSpec
from .sweep import SweepResult

__all__ = ["AblationRow", "ablations_spec", "ablation_rows", "format_ablations"]


@dataclass
class AblationRow:
    name: str
    accuracy: float
    upload_bytes: float


#: (label, config_overrides, method_kwargs)
ABLATIONS = (
    ("fedbiad (full)", {}, {}),
    ("aggregation=paper-literal", {"aggregation": "paper-literal"}, {}),
    ("no-adaptive (resample always)", {}, {"adaptive": False}),
    ("no-stage2", {}, {"use_stage2": False}),
    ("no-bayesian-init", {}, {"bayesian_init": False}),
    ("no-rescale", {}, {"rescale": False}),
)


def ablations_spec(
    dataset: str = "fmnist",
    scale: str | None = None,
    seed: int = 0,
    overrides: dict | None = None,
) -> SweepSpec:
    """The ablation bench as a sweep: one FedBIAD cell per variant."""
    return SweepSpec.from_cells(
        "ablations",
        (
            ExperimentSpec.make(
                dataset, "fedbiad", scale=scale, seed=seed,
                overrides={**(overrides or {}), **variant_overrides},
                method_kwargs=method_kwargs,
            )
            for _, variant_overrides, method_kwargs in ABLATIONS
        ),
    )


def ablation_rows(results: SweepResult) -> list[AblationRow]:
    """The labelled ablation rows of a finished :func:`ablations_spec`
    sweep, one per cell."""
    rows = []
    for (label, _, _), (cell, result) in zip(ABLATIONS, results, strict=True):
        if result is None:
            raise LookupError(f"sweep incomplete: no result for cell {cell.label()}")
        rows.append(
            AblationRow(
                name=label,
                accuracy=result.best_accuracy,
                upload_bytes=result.upload_bits / 8.0,
            )
        )
    return rows


def format_ablations(rows: list[AblationRow], dataset: str = "fmnist") -> str:
    table_rows = [
        [r.name, f"{100 * r.accuracy:.2f}", f"{r.upload_bytes / 1024:.1f}KB"] for r in rows
    ]
    return format_table(
        ["Variant", "Acc (%)", "Upload"],
        table_rows,
        title=f"Ablations of FedBIAD design choices ({dataset})",
    )
