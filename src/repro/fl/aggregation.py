"""Server-side aggregation rules.

Implements Eq. (10) of the paper and the per-row normalized variant used
by practical federated-dropout systems (see DESIGN.md §1):

* ``"per-row"`` (default): each row is averaged over the clients that
  *held* it, weighted by their data sizes; rows dropped by every
  selected client keep the previous global value.  This is the
  HeteroFL-style region-wise normalization.
* ``"paper-literal"``: Eq. (10) verbatim — masked parameters are summed
  and divided by the *total* selected data weight, shrinking rows that
  some clients dropped.

Masks are boolean arrays per parameter: row masks with shape
``(rows,)`` for droppable matrices, or elementwise masks matching the
parameter shape (used by unstructured pruning baselines).  Parameters
without a mask count as fully held.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .parameters import ParamSet

__all__ = ["ClientPayload", "aggregate", "AGGREGATION_MODES"]

AGGREGATION_MODES = ("per-row", "paper-literal")


@dataclass
class ClientPayload:
    """What one client contributes to aggregation.

    Attributes
    ----------
    params:
        Full-shaped parameter set; dropped entries must already be zero.
    weight:
        Aggregation weight ``|D_k|``.
    masks:
        Optional per-parameter boolean masks (row or elementwise).
    """

    params: ParamSet
    weight: float
    masks: dict[str, np.ndarray] = field(default_factory=dict)

    def mask_array(self, name: str, shape: tuple[int, ...]) -> np.ndarray | None:
        """Return the mask broadcast to ``shape``, or None if unmasked."""
        mask = self.masks.get(name)
        if mask is None:
            return None
        mask = np.asarray(mask, dtype=bool)
        if mask.shape == shape:
            return mask
        if mask.ndim == 1 and len(shape) == 2 and mask.shape[0] == shape[0]:
            return np.broadcast_to(mask[:, None], shape)
        raise ValueError(
            f"mask for {name} has shape {mask.shape}, expected {shape} or ({shape[0]},)"
        )


def aggregate(
    payloads: list[ClientPayload],
    prev_global: ParamSet,
    mode: str = "per-row",
) -> ParamSet:
    """Combine client payloads into the next global parameter set.

    Parameters
    ----------
    payloads:
        Non-empty list of client contributions.
    prev_global:
        Previous global parameters; the fallback for entries no client
        held (per-row mode only).
    mode:
        One of :data:`AGGREGATION_MODES`.
    """
    if not payloads:
        raise ValueError("aggregate() requires at least one payload")
    if mode not in AGGREGATION_MODES:
        raise ValueError(f"unknown aggregation mode {mode!r}")
    total_weight = float(sum(p.weight for p in payloads))
    if total_weight <= 0:
        raise ValueError("total aggregation weight must be positive")

    out: dict[str, np.ndarray] = {}
    for name, prev in prev_global.items():
        numerator = np.zeros_like(prev)
        if mode == "paper-literal":
            for p in payloads:
                numerator += p.weight * p.params[name]
            out[name] = numerator / total_weight
            continue
        masks = [p.mask_array(name, prev.shape) for p in payloads]
        if all(mask is None for mask in masks):
            # every client held every entry: the denominator is the
            # running weight sum, the same in each entry
            held_weight = 0.0
            for p in payloads:
                numerator += p.weight * p.params[name]
                held_weight += p.weight
            out[name] = numerator / held_weight if held_weight > 0 else prev.copy()
            continue
        denominator = np.zeros_like(prev)
        for p, mask in zip(payloads, masks):
            if mask is None:
                numerator += p.weight * p.params[name]
                denominator += p.weight
            else:
                numerator += p.weight * (p.params[name] * mask)
                denominator += p.weight * mask
        held = denominator > 0
        value = prev.copy()
        value[held] = numerator[held] / denominator[held]
        out[name] = value
    return ParamSet(out)
