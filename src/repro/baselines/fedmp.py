"""FedMP (Jiang et al., 2022) — magnitude-based model pruning.

FedMP "assumes that small weights have a weak effect on model accuracy"
and prunes the weights with the lowest absolute values on each client —
*without* considering the effect on training loss, which is the paper's
criticism of it.

Implementation: the client trains the full model for ``V`` iterations,
then prunes the bottom ``p`` fraction of weights by global magnitude
across all weight matrices (biases survive).  Because pruning is
unstructured, the uplink needs a presence bitmap: kept values at 32 bits
plus 1 bit per weight.
"""

from __future__ import annotations

import numpy as np

from ..fl.aggregation import ClientPayload
from ..fl.client import ClientUpdate, FederatedMethod, LocalRun
from ..fl.parameters import ParamSet
from ..fl.rows import kept_entries
from ..fl.sizing import element_masked_bits

__all__ = ["FedMP", "magnitude_masks"]


def magnitude_masks(
    params: ParamSet,
    prune_rate: float,
    prunable: set[str],
) -> dict[str, np.ndarray]:
    """Elementwise keep-masks pruning the globally smallest weights.

    The threshold is the ``prune_rate`` quantile of ``|w|`` pooled over
    all prunable matrices, so dense layers compete with sparse ones —
    the global-magnitude criterion of the pruning literature.
    """
    if not 0.0 <= prune_rate < 1.0:
        raise ValueError("prune_rate must be in [0, 1)")
    pool = np.concatenate(
        [np.abs(params[name]).reshape(-1) for name in sorted(prunable)]
    )
    threshold = np.quantile(pool, prune_rate) if prune_rate > 0 else -np.inf
    return {
        name: np.abs(params[name]) > threshold
        for name in sorted(prunable)
    }


class FedMP(FederatedMethod):
    """Unstructured magnitude pruning of the trained local model."""

    name = "fedmp"

    def upload(self, run: LocalRun) -> ClientUpdate:
        params = ParamSet(run.weights)
        prunable = {name for name, p in run.ctx.model.named_parameters() if p.droppable}
        masks = magnitude_masks(params, run.ctx.config.dropout_rate, prunable)
        pruned = ParamSet(
            {
                name: (value * masks[name] if name in masks else value.copy())
                for name, value in params.items()
            }
        )
        payload = ClientPayload(params=pruned, weight=float(run.ctx.n_samples), masks=masks)
        return ClientUpdate(
            payload=payload,
            upload_bits=element_masked_bits(params, kept_entries(masks, params)),
            train_losses=run.losses,
        )

    #: the one-client cohort; named here for the benchmark's tracer
    client_update = FederatedMethod.client_update
