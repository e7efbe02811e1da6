"""FedDrop (Caldas et al., 2019) — random federated dropout.

Each round the *server* samples, per client, a random set of units to
drop (so no pattern bits travel on the uplink).  Dropout applies to
fully connected and convolutional structure only — the paper stresses
that FedDrop "does not extend to recurrent layers":

* MLP models: a random ``(1-p)`` fraction of each hidden layer's units
  is kept; dropping a unit removes its weight row, its bias entry, and
  the corresponding column of the next layer.
* LSTM models: only the embedding rows (the non-recurrent input
  structure) are dropped; the recurrent matrices and the decoder travel
  in full — which is why its save ratio on text tasks is much smaller
  than FedBIAD's (Table I: 1.25x vs 2x).
"""

from __future__ import annotations

import numpy as np

from ..fl.client import ClientContext, ClientUpdate, FederatedMethod, LocalRun
from ..nn.models import MLPClassifier, WordLSTM
from .masks import lstm_unit_masks, mlp_unit_masks, random_keep

__all__ = ["FedDrop", "model_hidden_widths"]


def model_hidden_widths(model: MLPClassifier) -> list[int]:
    """Widths of the MLP's hidden layers (the output layer is excluded)."""
    linears = [
        p
        for name, p in model.named_parameters()
        if name.endswith(".weight") and name.startswith("net.")
    ]
    return [p.data.shape[0] for p in linears[:-1]]


class FedDrop(FederatedMethod):
    """Random unit dropout, non-recurrent structure only."""

    name = "feddrop"

    def sample_masks(self, ctx: ClientContext) -> dict[str, np.ndarray]:
        """Server-side random mask choice for one client round."""
        keep_fraction = 1.0 - ctx.config.dropout_rate
        model = ctx.model
        if isinstance(model, MLPClassifier):
            hidden = [
                random_keep(width, keep_fraction, ctx.rng)
                for width in model_hidden_widths(model)
            ]
            return mlp_unit_masks(model, hidden)
        if isinstance(model, WordLSTM):
            embed_mask = random_keep(model.vocab_size, keep_fraction, ctx.rng)
            hidden = [np.ones(cell.hidden_size, dtype=bool) for cell in model.lstm.cells]
            return lstm_unit_masks(model, hidden, embedding_row_mask=embed_mask)
        raise TypeError(f"FedDrop does not support model {type(model).__name__}")

    def local_start(self, ctx: ClientContext) -> LocalRun:
        p = ctx.config.dropout_rate
        scale = 1.0 / (1.0 - p) if p > 0 else 1.0
        masks = self.sample_masks(ctx)
        return LocalRun(ctx=ctx, params=ctx.global_params, masks=masks, scale=scale)

    def upload(self, run: LocalRun) -> ClientUpdate:
        if run.scale != 1.0:  # times 1/scale, which rounds unlike AFD's division
            for name, mask in run.masks.items():
                w = run.weights[name]
                np.multiply(w, 1.0 / run.scale, out=w, where=mask)
        # server-chosen masks: the uplink carries kept values only
        return run.kept_update()

    #: the one-client cohort; named here for the benchmark's tracer
    client_update = FederatedMethod.client_update
