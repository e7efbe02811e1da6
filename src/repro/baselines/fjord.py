"""FjORD (Horvath et al., 2021) — ordered dropout.

FjORD extracts nested sub-models by *ordered* dropout: it always keeps
the left-most units of every hidden layer and drops the right-most
adjacent ones, so a width-``s`` sub-model is a prefix of the full model.
The paper's criticism (Section II): the ordering assumption "has only
been proved in linear mapping", and some important right-side units are
dropped regardless of the data — visible in Fig. 1(b).

FjORD trains *nested* sub-models of several widths.  At dropout rate
``p`` the default width menu is ``{1-p, (2-p)/2, 1.0}``, rotated over
``(client, round)`` pairs so tail units still train occasionally — this
reproduces the paper's observed save band (~1.4x at p=0.5) and its
accuracy behaviour (below FedAvg on LSTM tasks, since right-most units
train rarely regardless of their importance).  Pass an explicit
``widths`` list to override the menu (used by the ablation benchmarks,
e.g. ``widths=[0.5]`` for a uniform-width variant).
"""

from __future__ import annotations

import numpy as np

from ..fl.client import ClientContext, ClientUpdate, FederatedMethod, LocalRun
from ..nn.models import MLPClassifier, WordLSTM
from .feddrop import model_hidden_widths
from .masks import lstm_unit_masks, mlp_unit_masks, ordered_keep

__all__ = ["Fjord", "ordered_model_masks"]


def ordered_model_masks(model, width_fraction: float) -> dict[str, np.ndarray]:
    """Elementwise masks of the width-``s`` prefix sub-model."""
    if isinstance(model, MLPClassifier):
        hidden = [
            ordered_keep(width, width_fraction) for width in model_hidden_widths(model)
        ]
        return mlp_unit_masks(model, hidden)
    if isinstance(model, WordLSTM):
        hidden = [
            ordered_keep(cell.hidden_size, width_fraction) for cell in model.lstm.cells
        ]
        # Ordered dropout shrinks the *width* of the model, so the
        # embedding loses right-most dimensions (not vocabulary rows).
        embed_cols = ordered_keep(model.embedding.embedding_dim, width_fraction)
        return lstm_unit_masks(model, hidden, embedding_col_mask=embed_cols)
    raise TypeError(f"ordered dropout does not support {type(model).__name__}")


class Fjord(FederatedMethod):
    """Ordered (prefix) dropout with a fixed or per-client width."""

    name = "fjord"

    def __init__(self, widths: list[float] | None = None) -> None:
        super().__init__()
        self.widths = widths

    def width_menu(self, dropout_rate: float) -> list[float]:
        """The nested sub-model widths trained at rate ``p``."""
        if self.widths:
            return list(self.widths)
        small = 1.0 - dropout_rate
        return [small, (small + 1.0) / 2.0, 1.0]

    def client_width(self, ctx: ClientContext) -> float:
        """Width fraction for this client round (rotating menu)."""
        menu = self.width_menu(ctx.config.dropout_rate)
        return menu[(ctx.client_id + ctx.round_index) % len(menu)]

    def local_start(self, ctx: ClientContext) -> LocalRun:
        width = self.client_width(ctx)
        masks = ordered_model_masks(ctx.model, width)
        return LocalRun(ctx=ctx, params=ctx.global_params, masks=masks, aux={"width": width})

    def upload(self, run: LocalRun) -> ClientUpdate:
        # the sub-model width determines the structure; no mask bits travel
        return run.kept_update()

    #: the one-client cohort; named here for the benchmark's tracer
    client_update = FederatedMethod.client_update
