"""Unit-level mask construction shared by the dropout baselines.

FedDrop, FjORD and HeteroFL reason about *units* (neurons / hidden
channels), not raw matrix rows: dropping hidden unit ``j`` of an MLP
removes row ``j`` of the layer's weight matrix, element ``j`` of its
bias, and column ``j`` of the next layer's matrix.  For the LSTM model,
hidden unit ``j`` of layer ``l`` owns the four gate rows ``g*H + j`` of
``w_x``/``w_h``, the bias entries at the same offsets, column ``j`` of
its own ``w_h``, column ``j`` of the next layer's ``w_x`` (or of the
decoder), and nothing in the embedding.

These helpers return *elementwise* boolean masks keyed by parameter
name, in the one mask vocabulary of :mod:`repro.fl.rows`: the shared
loop (:func:`repro.fl.client.run_local_sgd`) trains under them, and
:class:`repro.fl.aggregation.ClientPayload` aggregates under them.
"""

from __future__ import annotations

import numpy as np

from ..fl.rows import kept_entries
from ..nn.models import MLPClassifier, WordLSTM

__all__ = [
    "ordered_keep",
    "random_keep",
    "mlp_unit_masks",
    "lstm_unit_masks",
    "kept_entries",
]


def ordered_keep(n_units: int, fraction: float) -> np.ndarray:
    """Keep the first ``ceil(fraction * n)`` units (FjORD's ordered dropout)."""
    kept = max(1, int(np.ceil(fraction * n_units)))
    mask = np.zeros(n_units, dtype=bool)
    mask[:kept] = True
    return mask


def random_keep(n_units: int, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Keep a uniform random subset of ``ceil(fraction * n)`` units."""
    kept = max(1, int(np.ceil(fraction * n_units)))
    mask = np.zeros(n_units, dtype=bool)
    mask[rng.choice(n_units, size=kept, replace=False)] = True
    return mask


def mlp_unit_masks(
    model: MLPClassifier,
    unit_masks: list[np.ndarray],
) -> dict[str, np.ndarray]:
    """Elementwise masks for an MLP given per-hidden-layer unit masks.

    ``unit_masks[i]`` is a boolean vector over the units of hidden layer
    ``i``.  The output layer is never dropped (classes must survive).
    """
    linears = [
        (name, p)
        for name, p in model.named_parameters()
        if name.endswith(".weight") and name.startswith("net.")
    ]
    if len(unit_masks) != len(linears) - 1:
        raise ValueError(
            f"expected {len(linears) - 1} unit masks, got {len(unit_masks)}"
        )
    masks: dict[str, np.ndarray] = {}
    for i, (name, p) in enumerate(linears):
        full = np.ones(p.data.shape, dtype=bool)
        if i < len(unit_masks):  # rows of this layer = its output units
            full &= unit_masks[i][:, None]
        if i > 0:  # columns = previous layer's units
            full &= unit_masks[i - 1][None, :]
        masks[name] = full
        bias_name = name.replace(".weight", ".bias")
        if i < len(unit_masks):
            masks[bias_name] = unit_masks[i].copy()
    return masks


def lstm_unit_masks(
    model: WordLSTM,
    hidden_masks: list[np.ndarray],
    embedding_row_mask: np.ndarray | None = None,
    embedding_col_mask: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Elementwise masks for a :class:`WordLSTM` given per-layer unit masks.

    ``hidden_masks[l]`` selects the kept hidden units of LSTM layer
    ``l``; ``embedding_row_mask`` optionally selects kept vocabulary
    rows (FedDrop-style word dropout) and ``embedding_col_mask`` kept
    embedding dimensions (FjORD-style width shrinking of a tied model).

    For an untied model the decoder's output rows are never dropped but
    its columns follow the top layer's units; for a tied model the
    decoder shares the embedding mask automatically.
    """
    cells = model.lstm.cells
    if len(hidden_masks) != len(cells):
        raise ValueError(f"expected {len(cells)} hidden masks, got {len(hidden_masks)}")
    masks: dict[str, np.ndarray] = {}
    emb_shape = model.embedding.weight.data.shape
    if embedding_row_mask is not None or embedding_col_mask is not None:
        emb = np.ones(emb_shape, dtype=bool)
        if embedding_row_mask is not None:
            emb &= np.asarray(embedding_row_mask, dtype=bool)[:, None]
        if embedding_col_mask is not None:
            emb &= np.asarray(embedding_col_mask, dtype=bool)[None, :]
        masks["embedding.weight"] = emb

    for layer, cell in enumerate(cells):
        hs = cell.hidden_size
        unit = np.asarray(hidden_masks[layer], dtype=bool)
        if unit.shape != (hs,):
            raise ValueError(f"hidden mask {layer} must have shape ({hs},)")
        gate_rows = np.tile(unit, 4)  # the 4 gate rows owned by each unit
        wx = np.ones(cell.w_x.data.shape, dtype=bool) & gate_rows[:, None]
        wh = np.ones(cell.w_h.data.shape, dtype=bool) & gate_rows[:, None]
        wh &= unit[None, :]  # recurrent input columns
        if layer > 0:
            prev_unit = np.asarray(hidden_masks[layer - 1], dtype=bool)
            wx &= prev_unit[None, :]
        elif embedding_col_mask is not None:
            wx &= np.asarray(embedding_col_mask, dtype=bool)[None, :]
        masks[f"lstm.cell{layer}.w_x"] = wx
        masks[f"lstm.cell{layer}.w_h"] = wh
        masks[f"lstm.cell{layer}.bias"] = gate_rows.copy()

    if not model.tie_weights:
        top_unit = np.asarray(hidden_masks[-1], dtype=bool)
        dec_shape = model.decoder.weight.data.shape
        masks["decoder.weight"] = np.broadcast_to(top_unit[None, :], dec_shape).copy()
    return masks
