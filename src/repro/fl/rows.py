"""Row space: the index set that dropping patterns operate on.

The paper treats the model as a list of weight-matrix rows: a dropping
pattern ``beta`` is a binary vector over all ``J`` rows of all droppable
matrices (Section III-C), and zeroing a row is "equivalent to dropout of
the corresponding activation".  :class:`RowSpace` materializes this at
*activation granularity*: each pattern bit covers the rows owned by one
activation unit — exactly one matrix row for plain matrices, and the
four gate rows of one hidden unit for gate-stacked LSTM matrices (see
:class:`repro.nn.module.Parameter.row_units`).

It provides:

* exact-fraction pattern sampling from ``Z_S^N`` (keep exactly
  ``ceil((1-p) * n_units)`` units per matrix — the per-matrix variant of
  the paper's global set, see DESIGN.md §4);
* score-based pattern construction for FedBIAD's stage two;
* the masking that :func:`repro.fl.client.run_local_sgd` applies for
  every method, to gradient arrays and parameters bound to their masks
  once per stack (:func:`bind_masks`).

Masks have one vocabulary (:func:`broadcast_mask`): a mask is aligned
with its parameter's leading axes and broadcasts over the axes it
lacks.  A *row* mask ``(rows,)`` on a weight matrix keeps or drops whole
rows (FedBIAD's patterns, AFD); an *element* mask has the parameter's
own shape (FedDrop, FjORD, HeteroFL).  A stack of clients puts a client
axis in front of either, ``(c, 1, out)`` for biases, matching
:meth:`repro.nn.module.Module.stacked`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.module import Module, RowSpec
from .parameters import ParamSet

__all__ = ["RowBlock", "RowSpace", "bind_masks", "broadcast_mask", "kept_entries"]


def broadcast_mask(mask: np.ndarray, ndim: int) -> np.ndarray:
    """``mask`` with trailing axes added up to ``ndim``, so a row mask
    broadcasts along its rows and an element mask is used as is."""
    return mask.reshape(mask.shape + (1,) * (ndim - mask.ndim))


def kept_entries(masks: dict[str, np.ndarray], params) -> int:
    """Number of transmitted weights under row or element masks.

    Parameters without a mask are transmitted in full.
    """
    total = 0
    for name, value in params.items():
        mask = masks.get(name)
        if mask is None:
            total += int(value.size)
        else:
            mask = broadcast_mask(np.asarray(mask, dtype=bool), value.ndim)
            total += int(np.count_nonzero(np.broadcast_to(mask, value.shape)))
    return total


#: a stack's masks bound to the parameters (:func:`bind_masks`)
Binding = list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]


def bind_masks(model: Module, masks: dict[str, tuple[np.ndarray, np.ndarray]]) -> Binding:
    """Bind each masked parameter of ``model`` to its mask, once for
    many steps: ``(i, data, keep, drop)`` for the parameter at position
    ``i`` of ``model.parameters()``, its array, a float keep-mask (1.0
    kept, 0.0 dropped) for the gradient multiply and a bool drop-mask
    for the pin, both broadcast to the parameter's rank.

    ``masks`` maps names to ``(keep, drop)`` pairs of float and bool
    masks.  They are bound as views, so rewriting a pair in place (a
    stack's per-client mask swap) takes effect in the next masking.
    """
    bound = []
    for i, (name, p) in enumerate(model.named_parameters()):
        if name in masks:
            keep, drop = masks[name]
            ndim = p.data.ndim
            bound.append((i, p.data, broadcast_mask(keep, ndim), broadcast_mask(drop, ndim)))
    return bound


@dataclass(frozen=True)
class RowBlock:
    """One droppable matrix inside the global pattern index."""

    name: str
    n_rows: int
    row_len: int
    n_units: int
    offset: int  # first global pattern index of this block

    @property
    def stop(self) -> int:
        return self.offset + self.n_units

    @property
    def rows_per_unit(self) -> int:
        return self.n_rows // self.n_units

    @property
    def weights_per_unit(self) -> int:
        return self.rows_per_unit * self.row_len


class RowSpace:
    """Global pattern indexing over a model's droppable weight matrices.

    ``total_rows`` is the paper's ``J``: the number of pattern bits.
    """

    def __init__(self, specs: list[RowSpec]) -> None:
        if not specs:
            raise ValueError("model has no droppable weight matrices")
        blocks = []
        offset = 0
        for spec in specs:
            blocks.append(
                RowBlock(
                    name=spec.name,
                    n_rows=spec.n_rows,
                    row_len=spec.row_len,
                    n_units=spec.row_units,
                    offset=offset,
                )
            )
            offset += spec.row_units
        self.blocks: list[RowBlock] = blocks
        self.total_rows: int = offset
        self._by_name = {b.name: b for b in blocks}
        self._unit_weights = np.concatenate(
            [np.full(b.n_units, b.weights_per_unit, dtype=np.int64) for b in blocks]
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_module(cls, module: Module) -> "RowSpace":
        return cls(module.row_specs())

    @property
    def droppable_weights(self) -> int:
        """Total scalar weights covered by the pattern index."""
        return int(self._unit_weights.sum())

    def block(self, name: str) -> RowBlock:
        return self._by_name[name]

    def has(self, name: str) -> bool:
        return name in self._by_name

    # ------------------------------------------------------------------
    # pattern construction
    # ------------------------------------------------------------------
    def keep_counts(self, dropout_rate: float) -> dict[str, int]:
        """Units kept per matrix at dropout rate ``p``: ceil((1-p)*units).

        Guarantees at least one kept unit per matrix so every layer stays
        trainable (``S >= 1`` in the paper's notation).
        """
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        return {
            b.name: max(1, int(np.ceil((1.0 - dropout_rate) * b.n_units)))
            for b in self.blocks
        }

    def unsparse_number(self, dropout_rate: float) -> int:
        """S — the number of nonzero droppable weights at rate ``p``."""
        counts = self.keep_counts(dropout_rate)
        return sum(counts[b.name] * b.weights_per_unit for b in self.blocks)

    def sample_pattern(self, dropout_rate: float, rng: np.random.Generator) -> np.ndarray:
        """Sample a dropping pattern from ``Z_S^N`` (Section IV-C).

        Returns a boolean vector of length ``total_rows`` with exactly
        the per-matrix keep counts set to True.
        """
        beta = np.zeros(self.total_rows, dtype=bool)
        counts = self.keep_counts(dropout_rate)
        for b in self.blocks:
            kept = rng.choice(b.n_units, size=counts[b.name], replace=False)
            beta[b.offset + kept] = True
        return beta

    def pattern_from_scores(
        self, scores: np.ndarray, dropout_rate: float
    ) -> np.ndarray:
        """Stage-two pattern: keep the highest-scored units (Section IV-D).

        Implements the p-quantile thresholding of the weight score
        vector ``E^k`` with a deterministic tie-break (stable sort), so
        the kept count always equals the stage-one count.
        """
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (self.total_rows,):
            raise ValueError(
                f"scores must have shape ({self.total_rows},), got {scores.shape}"
            )
        beta = np.zeros(self.total_rows, dtype=bool)
        counts = self.keep_counts(dropout_rate)
        for b in self.blocks:
            block_scores = scores[b.offset : b.stop]
            order = np.argsort(-block_scores, kind="stable")
            beta[b.offset + order[: counts[b.name]]] = True
        return beta

    def full_pattern(self) -> np.ndarray:
        """The no-dropout pattern (all units kept)."""
        return np.ones(self.total_rows, dtype=bool)

    # ------------------------------------------------------------------
    # pattern application
    # ------------------------------------------------------------------
    def split(self, beta: np.ndarray) -> dict[str, np.ndarray]:
        """Slice a global pattern into per-matrix *row* masks.

        Unit bits are expanded to rows: gate-stacked matrices tile the
        unit mask over their gates (rows are gate-major, so row
        ``g * H + j`` belongs to unit ``j``).
        """
        beta = np.asarray(beta, dtype=bool)
        if beta.shape != (self.total_rows,):
            raise ValueError(f"pattern must have shape ({self.total_rows},)")
        out = {}
        for b in self.blocks:
            unit_mask = beta[b.offset : b.stop]
            if b.rows_per_unit == 1:
                out[b.name] = unit_mask
            else:
                out[b.name] = np.tile(unit_mask, b.rows_per_unit)
        return out

    def join(self, masks: dict[str, np.ndarray]) -> np.ndarray:
        """Inverse of :meth:`split` (row masks back to unit bits)."""
        beta = np.zeros(self.total_rows, dtype=bool)
        for b in self.blocks:
            row_mask = np.asarray(masks[b.name], dtype=bool)
            beta[b.offset : b.stop] = row_mask[: b.n_units]
        return beta

    def kept_weights(self, beta: np.ndarray) -> int:
        """Scalar weights covered by kept units (transmitted weights)."""
        beta = np.asarray(beta, dtype=bool)
        return int(self._unit_weights[beta].sum())

    def apply_pattern(self, params: ParamSet, beta: np.ndarray) -> ParamSet:
        """Return a copy of ``params`` with dropped rows zeroed.

        This realizes ``beta ∘ U`` of Eq. (6): droppable matrices lose
        their dropped rows; non-droppable parameters pass through.
        """
        masks = self.split(beta)
        out = {}
        for name, value in params.items():
            if name in masks:
                out[name] = value * masks[name][:, None]
            else:
                out[name] = value.copy()
        return ParamSet(out)

    def mask_model_gradients(self, grads: list[np.ndarray | None], bound: Binding) -> None:
        """Multiply the gradient arrays ``grads`` (one per parameter, in
        parameter order) by their keep-masks in place (Eq. 7's masking).

        ``bound`` is the masks' binding (:func:`bind_masks`); a float
        keep-mask gives the bytes a bool one does, without its cast.
        """
        for i, _, keep, _ in bound:
            if grads[i] is not None:
                grads[i] *= keep

    def zero_dropped_rows(self, bound: Binding) -> None:
        """Pin the dropped entries of the live model to +0.0 (post-step
        guard).  Written, never multiplied: ``x * 0.0`` is -0.0 for
        negative ``x``."""
        for _, data, _, drop in bound:
            np.copyto(data, 0.0, where=drop)
