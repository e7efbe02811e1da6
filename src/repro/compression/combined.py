"""Composition of federated dropout with sketched compression (Fig. 5).

:class:`SketchedMethod` wraps any base federated method and compresses
its uplink *update* with a :class:`repro.compression.base.Compressor`:

* base = FedAvg gives the pure sketched baselines of Table II
  (FedPAQ, SignSGD, STC, DGC);
* base = FedBIAD / AFD / FjORD gives the combined rows of Table II
  (only the non-dropped structure is eligible for transmission, so the
  compressed payload shrinks by roughly the dropout saving — "FedBIAD
  with DGC is about 2x less than naive DGC").

The wrapper reconstructs what the server would decode and forwards the
base method's masks, so aggregation (including AFD's score updates)
behaves identically to the uncompressed pipeline.
"""

from __future__ import annotations

import numpy as np

from ..fl.aggregation import ClientPayload
from ..fl.client import ClientContext, ClientUpdate, FederatedMethod
from ..fl.parameters import ParamSet
from .base import Compressor

__all__ = ["SketchedMethod"]


class SketchedMethod(FederatedMethod):
    """Wrap ``base`` so its uplink travels through ``compressor``."""

    def __init__(self, base: FederatedMethod, compressor: Compressor) -> None:
        super().__init__()
        self.base = base
        self.compressor = compressor
        self.name = (
            compressor.name if base.name == "fedavg" else f"{base.name}+{compressor.name}"
        )

    # ------------------------------------------------------------------
    def setup(self, model, task, config, rng) -> None:
        self.base.setup(model, task, config, rng)
        self.rowspace = self.base.rowspace
        self.task = task
        self.config = config

    def _allowed_masks(self, update: ClientUpdate) -> dict[str, np.ndarray] | None:
        """Elementwise transmit-eligibility masks from the base payload."""
        allowed: dict[str, np.ndarray] = {}
        payload = update.payload
        for name, value in payload.params.items():
            mask = payload.mask_array(name, value.shape)
            if mask is not None:
                allowed[name] = np.asarray(mask, dtype=bool)
        return allowed or None

    def _pattern_overhead_bits(self, update: ClientUpdate) -> int:
        """Client-chosen patterns (FedBIAD) still ride along as 1 bit/row."""
        if "pattern" in update.aux and self.rowspace is not None:
            return self.rowspace.total_rows
        return 0

    def cohort_update(self, ctxs: list[ClientContext]) -> list[ClientUpdate]:
        """Train through the base method's own cohort hook (so FedAvg
        stacks), then compress each client with its own ``ctx.rng``,
        which the base consumed only through that client's batcher."""
        updates = self.base.cohort_update(ctxs)
        return [self._compress(ctx, update) for ctx, update in zip(ctxs, updates)]

    def _compress(self, ctx: ClientContext, update: ClientUpdate) -> ClientUpdate:
        allowed = self._allowed_masks(update)
        delta = update.payload.params - ctx.global_params
        state = ctx.state.setdefault("sketch", {})
        reconstructed, bits = self.compressor.compress(delta, allowed, state, ctx.rng)

        new_arrays = {}
        for name, global_value in ctx.global_params.items():
            value = global_value + reconstructed[name]
            if allowed is not None and name in allowed:
                value = value * allowed[name]
            new_arrays[name] = value
        payload = ClientPayload(
            params=ParamSet(new_arrays),
            weight=update.payload.weight,
            masks=update.payload.masks,
        )
        return ClientUpdate(
            payload=payload,
            upload_bits=bits + self._pattern_overhead_bits(update),
            train_losses=update.train_losses,
            aux={**update.aux, "uncompressed_bits": update.upload_bits},
        )

    # ------------------------------------------------------------------
    def aggregate(self, round_index, prev_global, updates):
        return self.base.aggregate(round_index, prev_global, updates)

    def download_bits(self, global_params: ParamSet) -> int:
        return self.base.download_bits(global_params)
