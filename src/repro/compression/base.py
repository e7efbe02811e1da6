"""Compressor interface for sketched (post-training) compression.

A compressor maps a client's parameter *update* ``delta = local -
global`` to a wire representation and back.  The simulation works with
the decompressed reconstruction (what the server would see) plus the
exact wire bit count; per-client persistent state (error-feedback
residuals, momentum) lives in the ``state`` dict the simulation keeps
per client.

``allowed`` masks restrict which entries may be transmitted at all —
this is how compression composes with federated dropout (Fig. 5 of the
paper: "each client (1) drops partial rows, (2) compresses variational
parameters of the remaining rows").  Entries outside the mask are
guaranteed zero in the output and never counted in the payload.
"""

from __future__ import annotations

import numpy as np

from ..fl.parameters import ParamSet
from ..fl.rows import kept_entries

__all__ = ["Compressor", "allowed_count", "masked_delta", "flatten_allowed"]


class Compressor:
    """Base class: compress/decompress one round's update."""

    name = "identity"

    def compress(
        self,
        delta: ParamSet,
        allowed: dict[str, np.ndarray] | None,
        state: dict,
        rng: np.random.Generator,
    ) -> tuple[ParamSet, int]:
        """Return ``(reconstructed_delta, wire_bits)``.

        The default implementation is the identity (dense transfer).
        """
        bits = 32 * allowed_count(delta, allowed)
        return masked_delta(delta, allowed), bits


def allowed_count(delta: ParamSet, allowed: dict[str, np.ndarray] | None) -> int:
    """Number of entries eligible for transmission."""
    return kept_entries(allowed or {}, delta)


def flatten_allowed(delta: ParamSet, allowed: dict[str, np.ndarray] | None) -> np.ndarray:
    """Boolean vector over the flattened update marking allowed entries."""
    if allowed is None:
        return np.ones(delta.num_weights, dtype=bool)
    chunks = []
    for name, value in delta.items():
        mask = allowed.get(name)
        if mask is None:
            chunks.append(np.ones(value.size, dtype=bool))
        else:
            chunks.append(np.asarray(mask, dtype=bool).reshape(-1))
    return np.concatenate(chunks)


def masked_delta(delta: ParamSet, allowed: dict[str, np.ndarray] | None) -> ParamSet:
    """Zero the non-transmittable entries of ``delta``."""
    if allowed is None:
        return delta.clone()
    out = {}
    for name, value in delta.items():
        mask = allowed.get(name)
        out[name] = value.copy() if mask is None else value * mask
    return ParamSet(out)
