"""Core layers: Linear, Embedding, and a Sequential container.

Every layer with parameters runs a stack of ``c`` clients as well as one
(:meth:`~repro.nn.module.Module.stacked`): its parameters then carry a
leading client axis, and so do its inputs and outputs.
"""

from __future__ import annotations

import numpy as np

from . import init as initializers
from .functional import embedding_lookup
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["Linear", "Embedding", "Sequential", "ReLU", "Tanh"]


class Linear(Module):
    """Affine map ``y = x @ W.T + b``.

    ``weight`` has shape ``(out_features, in_features)`` so that each row
    corresponds to one output unit — the row granularity that FedBIAD's
    dropping patterns operate on.

    Stacked, a ``(c, out, in)`` weight and a ``(c, 1, out)`` bias map
    ``(c, batch, in)`` inputs client by client, because the transpose is
    over the last two axes only.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
        bias: bool = True,
        init: str = "kaiming",
        droppable: bool = True,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        if init == "kaiming":
            w = initializers.kaiming_uniform((out_features, in_features), rng)
        elif init == "xavier":
            w = initializers.xavier_uniform((out_features, in_features), rng)
        elif init == "uniform":
            w = initializers.uniform((out_features, in_features), rng)
        else:
            raise ValueError(f"unknown init {init!r}")
        self.weight = Parameter(w, droppable=droppable)
        self.has_bias = bias
        if bias:
            self.bias = Parameter(initializers.zeros((out_features,)))

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.mT
        if self.has_bias:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table mapping integer tokens to dense vectors.

    Rows are word vectors; under FedBIAD they are droppable like any
    other weight rows (the adaptive pattern quickly learns to keep the
    rows of frequent tokens).  Stacked, a ``(c, V, D)`` table maps
    ``(c, ...)`` indices client by client (:func:`embedding_lookup`).
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator | None = None,
        bound: float = 0.1,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            initializers.uniform((num_embeddings, embedding_dim), rng, bound=bound),
            droppable=True,
        )

    def forward(self, indices: np.ndarray) -> Tensor:
        return embedding_lookup(self.weight, indices)


class ReLU(Module):
    """Stateless ReLU layer for use inside :class:`Sequential`."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    """Stateless tanh layer for use inside :class:`Sequential`."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sequential(Module):
    """Apply child modules in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self._layer_names = []
        for i, layer in enumerate(layers):
            name = f"layer{i}"
            setattr(self, name, layer)
            self._layer_names.append(name)

    def __len__(self) -> int:
        return len(self._layer_names)

    def __iter__(self):
        return (getattr(self, name) for name in self._layer_names)

    def forward(self, x):
        for layer in self:
            x = layer(x)
        return x
