"""Module/parameter containers for the NumPy neural-network substrate.

A :class:`Module` owns named :class:`Parameter` tensors and child modules,
and exposes the two views the federated layer needs:

* ``state_dict()`` / ``load_state_dict()`` — numpy-array snapshots that the
  FL server and clients exchange (see :mod:`repro.fl.parameters`);
* ``row_specs()`` — the ordered description of the *droppable weight rows*
  that FedBIAD's dropping patterns index (see :mod:`repro.fl.rows`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .tensor import Tensor

__all__ = ["Parameter", "Module", "RowSpec"]


def _checked(name: str, value: np.ndarray, expected: tuple[int, ...]) -> np.ndarray:
    if value.shape != expected:
        raise ValueError(f"shape mismatch for {name}: expected {expected}, got {value.shape}")
    return value


class Parameter(Tensor):
    """A trainable tensor.

    Parameters
    ----------
    data:
        Initial value.
    droppable:
        Whether the parameter participates in row-wise federated dropout.
        Per the paper (Section IV-C and Fig. 4), 2-D weight matrices are
        droppable row-by-row; 1-D biases are always transmitted.
    row_units:
        Number of *activation units* the rows correspond to.  For plain
        matrices this equals the row count (one pattern bit per row).
        Gate-stacked LSTM matrices set ``row_units = hidden_size`` so
        that one pattern bit covers a unit's four gate rows — the
        activation-consistent dropout of Section III-C ("zeroing weight
        rows ... equivalent to dropouts of corresponding activations").
    """

    __slots__ = ("droppable", "row_units")

    def __init__(
        self,
        data: np.ndarray,
        droppable: bool = False,
        row_units: int | None = None,
    ) -> None:
        super().__init__(data, requires_grad=True)
        if droppable and np.asarray(data).ndim != 2:
            raise ValueError("droppable parameters must be 2-D weight matrices")
        self.droppable = bool(droppable)
        n_rows = self.data.shape[0] if self.data.ndim == 2 else 0
        if row_units is None:
            row_units = n_rows
        if droppable:
            if row_units < 1 or n_rows % row_units != 0:
                raise ValueError(
                    f"row_units={row_units} must evenly divide {n_rows} rows"
                )
        self.row_units = int(row_units)


@dataclass(frozen=True)
class RowSpec:
    """Description of one droppable weight matrix.

    Attributes
    ----------
    name:
        Fully qualified parameter name (e.g. ``"lstm.cell0.w_x"``).
    n_rows:
        Number of matrix rows.
    row_len:
        Number of weights per row.
    row_units:
        Number of pattern bits for this matrix; each bit covers
        ``n_rows / row_units`` rows, strided (gate-stacked layout).
        Equal to ``n_rows`` for plain matrices.
    """

    name: str
    n_rows: int
    row_len: int
    row_units: int

    @property
    def n_weights(self) -> int:
        return self.n_rows * self.row_len

    @property
    def rows_per_unit(self) -> int:
        return self.n_rows // self.row_units


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; registration happens automatically via ``__setattr__``.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # parameter traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs in a stable order."""
        for name, param in self._params.items():
            yield (f"{prefix}{name}", param)
        for name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of scalar weights in the module."""
        return sum(p.data.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------
    # state exchange (used by the FL layer)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a name -> array snapshot (copies, safe to mutate)."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load arrays into parameters in place.

        Raises ``KeyError`` if a parameter is missing from ``state`` and
        ``ValueError`` on shape mismatch, so silent divergence between the
        server's and a client's view of the model is impossible.
        """
        for name, p in self.named_parameters():
            p.data[...] = _checked(name, state[name], p.data.shape)

    @contextmanager
    def stacked(self, state: Mapping[str, np.ndarray]) -> Iterator[None]:
        """Hold a stack of ``c`` independent parameter sets for the block.

        Every array of ``state`` must be ``(c,) + shape`` of its
        parameter (:meth:`load_state_dict`'s check, per stacked copy).
        Inside the block each parameter *is* its stack — a weight
        ``(c, out, in)``, a bias a ``(c, 1, out)`` view that broadcasts
        over the batch axis — so one forward/backward/step trains all
        ``c`` in place, in ``state``'s own arrays.  Every layer
        (``Linear``, ``Embedding``, ``LSTMCell``, ``Conv2d``) and model
        takes inputs with the same leading client axis, and local
        training always runs here, a lone client as a stack of one.  On
        exit the parameters get their own arrays back, gradients cleared.
        """
        params = list(self.named_parameters())
        own = [p.data for _, p in params]
        c = next(iter(state.values())).shape[0]
        stacks = []
        for name, p in params:
            value = _checked(name, state[name], (c,) + p.data.shape)
            stacks.append(value[:, None] if p.data.ndim == 1 else value)
        try:
            for (_, p), value in zip(params, stacks):
                p.data = value
                p.grad = None
            yield
        finally:
            for (_, p), data in zip(params, own):
                p.data = data
                p.grad = None

    def row_specs(self) -> list[RowSpec]:
        """Describe every droppable weight matrix, in traversal order."""
        specs = []
        for name, p in self.named_parameters():
            if p.droppable:
                specs.append(
                    RowSpec(
                        name=name,
                        n_rows=p.data.shape[0],
                        row_len=p.data.shape[1],
                        row_units=p.row_units,
                    )
                )
        return specs

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def loss_and_grads(self, batch) -> tuple[np.ndarray, list[np.ndarray | None]]:
        """The ``loss(batch)`` values and the gradient of their sum as
        arrays, one per parameter in parameter order (``None`` for a
        parameter the loss does not reach).

        This default runs the composed autograd graph and returns its
        leaves' gradients; a model with a fused VJP overrides it
        (:meth:`repro.nn.models.MLPClassifier.loss_and_grads`).
        """
        self.zero_grad()
        loss = self.loss(batch)
        loss.backward(np.ones_like(loss.data))
        return loss.data, [p.grad for p in self.parameters()]

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
