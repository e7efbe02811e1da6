"""Recurrent layers: an LSTM cell and a multi-layer LSTM stack.

The paper's next-word-prediction model is a two-layer LSTM; federated
dropout on the *recurrent connections* (the ``w_h`` matrices) is exactly
what FedDrop/AFD cannot do and FedBIAD can (Section I and IV-C), so the
row layout here matters: both ``w_x`` (input-hidden) and ``w_h``
(hidden-hidden) store the four gates stacked along rows, matching the
row-wise dropping illustration of Fig. 4.

Like every layer, both run a stack of ``c`` clients
(:meth:`repro.nn.module.Module.stacked`): with ``(c, 4h, in)`` weights
and a ``(c, 1, 4h)`` bias, ``(c, batch, in)`` inputs map client by
client, because gates are sliced along the last axis and transposes are
over the last two.
"""

from __future__ import annotations

import numpy as np

from . import init as initializers
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["LSTMCell", "LSTM"]


class LSTMCell(Module):
    """A single LSTM layer processing one timestep at a time.

    Parameters are stored gate-stacked:

    * ``w_x`` — shape ``(4 * hidden_size, input_size)``
    * ``w_h`` — shape ``(4 * hidden_size, hidden_size)``
    * ``bias`` — shape ``(4 * hidden_size,)``

    with gate order (input, forget, cell, output).  The forget-gate bias
    is initialized to 1, the standard recipe for stable training.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        bound = 1.0 / np.sqrt(hidden_size)
        # One pattern bit per hidden unit covers its four gate rows
        # (activation-consistent dropout, Section III-C of the paper).
        self.w_x = Parameter(
            initializers.uniform((4 * hidden_size, input_size), rng, bound=bound),
            droppable=True,
            row_units=hidden_size,
        )
        self.w_h = Parameter(
            initializers.uniform((4 * hidden_size, hidden_size), rng, bound=bound),
            droppable=True,
            row_units=hidden_size,
        )
        bias = np.zeros(4 * hidden_size, dtype=np.float64)
        bias[hidden_size : 2 * hidden_size] = 1.0
        self.bias = Parameter(bias)

    def step(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        """Advance one timestep; returns the new ``(h, c)`` state."""
        hs = self.hidden_size
        gates = x @ self.w_x.mT + h @ self.w_h.mT + self.bias
        i = gates[..., 0 * hs : 1 * hs].sigmoid()
        f = gates[..., 1 * hs : 2 * hs].sigmoid()
        g = gates[..., 2 * hs : 3 * hs].tanh()
        o = gates[..., 3 * hs : 4 * hs].sigmoid()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        return h_new, c_new

    def initial_state(self, batch_shape: tuple[int, ...]) -> tuple[Tensor, Tensor]:
        """Zero ``(h, c)`` of shape ``batch_shape + (hidden_size,)``:
        ``(batch,)`` alone, ``(c, batch)`` for a stack."""
        zeros = np.zeros(tuple(batch_shape) + (self.hidden_size,), dtype=np.float64)
        return Tensor(zeros), Tensor(zeros.copy())


class LSTM(Module):
    """A stack of :class:`LSTMCell` layers unrolled over a sequence."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int = 2,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_layers = num_layers
        self.hidden_size = hidden_size
        self._cell_names = []
        for layer in range(num_layers):
            cell = LSTMCell(input_size if layer == 0 else hidden_size, hidden_size, rng)
            name = f"cell{layer}"
            setattr(self, name, cell)
            self._cell_names.append(name)

    @property
    def cells(self) -> list[LSTMCell]:
        return [getattr(self, name) for name in self._cell_names]

    def forward(self, inputs: list[Tensor]) -> list[Tensor]:
        """Run the stack over a sequence of per-timestep input tensors.

        Parameters
        ----------
        inputs:
            List of ``T`` tensors with shape ``(..., batch, input_size)``.

        Returns
        -------
        list of ``T`` tensors with shape ``(..., batch, hidden_size)`` —
        the top layer's hidden state at every timestep.
        """
        if not inputs:
            return []
        batch_shape = inputs[0].shape[:-1]
        states = [cell.initial_state(batch_shape) for cell in self.cells]
        outputs: list[Tensor] = []
        for x in inputs:
            carry = x
            for idx, cell in enumerate(self.cells):
                h, c = states[idx]
                h, c = cell.step(carry, h, c)
                states[idx] = (h, c)
                carry = h
            outputs.append(carry)
        return outputs
