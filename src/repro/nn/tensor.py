"""Reverse-mode automatic differentiation over NumPy arrays.

This module is the foundation of the neural-network substrate used by the
FedBIAD reproduction.  The public surface mirrors a tiny subset of a
mainstream autodiff framework:

* :class:`Tensor` wraps an ``np.ndarray`` and records the operations that
  produced it so that :meth:`Tensor.backward` can run reverse-mode
  accumulation.
* :func:`no_grad` disables graph construction for evaluation code paths.

The design follows the vectorization guidance of the HPC guides: every
operation forwards to a single NumPy kernel, gradients are computed with
whole-array expressions, and broadcasting is resolved once in
:func:`_unbroadcast` rather than per-element.  Backward closures return a
list of ``(parent, gradient)`` pairs; :meth:`Tensor.backward` walks the
graph in reverse topological order and accumulates them.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "as_tensor"]

_GRAD_ENABLED: bool = True

# A backward closure maps the output gradient to (parent, parent-grad) pairs.
BackwardFn = Callable[[np.ndarray], list]


class no_grad:
    """Context manager that disables autodiff graph construction.

    Used for evaluation and for the federated server-side bookkeeping,
    where building backward closures would only waste memory.

    Example
    -------
    >>> with no_grad():
    ...     logits = model(x)
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous


def is_grad_enabled() -> bool:
    """Return whether new operations will be recorded for backprop."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape``.

    NumPy broadcasting expands operands along size-1 or missing leading
    dimensions; the corresponding gradient must be summed back over those
    dimensions.  This helper performs that reduction in at most two
    vectorized ``sum`` calls.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    squeeze_axes = tuple(
        axis for axis, size in enumerate(shape) if size == 1 and grad.shape[axis] != 1
    )
    if squeeze_axes:
        grad = grad.sum(axis=squeeze_axes, keepdims=True)
    return grad.reshape(shape)


def _is_basic_index(key) -> bool:
    """Whether ``key`` is a basic index — ints, slices, ``...``,
    ``None``, or a tuple of these — which picks each element at most
    once.  Bools index like arrays (a mask), so they are not basic."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(
        part is None
        or part is Ellipsis
        or isinstance(part, slice)
        or (isinstance(part, (int, np.integer)) and not isinstance(part, bool))
        for part in parts
    )


def as_tensor(value: "Tensor | np.ndarray | float | int") -> "Tensor":
    """Coerce ``value`` into a constant :class:`Tensor` when necessary."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64), requires_grad=False)


class Tensor:
    """A NumPy array with reverse-mode gradient tracking.

    Parameters
    ----------
    data:
        Array payload.  It is coerced to ``float64``; the FL wire format
        (32-bit floats) is modeled separately in :mod:`repro.fl.sizing`.
    requires_grad:
        Whether gradients should accumulate in :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(
        self,
        data: np.ndarray | float | Sequence[float],
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: BackwardFn | None = None,
    ) -> None:
        self.data: np.ndarray = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = _parents
        self._backward: BackwardFn | None = _backward

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def detach(self) -> "Tensor":
        """Return a view of this tensor that is cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Drop any accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # graph plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _node(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: BackwardFn,
    ) -> "Tensor":
        """Create a result node, recording provenance only when needed."""
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)
        return Tensor(data, requires_grad=False)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode accumulation from this node.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to 1 for scalar outputs, matching
            the convention used when differentiating a loss value.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without a seed requires a scalar output")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"seed gradient shape {grad.shape} does not match output {self.data.shape}"
                )

        # Iterative topological sort (recursion-free: LSTM graphs are deep).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                # Leaf tensor: accumulate into .grad
                if node.grad is None:
                    node.grad = np.array(node_grad, dtype=np.float64, copy=True)
                else:
                    node.grad = node.grad + node_grad
                continue
            for parent, pgrad in node._backward(node_grad):
                if not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pgrad
                else:
                    grads[key] = pgrad

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "Tensor | float | np.ndarray") -> "Tensor":
        other_t = as_tensor(other)

        def backward(grad: np.ndarray) -> list:
            return [
                (self, _unbroadcast(grad, self.data.shape)),
                (other_t, _unbroadcast(grad, other_t.data.shape)),
            ]

        return self._node(self.data + other_t.data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> list:
            return [(self, -grad)]

        return self._node(-self.data, (self,), backward)

    def __sub__(self, other: "Tensor | float | np.ndarray") -> "Tensor":
        other_t = as_tensor(other)

        def backward(grad: np.ndarray) -> list:
            return [
                (self, _unbroadcast(grad, self.data.shape)),
                (other_t, _unbroadcast(-grad, other_t.data.shape)),
            ]

        return self._node(self.data - other_t.data, (self, other_t), backward)

    def __rsub__(self, other: "Tensor | float | np.ndarray") -> "Tensor":
        return as_tensor(other) - self

    def __mul__(self, other: "Tensor | float | np.ndarray") -> "Tensor":
        other_t = as_tensor(other)

        def backward(grad: np.ndarray) -> list:
            return [
                (self, _unbroadcast(grad * other_t.data, self.data.shape)),
                (other_t, _unbroadcast(grad * self.data, other_t.data.shape)),
            ]

        return self._node(self.data * other_t.data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor | float | np.ndarray") -> "Tensor":
        other_t = as_tensor(other)

        def backward(grad: np.ndarray) -> list:
            return [
                (self, _unbroadcast(grad / other_t.data, self.data.shape)),
                (
                    other_t,
                    _unbroadcast(
                        -grad * self.data / (other_t.data * other_t.data),
                        other_t.data.shape,
                    ),
                ),
            ]

        return self._node(self.data / other_t.data, (self, other_t), backward)

    def __rtruediv__(self, other: "Tensor | float | np.ndarray") -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ supports scalar exponents only")

        def backward(grad: np.ndarray) -> list:
            return [(self, grad * exponent * self.data ** (exponent - 1))]

        return self._node(self.data ** exponent, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other_t = as_tensor(other)
        a, b = self.data, other_t.data

        def backward(grad: np.ndarray) -> list:
            # only the operands that require grad get one: a model's
            # input never does, so its first layer skips ``grad @ W``
            pairs = []
            if self.requires_grad:
                if b.ndim == 1:
                    ga = np.multiply.outer(grad, b)
                else:
                    ga = grad @ np.swapaxes(b, -1, -2)
                if a.ndim == 1 and ga.ndim > 1:
                    ga = ga.sum(axis=tuple(range(ga.ndim - 1)))
                pairs.append((self, _unbroadcast(ga, a.shape)))
            if other_t.requires_grad:
                if a.ndim == 1:
                    gb = np.multiply.outer(a, grad)
                else:
                    gb = np.swapaxes(a, -1, -2) @ grad
                pairs.append((other_t, _unbroadcast(gb, b.shape)))
            return pairs

        return self._node(a @ b, (self, other_t), backward)

    # ------------------------------------------------------------------
    # shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape

        def backward(grad: np.ndarray) -> list:
            return [(self, grad.reshape(original))]

        return self._node(self.data.reshape(shape), (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    @property
    def mT(self) -> "Tensor":
        """Transpose of the last two axes: a stack of matrices
        ``(..., m, n)`` transposes matrix by matrix."""

        def backward(grad: np.ndarray) -> list:
            return [(self, np.swapaxes(grad, -1, -2))]

        return self._node(np.swapaxes(self.data, -1, -2), (self,), backward)

    def transpose(self, axes: tuple[int, ...] | None = None) -> "Tensor":
        inverse = None if axes is None else tuple(np.argsort(axes))

        def backward(grad: np.ndarray) -> list:
            return [(self, np.transpose(grad, inverse))]

        return self._node(np.transpose(self.data, axes), (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        shape = self.data.shape
        basic = _is_basic_index(key)

        def backward(grad: np.ndarray) -> list:
            full = np.zeros(shape, dtype=np.float64)
            if basic:  # each element is picked at most once
                full[key] += grad
            else:  # an index array may pick an element more than once
                np.add.at(full, key, grad)
            return [(self, full)]

        return self._node(self.data[key], (self,), backward)

    # ------------------------------------------------------------------
    # reductions and elementwise math
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        shape = self.data.shape

        def backward(grad: np.ndarray) -> list:
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for a in sorted(ax % len(shape) for ax in axes):
                    g = np.expand_dims(g, a)
            full = np.broadcast_to(g, shape).astype(np.float64, copy=True)
            return [(self, full)]

        return self._node(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> list:
            return [(self, grad * out_data)]

        return self._node(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad: np.ndarray) -> list:
            return [(self, grad / self.data)]

        return self._node(np.log(self.data), (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> list:
            return [(self, grad * (1.0 - out_data * out_data))]

        return self._node(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic via tanh: never overflows and works
        # for any array shape including 0-d.
        out_data = 0.5 * (np.tanh(0.5 * self.data) + 1.0)

        def backward(grad: np.ndarray) -> list:
            return [(self, grad * out_data * (1.0 - out_data))]

        return self._node(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        def backward(grad: np.ndarray) -> list:
            return [(self, grad * (self.data > 0.0))]

        return self._node(np.maximum(self.data, 0.0), (self,), backward)
