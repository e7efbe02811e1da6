"""Functional operations built on :class:`repro.nn.tensor.Tensor`.

Contains the fused, numerically stable classification losses used by the
image-classification and next-word-prediction workloads of the FedBIAD
evaluation, plus a few free-function aliases for the elementwise ops.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "relu",
    "tanh",
    "sigmoid",
    "log_softmax",
    "softmax",
    "cross_entropy",
    "stack",
    "concat",
    "embedding_lookup",
]


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit, ``max(x, 0)``."""
    return as_tensor(x).relu()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return as_tensor(x).tanh()


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return as_tensor(x).sigmoid()


def _log_softmax_data(logits: np.ndarray) -> np.ndarray:
    """Stable log-softmax along the last axis of a raw array.

    The reductions call the ufuncs' ``reduce`` directly: the same kernels
    as ``max``/``sum``, without their Python wrappers.
    """
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def log_softmax(logits: Tensor) -> Tensor:
    """Log-softmax along the last axis with a fused backward pass."""
    logits = as_tensor(logits)
    out_data = _log_softmax_data(logits.data)
    probs = np.exp(out_data)

    def backward(grad: np.ndarray) -> list:
        # d log_softmax = grad - softmax * sum(grad)
        return [(logits, grad - probs * grad.sum(axis=-1, keepdims=True))]

    return Tensor._node(out_data, (logits,), backward)


def softmax(logits: Tensor) -> Tensor:
    """Softmax along the last axis (computed via stable log-softmax)."""
    return log_softmax(logits).exp()


def _cross_entropy_data(
    logits: np.ndarray,
    targets: np.ndarray,
    reduction: str,
    checked: bool = False,
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """:func:`cross_entropy` on a raw logits array: the reduced losses,
    and the map from their gradient to the logits' gradient
    (``softmax - onehot``, scaled).  Fused losses that end in a softmax
    (:meth:`repro.nn.models.MLPClassifier.loss`) share it.  ``checked``
    says the labels' range was checked already (a training batcher
    checks each block it draws); unchecked labels are checked here."""
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ValueError(
            f"targets shape {targets.shape} does not match logits {logits.shape}"
        )
    n_classes = logits.shape[-1]
    if not checked and targets.size and (targets.min() < 0 or targets.max() >= n_classes):
        raise ValueError("target labels out of range")

    log_probs = _log_softmax_data(logits)
    # one flat index of each row's target entry
    flat = np.arange(0, targets.size * n_classes, n_classes) + targets.reshape(-1)
    losses = -log_probs.take(flat).reshape(targets.shape)

    if reduction == "none":
        out_data = losses
    elif reduction == "sum":
        out_data = losses.sum(axis=-1)
    elif reduction == "mean":
        # what ``losses.mean(axis=-1)`` computes, without its wrapper
        out_data = np.add.reduce(losses, axis=-1) / losses.shape[-1]
    else:
        raise ValueError(f"unknown reduction {reduction!r}")

    probs = np.exp(log_probs)

    def logits_grad(grad: np.ndarray) -> np.ndarray:
        g = probs.copy()
        g.reshape(-1)[flat] -= 1.0
        grad = np.asarray(grad)
        if reduction == "none":
            g *= grad[..., None]
        else:
            scale = grad / max(targets.shape[-1], 1) if reduction == "mean" else grad
            g *= scale[..., None, None]
        return g

    return out_data, logits_grad


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    reduction: str = "mean",
) -> Tensor:
    """Softmax cross-entropy with integer targets.

    Parameters
    ----------
    logits:
        Tensor of shape ``(..., n_classes)``.
    targets:
        Integer array of shape ``(...)`` matching the leading dimensions
        of ``logits``.
    reduction:
        ``"mean"`` (default), ``"sum"`` or ``"none"``.  ``"mean"`` and
        ``"sum"`` reduce over the last target axis: a scalar for one
        ``(batch,)`` minibatch, ``(c,)`` for a stack of ``c``
        (``(c, batch)`` targets), each entry bit-equal to reducing that
        minibatch alone.

    The forward and backward passes are fused: the backward closure uses
    the classic ``softmax - onehot`` expression so that no intermediate
    graph nodes are materialized for the inner softmax.  Every LSTM and
    CNN training step ends here; the MLP's fused loss shares the same
    numerics (:func:`_cross_entropy_data`).
    """
    logits = as_tensor(logits)
    out_data, logits_grad = _cross_entropy_data(logits.data, targets, reduction)

    def backward(grad: np.ndarray) -> list:
        return [(logits, logits_grad(grad))]

    return Tensor._node(out_data, (logits,), backward)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors of identical shape along a new axis."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> list:
        slices = np.split(grad, len(tensors), axis=axis)
        return [
            (t, np.squeeze(s, axis=axis)) for t, s in zip(tensors, slices)
        ]

    return Tensor._node(out_data, tuple(tensors), backward)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> list:
        pairs = []
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            pairs.append((t, grad[tuple(index)]))
        return pairs

    return Tensor._node(out_data, tuple(tensors), backward)


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``(..., V, D)`` tables by integer ``indices``.

    A ``(V, D)`` table takes any index shape; a stack of ``c`` tables
    (:meth:`~repro.nn.module.Module.stacked`) takes ``(c, ...)`` indices,
    client ``i``'s into table ``i``.  Both gather through one flat index
    into the ``(-1, D)`` view, and the gradient is scattered back with
    ``np.add.at`` so repeated indices accumulate correctly.
    """
    weight = as_tensor(weight)
    *lead, vocab, dim = weight.data.shape
    indices = np.asarray(indices, dtype=np.intp)
    starts = np.arange(0, weight.data.size // dim, vocab)  # each table's first row
    flat = (indices + starts.reshape(tuple(lead) + (1,) * (indices.ndim - len(lead)))).reshape(-1)

    def backward(grad: np.ndarray) -> list:
        full = np.zeros(weight.data.shape)
        np.add.at(full.reshape(-1, dim), flat, grad.reshape(-1, dim))
        return [(weight, full)]

    out = weight.data.reshape(-1, dim)[flat].reshape(indices.shape + (dim,))
    return Tensor._node(out, (weight,), backward)
