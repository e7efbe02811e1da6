"""Functional operations built on :class:`repro.nn.tensor.Tensor`.

Contains the fused, numerically stable classification losses used by the
image-classification and next-word-prediction workloads of the FedBIAD
evaluation, plus a few free-function aliases for the elementwise ops.
"""

from __future__ import annotations

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
    """Stable log-softmax along the last axis of a raw array."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


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
        ``"mean"`` (default), ``"sum"``, ``"none"``, or ``"mean_last"``:
        one mean per row of the last target axis, so a stack of ``c``
        minibatches (``(c, batch)`` targets) gives ``c`` per-minibatch
        means, each bit-equal to ``"mean"`` over that minibatch alone.

    The forward and backward passes are fused: the backward closure uses
    the classic ``softmax - onehot`` expression so that no intermediate
    graph nodes are materialized for the inner softmax.  This is the hot
    path of every local training iteration in the simulation.
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets)
    if targets.shape != logits.data.shape[:-1]:
        raise ValueError(
            f"targets shape {targets.shape} does not match logits {logits.data.shape}"
        )
    n_classes = logits.data.shape[-1]
    if targets.size and (targets.min() < 0 or targets.max() >= n_classes):
        raise ValueError("target labels out of range")

    log_probs = _log_softmax_data(logits.data)
    flat_lp = log_probs.reshape(-1, n_classes)
    flat_t = targets.reshape(-1).astype(np.intp)
    losses = -flat_lp[np.arange(flat_t.size), flat_t].reshape(targets.shape)

    if reduction == "none":
        out_data = losses
    elif reduction == "sum":
        out_data = np.asarray(losses.sum())
    elif reduction == "mean":
        out_data = np.asarray(losses.mean())
    elif reduction == "mean_last":
        out_data = losses.mean(axis=-1)
    else:
        raise ValueError(f"unknown reduction {reduction!r}")

    probs = np.exp(log_probs)

    def backward(grad: np.ndarray) -> list:
        g = probs.copy()
        flat_g = g.reshape(-1, n_classes)
        flat_g[np.arange(flat_t.size), flat_t] -= 1.0
        if reduction == "mean":
            flat_g *= float(grad) / max(flat_t.size, 1)
        elif reduction == "sum":
            flat_g *= float(grad)
        elif reduction == "mean_last":
            g *= (np.asarray(grad) / max(targets.shape[-1], 1))[..., None, None]
        else:
            flat_g *= np.asarray(grad).reshape(-1, 1)
        return [(logits, g)]

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
    """Gather rows of ``weight`` by integer ``indices``.

    Gradient is scattered back with ``np.add.at`` so repeated indices
    accumulate correctly.
    """
    weight = as_tensor(weight)
    indices = np.asarray(indices, dtype=np.intp)

    def backward(grad: np.ndarray) -> list:
        full = np.zeros_like(weight.data)
        np.add.at(full, indices.reshape(-1), grad.reshape(-1, weight.data.shape[1]))
        return [(weight, full)]

    return Tensor._node(weight.data[indices], (weight,), backward)
