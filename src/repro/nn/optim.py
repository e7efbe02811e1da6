"""Optimizers for local client training.

The paper trains with SGD (image tasks) and SGD with clipped gradient
norm (LSTM tasks, following Merity et al.).  The FedBIAD update rule of
Eq. (7) masks gradients row-wise before the step; that masking lives in
:mod:`repro.fl.rows` — the optimizer itself stays generic.

Both act on plain arrays: the gradients a model's ``loss_and_grads``
returns, one per parameter (:meth:`repro.nn.module.Module.loss_and_grads`),
so a training step reads and writes no ``Parameter.grad``.  Local
training always steps a stack of independent clients along the
parameters' leading axis (:meth:`repro.nn.module.Module.stacked`), one
client being a stack of one.  Momentum, weight decay and the update are
elementwise and so already per client; clipping reduces each client's
gradient norm over its own entries only.
"""

from __future__ import annotations

import numpy as np

from .module import Parameter

__all__ = ["SGD", "clip_grad_norm"]


def clip_grad_norm(grads: list[np.ndarray | None], max_norm: float) -> np.ndarray:
    """Scale gradient arrays in place so each client's L2 norm is <=
    ``max_norm``; ``None`` entries (no gradient) are skipped.

    The leading axis indexes clients: each client's norm reduces over
    all its other axes, summed in parameter order, and each client is
    clipped on its own.  Returns the ``(c,)`` pre-clipping norms (useful
    for monitoring divergence).
    """
    grads = [g for g in grads if g is not None]
    total = 0.0
    for g in grads:
        total = total + np.sum(g * g, axis=tuple(range(1, g.ndim)))
    norm = np.sqrt(np.asarray(total))
    scale = np.ones_like(norm)
    np.divide(max_norm, norm, out=scale, where=(norm > max_norm) & (norm > 0.0))
    for g in grads:
        g *= scale.reshape(scale.shape + (1,) * (g.ndim - scale.ndim))
    return norm


class SGD:
    """Stochastic gradient descent with optional momentum and weight decay.

    Parameters
    ----------
    params:
        Parameters to update (shared with the model).
    lr:
        Learning rate eta of Eq. (7).
    momentum:
        Classical momentum coefficient; 0 disables the velocity buffer.
    weight_decay:
        L2 coefficient.  In the Bayesian formulation this realizes the
        ``KL(pi_tilde || pi)`` term of Eq. (2), which the paper notes is
        approximately L2 regularization.
    max_grad_norm:
        When set, each client's gradients are clipped to this norm
        before the step (the paper's LSTM recipe; see
        :func:`clip_grad_norm`).
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        max_grad_norm: float | None = None,
    ) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.max_grad_norm = max_grad_norm
        self._velocity: list[np.ndarray | None] = [None] * len(self.params)
        self._buffers: list[np.ndarray | None] = [None] * len(self.params)

    def step(self, grads: list[np.ndarray | None]) -> None:
        """Apply one SGD update to every parameter, given its gradient
        array (``grads[i]`` for ``params[i]``; ``None`` skips it).

        In place: each parameter has one persistent scratch buffer (and
        a velocity with momentum), and the update evaluates
        ``grad + weight_decay * data``, the velocity and ``lr * update``
        in the order of the out-of-place expression, bit for bit.
        Clipping scales ``grads`` in place.
        """
        if self.max_grad_norm is not None:
            clip_grad_norm(grads, self.max_grad_norm)
        for i, (p, update) in enumerate(zip(self.params, grads)):
            if update is None:
                continue
            buf = self._buffers[i]
            if buf is None:
                buf = self._buffers[i] = np.empty_like(p.data)
            if self.weight_decay:
                np.multiply(p.data, self.weight_decay, out=buf)
                buf += update
                update = buf
            if self.momentum:
                if self._velocity[i] is None:
                    self._velocity[i] = np.zeros_like(p.data)
                v = self._velocity[i]
                v *= self.momentum
                v += update
                update = v
            np.multiply(update, self.lr, out=buf)
            p.data -= buf
