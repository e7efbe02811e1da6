"""The two model families evaluated in the paper.

* :class:`MLPClassifier` — the image-classification model of Section V-A:
  one ReLU hidden layer (128 units for MNIST, 256 for FMNIST) and a
  softmax output layer.
* :class:`WordLSTM` — the next-word-prediction model: an embedding layer,
  a two-layer LSTM, and a fully connected decoder.

Both expose a uniform interface consumed by the federated layer:

* ``loss(batch) -> Tensor`` — the training loss of one minibatch, a
  scalar; under :meth:`~repro.nn.module.Module.stacked` a stack of ``c``
  minibatches gives the ``(c,)`` per-client losses;
* ``loss_and_grads(batch)`` — those losses and, as arrays, the gradient
  of their sum, which gives every client exactly its own gradient (the
  MLP's without a graph);
* ``predict_logits(inputs) -> np.ndarray`` — evaluation-time logits;
* ``state_dict`` / ``load_state_dict`` / ``row_specs`` from
  :class:`repro.nn.module.Module`.
"""

from __future__ import annotations

import numpy as np

from .functional import _cross_entropy_data, cross_entropy
from .layers import Embedding, Linear, ReLU, Sequential
from .module import Module, Parameter
from .recurrent import LSTM
from .tensor import Tensor, no_grad

__all__ = ["MLPClassifier", "WordLSTM", "build_model"]


class MLPClassifier(Module):
    """Fully connected classifier with ReLU hidden layers.

    Parameters
    ----------
    input_dim:
        Flattened image dimension (784 in the paper; smaller in the
        scaled-down benchmark presets).
    hidden_dims:
        Sizes of hidden layers (paper: ``(128,)`` or ``(256,)``).
    n_classes:
        Number of output classes (10).
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dims: tuple[int, ...],
        n_classes: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_dim = input_dim
        self.n_classes = n_classes
        layers: list[Module] = []
        previous = input_dim
        for width in hidden_dims:
            layers.append(Linear(previous, width, rng, init="kaiming"))
            layers.append(ReLU())
            previous = width
        # The softmax output layer is excluded from row dropout: dropping
        # a class row makes that class unpredictable for the round.  This
        # mirrors the paper's CNN convention (filter-wise dropout never
        # removes logits) and reproduces its upload ratios exactly
        # (MNIST p=0.2 -> 1.25x, FMNIST p=0.5 -> 2x).
        layers.append(Linear(previous, n_classes, rng, init="xavier", droppable=False))
        self.net = Sequential(*layers)
        self._linears = tuple(layer for layer in layers if isinstance(layer, Linear))
        #: each layer's weight-gradient buffer for :meth:`loss_and_grads`,
        #: ``(c, in, out)`` under a stack, reused while the shape holds
        self._weight_grads: list[np.ndarray | None] = [None] * len(self._linears)

    def _activations(self, x: np.ndarray) -> list[np.ndarray]:
        """The raw forward pass: each ``Linear``'s input, then the logits.

        ``x`` is ``(batch, in)``, or ``(c, batch, in)`` under
        :meth:`~repro.nn.module.Module.stacked`; each layer is
        ``h @ W^T + b`` over the last two axes, then ``max(., 0)``
        except after the output layer.
        """
        acts = [np.asarray(x, dtype=np.float64)]
        last = len(self._linears) - 1
        for i, layer in enumerate(self._linears):
            z = acts[-1] @ np.swapaxes(layer.weight.data, -1, -2) + layer.bias.data
            acts.append(z if i == last else np.maximum(z, 0.0))
        return acts

    def _grads(self, acts: list[np.ndarray], g: np.ndarray, bufs=None) -> list[np.ndarray]:
        """The VJP: every parameter's gradient, in parameter order, from
        the logits' gradient ``g`` and the forward's ``acts``.

        It applies the numpy operations of the composed ``Linear``/
        ``ReLU``/:func:`~repro.nn.functional.cross_entropy` graph in the
        same order, so gradients are bit-identical to it.  Given ``bufs``
        (one entry per layer), a weight's is written into its layer's
        buffer; otherwise it is a new array.
        """
        linears = self._linears
        grads = []
        for i in range(len(linears) - 1, -1, -1):
            layer, h = linears[i], acts[i]
            grads.append(np.add.reduce(g, axis=-2, keepdims=layer.bias.data.ndim == g.ndim))
            h_t = np.swapaxes(h, -1, -2)
            buf = None if bufs is None else bufs[i]
            shape = h_t.shape[:-1] + g.shape[-1:]
            if bufs is not None and (buf is None or buf.shape != shape):
                # laid out as numpy copies the transposed view, down
                # to the stride of a size-1 client axis
                leaf = np.empty_like(np.swapaxes(np.empty(shape), -1, -2))
                buf = bufs[i] = np.swapaxes(leaf, -1, -2)
            # a transposed view, as ``W.mT``'s backward hands it on:
            # that memory layout keeps the summation order of
            # gradient clipping
            grads.append(np.swapaxes(np.matmul(h_t, g, out=buf), -1, -2))
            if i:
                # h = max(z, 0) is positive exactly where z is
                g = (g @ layer.weight.data) * (h > 0.0)
        return grads[::-1]

    def loss_and_grads(self, batch: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, list]:
        """:meth:`loss`'s values and its parameters' gradients as arrays,
        without a graph: the ``(c,)`` losses of a stack and the gradient
        of their sum.  Each weight's gradient lives in its layer's
        buffer until the next call.  The labels' range is left to the
        batcher, which checks each block it draws
        (:class:`~repro.data.batching.ImageBatcher`)."""
        x, y = batch
        acts = self._activations(x)
        out, logits_grad = _cross_entropy_data(acts[-1], y, "mean", checked=True)
        return out, self._grads(acts, logits_grad(np.ones_like(out)), self._weight_grads)

    def loss(self, batch: tuple[np.ndarray, np.ndarray]) -> Tensor:
        """Mean cross-entropy over one ``(images, labels)`` minibatch, or
        the ``(c,)`` per-client means of ``(c, batch, in)`` images and
        ``(c, batch)`` labels.

        One autograd node over the whole network, the numpy forward and
        VJP of :meth:`loss_and_grads`, which tests hold against the
        composed graph; its gradients are new arrays, which the leaves
        copy as they do a composed graph's.
        """
        x, y = batch
        acts = self._activations(x)
        out, logits_grad = _cross_entropy_data(acts[-1], y, "mean")
        params = self.parameters()

        def backward(grad: np.ndarray) -> list:
            return list(zip(params, self._grads(acts, logits_grad(grad))))

        return Tensor._node(out, tuple(params), backward)

    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        return self._activations(x)[-1]


class WordLSTM(Module):
    """Embedding -> multi-layer LSTM -> tied decoder language model.

    The paper's configuration is a 300-unit embedding, a two-layer LSTM
    with 300 hidden units, and an FC decoder over the vocabulary,
    following the Merity et al. recipe it cites — which ties the decoder
    weight to the embedding (``embed_dim == hidden_size``).  Weight
    tying is what makes the paper's "2x upload saving at p=0.5" exact:
    the droppable rows are the per-word vectors (used at both input and
    output) plus the LSTM gate units; there is no separate output matrix
    to preserve.

    Pass ``tie_weights=False`` for the untied ablation (the decoder then
    becomes a separate non-droppable matrix, like the MLP's output
    layer).
    """

    def __init__(
        self,
        vocab_size: int,
        embed_dim: int,
        hidden_size: int,
        num_layers: int = 2,
        rng: np.random.Generator | None = None,
        tie_weights: bool = True,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        if tie_weights and embed_dim != hidden_size:
            raise ValueError(
                f"weight tying requires embed_dim == hidden_size, got {embed_dim} != {hidden_size}"
            )
        self.vocab_size = vocab_size
        self.tie_weights = tie_weights
        self.embedding = Embedding(vocab_size, embed_dim, rng)
        self.lstm = LSTM(embed_dim, hidden_size, num_layers, rng)
        if tie_weights:
            self.decoder_bias = Parameter(np.zeros(vocab_size))
        else:
            self.decoder = Linear(hidden_size, vocab_size, rng, init="uniform", droppable=False)

    def _decode(self, h: Tensor) -> Tensor:
        if self.tie_weights:
            return h @ self.embedding.weight.mT + self.decoder_bias
        return self.decoder(h)

    def _hidden_sequence(self, token_ids: np.ndarray) -> list[Tensor]:
        """Embed a ``(..., batch, time)`` index array and run the LSTM."""
        token_ids = np.asarray(token_ids, dtype=np.intp)
        embedded = self.embedding(token_ids)  # (..., batch, time, embed)
        return self.lstm([embedded[..., t, :] for t in range(token_ids.shape[-1])])

    def loss(self, batch: tuple[np.ndarray, np.ndarray]) -> Tensor:
        """Mean next-word cross-entropy over a ``(inputs, targets)`` batch.

        Both arrays have shape ``(batch, time)``, or ``(c, batch, time)``
        for a stack, which gives the ``(c,)`` per-client means; ``targets``
        is the inputs shifted by one position (standard LM training).
        """
        x, y = batch
        total = None
        for t, h in enumerate(self._hidden_sequence(x)):
            step_loss = cross_entropy(self._decode(h), y[..., t], reduction="sum")
            total = step_loss if total is None else total + step_loss
        return total * (1.0 / (x.shape[-2] * x.shape[-1]))

    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        """Evaluation logits with shape ``(batch, time, vocab)``."""
        with no_grad():
            hiddens = self._hidden_sequence(x)
            return np.stack([self._decode(h).numpy() for h in hiddens], axis=-2)


def build_model(spec: dict, rng: np.random.Generator) -> Module:
    """Instantiate a model from a declarative spec.

    Used by the experiment configs so that the server and every simulated
    client construct byte-identical architectures.

    Examples
    --------
    >>> build_model({"kind": "mlp", "input_dim": 64,
    ...              "hidden_dims": (32,), "n_classes": 10}, rng)
    >>> build_model({"kind": "lstm", "vocab_size": 500, "embed_dim": 32,
    ...              "hidden_size": 48, "num_layers": 2}, rng)
    """
    kind = spec["kind"]
    if kind == "mlp":
        return MLPClassifier(
            input_dim=spec["input_dim"],
            hidden_dims=tuple(spec["hidden_dims"]),
            n_classes=spec["n_classes"],
            rng=rng,
        )
    if kind == "lstm":
        return WordLSTM(
            vocab_size=spec["vocab_size"],
            embed_dim=spec["embed_dim"],
            hidden_size=spec["hidden_size"],
            num_layers=spec.get("num_layers", 2),
            rng=rng,
            tie_weights=spec.get("tie_weights", True),
        )
    if kind == "cnn":
        from .conv import CNNClassifier

        return CNNClassifier(
            side=spec["side"],
            n_classes=spec["n_classes"],
            channels=tuple(spec.get("channels", (8, 16))),
            kernel_size=spec.get("kernel_size", 3),
            hidden=spec.get("hidden", 32),
            rng=rng,
        )
    raise ValueError(f"unknown model kind {kind!r}")
