"""Tests for layers, recurrent cells, and the two model families."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.functional import cross_entropy
from repro.nn.gradcheck import check_gradients
from repro.nn.layers import Embedding, Linear, ReLU, Sequential, Tanh
from repro.nn.models import MLPClassifier, WordLSTM, build_model
from repro.nn.module import Module, Parameter
from repro.nn.recurrent import LSTM, LSTMCell
from repro.nn.tensor import Tensor


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(4, 3, rng)
        out = layer(Tensor(rng.normal(size=(5, 4))))
        assert out.shape == (5, 3)

    def test_matches_manual(self, rng):
        layer = Linear(4, 3, rng)
        x = rng.normal(size=(2, 4))
        expected = x @ layer.weight.numpy().T + layer.bias.numpy()
        np.testing.assert_allclose(layer(Tensor(x)).numpy(), expected)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, rng, bias=False)
        assert not layer.has_bias
        assert [n for n, _ in layer.named_parameters()] == ["weight"]

    def test_droppable_flag(self, rng):
        assert Linear(4, 3, rng).weight.droppable
        assert not Linear(4, 3, rng, droppable=False).weight.droppable

    def test_unknown_init(self, rng):
        with pytest.raises(ValueError):
            Linear(4, 3, rng, init="bogus")

    def test_gradcheck(self, rng):
        layer = Linear(4, 3, rng)
        x = rng.normal(size=(2, 4))
        check_gradients(lambda: (layer(Tensor(x)) ** 2).sum(), layer.parameters())


class TestEmbedding:
    def test_forward(self, rng):
        emb = Embedding(7, 3, rng)
        out = emb(np.array([[0, 6], [1, 1]]))
        assert out.shape == (2, 2, 3)

    def test_rows_droppable(self, rng):
        assert Embedding(7, 3, rng).weight.droppable


class TestSequential:
    def test_order_and_len(self, rng):
        seq = Sequential(Linear(4, 5, rng), ReLU(), Linear(5, 2, rng), Tanh())
        assert len(seq) == 4
        out = seq(Tensor(rng.normal(size=(3, 4))))
        assert out.shape == (3, 2)
        assert np.all(np.abs(out.numpy()) <= 1.0)

    def test_named_parameters_nested(self, rng):
        seq = Sequential(Linear(2, 2, rng), Linear(2, 2, rng))
        names = [n for n, _ in seq.named_parameters()]
        assert names == ["layer0.weight", "layer0.bias", "layer1.weight", "layer1.bias"]


class TestModuleBasics:
    def test_state_dict_roundtrip(self, tiny_mlp):
        state = tiny_mlp.state_dict()
        for v in state.values():
            v += 1.0
        tiny_mlp.load_state_dict(state)
        np.testing.assert_allclose(tiny_mlp.state_dict()["net.layer0.bias"], state["net.layer0.bias"])

    def test_load_state_dict_shape_mismatch(self, tiny_mlp):
        state = tiny_mlp.state_dict()
        state["net.layer0.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            tiny_mlp.load_state_dict(state)

    def test_load_state_dict_missing_key(self, tiny_mlp):
        with pytest.raises(KeyError):
            tiny_mlp.load_state_dict({})

    def test_num_parameters(self, tiny_mlp):
        assert tiny_mlp.num_parameters() == 6 * 5 + 5 + 5 * 4 + 4

    def test_parameter_row_units_validation(self):
        with pytest.raises(ValueError):
            Parameter(np.zeros((6, 2)), droppable=True, row_units=4)

    def test_droppable_must_be_2d(self):
        with pytest.raises(ValueError):
            Parameter(np.zeros(5), droppable=True)

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestLSTM:
    def test_cell_step_shapes(self, rng):
        cell = LSTMCell(4, 6, rng)
        h, c = cell.initial_state((3,))
        h2, c2 = cell.step(Tensor(rng.normal(size=(3, 4))), h, c)
        assert h2.shape == (3, 6) and c2.shape == (3, 6)
        h, c = cell.initial_state((2, 3))
        assert h.shape == (2, 3, 6) and c.shape == (2, 3, 6)

    def test_forget_bias_ones(self, rng):
        cell = LSTMCell(4, 6, rng)
        np.testing.assert_allclose(cell.bias.numpy()[6:12], np.ones(6))

    def test_gate_rows_grouped(self, rng):
        cell = LSTMCell(4, 6, rng)
        assert cell.w_x.row_units == 6 and cell.w_h.row_units == 6

    def test_stack_output_length(self, rng):
        lstm = LSTM(4, 5, num_layers=2, rng=rng)
        steps = [Tensor(rng.normal(size=(2, 4))) for _ in range(7)]
        outs = lstm(steps)
        assert len(outs) == 7 and outs[0].shape == (2, 5)

    def test_empty_input(self, rng):
        assert LSTM(4, 5, rng=rng)([]) == []

    def test_cell_gradcheck(self, rng):
        cell = LSTMCell(3, 4, rng)
        x = rng.normal(size=(2, 3))

        def loss():
            h, c = cell.initial_state((2,))
            h, c = cell.step(Tensor(x), h, c)
            h, c = cell.step(Tensor(x), h, c)
            return (h ** 2).sum() + (c ** 2).sum()

        check_gradients(loss, cell.parameters(), rtol=1e-3, atol=1e-6)


class TestMLPClassifier:
    def test_loss_decreases_with_training(self, tiny_mlp, rng):
        from repro.nn.optim import SGD

        x = rng.normal(size=(20, 6))
        y = rng.integers(0, 4, size=20)
        opt = SGD(tiny_mlp.parameters(), lr=0.5)
        first = tiny_mlp.loss((x, y)).item()
        for _ in range(150):
            opt.step(tiny_mlp.loss_and_grads((x, y))[1])
        assert tiny_mlp.loss((x, y)).item() < 0.5 * first

    def test_output_layer_not_droppable(self, tiny_mlp):
        names = [s.name for s in tiny_mlp.row_specs()]
        assert names == ["net.layer0.weight"]

    def test_predict_logits_shape(self, tiny_mlp, rng):
        assert tiny_mlp.predict_logits(rng.normal(size=(7, 6))).shape == (7, 4)


def _composed_loss(model: MLPClassifier, x: np.ndarray, y: np.ndarray) -> Tensor:
    """The reference for the fused loss: the model's own layers as an
    autograd graph, Linear -> ReLU -> ... -> Linear -> cross_entropy."""
    return cross_entropy(model.net(Tensor(x)), y)


def _loss_and_grads(model: MLPClassifier, loss_fn, x, y) -> list:
    """The loss's bytes, then each gradient's bytes and memory layout
    (the layout fixes the summation order of gradient clipping)."""
    model.zero_grad()
    loss = loss_fn(x, y)
    loss.backward(np.ones_like(loss.data))
    return [loss.data.tobytes()] + [(p.grad.tobytes(), p.grad.strides) for p in model.parameters()]


class TestFusedMLPLoss:
    """``MLPClassifier.loss`` is one autograd node whose loss and
    gradients are bit-identical to the composed graph it replaces."""

    @pytest.mark.parametrize("hidden", [(5,), (7, 5)])
    @pytest.mark.parametrize("c", [None, 1, 3, 13])
    def test_bit_identical_to_composed_graph(self, rng, c, hidden):
        model = MLPClassifier(input_dim=6, hidden_dims=hidden, n_classes=4, rng=rng)
        lead = () if c is None else (c,)
        x = rng.normal(size=lead + (9, 6))
        y = rng.integers(0, 4, size=lead + (9,))

        def check():
            fused = _loss_and_grads(model, lambda x, y: model.loss((x, y)), x, y)
            composed = _loss_and_grads(model, lambda x, y: _composed_loss(model, x, y), x, y)
            assert fused == composed

        if c is None:
            check()
        else:
            state = {
                name: np.stack([p.data * (1.0 + 0.1 * i) for i in range(c)])
                for name, p in model.named_parameters()
            }
            with model.stacked(state):
                check()

    def test_leaves_keep_the_fused_gradients(self, tiny_mlp, rng):
        """The leaves keep the fused node's gradients, and a second
        backward without ``zero_grad`` accumulates onto them."""
        batch = (rng.normal(size=(5, 6)), rng.integers(0, 4, size=5))
        tiny_mlp.zero_grad()
        tiny_mlp.loss(batch).backward()
        first = [p.grad.copy() for p in tiny_mlp.parameters()]
        tiny_mlp.loss(batch).backward()
        for p, g in zip(tiny_mlp.parameters(), first):
            assert p.grad.tobytes() == (g + g).tobytes()

    def test_predict_logits_is_the_composed_forward(self, rng):
        model = MLPClassifier(input_dim=6, hidden_dims=(7, 5), n_classes=4, rng=rng)
        x = rng.normal(size=(11, 6))
        reference = model.net(Tensor(x)).data
        assert model.predict_logits(x).tobytes() == reference.tobytes()

    def test_one_node_per_loss(self, tiny_mlp, rng):
        loss = tiny_mlp.loss((rng.normal(size=(5, 6)), rng.integers(0, 4, size=5)))
        assert set(map(id, loss._parents)) == set(map(id, tiny_mlp.parameters()))

    @pytest.mark.parametrize("hidden", [(5,), (7, 5)])
    def test_gradcheck(self, rng, hidden):
        model = MLPClassifier(input_dim=6, hidden_dims=hidden, n_classes=4, rng=rng)
        x = rng.normal(size=(9, 6))
        y = rng.integers(0, 4, size=9)
        check_gradients(lambda: model.loss((x, y)), model.parameters())

    def test_gradcheck_stacked(self, rng):
        model = MLPClassifier(input_dim=6, hidden_dims=(5,), n_classes=4, rng=rng)
        state = {name: np.stack([p.data, -p.data]) for name, p in model.named_parameters()}
        x = rng.normal(size=(2, 9, 6))
        y = rng.integers(0, 4, size=(2, 9))
        with model.stacked(state):
            check_gradients(lambda: model.loss((x, y)).sum(), model.parameters())

    def test_target_errors(self, tiny_mlp, rng):
        x = rng.normal(size=(5, 6))
        with pytest.raises(ValueError, match="does not match"):
            tiny_mlp.loss((x, rng.integers(0, 4, size=4)))
        with pytest.raises(ValueError, match="out of range"):
            tiny_mlp.loss((x, np.array([0, 1, 2, 3, 4])))


class TestWordLSTM:
    def test_tied_weight_sharing(self, tiny_lstm):
        names = [n for n, _ in tiny_lstm.named_parameters()]
        assert "embedding.weight" in names and "decoder.weight" not in names

    def test_tied_requires_equal_dims(self, rng):
        with pytest.raises(ValueError):
            WordLSTM(9, embed_dim=4, hidden_size=6, rng=rng)

    def test_untied_has_decoder(self, rng):
        model = WordLSTM(9, 4, 6, rng=rng, tie_weights=False)
        names = [n for n, _ in model.named_parameters()]
        assert "decoder.weight" in names
        assert not dict(model.named_parameters())["decoder.weight"].droppable

    def test_loss_finite(self, tiny_lstm, rng):
        x = rng.integers(0, 9, size=(3, 5))
        y = rng.integers(0, 9, size=(3, 5))
        assert np.isfinite(tiny_lstm.loss((x, y)).item())

    def test_predict_logits_shape(self, tiny_lstm, rng):
        x = rng.integers(0, 9, size=(3, 5))
        assert tiny_lstm.predict_logits(x).shape == (3, 5, 9)

    def test_training_reduces_loss(self, tiny_lstm, rng):
        """Clipped SGD trains the model as a stack of one client, the
        way local training always runs it."""
        from repro.nn.optim import SGD

        x = rng.integers(0, 9, size=(1, 4, 6))
        y = np.roll(x, -1, axis=-1)
        state = {name: p.data[None].copy() for name, p in tiny_lstm.named_parameters()}
        with tiny_lstm.stacked(state):
            opt = SGD(tiny_lstm.parameters(), lr=1.0, max_grad_norm=1.0)
            first = tiny_lstm.loss((x, y)).data[0]
            for _ in range(50):
                opt.step(tiny_lstm.loss_and_grads((x, y))[1])
        tiny_lstm.load_state_dict({name: a[0] for name, a in state.items()})
        assert tiny_lstm.loss((x[0], y[0])).item() < first


class TestBuildModel:
    def test_builds_mlp(self, rng):
        model = build_model(
            {"kind": "mlp", "input_dim": 5, "hidden_dims": (4,), "n_classes": 3}, rng
        )
        assert isinstance(model, MLPClassifier)

    def test_builds_lstm(self, rng):
        model = build_model(
            {"kind": "lstm", "vocab_size": 9, "embed_dim": 4, "hidden_size": 4}, rng
        )
        assert isinstance(model, WordLSTM)

    def test_unknown_kind(self, rng):
        with pytest.raises(ValueError):
            build_model({"kind": "transformer"}, rng)

    def test_deterministic_from_seed(self):
        spec = {"kind": "mlp", "input_dim": 5, "hidden_dims": (4,), "n_classes": 3}
        a = build_model(spec, np.random.default_rng(7))
        b = build_model(spec, np.random.default_rng(7))
        np.testing.assert_array_equal(
            a.state_dict()["net.layer0.weight"], b.state_dict()["net.layer0.weight"]
        )
