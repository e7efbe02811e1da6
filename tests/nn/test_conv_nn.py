"""Tests for the convolution layer and CNN (filter-wise dropout path)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.client import FedBIAD
from repro.fl.config import FLConfig
from repro.fl.rows import RowSpace
from repro.fl.simulation import run_simulation
from repro.nn.conv import CNNClassifier, Conv2d, im2col
from repro.nn.gradcheck import check_gradients
from repro.nn.tensor import Tensor


class TestIm2Col:
    def test_shapes(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        patches, oh, ow = im2col(x, 3, 3)
        assert (oh, ow) == (6, 6)
        assert patches.shape == (2, 36, 27)

    def test_stride(self, rng):
        x = rng.normal(size=(1, 1, 8, 8))
        patches, oh, ow = im2col(x, 2, 2, stride=2)
        assert (oh, ow) == (4, 4)

    def test_patch_content(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        patches, _, _ = im2col(x, 2, 2)
        np.testing.assert_array_equal(patches[0, 0], [0, 1, 4, 5])
        np.testing.assert_array_equal(patches[0, -1], [10, 11, 14, 15])


class TestConv2d:
    def test_forward_shape(self, rng):
        conv = Conv2d(3, 5, 3, rng)
        out = conv(Tensor(rng.normal(size=(2, 3, 8, 8))))
        assert out.shape == (2, 5, 6, 6)

    def test_matches_naive_convolution(self, rng):
        conv = Conv2d(2, 4, 3, rng)
        x = rng.normal(size=(1, 2, 5, 5))
        out = conv(Tensor(x)).numpy()
        w = conv.weight.numpy().reshape(4, 2, 3, 3)
        for f in range(4):
            for i in range(3):
                for j in range(3):
                    window = x[0, :, i : i + 3, j : j + 3]
                    expected = (window * w[f]).sum() + conv.bias.numpy()[f]
                    assert out[0, f, i, j] == pytest.approx(expected)

    def test_weight_gradcheck(self, rng):
        conv = Conv2d(2, 3, 2, rng)
        x = rng.normal(size=(2, 2, 4, 4))
        check_gradients(
            lambda: (conv(Tensor(x)) ** 2).sum(), conv.parameters(), rtol=1e-3
        )

    def test_input_gradcheck(self, rng):
        conv = Conv2d(1, 2, 2, rng)
        x = Tensor(rng.normal(size=(1, 1, 4, 4)), requires_grad=True)
        check_gradients(lambda: (conv(x) ** 2).sum(), [x], rtol=1e-3)

    def test_stack_matches_per_client(self, rng):
        """Forward and backward of a stack of 3 clients give each client
        the bytes it gets alone: outputs and every gradient."""
        conv = Conv2d(2, 3, 2, rng)
        state = {
            "weight": rng.normal(size=(3,) + conv.weight.shape),
            "bias": rng.normal(size=(3,) + conv.bias.shape),
        }
        x = rng.normal(size=(3, 4, 2, 5, 5))
        seed = rng.normal(size=(3, 4, 3, 4, 4))
        alone = []
        for i in range(3):
            conv.load_state_dict({name: a[i] for name, a in state.items()})
            xi = Tensor(x[i], requires_grad=True)
            out = conv(xi)
            out.backward(seed[i])
            alone.append((out.data, conv.weight.grad, conv.bias.grad, xi.grad))
            conv.zero_grad()
        xs = Tensor(x, requires_grad=True)
        with conv.stacked(state):
            out = conv(xs)
            out.backward(seed)
            grads = conv.weight.grad, conv.bias.grad
        for i, (o, gw, gb, gx) in enumerate(alone):
            assert out.data[i].tobytes() == o.tobytes()
            assert grads[0][i].tobytes() == gw.tobytes()
            assert grads[1][i, 0].tobytes() == gb.tobytes()
            assert xs.grad[i].tobytes() == gx.tobytes()

    def test_filters_are_pattern_rows(self, rng):
        conv = Conv2d(3, 6, 3, rng)
        assert conv.weight.droppable
        assert conv.weight.data.shape == (6, 27)


class TestCNNClassifier:
    def test_forward_shape(self, rng):
        model = CNNClassifier(side=8, n_classes=4, rng=rng)
        out = model(rng.normal(size=(3, 64)))
        assert out.shape == (3, 4)

    def test_rowspace_has_filters(self, rng):
        model = CNNClassifier(side=8, n_classes=4, channels=(4, 8), rng=rng)
        space = RowSpace.from_module(model)
        names = [b.name for b in space.blocks]
        assert "conv1.weight" in names and "conv2.weight" in names
        assert space.block("conv1.weight").n_units == 4

    def test_too_small_side(self, rng):
        with pytest.raises(ValueError):
            CNNClassifier(side=4, n_classes=4, kernel_size=3, rng=rng)

    def test_fedbiad_filterwise_end_to_end(self, rng):
        """FedBIAD drops whole filters of a CNN and still learns."""
        from tests.conftest import make_tiny_image_task

        task = make_tiny_image_task(n_clients=4, seed=0)
        # swap the model spec for a CNN over the same 12-dim inputs?
        # 12 is not square; build a dedicated 16-dim (4x4) task instead
        gen = np.random.default_rng(0)
        protos = gen.normal(size=(3, 16))
        client_data = []
        for _ in range(4):
            y = gen.integers(0, 3, size=40)
            x = protos[y] + 0.3 * gen.normal(size=(40, 16))
            client_data.append((x, y))
        y_test = gen.integers(0, 3, size=60)
        x_test = protos[y_test] + 0.3 * gen.normal(size=(60, 16))
        task = dataclasses.replace(
            task,
            client_data=client_data,
            test_data=(x_test, y_test),
            model_spec={"kind": "cnn", "side": 4, "n_classes": 3,
                        "channels": (4, 8), "kernel_size": 2, "hidden": 16},
        )

        cfg = FLConfig(rounds=6, kappa=0.5, local_iterations=8, batch_size=10,
                       lr=0.3, dropout_rate=0.3, tau=2, seed=0)
        history = run_simulation(task, FedBIAD(), cfg)
        assert history.final_accuracy > 0.5
