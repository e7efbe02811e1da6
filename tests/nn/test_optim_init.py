"""Tests for optimizers and initializers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import init as initializers
from repro.nn.module import Parameter
from repro.nn.optim import SGD, clip_grad_norm


def param(values):
    p = Parameter(np.asarray(values, dtype=np.float64))
    return p


class TestSGD:
    def test_plain_step(self):
        p = param([1.0, 2.0])
        SGD([p], lr=0.1).step([np.array([0.5, 0.5])])
        np.testing.assert_allclose(p.data, [0.95, 1.95])

    def test_skips_missing_grads(self):
        p = param([1.0])
        SGD([p], lr=0.1).step([None])
        np.testing.assert_allclose(p.data, [1.0])

    def test_weight_decay(self):
        p = param([1.0])
        SGD([p], lr=0.1, weight_decay=0.5).step([np.array([0.0])])
        np.testing.assert_allclose(p.data, [1.0 - 0.1 * 0.5])

    def test_momentum_accumulates(self):
        p = param([0.0])
        opt = SGD([p], lr=1.0, momentum=0.5)
        opt.step([np.array([1.0])])  # v=1, p=-1
        opt.step([np.array([1.0])])  # v=1.5, p=-2.5
        np.testing.assert_allclose(p.data, [-2.5])

    def test_clipping_invoked(self):
        p = param([0.0])
        SGD([p], lr=1.0, max_grad_norm=1.0).step([np.array([100.0])])
        np.testing.assert_allclose(p.data, [-1.0])

    def test_step_leaves_parameter_grads_alone(self):
        """The step reads only the arrays it is given."""
        p = param([0.0])
        SGD([p], lr=0.1).step([np.array([1.0])])
        assert p.grad is None

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD([param([1.0])], lr=0.0)

    @pytest.mark.parametrize("max_grad_norm", [None, 0.5])
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    def test_in_place_step_matches_out_of_place(self, weight_decay, momentum, max_grad_norm):
        """The in-place step is byte-identical to the out-of-place
        expression over many stacked steps."""

        def reference_step(params, grads, velocity, lr):
            if max_grad_norm is not None:
                clip_grad_norm(grads, max_grad_norm)
            for i, (p, grad) in enumerate(zip(params, grads)):
                if weight_decay:
                    grad = grad + weight_decay * p.data
                if momentum:
                    if velocity[i] is None:
                        velocity[i] = np.zeros_like(p.data)
                    v = velocity[i]
                    v *= momentum
                    v += grad
                    update = v
                else:
                    update = grad
                p.data -= lr * update

        gen = np.random.default_rng(4)
        shapes = [(3, 5, 4), (3, 1, 5), (3, 5, 5), (3, 1, 5)]  # two layers, 3 clients
        start = [gen.normal(size=s) for s in shapes]
        ours = [Parameter(a.copy()) for a in start]
        theirs = [Parameter(a.copy()) for a in start]
        opt = SGD(ours, lr=0.05, momentum=momentum, weight_decay=weight_decay,
                  max_grad_norm=max_grad_norm)
        velocity = [None] * len(theirs)
        for _ in range(200):
            scale = gen.choice([0.01, 1.0], size=(3, 1, 1))  # some clients below the clip norm
            grads = [gen.normal(size=a.data.shape) * scale for a in ours]
            opt.step([g.copy() for g in grads])
            reference_step(theirs, grads, velocity, lr=0.05)
            for a, b in zip(ours, theirs):
                assert a.data.tobytes() == b.data.tobytes()
        buffers = [b for b in opt._buffers + opt._velocity if b is not None]
        assert len(buffers) == len(shapes) * (2 if momentum else 1)
        owned = buffers + [p.data for p in ours]
        for i, a in enumerate(owned):
            for b in owned[i + 1:]:
                assert not np.shares_memory(a, b)


class TestClipGradNorm:
    def test_scales_to_max(self):
        g1, g2 = np.array([3.0]), np.array([4.0])
        norm = clip_grad_norm([g1, None, g2], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        total = np.sqrt(g1**2 + g2**2)
        np.testing.assert_allclose(total, [1.0])

    def test_no_scaling_below_max(self):
        g = np.array([0.5])
        clip_grad_norm([g], max_norm=1.0)
        np.testing.assert_allclose(g, [0.5])


class TestInitializers:
    def test_xavier_bounds(self, rng):
        w = initializers.xavier_uniform((50, 30), rng)
        bound = np.sqrt(6.0 / 80)
        assert np.abs(w).max() <= bound

    def test_kaiming_bounds(self, rng):
        w = initializers.kaiming_uniform((50, 30), rng)
        assert np.abs(w).max() <= np.sqrt(6.0 / 30)

    def test_normal_std(self, rng):
        w = initializers.normal((200, 200), rng, std=0.05)
        assert np.std(w) == pytest.approx(0.05, rel=0.05)

    def test_uniform_bound(self, rng):
        w = initializers.uniform((40, 40), rng, bound=0.2)
        assert np.abs(w).max() <= 0.2

    def test_zeros(self):
        np.testing.assert_array_equal(initializers.zeros((3, 2)), np.zeros((3, 2)))

    def test_orthogonal_property(self, rng):
        w = initializers.orthogonal((16, 16), rng)
        np.testing.assert_allclose(w @ w.T, np.eye(16), atol=1e-10)

    def test_orthogonal_requires_2d(self, rng):
        with pytest.raises(ValueError):
            initializers.orthogonal((4,), rng)
