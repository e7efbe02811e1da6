"""Unit tests for the autodiff Tensor: forward values and gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.gradcheck import check_gradients
from repro.nn.tensor import Tensor, as_tensor, is_grad_enabled, no_grad


def leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


class TestForward:
    def test_add(self):
        out = leaf([1.0, 2.0]) + leaf([3.0, 4.0])
        np.testing.assert_allclose(out.numpy(), [4.0, 6.0])

    def test_add_scalar(self):
        out = leaf([1.0, 2.0]) + 1.5
        np.testing.assert_allclose(out.numpy(), [2.5, 3.5])

    def test_radd(self):
        out = 1.5 + leaf([1.0])
        np.testing.assert_allclose(out.numpy(), [2.5])

    def test_sub(self):
        out = leaf([3.0]) - leaf([1.0])
        np.testing.assert_allclose(out.numpy(), [2.0])

    def test_rsub(self):
        out = 5.0 - leaf([1.0])
        np.testing.assert_allclose(out.numpy(), [4.0])

    def test_mul(self):
        out = leaf([2.0, 3.0]) * leaf([4.0, 5.0])
        np.testing.assert_allclose(out.numpy(), [8.0, 15.0])

    def test_div(self):
        out = leaf([8.0]) / leaf([2.0])
        np.testing.assert_allclose(out.numpy(), [4.0])

    def test_rdiv(self):
        out = 8.0 / leaf([2.0])
        np.testing.assert_allclose(out.numpy(), [4.0])

    def test_neg(self):
        np.testing.assert_allclose((-leaf([1.0, -2.0])).numpy(), [-1.0, 2.0])

    def test_pow(self):
        np.testing.assert_allclose((leaf([2.0]) ** 3).numpy(), [8.0])

    def test_pow_requires_scalar(self):
        with pytest.raises(TypeError):
            leaf([2.0]) ** np.array([1.0, 2.0])

    def test_matmul(self):
        a = leaf([[1.0, 2.0], [3.0, 4.0]])
        b = leaf([[1.0], [1.0]])
        np.testing.assert_allclose((a @ b).numpy(), [[3.0], [7.0]])

    def test_matmul_vector(self):
        a = leaf([[1.0, 2.0], [3.0, 4.0]])
        v = leaf([1.0, 1.0])
        np.testing.assert_allclose((a @ v).numpy(), [3.0, 7.0])

    def test_reshape(self):
        out = leaf([[1.0, 2.0], [3.0, 4.0]]).reshape(4)
        assert out.shape == (4,)

    def test_transpose(self):
        out = leaf([[1.0, 2.0]]).T
        assert out.shape == (2, 1)

    def test_getitem(self):
        out = leaf([[1.0, 2.0], [3.0, 4.0]])[:, 1]
        np.testing.assert_allclose(out.numpy(), [2.0, 4.0])

    def test_sum_all(self):
        assert leaf([[1.0, 2.0], [3.0, 4.0]]).sum().item() == 10.0

    def test_sum_axis(self):
        out = leaf([[1.0, 2.0], [3.0, 4.0]]).sum(axis=0)
        np.testing.assert_allclose(out.numpy(), [4.0, 6.0])

    def test_mean(self):
        assert leaf([[2.0, 4.0]]).mean().item() == 3.0

    def test_mean_axis(self):
        out = leaf([[2.0, 4.0], [6.0, 8.0]]).mean(axis=1)
        np.testing.assert_allclose(out.numpy(), [3.0, 7.0])

    def test_exp_log_roundtrip(self):
        x = leaf([0.5, 1.5])
        np.testing.assert_allclose(x.exp().log().numpy(), x.numpy())

    def test_tanh_range(self):
        out = leaf([-100.0, 0.0, 100.0]).tanh().numpy()
        np.testing.assert_allclose(out, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_sigmoid_stable(self):
        out = leaf([-1000.0, 0.0, 1000.0]).sigmoid().numpy()
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)

    def test_relu(self):
        np.testing.assert_allclose(
            leaf([-1.0, 0.0, 2.0]).relu().numpy(), [0.0, 0.0, 2.0]
        )


class TestBackward:
    @pytest.mark.parametrize(
        "fn",
        [
            lambda a, b: (a + b).sum(),
            lambda a, b: (a - b).sum(),
            lambda a, b: (a * b).sum(),
            lambda a, b: (a / (b + 3.0)).sum(),
            lambda a, b: (a @ b.T).sum(),
            lambda a, b: ((a ** 2) * b.tanh()).mean(),
            lambda a, b: (a.sigmoid() + b.relu()).sum(),
            lambda a, b: (a.exp() + (b + 3.0).log()).sum(),
        ],
    )
    def test_binary_ops_gradcheck(self, fn, rng):
        a = leaf(rng.normal(size=(3, 4)))
        b = leaf(rng.normal(size=(3, 4)))
        check_gradients(lambda: fn(a, b), [a, b])

    def test_broadcast_add_gradcheck(self, rng):
        a = leaf(rng.normal(size=(3, 4)))
        b = leaf(rng.normal(size=(4,)))
        check_gradients(lambda: (a + b).sum(), [a, b])

    def test_broadcast_mul_gradcheck(self, rng):
        a = leaf(rng.normal(size=(2, 3, 4)))
        b = leaf(rng.normal(size=(1, 4)))
        check_gradients(lambda: (a * b).mean(), [a, b])

    def test_getitem_gradcheck(self, rng):
        a = leaf(rng.normal(size=(4, 5)))
        check_gradients(lambda: (a[1:3, ::2] ** 2).sum(), [a])

    @pytest.mark.parametrize(
        "key",
        [
            1,
            -1,
            np.int64(2),
            slice(1, 3),
            (slice(None), 1),
            (Ellipsis, slice(None, None, -2)),
            (None, 0, slice(1, None)),
            (1, Ellipsis, None),
            (),
        ],
    )
    def test_basic_getitem_backward_matches_add_at(self, key, rng):
        """A basic key takes the ``full[key] += grad`` path; its gradient
        is byte-identical to scattering with ``np.add.at``."""
        data = rng.normal(size=(3, 4, 5))
        grad = rng.normal(size=data[key].shape)
        grad.flat[0] = -0.0
        a = leaf(data)
        a[key].backward(grad)
        expected = np.zeros_like(data)
        np.add.at(expected, key, grad)
        assert a.grad.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "key",
        [np.array([0, 2, 0, 0]), ([1, 1], slice(None)), np.array([True, False, True]), True],
    )
    def test_advanced_getitem_backward_accumulates(self, key):
        """Index arrays and bools keep ``np.add.at``: a repeated index
        accumulates its gradients."""
        a = leaf(np.arange(6.0).reshape(3, 2))
        out = a[key]
        out.backward(np.ones_like(out.data))
        expected = np.zeros((3, 2))
        np.add.at(expected, key, 1.0)
        assert a.grad.tobytes() == expected.tobytes()
        if isinstance(key, np.ndarray) and key.dtype != bool:
            assert a.grad[0].tolist() == [3.0, 3.0]

    def test_sum_keepdims_gradcheck(self, rng):
        a = leaf(rng.normal(size=(3, 4)))
        check_gradients(lambda: (a.sum(axis=1, keepdims=True) * a).sum(), [a])

    def test_transpose_gradcheck(self, rng):
        a = leaf(rng.normal(size=(3, 4)))
        check_gradients(lambda: (a.T @ a).sum(), [a])

    @pytest.mark.parametrize("x_shape", [(3, 4), (2, 3, 4), (4,)])
    def test_matmul_skips_operands_without_grad(self, x_shape, rng):
        """A constant operand (a model's input) gets no gradient
        computed; the other operand's gradient is unchanged."""
        x = Tensor(rng.normal(size=x_shape))
        w = leaf(rng.normal(size=(4, 5)))
        out = x @ w
        pairs = out._backward(np.ones_like(out.data))
        assert [p is w for p, _ in pairs] == [True]
        check_gradients(lambda: ((x @ w) ** 2).sum(), [w])
        flipped = leaf(rng.normal(size=(5, 4))) @ Tensor(rng.normal(size=(4, 3)))
        assert len(flipped._backward(np.ones_like(flipped.data))) == 1

    def test_shared_tensor_accumulates(self):
        a = leaf([2.0])
        out = (a * a).sum()  # d/da a^2 = 2a
        out.backward()
        np.testing.assert_allclose(a.grad, [4.0])

    def test_grad_accumulates_across_backwards(self):
        a = leaf([1.0])
        (a * 2.0).sum().backward()
        (a * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, [4.0])

    def test_zero_grad(self):
        a = leaf([1.0])
        (a * 2.0).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_backward_requires_scalar_without_seed(self):
        a = leaf([1.0, 2.0])
        with pytest.raises(RuntimeError):
            (a * 2.0).backward()

    def test_backward_seed_shape_checked(self):
        a = leaf([1.0, 2.0])
        out = a * 2.0
        with pytest.raises(ValueError):
            out.backward(np.ones((3,)))

    def test_backward_on_constant_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_deep_chain_no_recursion_error(self):
        a = leaf([1.0])
        out = a
        for _ in range(3000):
            out = out + 1.0
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0])


class TestGradMode:
    def test_no_grad_disables_graph(self):
        a = leaf([1.0])
        with no_grad():
            out = a * 2.0
        assert not out.requires_grad

    def test_no_grad_restores(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_detach(self):
        a = leaf([1.0])
        assert not a.detach().requires_grad

    def test_as_tensor_passthrough(self):
        a = leaf([1.0])
        assert as_tensor(a) is a

    def test_as_tensor_wraps_array(self):
        t = as_tensor(np.array([1, 2]))
        assert isinstance(t, Tensor) and not t.requires_grad

    def test_shape_properties(self):
        a = leaf(np.zeros((2, 3)))
        assert a.shape == (2, 3) and a.ndim == 2 and a.size == 6
