"""Unit tests for elementary Tensor operations and their gradients."""

import numpy as np
import pytest

from repro.autodiff import Tensor, check_gradients, concat, no_grad, stack, where


def leaf(shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(scale * rng.standard_normal(shape), requires_grad=True)


class TestConstruction:
    def test_int_input_promoted_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.dtype.kind == "f"

    def test_scalar_item(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_detach_cuts_graph(self):
        x = leaf((2, 2), 0)
        y = x.detach()
        assert not y.requires_grad
        assert y.data is x.data

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad=True" in repr(leaf((1,), 0))

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 3)))
        assert len(t) == 4
        assert t.size == 12
        assert t.ndim == 2


class TestArithmeticForward:
    def test_add_broadcast(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.arange(3.0))
        np.testing.assert_allclose((a + b).data, 1.0 + np.arange(3.0) * np.ones((2, 3)))

    def test_scalar_radd_rmul(self):
        x = Tensor(np.array([1.0, 2.0]))
        np.testing.assert_allclose((5 + x).data, [6.0, 7.0])
        np.testing.assert_allclose((2 * x).data, [2.0, 4.0])

    def test_rsub_rtruediv(self):
        x = Tensor(np.array([1.0, 2.0]))
        np.testing.assert_allclose((3 - x).data, [2.0, 1.0])
        np.testing.assert_allclose((2 / x).data, [2.0, 1.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor(2.0) ** Tensor(2.0)


class TestGradients:
    """Every op checked against central finite differences."""

    def test_add(self):
        check_gradients(lambda a, b: (a + b).sum(), [leaf((3, 4), 1), leaf((3, 4), 2)])

    def test_add_broadcast(self):
        check_gradients(lambda a, b: (a + b).sum(), [leaf((3, 4), 1), leaf((4,), 2)])

    def test_add_broadcast_keepdim_axis(self):
        check_gradients(lambda a, b: (a + b).sum(), [leaf((3, 1, 5), 1), leaf((3, 4, 5), 2)])

    def test_mul(self):
        check_gradients(lambda a, b: (a * b).sum(), [leaf((2, 5), 3), leaf((2, 5), 4)])

    def test_mul_broadcast(self):
        check_gradients(lambda a, b: (a * b).sum(), [leaf((2, 5), 3), leaf((1, 5), 4)])

    def test_div(self):
        b = leaf((2, 3), 6)
        b.data += 3.0 * np.sign(b.data)  # keep away from zero
        check_gradients(lambda a, b: (a / b).sum(), [leaf((2, 3), 5), b])

    def test_neg_sub(self):
        check_gradients(lambda a, b: (a - b).sum(), [leaf((4,), 7), leaf((4,), 8)])

    def test_pow(self):
        a = leaf((3,), 9)
        a.data = np.abs(a.data) + 0.5
        check_gradients(lambda a: (a ** 3).sum(), [a])

    def test_exp(self):
        check_gradients(lambda a: a.exp().sum(), [leaf((3, 3), 10, scale=0.5)])

    def test_log(self):
        a = leaf((4,), 11)
        a.data = np.abs(a.data) + 0.5
        check_gradients(lambda a: a.log().sum(), [a])

    def test_sqrt(self):
        a = leaf((4,), 12)
        a.data = np.abs(a.data) + 0.5
        check_gradients(lambda a: a.sqrt().sum(), [a])

    def test_tanh(self):
        check_gradients(lambda a: a.tanh().sum(), [leaf((2, 4), 13)])

    def test_sigmoid(self):
        check_gradients(lambda a: a.sigmoid().sum(), [leaf((2, 4), 14)])

    def test_relu(self):
        a = leaf((5, 5), 15)
        a.data[np.abs(a.data) < 1e-3] = 0.5  # avoid kink
        check_gradients(lambda a: a.relu().sum(), [a])

    def test_leaky_relu(self):
        a = leaf((5,), 16)
        a.data[np.abs(a.data) < 1e-3] = 0.5
        check_gradients(lambda a: a.leaky_relu(0.2).sum(), [a])

    def test_abs(self):
        a = leaf((5,), 17)
        a.data[np.abs(a.data) < 1e-3] = 0.5
        check_gradients(lambda a: a.abs().sum(), [a])

    def test_clip(self):
        a = leaf((6,), 18)
        a.data = np.array([-2.0, -0.5, 0.1, 0.5, 2.0, 3.0])
        check_gradients(lambda a: a.clip(-1.0, 1.5).sum(), [a])

    def test_matmul_2d(self):
        check_gradients(lambda a, b: (a @ b).sum(), [leaf((3, 4), 19), leaf((4, 2), 20)])

    def test_matmul_batched(self):
        check_gradients(lambda a, b: (a @ b).sum(), [leaf((2, 3, 4), 21), leaf((2, 4, 5), 22)])

    def test_matmul_broadcast_batch(self):
        check_gradients(lambda a, b: (a @ b).sum(), [leaf((2, 3, 4), 23), leaf((4, 5), 24)])

    def test_matmul_vector_rhs(self):
        check_gradients(lambda a, b: (a @ b).sum(), [leaf((3, 4), 25), leaf((4,), 26)])

    def test_matmul_vector_lhs(self):
        check_gradients(lambda a, b: (a @ b).sum(), [leaf((4,), 27), leaf((4, 3), 28)])

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((4,), (4,)),         # vec @ vec -> scalar
        ((4,), (2, 4, 3)),    # vec @ batch
        ((2, 3, 4), (4,)),    # batch @ vec
    ], ids=["vec-vec", "vec-batch", "batch-vec"])
    def test_matmul_vector_operands(self, a_shape, b_shape):
        # With test_matmul_vector_rhs/lhs (mat@vec, vec@mat) this pins every
        # 1-D operand form of the generic matmul backward.
        check_gradients(lambda a, b: ((a @ b) ** 2).sum(),
                        [leaf(a_shape, 60), leaf(b_shape, 61)])

    def test_sum_axis(self):
        check_gradients(lambda a: a.sum(axis=1).sum(), [leaf((3, 4), 29)])

    def test_sum_keepdims(self):
        check_gradients(lambda a: a.sum(axis=0, keepdims=True).sum(), [leaf((3, 4), 30)])

    def test_mean_axes_tuple(self):
        check_gradients(lambda a: a.mean(axis=(0, 2)).sum(), [leaf((2, 3, 4), 31)])

    def test_var(self):
        check_gradients(lambda a: a.var(axis=1).sum(), [leaf((3, 5), 32)])

    def test_max(self):
        a = leaf((3, 4), 33)
        check_gradients(lambda a: a.max(axis=1).sum(), [a])

    def test_reshape(self):
        check_gradients(lambda a: a.reshape(6, 2).sum(axis=0).sum(), [leaf((3, 4), 34)])

    def test_transpose(self):
        check_gradients(lambda a: (a.transpose(1, 0, 2) * 2).sum(), [leaf((2, 3, 4), 35)])

    def test_T_and_swapaxes(self):
        check_gradients(lambda a: (a.T @ a).sum(), [leaf((3, 4), 36)])
        check_gradients(lambda a: a.swapaxes(0, 2).sum(), [leaf((2, 3, 4), 37)])

    def test_getitem_slice(self):
        check_gradients(lambda a: a[1:, :2].sum(), [leaf((3, 4), 38)])

    def test_getitem_int(self):
        check_gradients(lambda a: a[1].sum(), [leaf((3, 4), 39)])

    def test_conv_windows(self):
        check_gradients(lambda a: (a.conv_windows(3) ** 2).sum(),
                        [leaf((2, 3, 2, 8), 41)])

    def test_conv_windows_dilated(self):
        check_gradients(lambda a: (a.conv_windows(3, dilation=2) ** 2).sum(),
                        [leaf((2, 3, 2, 9), 42)])

    def test_conv_windows_left_pad(self):
        # Tap 0 reads only padding and tap 1 partly; neither may leak grad.
        check_gradients(
            lambda a: (a.conv_windows(2, dilation=2, left_pad=3) ** 2).sum(),
            [leaf((2, 3, 2, 2), 40)])

    def test_concat(self):
        a, b = leaf((2, 3), 43), leaf((2, 2), 44)
        check_gradients(lambda a, b: (concat([a, b], axis=1) ** 2).sum(), [a, b])

    def test_stack(self):
        a, b = leaf((2, 3), 45), leaf((2, 3), 46)
        check_gradients(lambda a, b: (stack([a, b], axis=1) ** 2).sum(), [a, b])

    def test_where(self):
        a, b = leaf((3, 3), 47), leaf((3, 3), 48)
        cond = np.random.default_rng(0).random((3, 3)) > 0.5
        check_gradients(lambda a, b: where(cond, a, b).sum(), [a, b])


class TestBackwardSemantics:
    def test_grad_accumulates_across_backward_calls(self):
        x = leaf((2,), 50)
        (x * 2).sum().backward()
        first = x.grad.copy()
        (x * 2).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * first)

    def test_reused_tensor_accumulates_in_one_graph(self):
        x = leaf((3,), 51)
        y = (x * x + x).sum()  # dy/dx = 2x + 1
        y.backward()
        np.testing.assert_allclose(x.grad, 2 * x.data + 1)

    def test_diamond_graph(self):
        x = leaf((2,), 52)
        a = x * 2
        b = x * 3
        (a * b).sum().backward()  # d(6x^2)/dx = 12x
        np.testing.assert_allclose(x.grad, 12 * x.data)

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(2)).backward()

    def test_backward_shape_mismatch(self):
        x = leaf((2, 2), 53)
        y = x.sum(axis=0)
        with pytest.raises(ValueError):
            y.backward(np.ones(3))

    def test_backward_dtype_mismatch_raises(self):
        # A float32 seed into a float64 graph (or vice versa) would
        # silently change every accumulated gradient; it must raise.
        x = leaf((2, 2), 56)  # float64
        y = x.sum(axis=0)
        with pytest.raises(TypeError, match="dtype"):
            y.backward(np.ones(2, dtype=np.float32))
        y.backward(np.ones(2))  # matching dtype still accepted
        assert x.grad is not None

    def test_op_name_comes_from_the_primitive(self):
        # Every node of one op shares its primitive, whose name backward()
        # hands the profiler hook and the anomaly messages; the scalar
        # operand is the node's static field.
        from repro.autodiff.tensor import MUL_SCALAR

        a = leaf((2,), 57) * 2.0
        b = leaf((2,), 58) * 3.0
        assert a._op is b._op is MUL_SCALAR
        assert MUL_SCALAR.name == "__mul__"
        assert (a._ctx, b._ctx) == (2.0, 3.0)

    def test_no_grad_blocks_graph(self):
        x = leaf((2,), 54)
        with no_grad():
            y = (x * 2).sum()
        assert not y.requires_grad

    def test_zero_grad(self):
        x = leaf((2,), 55)
        (x * 2).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_deep_chain_does_not_recurse(self):
        # Topological sort is iterative; a 3000-op chain must not blow the stack.
        x = leaf((2,), 56)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(2))


class TestNonDifferentiable:
    def test_comparisons_return_numpy(self):
        x = Tensor(np.array([1.0, -1.0]))
        assert isinstance(x > 0, np.ndarray)
        assert isinstance(x < 0, np.ndarray)
