"""Bitwise parity of the ``(V, V) @ (..., V, C)`` propagation backward.

The backward builds the grad's node-major copy once and feeds it to both
GEMMs (the operator's grad and the operand's).  It must reproduce the
values, signed zeros and memory layout of the grads that the old backward
gave, which built that copy once per GEMM: downstream sums add in memory
order.  The reference below is the old forward and backward in plain numpy.
"""

import numpy as np
import pytest

from repro.autodiff import Tensor


def reference_propagation(a, b, grad):
    """Forward output, operator grad and operand grad of the old branch."""
    v, w = a.shape
    batch_shape = b.shape[:-2]

    def mix(matrix, operand):
        moved = np.moveaxis(operand, -2, 0).reshape(operand.shape[-2], -1)
        out = (matrix @ moved).reshape(matrix.shape[0], *batch_shape,
                                       operand.shape[-1])
        return np.moveaxis(out, 0, -2)

    grad_mat = np.moveaxis(grad, -2, 0).reshape(v, -1)
    b_mat = np.moveaxis(b, -2, 0).reshape(w, -1)
    return mix(a, b), grad_mat @ b_mat.T, mix(a.T, grad)


def with_signed_zeros(array):
    flat = array.reshape(-1)
    flat[::7] = -0.0
    return array


@pytest.mark.parametrize("grad_layout", ["contiguous", "transposed"])
@pytest.mark.parametrize("operator_grad", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_matches_old_backward_bitwise(dtype, operator_grad, grad_layout):
    rng = np.random.default_rng(int(operator_grad) * 10 + len(grad_layout))
    v, batch, c = 5, (3, 4), 6
    a = with_signed_zeros(rng.normal(size=(v, v)).astype(dtype))
    b = with_signed_zeros(rng.normal(size=(*batch, v, c)).astype(dtype))
    grad = with_signed_zeros(rng.normal(size=(*batch, v, c)).astype(dtype))
    if grad_layout == "transposed":
        # An upstream op that hands over a strided view of its buffer.
        grad = np.ascontiguousarray(np.swapaxes(grad, 0, -1)).swapaxes(0, -1)
        assert not grad.flags.c_contiguous
    want_out, want_a, want_b = reference_propagation(a, b, grad)

    # Interior nodes borrow the grad they are handed, so its strides show.
    operator = (Tensor(a, requires_grad=True) * 1.0 if operator_grad
                else Tensor(a))
    operand = Tensor(b, requires_grad=True) * 1.0
    out = operator @ operand
    out.backward(grad)

    np.testing.assert_array_equal(out.data, want_out)
    assert np.array_equal(np.signbit(out.data), np.signbit(want_out))
    assert out.data.strides == want_out.strides
    pairs = [(operand.grad, want_b)]
    if operator_grad:
        pairs.append((operator.grad, want_a))
    else:
        assert operator.grad is None
    for got, want in pairs:
        assert got.dtype == want.dtype == dtype
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert got.strides == want.strides
