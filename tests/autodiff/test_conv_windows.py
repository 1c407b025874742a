"""Bitwise parity of ``Tensor.conv_windows`` with the im2col chain it fused.

``TemporalConv2d`` used to build its window matrix from four ops: left pad,
fancy-index windows, transpose and reshape, with a per-tap scatter loop in
backward.  The fused op must reproduce that chain's forward values, its
gradient values *and* the memory layout of the gradient it hands its
input, because downstream reductions (``_unbroadcast``, LayerNorm sums)
add in memory order.  The reference below is that chain, in plain numpy.
"""

import numpy as np
import pytest

from repro.autodiff import Tensor


def reference_chain(x, grad, size, dilation, left):
    """Forward windows and input grad of pad -> unfold -> transpose -> reshape."""
    padded = np.pad(x, [(0, 0)] * 3 + [(left, 0)])
    t_in = padded.shape[-1]
    t_out = t_in - (size - 1) * dilation
    idx = np.arange(t_out)[:, None] + dilation * np.arange(size)[None, :]
    windows = padded[..., idx]                      # (B, C, N, T_out, K)
    b, c, n, _, k = windows.shape
    flat = windows.transpose(0, 2, 3, 1, 4).reshape(b, n, t_out, c * k)

    taps = grad.reshape(b, n, t_out, c, k).transpose(0, 3, 1, 2, 4)
    full = np.zeros(padded.shape, dtype=grad.dtype)
    full_rows = full.reshape(-1, t_in)
    tap_rows = taps.reshape(-1, t_out, k)
    for j in range(k):
        offs = dilation * j
        full_rows[:, offs:offs + t_out] += tap_rows[:, :, j]
    return flat, full[..., left:]


def with_signed_zeros(array):
    """Plant -0.0 entries: the pad and the scatter must keep their signs."""
    flat = array.reshape(-1)
    flat[::7] = -0.0
    return array


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("t", [1, 2, 5])
@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("dilation", [1, 2])
@pytest.mark.parametrize("size", [2, 3])
def test_matches_old_chain_bitwise(size, dilation, causal, t, dtype):
    # TemporalConv2d's padding rule: causal convs pad receptive_field - 1,
    # and any conv pads a window shorter than its receptive field.
    field = (size - 1) * dilation + 1
    left = max(field - 1 if causal else 0, field - t)
    rng = np.random.default_rng(size * 100 + dilation * 10 + t)
    x = with_signed_zeros(rng.normal(size=(3, 4, 2, t)).astype(dtype))
    t_out = t + left - field + 1
    grad = with_signed_zeros(
        rng.normal(size=(3, 2, t_out, 4 * size)).astype(dtype))
    want_flat, want_grad = reference_chain(x, grad, size, dilation, left)

    source = Tensor(x, requires_grad=True)
    hidden = source * 1.0  # interior node: keeps the borrowed grad view
    windows = hidden.conv_windows(size, dilation=dilation, left_pad=left)
    windows.backward(grad)

    assert windows.data.flags.c_contiguous
    assert windows.dtype == want_flat.dtype
    np.testing.assert_array_equal(windows.data, want_flat)
    assert np.array_equal(np.signbit(windows.data), np.signbit(want_flat))
    assert hidden.grad.dtype == want_grad.dtype
    np.testing.assert_array_equal(hidden.grad, want_grad)
    assert np.array_equal(np.signbit(hidden.grad), np.signbit(want_grad))
    assert hidden.grad.strides == want_grad.strides


def test_rejects_bad_arguments():
    x = Tensor(np.zeros((1, 2, 3, 4)))
    with pytest.raises(ValueError, match="B, C, N, T"):
        Tensor(np.zeros((2, 3, 4))).conv_windows(2)
    with pytest.raises(ValueError, match=">= 1"):
        x.conv_windows(0)
    with pytest.raises(ValueError, match="left_pad"):
        x.conv_windows(2, left_pad=-1)
    with pytest.raises(ValueError, match="exceeds"):
        x.conv_windows(3, dilation=2)
