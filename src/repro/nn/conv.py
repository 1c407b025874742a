"""Temporal convolutions.

MTGNN's temporal module is a stack of dilated "inception" convolutions
applied along the time axis of a ``(batch, channels, nodes, time)`` tensor
(PyTorch's ``Conv2d`` with ``kernel=(1, k)``).  :class:`TemporalConv2d`
implements exactly that contraction as one GEMM over the window matrix of
the fused autodiff op :meth:`Tensor.conv_windows` (left padding, window
extraction and layout in a single node); :class:`DilatedInception`
combines several kernel widths as in the MTGNN paper (scaled down to the
kernel sizes the EMA paper uses).
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, concat
from . import init
from .container import ModuleList
from .module import Module, Parameter

__all__ = ["TemporalConv2d", "DilatedInception"]


class TemporalConv2d(Module):
    """Convolution along the last (time) axis of ``(B, C, N, T)`` input.

    Equivalent to ``torch.nn.Conv2d(c_in, c_out, kernel_size=(1, k),
    dilation=(1, d))``.  ``causal_pad=True`` left-pads so the output keeps
    the input's temporal length and never peeks at the future.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 dilation: int = 1, causal_pad: bool = False,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if kernel_size < 1 or dilation < 1:
            raise ValueError("kernel_size and dilation must be >= 1")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.dilation = dilation
        self.causal_pad = causal_pad
        self.weight = Parameter(
            init.xavier_uniform((out_channels, in_channels, kernel_size), rng))
        self.bias = Parameter(init.zeros(out_channels))

    @property
    def receptive_field(self) -> int:
        return (self.kernel_size - 1) * self.dilation + 1

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"TemporalConv2d expects (B, {self.in_channels}, N, T), got {x.shape}")
        if self.kernel_size == 1:
            # 1x1 convolution is a pure channel mix — skip the window op.
            mixed = x.transpose(0, 2, 3, 1) @ self.weight[:, :, 0].T + self.bias
            return mixed.transpose(0, 3, 1, 2)
        # Causal convs left-pad by receptive_field - 1; any conv also
        # left-pads a window shorter than its receptive field.
        left = self.receptive_field - 1 if self.causal_pad else 0
        left = max(left, self.receptive_field - x.shape[-1])
        flat = x.conv_windows(self.kernel_size, dilation=self.dilation,
                              left_pad=left)  # (B, N, T_out, C*K)
        kernel = self.weight.reshape(self.out_channels, -1).T  # (C*K, C_out)
        out = flat @ kernel + self.bias  # (B, N, T_out, C_out)
        return out.transpose(0, 3, 1, 2)


class DilatedInception(Module):
    """Parallel dilated temporal convolutions with concatenated outputs.

    MTGNN runs kernels {2, 3, 6, 7} in parallel, truncates every branch to
    the shortest output, and concatenates over channels.  The EMA paper's
    windows are at most 5 steps with kernel 3, so we default to {2, 3} and
    split ``out_channels`` evenly across branches.
    """

    def __init__(self, in_channels: int, out_channels: int,
                 kernel_sizes: tuple[int, ...] = (2, 3), dilation: int = 1,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if out_channels % len(kernel_sizes) != 0:
            raise ValueError("out_channels must divide evenly across kernel branches")
        rng = rng if rng is not None else np.random.default_rng()
        self.kernel_sizes = tuple(kernel_sizes)
        branch_channels = out_channels // len(kernel_sizes)
        self.branches = ModuleList(
            TemporalConv2d(in_channels, branch_channels, k, dilation=dilation,
                           causal_pad=True, rng=rng)
            for k in kernel_sizes)

    def forward(self, x: Tensor) -> Tensor:
        outputs = [branch(x) for branch in self.branches]
        return concat(outputs, axis=-3)
