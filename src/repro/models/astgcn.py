"""ASTGCN — Attention-Based Spatial-Temporal GCN (Guo et al., adapted per
the EMA paper's setup).

One spatial-temporal block, as the paper's short windows (<= 5 steps)
motivate ("no need to incorporate a very deep network"):

1. **Temporal attention** ``E (S, L, L)`` re-weights the window's steps.
2. **Spatial attention** ``S_att (S, V, V)`` modulates node mixing.
3. **Chebyshev graph convolution** (order ``K`` = the paper's kernel k=3)
   with the spatial attention applied elementwise to each polynomial term.
4. **Temporal convolution** along the window (causal, kernel 3).
5. Residual connection from the input and a per-node output head that reads
   the full convolved window.

Input/Output matches :class:`Forecaster`: ``(S, L, V) -> (S, V)``.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor
from ..nn import (ChebConv, Dropout, LayerNorm, Linear, SpatialAttention,
                  TemporalAttention, TemporalConv2d)
from .base import Forecaster, permute_trailing

__all__ = ["ASTGCN"]


class ASTGCN(Forecaster):
    """Single-block ASTGCN for 1-lag EMA forecasting."""

    requires_graph = True

    def __init__(self, num_variables: int, seq_len: int, adjacency: np.ndarray,
                 hidden_size: int = 32, cheb_order: int = 3, kernel_size: int = 3,
                 dropout: float = 0.3, rng: np.random.Generator | None = None):
        super().__init__(num_variables, seq_len)
        rng = rng if rng is not None else np.random.default_rng()
        self.hidden_size = hidden_size
        self.temporal_attention = TemporalAttention(
            num_variables, 1, seq_len, rng=rng)
        self.spatial_attention = SpatialAttention(
            num_variables, 1, seq_len, rng=rng)
        self.cheb = ChebConv(1, hidden_size, adjacency, order=cheb_order, rng=rng)
        self.time_conv = TemporalConv2d(hidden_size, hidden_size, kernel_size,
                                        causal_pad=True, rng=rng)
        self.residual_conv = TemporalConv2d(1, hidden_size, 1, rng=rng)
        self.norm = LayerNorm(hidden_size)
        self.dropout = Dropout(dropout, rng=rng)
        self.head = Linear(hidden_size * seq_len, 1, rng=rng)

    def set_adjacency(self, adjacency: np.ndarray) -> None:
        self.cheb.set_adjacency(adjacency)

    def forward(self, inputs: Tensor) -> Tensor:
        self._check_input(inputs)
        # Leading axes (samples,), or (lanes, samples) on a stack_lanes clone.
        lead = inputs.shape[:-2]
        # (S, L, V) -> (S, V, 1, L)
        x = inputs.swapaxes(-1, -2).reshape(*lead, self.num_variables, 1,
                                             self.seq_len)

        # 1. temporal attention: mix window steps.
        e = self.temporal_attention(x)                    # (S, L, L)
        flat = x.reshape(*lead, self.num_variables, self.seq_len)
        x_t = (flat @ e).reshape(*lead, self.num_variables, 1, self.seq_len)

        # 2. spatial attention from the re-weighted signal.
        s_att = self.spatial_attention(x_t)               # (S, V, V)

        # 3. Chebyshev conv with attention-modulated operators, all window
        # steps in one batched matmul per order: (S, V, 1, L) -> (S, L, V, 1)
        # and the (S, 1, V, V) operator broadcasts over L inside ChebConv —
        # same arithmetic as the former per-step Python loop, minus L-1
        # matmul dispatches and L redundant ``T_k * S_att`` products.
        steps_in = permute_trailing(x_t, 2, 0, 1)         # (S, L, V, 1)
        spatial = self.cheb(steps_in, spatial_attention=s_att).relu()
        spatial = permute_trailing(spatial, 1, 2, 0)      # (S, V, H, L)

        # 4. temporal convolution over the window.
        conv_in = permute_trailing(spatial, 1, 0, 2)      # (S, H, V, L)
        conv_out = self.time_conv(conv_in)                # (S, H, V, L)

        # 5. residual from raw input + layer norm over channels.
        residual = self.residual_conv(
            permute_trailing(x, 1, 0, 2))                 # (S, H, V, L)
        merged = (conv_out + residual).relu()
        merged = self.norm(permute_trailing(merged, 1, 2, 0))  # (S, V, L, H)

        # head reads the whole convolved window per node.
        features = self.dropout(merged).reshape(
            *lead, self.num_variables, self.seq_len * self.hidden_size)
        return self.head(features).reshape(*lead, self.num_variables)
