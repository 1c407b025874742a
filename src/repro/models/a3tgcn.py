"""A3TGCN — Attention Temporal Graph Convolutional Network (Bai et al. 2021).

The paper's representative of the Recurrent Graph Convolution (R-GCN)
family: a T-GCN (GCN + GRU) runs over the input window producing one hidden
state per node per step, a soft attention re-weights the steps, and a
per-node head maps the context vector to the 1-lag prediction.

The paper finds A3TGCN performs at LSTM level (~1.03 MSE) because of this
deliberately simple architecture — reproducing that *requires* keeping the
architecture simple, so no extra blocks are added here.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, softmax, stack
from ..nn import Dropout, Linear
from ..nn.module import Parameter
from .base import Forecaster
from .tgcn import TGCNCell

__all__ = ["A3TGCN"]


class A3TGCN(Forecaster):
    """``(S, L, V) -> T-GCN over L -> temporal attention -> (S, V)``.

    As in the released A3T-GCN implementation (and its PyTorch Geometric
    Temporal port), the temporal attention is a *learned parameter vector*
    over the window's periods, softmax-normalized — one global attention
    distribution, not conditioned on the hidden states.
    """

    requires_graph = True

    def __init__(self, num_variables: int, seq_len: int, adjacency: np.ndarray,
                 hidden_size: int = 32, dropout: float = 0.3,
                 rng: np.random.Generator | None = None):
        super().__init__(num_variables, seq_len)
        rng = rng if rng is not None else np.random.default_rng()
        self.hidden_size = hidden_size
        self.cell = TGCNCell(1, hidden_size, adjacency, rng=rng)
        self.attention = Parameter(rng.uniform(-0.1, 0.1, size=seq_len))
        self.dropout = Dropout(dropout, rng=rng)
        self.head = Linear(hidden_size, 1, rng=rng)

    def set_adjacency(self, adjacency: np.ndarray) -> None:
        self.cell.set_adjacency(adjacency)

    def forward(self, inputs: Tensor) -> Tensor:
        self._check_input(inputs)
        # Leading axes (samples,), or (lanes, samples) on a stack_lanes clone.
        lead = inputs.shape[:-2]
        hidden = self.cell.initial_state(lead + (self.num_variables,))
        states = []
        for t in range(self.seq_len):
            step = inputs[..., t, :].reshape(*lead, self.num_variables, 1)
            hidden = self.cell(step, hidden)
            states.append(hidden)
        if len(states) == 1:
            context = states[0]
        else:
            # (S, L, V, H) weighted by the global period attention -> (S, V, H)
            sequence = stack(states, axis=-3)
            weights = softmax(self.attention, axis=-1).reshape(
                *self.attention.shape[:-1], 1, self.seq_len, 1, 1)
            context = (sequence * weights).sum(axis=-3)
        out = self.head(self.dropout(context))
        return out.reshape(*lead, self.num_variables)
