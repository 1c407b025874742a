"""T-GCN cell: the graph-convolutional GRU underlying A3TGCN.

Following Bai et al. (A3T-GCN) and the original T-GCN: at each step the
input signal and previous per-node hidden state are concatenated and passed
through graph convolutions to form GRU gates, so information mixes along
the variable graph while the recurrence tracks time.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, concat, no_grad
from ..autodiff.functional import volatile_constant
from ..nn import GCNConv
from ..nn.module import Module
from .base import Forecaster

__all__ = ["TGCNCell", "TGCNForecaster"]


class TGCNCell(Module):
    """Graph-convolutional GRU cell over per-node states.

    Faithful to the published T-GCN operator: the graph-convolution stage is
    the *two-layer* GCN ``GC(X) = Â ReLU(Â X W0) W1`` applied to the input
    signal, whose output then drives plain GRU gates together with the
    hidden state.  Two rounds of neighbourhood mixing per step dilute each
    node's own (scalar) signal — the architectural property behind A3TGCN's
    LSTM-level EMA performance in the paper.

    Input ``x``: ``(samples, nodes, in_features)``; hidden ``h``:
    ``(samples, nodes, hidden)``.
    """

    def __init__(self, in_features: int, hidden_size: int, adjacency: np.ndarray,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        from ..nn import Linear

        self.in_features = in_features
        self.hidden_size = hidden_size
        self.graph_conv1 = GCNConv(in_features, hidden_size, adjacency, rng=rng)
        self.graph_conv2 = GCNConv(hidden_size, hidden_size, adjacency, rng=rng)
        self.gates = Linear(2 * hidden_size, 2 * hidden_size, rng=rng)
        self.candidate = Linear(2 * hidden_size, hidden_size, rng=rng)
        # Bias the update gate toward remembering, as T-GCN initializes b=1.
        with no_grad():
            self.gates.bias.data[:hidden_size] = 1.0

    def set_adjacency(self, adjacency: np.ndarray) -> None:
        self.graph_conv1.set_adjacency(adjacency)
        self.graph_conv2.set_adjacency(adjacency)

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ValueError(f"TGCNCell expected input feature size "
                             f"{self.in_features}, got {x.shape[-1]}")
        gc = self.graph_conv2(self.graph_conv1(x).relu())
        combined = concat([gc, h], axis=-1)
        gates = self.gates(combined).sigmoid()
        update = gates[..., : self.hidden_size]
        reset = gates[..., self.hidden_size:]
        candidate = self.candidate(concat([gc, reset * h], axis=-1)).tanh()
        return update * h + (1.0 - update) * candidate

    def initial_state(self, leading_shape: tuple[int, ...]) -> Tensor:
        from ..autodiff.tensor import get_default_dtype

        return volatile_constant(np.zeros, leading_shape + (self.hidden_size,),
                                 get_default_dtype())


class TGCNForecaster(Forecaster):
    """``(S, L, V) -> T-GCN over L -> last hidden state -> (S, V)``.

    The plain T-GCN of Zhao et al.: the recurrence's *final* per-node
    hidden state is the context (no temporal attention — that addition is
    exactly what turns this model into A3TGCN).  Kept in the registry as
    the ablation point between LSTM and A3TGCN: graph mixing without
    attention.
    """

    requires_graph = True

    def __init__(self, num_variables: int, seq_len: int, adjacency: np.ndarray,
                 hidden_size: int = 32, dropout: float = 0.3,
                 rng: np.random.Generator | None = None):
        super().__init__(num_variables, seq_len)
        rng = rng if rng is not None else np.random.default_rng()
        from ..nn import Dropout, Linear

        self.hidden_size = hidden_size
        self.cell = TGCNCell(1, hidden_size, adjacency, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)
        self.head = Linear(hidden_size, 1, rng=rng)

    def set_adjacency(self, adjacency: np.ndarray) -> None:
        self.cell.set_adjacency(adjacency)

    def forward(self, inputs: Tensor) -> Tensor:
        self._check_input(inputs)
        # Leading axes (samples,), or (lanes, samples) on a stack_lanes clone.
        lead = inputs.shape[:-2]
        hidden = self.cell.initial_state(lead + (self.num_variables,))
        for t in range(self.seq_len):
            step = inputs[..., t, :].reshape(*lead, self.num_variables, 1)
            hidden = self.cell(step, hidden)
        out = self.head(self.dropout(hidden))
        return out.reshape(*lead, self.num_variables)
