"""Recurrent cells and the LSTM used by the paper's baseline.

Cells accept inputs with arbitrary leading batch axes ``(..., features)`` —
the graph-recurrent models (A3TGCN) carry a per-node hidden state of shape
``(samples, nodes, hidden)``, so this generality is load-bearing.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, concat, no_grad, stack
from ..autodiff.functional import volatile_constant
from .linear import Linear
from .module import Module

__all__ = ["GRUCell", "LSTMCell", "LSTM"]


class GRUCell(Module):
    """Gated recurrent unit cell.

    Update/reset gates and candidate computed from ``[x, h]`` concatenation,
    matching the formulation used inside T-GCN/A3T-GCN (where the input has
    already been graph-convolved).
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.gates = Linear(input_size + hidden_size, 2 * hidden_size, rng=rng)
        self.candidate = Linear(input_size + hidden_size, hidden_size, rng=rng)
        # Bias the update gate toward remembering (as T-GCN does with b=1).
        with no_grad():
            self.gates.bias.data[:hidden_size] = 1.0

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        if x.shape[-1] != self.input_size:
            raise ValueError(f"GRUCell expected input size {self.input_size}, "
                             f"got {x.shape[-1]}")
        combined = concat([x, h], axis=-1)
        gates = self.gates(combined).sigmoid()
        update = gates[..., : self.hidden_size]
        reset = gates[..., self.hidden_size:]
        candidate = self.candidate(concat([x, reset * h], axis=-1)).tanh()
        return update * h + (1.0 - update) * candidate

    def initial_state(self, leading_shape: tuple[int, ...]) -> Tensor:
        from ..autodiff.tensor import get_default_dtype

        return volatile_constant(np.zeros, leading_shape + (self.hidden_size,),
                                 get_default_dtype())


class LSTMCell(Module):
    """Long short-term memory cell with forget-gate bias 1."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.gates = Linear(input_size + hidden_size, 4 * hidden_size, rng=rng)
        with no_grad():
            self.gates.bias.data[hidden_size:2 * hidden_size] = 1.0  # forget gate

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        h, c = state
        if x.shape[-1] != self.input_size:
            raise ValueError(f"LSTMCell expected input size {self.input_size}, "
                             f"got {x.shape[-1]}")
        z = self.gates(concat([x, h], axis=-1))
        hs = self.hidden_size
        i = z[..., 0 * hs:1 * hs].sigmoid()
        f = z[..., 1 * hs:2 * hs].sigmoid()
        g = z[..., 2 * hs:3 * hs].tanh()
        o = z[..., 3 * hs:4 * hs].sigmoid()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        return h_new, c_new

    def initial_state(self, leading_shape: tuple[int, ...]) -> tuple[Tensor, Tensor]:
        from ..autodiff.tensor import get_default_dtype

        shape = leading_shape + (self.hidden_size,)
        return (volatile_constant(np.zeros, shape, get_default_dtype()),
                volatile_constant(np.zeros, shape, get_default_dtype()))


class LSTM(Module):
    """Multi-step (optionally stacked) LSTM over the steps axis.

    Input ``(..., batch, steps, features)`` (the extra leading axis is a
    :func:`~repro.nn.stack_lanes` clone's lane axis); returns the stacked
    hidden states ``(..., batch, steps, hidden)`` and the final ``(h, c)``
    of the last layer.
    """

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 1,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = rng if rng is not None else np.random.default_rng()
        from .container import ModuleList

        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.cells = ModuleList(
            LSTMCell(input_size if i == 0 else hidden_size, hidden_size, rng=rng)
            for i in range(num_layers))

    def forward(self, x: Tensor) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        if x.ndim < 3:
            raise ValueError(f"LSTM expects (batch, steps, features), got {x.shape}")
        layer_input = [x[..., t, :] for t in range(x.shape[-2])]
        final_state: tuple[Tensor, Tensor] | None = None
        for cell in self.cells:
            h, c = cell.initial_state(x.shape[:-2])
            outputs = []
            for step_x in layer_input:
                h, c = cell(step_x, (h, c))
                outputs.append(h)
            layer_input = outputs
            final_state = (h, c)
        return stack(layer_input, axis=-2), final_state
