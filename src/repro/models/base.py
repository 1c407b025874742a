"""Common forecaster interface.

Every model consumes a window batch ``(samples, seq_len, variables)`` and
predicts the next step for all variables ``(samples, variables)`` — the
paper's 1-lag forecasting task (section III-B).  Graph models additionally
hold a variable adjacency that can be swapped (Experiment C feeds
MTGNN-learned graphs back into A3TGCN/ASTGCN via :meth:`set_adjacency`).
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, no_grad
from ..nn import Module

__all__ = ["Forecaster", "permute_trailing"]


def permute_trailing(x: Tensor, *axes: int) -> Tensor:
    """Permute the last ``len(axes)`` axes of ``x``; leading axes stay.

    ``axes`` index that trailing block, so on a ``(S, V, C, L)`` tensor
    ``permute_trailing(x, 2, 0, 1)`` is ``x.transpose(0, 3, 1, 2)`` — the
    same op a solo forward would hard-code — while a
    :func:`~repro.nn.stack_lanes` clone's ``(K, S, V, C, L)`` input keeps
    its lane axis in front.
    """
    lead = x.ndim - len(axes)
    return x.transpose(*range(lead), *(lead + axis for axis in axes))


class Forecaster(Module):
    """Base class for 1-lag EMA forecasters.

    Attributes
    ----------
    requires_graph:
        Whether construction/operation needs a variable adjacency.
    num_variables / seq_len:
        The ``V`` and ``L`` the model was built for.
    """

    requires_graph: bool = False
    #: Lane count ``K`` on a clone built by :func:`repro.nn.stack_lanes`,
    #: whose input carries one extra leading lane axis; ``None`` when solo.
    num_lanes: int | None = None

    def __init__(self, num_variables: int, seq_len: int):
        super().__init__()
        if num_variables < 1 or seq_len < 1:
            raise ValueError("num_variables and seq_len must be >= 1")
        self.num_variables = num_variables
        self.seq_len = seq_len

    def _check_input(self, inputs: Tensor) -> None:
        lanes = () if self.num_lanes is None else (self.num_lanes,)
        if inputs.ndim != len(lanes) + 3 or inputs.shape[:-3] != lanes \
                or inputs.shape[-2:] != (self.seq_len, self.num_variables):
            lead = "".join(f"{k} lanes, " for k in lanes)
            raise ValueError(
                f"{type(self).__name__} expects ({lead}samples, "
                f"{self.seq_len}, {self.num_variables}), got {inputs.shape}")

    def set_adjacency(self, adjacency: np.ndarray) -> None:
        """Swap the variable graph (no-op for graph-free models)."""
        if self.requires_graph:
            raise NotImplementedError(
                f"{type(self).__name__} must implement set_adjacency")

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Numpy-in / numpy-out inference in eval mode without autodiff."""
        from ..autodiff.tensor import get_default_dtype

        was_training = self.training
        self.eval()
        try:
            with no_grad():
                out = self.forward(
                    Tensor(np.asarray(inputs, dtype=get_default_dtype())))
        finally:
            self.train(was_training)
        return out.data
