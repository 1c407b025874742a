"""Activation modules (thin wrappers over Tensor methods, for Sequential use)."""

from __future__ import annotations

from ..autodiff import Tensor
from .module import Module

__all__ = ["ReLU", "Tanh", "Sigmoid", "LeakyReLU", "ELU"]


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.01):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class ELU(Module):
    """Exponential linear unit: x for x>0, alpha*(exp(x)-1) otherwise."""

    def __init__(self, alpha: float = 1.0):
        super().__init__()
        self.alpha = alpha

    def forward(self, x: Tensor) -> Tensor:
        from ..autodiff import where

        negative = (x.exp() - 1.0) * self.alpha
        # ELU's branch is its definition; models using it trade the
        # JIT for the activation.
        return where(x.data > 0, x, negative)
