"""Normalization layers."""

from __future__ import annotations

from ..autodiff import Tensor
from .module import Module, Parameter
from . import init

__all__ = ["LayerNorm"]


class LayerNorm(Module):
    """Layer normalization over the last axis with learnable affine."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5):
        super().__init__()
        if normalized_shape <= 0:
            raise ValueError("normalized_shape must be positive")
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.weight = Parameter(init.ones(normalized_shape))
        self.bias = Parameter(init.zeros(normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.normalized_shape:
            raise ValueError(
                f"LayerNorm expected last dim {self.normalized_shape}, got {x.shape[-1]}")
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        normalized = centered / (variance + self.eps).sqrt()
        return self._affine(normalized)

    def _affine(self, normalized: Tensor) -> Tensor:
        return normalized * self.weight + self.bias
