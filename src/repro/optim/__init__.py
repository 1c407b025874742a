"""Optimizers and gradient utilities."""

from .optimizer import Optimizer
from .sgd import SGD
from .adam import Adam
from .clip import clip_grad_norm, clip_grad_value
from .registry import OPTIMIZER_REGISTRY, get_optimizer, register_optimizer
from .schedule import ReduceLROnPlateau, StepLR

__all__ = ["Optimizer", "SGD", "Adam", "clip_grad_norm", "clip_grad_value",
           "StepLR", "ReduceLROnPlateau", "OPTIMIZER_REGISTRY",
           "get_optimizer", "register_optimizer"]
