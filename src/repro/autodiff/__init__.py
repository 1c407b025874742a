"""Reverse-mode autodiff engine (the repo's PyTorch substitute).

Public surface:

* :class:`Tensor` — numpy array with gradient tracking
* :func:`no_grad` — disable graph construction
* :func:`concat` / :func:`stack` / :func:`where` — multi-input graph ops
* :mod:`repro.autodiff.functional` — softmax, losses, adjacency normalizer
* :func:`check_gradients` — finite-difference verification
* :func:`detect_anomaly` — opt-in sanitizer: record creating ops, raise on
  the first non-finite gradient in ``backward()``
* :class:`EpochJIT` — trace-capture JIT: record one epoch, verify the
  next, replay a fused compiled plan for the rest (bit-identical)
* :class:`ForwardJIT` — the same for a forward-only call of fixed shapes
  (the served lane forward), keeping no captured array
"""

from .anomaly import detect_anomaly, is_anomaly_enabled
from .tensor import (Tensor, as_tensor, concat, get_default_dtype,
                     is_grad_enabled, no_grad, set_default_dtype,
                     set_trace_hook, stack, where)
from .functional import huber, log_softmax, mae, mse, normalize_adjacency, softmax
from .gradcheck import check_gradients, numerical_gradient
from .trace import EpochJIT, ForwardJIT, TraceInvalid

__all__ = [
    "Tensor",
    "as_tensor",
    "concat",
    "stack",
    "where",
    "no_grad",
    "is_grad_enabled",
    "detect_anomaly",
    "is_anomaly_enabled",
    "set_default_dtype",
    "get_default_dtype",
    "softmax",
    "log_softmax",
    "mse",
    "mae",
    "huber",
    "normalize_adjacency",
    "check_gradients",
    "numerical_gradient",
    "set_trace_hook",
    "EpochJIT",
    "ForwardJIT",
    "TraceInvalid",
]
