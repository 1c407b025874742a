"""Composite differentiable functions built on :class:`repro.autodiff.Tensor`.

These are the numerically-careful building blocks the attention and loss
layers use: softmax with max-subtraction, mean-squared error matching the
paper's equation (1), etc.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = ["softmax", "log_softmax", "mse", "mae", "huber", "normalize_adjacency",
           "volatile_constant"]


def _neg_max_shift(x: Tensor, axis: int) -> Tensor:
    """Detached ``-max`` shift constant, annotated for trace replay.

    The value is ``np.negative`` of the max — exactly what the previous
    ``x - Tensor(max)`` spelling produced via ``__neg__`` on the detached
    constant, so the downstream add sees bit-identical operands.  The
    ``_trace_src`` annotation tells the trace JIT this constant is
    *derived*: on each replay it is recomputed from the current value of
    ``x``'s buffer instead of being treated as a frozen snapshot (the max
    moves every epoch once ``x`` depends on trained parameters).
    """

    def recompute(array: np.ndarray) -> np.ndarray:
        return -array.max(axis=axis, keepdims=True)

    shift = Tensor(-x.data.max(axis=axis, keepdims=True))
    shift._trace_src = ("derived", x, recompute)
    return shift


def volatile_constant(make, *args, **kwargs) -> Tensor:
    """``Tensor(make(*args, **kwargs))``, annotated so replay rebuilds it.

    For constants a forward builds afresh on every call (recurrent zero
    states, an identity for self-loops): replay calls ``make(*args)`` on
    every run instead of binding one captured array, which a served
    forward plan must not do (see :func:`repro.autodiff.trace._verify`).
    """
    constant = Tensor(make(*args, **kwargs))
    constant._trace_src = ("volatile", partial(make, *args, **kwargs))
    return constant


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` with the standard max-shift for stability.

    The shift is treated as a constant (detached), which leaves the gradient
    exact because softmax is shift-invariant.
    """
    shifted = x + _neg_max_shift(x, axis)
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis`` (numerically stable)."""
    shifted = x + _neg_max_shift(x, axis)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def _squared_error(prediction: Tensor, target: Tensor | np.ndarray) -> Tensor:
    target = as_tensor(target)
    diff = prediction - Tensor(target.data.astype(prediction.dtype, copy=False))
    return diff * diff


def _absolute_error(prediction: Tensor, target: Tensor | np.ndarray) -> Tensor:
    target = as_tensor(target)
    return (prediction - target.detach()).abs()


def _huber_error(prediction: Tensor, target: Tensor | np.ndarray,
                 delta: float = 1.0) -> Tensor:
    target = as_tensor(target)
    diff = prediction - target.detach()
    abs_diff = diff.abs()
    quadratic = diff * diff * 0.5
    linear = abs_diff * delta - 0.5 * delta * delta
    from .tensor import where

    # Huber's branch is inherently data-dependent; fits using it
    # fall back to the eager loop (see ema-gnn check).
    return where(abs_diff.data <= delta, quadratic, linear)


#: Per-element term of each loss below, by training-loss name.  Each loss
#: is its term's ``.mean()``; the stacked backend reduces the same term
#: once per lane row instead.
LOSS_TERMS = {"mse": _squared_error, "mae": _absolute_error,
              "huber": _huber_error}


def mse(prediction: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Mean squared error over every element.

    This is exactly the inner part of the paper's equation (1): summed
    squared error divided by the total number of (time, variable) cells.
    """
    return _squared_error(prediction, target).mean()


def mae(prediction: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Mean absolute error over every element."""
    return _absolute_error(prediction, target).mean()


def huber(prediction: Tensor, target: Tensor | np.ndarray, delta: float = 1.0) -> Tensor:
    """Huber loss: quadratic within ``delta`` of the target, linear outside."""
    return _huber_error(prediction, target, delta).mean()


def normalize_adjacency(adjacency: np.ndarray, add_self_loops: bool = True) -> np.ndarray:
    """Symmetrically normalize a (non-negative) adjacency matrix.

    Computes ``D^{-1/2} (A + I) D^{-1/2}`` — the propagation operator used
    by GCN-style layers.  Isolated nodes get a zero row rather than NaN.
    This is a plain-numpy helper (graph matrices are treated as constants
    by every model except MTGNN's learned graph, which normalizes inside
    the autodiff graph).
    """
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {a.shape}")
    if (a < 0).any():
        raise ValueError("adjacency entries must be non-negative")
    if add_self_loops:
        a = a + np.eye(a.shape[0])
    degree = a.sum(axis=1)
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(degree)
    inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
    from .tensor import get_default_dtype

    return ((a * inv_sqrt[:, None]) * inv_sqrt[None, :]).astype(get_default_dtype())
