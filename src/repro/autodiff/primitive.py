"""Differentiable primitives: each op declared once for eager and replay.

Like autograd's primitives (HIPS autograd: "the only things acting on the
Node ... must be primitive, have gradient implemented"), every
differentiable op is one :class:`Primitive`: a forward kernel, one
vector-Jacobian product (VJP) kernel per parent, and the static fields the
op was called with (scalars, axes, keys, shapes) in the node's ``ctx``.
The eager engine (:mod:`.tensor`) calls the kernels with ``out=None``; the
trace JIT (:mod:`.trace`) compares primitives and static fields between
two captured epochs and replays the same kernels into a fixed buffer
arena with ``out=`` buffers.

Kernel signatures::

    forward(*xs, out=None) -> array        # an op without static fields
    forward(*xs, ctx, out=None) -> array   # an op with them
    vjp(ctx, g, y, xs, i, out=None) -> array   # grad for parent i
    prepare(ctx, g, out=None) -> array         # the g every VJP reads

A ufunc is a forward kernel as it stands (``np.add(x, scalar)``).  ``xs``
are the parents' arrays, ``y`` the output and ``g`` its grad (after
``prepare``: one copy all VJPs share).  With ``out=None`` a kernel returns
what the eager op always returned, in the same memory layout, since a
parent borrowing it as its grad sums over it in memory order.  With
``out`` it writes the same values into ``out`` (any layout); products
write there directly only where that cannot change the BLAS call.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["Primitive", "PRIMITIVES", "unbroadcast"]

#: Every primitive declared with examples, in declaration order: the
#: table the replay test runs.
PRIMITIVES: list["Primitive"] = []


class Primitive:
    """One differentiable op.

    ``vjps`` holds one kernel per parent (a variadic op passes one kernel
    for all).  ``fuse`` marks elementwise ops the replay compiler may chain:
    ``"interior"`` VJPs read only ``g`` and ``ctx``, ``"terminal"`` ones
    also the output.  ``operand`` names the array an op keeps in ``ctx``
    (``"mask"``: ``where``'s condition, ``"operator"``: a lane op's stack),
    which the verifier classifies instead of comparing.  ``dense_accumulate``
    has the eager engine pass a C-contiguous ``out`` when the grad is added
    onto an existing one.  ``examples`` are ``(input shapes, call)`` pairs;
    declaring them enters the primitive into :data:`PRIMITIVES`.
    """

    __slots__ = ("name", "forward", "vjps", "prepare", "fuse", "operand",
                 "dense_accumulate", "examples")

    def __init__(self, name, forward, vjps, *, prepare=None, fuse=None,
                 operand=None, dense_accumulate=False, examples=()):
        self.name = name
        self.forward = forward
        self.vjps = vjps if isinstance(vjps, tuple) else itertools.repeat(vjps)
        self.prepare = prepare
        self.fuse = fuse
        self.operand = operand
        self.dense_accumulate = dense_accumulate
        self.examples = examples
        if examples:
            PRIMITIVES.append(self)

    def __repr__(self) -> str:
        return f"<primitive {self.name}>"


# ----------------------------------------------------------------------
# Kernel helpers
# ----------------------------------------------------------------------
def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after a broadcast op.

    Numpy broadcasting may have (a) prepended axes and (b) stretched
    length-1 axes.  The adjoint of broadcasting is summation over exactly
    those axes.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    stretched = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if stretched:
        grad = grad.sum(axis=stretched, keepdims=True)
    return grad


def into(result: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``result``, or its values copied into ``out``."""
    if out is None:
        return result
    np.copyto(out, result)
    return out


def reshaped(src: np.ndarray, shape, out=None) -> np.ndarray:
    """``src.reshape(shape)``, or written into ``out`` in C order."""
    if out is None:
        return src.reshape(shape)
    if out.flags.c_contiguous:
        np.copyto(out.reshape(src.shape), src)
        return out
    return into(src.reshape(shape), out)


def matmul(a: np.ndarray, b: np.ndarray, out=None, shape=None) -> np.ndarray:
    """``(a @ b).reshape(shape)`` for operands of ndim >= 2.

    numpy's product into a fresh array is C-contiguous, so an ``out`` of
    that layout and dtype gets the same BLAS calls; any other ``out``
    receives a copy.
    """
    if out is None:
        product = a @ b
        return product if shape is None else product.reshape(shape)
    if out.flags.c_contiguous and out.dtype == np.result_type(a, b):
        lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        np.matmul(a, b, out=out.reshape(*lead, a.shape[-2], b.shape[-1]))
        return out
    return into((a @ b).reshape(out.shape), out)


def elementwise(fn, g: np.ndarray, shape, out=None) -> np.ndarray:
    """``unbroadcast(fn(None), shape)``; ``fn(out)`` directly when no axis
    is reduced (an elementwise result has no layout-dependent order)."""
    if g.shape == shape:
        return fn(out)
    return into(unbroadcast(fn(None), shape), out)
