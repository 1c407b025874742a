"""Reverse-mode automatic differentiation over numpy arrays.

This module is the computational substrate of the whole reproduction: the
paper trains its forecasters with PyTorch / PyTorch Geometric Temporal, which
is unavailable here, so we implement a compact define-by-run autodiff engine
with the same semantics (dynamic graph, ``backward()`` accumulating into
``.grad``).

The engine supports full numpy broadcasting.  Every differentiable operation
is a :class:`~repro.autodiff.primitive.Primitive` declared below: a node
records its parents, its primitive and the primitive's static fields, and
:meth:`Tensor.backward` walks the graph in reverse topological order,
calling each primitive's vector-Jacobian kernels.

Only the operations required by the models in :mod:`repro.models` are
implemented, but each is implemented generally (arbitrary ranks, arbitrary
broadcast patterns) and validated against finite differences in
``tests/autodiff``.
"""

from __future__ import annotations

import contextlib
from time import perf_counter as _perf_counter
from typing import Callable, Iterable, Sequence

import numpy as np

from .anomaly import is_anomaly_enabled, user_frame_summary
from .primitive import (Primitive, elementwise, into, matmul, reshaped,
                        unbroadcast as _unbroadcast)

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "as_tensor",
           "set_default_dtype", "get_default_dtype"]

_GRAD_ENABLED = True
_DEFAULT_DTYPE = np.float64


def set_default_dtype(dtype) -> None:
    """Set the float dtype for parameters and promoted arrays.

    ``float64`` (default) keeps finite-difference gradient checks exact;
    ``float32`` roughly halves training time on the memory-bandwidth-bound
    model forward/backward passes and is what the experiment runners use.
    """
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype.kind != "f":
        raise ValueError(f"default dtype must be floating point, got {dtype}")
    _DEFAULT_DTYPE = dtype.type


def get_default_dtype():
    """Current default float dtype (see :func:`set_default_dtype`)."""
    return _DEFAULT_DTYPE


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (like ``torch.no_grad``)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradient information."""
    return _GRAD_ENABLED


def as_tensor(value, dtype=None) -> "Tensor":
    """Coerce ``value`` (Tensor, ndarray, scalar, nested list) to a Tensor."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


class _Version:
    """Mutation counter for one tensor storage.

    Shared between a tensor and every :meth:`Tensor.detach` view of it, so
    a mutation through *any* alias is visible to the staleness check in
    :meth:`Tensor.backward`.
    """

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


_BACKWARD_OP_HOOK: Callable[[str, float, float, int], None] | None = None


def set_backward_op_hook(hook: Callable | None) -> None:
    """Install a per-op timing probe for :meth:`Tensor.backward`.

    ``hook(op_name, start, end, grad_nbytes)`` is called after each node's
    VJP kernels run, with ``time.perf_counter`` stamps.  Pass ``None``
    to uninstall.  This is the profiler's entry point
    (:mod:`repro.profiling`); the disabled path costs one local ``is None``
    test per graph node, so an unprofiled ``backward()`` is unaffected.
    """
    global _BACKWARD_OP_HOOK
    _BACKWARD_OP_HOOK = hook


_TRACE_HOOK: Callable[["Tensor"], None] | None = None


def set_trace_hook(hook: Callable | None) -> None:
    """Install a per-node creation probe on :meth:`Tensor._make`.

    ``hook(out)`` is called for every graph-wired result tensor, in
    creation (i.e. forward execution) order.  This is the capture seam of
    the trace JIT (:mod:`repro.autodiff.trace`); the disabled path costs
    one local ``is None`` test per wired node.  Pass ``None`` to uninstall.
    """
    global _TRACE_HOOK
    _TRACE_HOOK = hook


_FORWARD_HOOK: Callable | None = None


@contextlib.contextmanager
def record_forward(hook: Callable):
    """Forward-only capture: run the block under :func:`no_grad` and report
    every op with ``hook(out, parents, op, ctx)``.

    The result is built as under :func:`no_grad`: no ``requires_grad``, no
    graph wiring, so no backward is possible and nothing keeps an
    intermediate alive; the hook records the primitive, parents and
    static fields.  This is the capture seam of the served forward replay
    (:class:`repro.autodiff.trace.ForwardJIT`); training capture
    (:func:`set_trace_hook`) never turns it on.  The disabled path costs
    one ``is None`` test per unwired op.
    """
    global _FORWARD_HOOK, _GRAD_ENABLED
    previous = _FORWARD_HOOK, _GRAD_ENABLED
    _FORWARD_HOOK, _GRAD_ENABLED = hook, False
    try:
        yield
    finally:
        _FORWARD_HOOK, _GRAD_ENABLED = previous


# ----------------------------------------------------------------------
# The primitives.  Each VJP's ``out=None`` result is exactly what the
# eager engine hands the parent (values and layout); see primitive.py.
# Where an operand is a temporary, that result is the operator form's:
# ``g * (1.0 - y ** 2)`` may compute in the temporary's buffer, and keep
# its layout, where ``np.multiply`` would allocate in ``g``'s.
# ----------------------------------------------------------------------
def _add_grad(ctx, g, y, xs, i, out=None):
    return into(_unbroadcast(g, xs[i].shape), out)


def _pass_grad(ctx, g, y, xs, i, out=None):
    return into(g, out)


def _mul_grad(ctx, g, y, xs, i, out=None):
    other = xs[1 - i]
    return elementwise(lambda o: np.multiply(g, other, out=o), g,
                       xs[i].shape, out)


def _div_grad(ctx, g, y, xs, i, out=None):
    a, b = xs
    if i == 0:
        return elementwise(lambda o: np.divide(g, b, out=o), g, a.shape, out)
    return elementwise(lambda o: -g * a / (b ** 2) if o is None else np.divide(
        np.multiply(np.negative(g, out=o), a, out=o), b ** 2, out=o),
        g, b.shape, out)


def _sigmoid(x, out=None):
    # Numerically stable logistic via tanh: sigma(x) = (tanh(x/2) + 1)/2.
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    np.add(out, 1.0, out=out)
    return np.multiply(out, 0.5, out=out)


def _sigmoid_grad(ctx, g, y, xs, i, out=None):
    if out is None:
        return g * y * (1.0 - y)
    return np.multiply(np.multiply(g, y, out=out), 1.0 - y, out=out)


def _tanh_grad(ctx, g, y, xs, i, out=None):
    if out is None:
        return g * (1.0 - y ** 2)
    return np.multiply(g, 1.0 - y ** 2, out=out)


def _clip_grad(ctx, g, y, xs, i, out=None):
    (x,), (low, high) = xs, ctx
    inside = np.ones_like(x, dtype=bool)
    if low is not None:
        inside &= x > low
    if high is not None:
        inside &= x < high
    return np.multiply(g, inside, out=out)


ADD = Primitive("__add__", np.add, (_add_grad, _add_grad),
                examples=(([(3, 4), (4,)], lambda a, b: a + b),))
ADD_SCALAR = Primitive(
    "__add__", np.add, (_pass_grad,), fuse="interior",
    examples=(([(3, 4)], lambda x: x + 1.5),))
NEG = Primitive(
    "__neg__", np.negative,
    (lambda ctx, g, y, xs, i, out=None: np.negative(g, out=out),),
    fuse="interior", examples=(([(3, 4)], lambda x: -x),))
MUL_SCALAR = Primitive(
    "__mul__", np.multiply,
    (lambda ctx, g, y, xs, i, out=None: np.multiply(g, ctx, out=out),),
    fuse="interior", examples=(([(3, 4)], lambda x: x * 1.5),))
MUL = Primitive("__mul__", np.multiply, (_mul_grad, _mul_grad),
                examples=(([(3, 4), (3, 1)], lambda a, b: a * b),))
DIV = Primitive("__truediv__", np.divide, (_div_grad, _div_grad),
                examples=(([(3, 4), (4,)], lambda a, b: a / b),))
POW = Primitive(
    "__pow__", lambda x, exponent, out=None: into(x ** exponent, out),
    (lambda ctx, g, y, xs, i, out=None:
     into(g * ctx * xs[0] ** (ctx - 1), out),),
    examples=(([(3, 4)], lambda x: x ** 2), ([(3, 4)], lambda x: x ** 3)))
EXP = Primitive(
    "exp", np.exp,
    (lambda ctx, g, y, xs, i, out=None: np.multiply(g, y, out=out),),
    fuse="terminal", examples=(([(3, 4)], lambda x: x.exp()),))
LOG = Primitive(
    "log", np.log,
    (lambda ctx, g, y, xs, i, out=None: np.divide(g, xs[0], out=out),),
    examples=(([(3, 4)], lambda x: x.log()),))
SQRT = Primitive(
    "sqrt", np.sqrt,
    (lambda ctx, g, y, xs, i, out=None: g * 0.5 / y if out is None
     else np.divide(np.multiply(g, 0.5, out=out), y, out=out),),
    fuse="terminal", examples=(([(3, 4)], lambda x: x.sqrt()),))
TANH = Primitive(
    "tanh", np.tanh,
    (_tanh_grad,),
    fuse="terminal", examples=(([(3, 4)], lambda x: x.tanh()),))
SIGMOID = Primitive(
    "sigmoid", _sigmoid,
    (_sigmoid_grad,),
    fuse="terminal", examples=(([(3, 4)], lambda x: x.sigmoid()),))
RELU = Primitive(
    "relu", lambda x, out=None: into(np.where(x > 0, x, 0.0), out),
    (lambda ctx, g, y, xs, i, out=None: np.multiply(g, xs[0] > 0, out=out),),
    examples=(([(3, 4)], lambda x: (x - 1.0).relu()),))
LEAKY_RELU = Primitive(
    "leaky_relu",
    lambda x, slope, out=None: into(np.where(x > 0, x, slope * x), out),
    (lambda ctx, g, y, xs, i, out=None:
     into(g * np.where(xs[0] > 0, 1.0, ctx), out),),
    examples=(([(3, 4)], lambda x: (x - 1.0).leaky_relu(0.1)),))
ABS = Primitive(
    "abs", np.absolute,
    (lambda ctx, g, y, xs, i, out=None:
     np.multiply(g, np.sign(xs[0]), out=out),),
    examples=(([(3, 4)], lambda x: (x - 1.0).abs()),))
CLIP = Primitive(
    "clip", lambda x, bounds, out=None: np.clip(x, *bounds, out=out),
    (_clip_grad,), examples=(([(3, 4)], lambda x: x.clip(0.75, 1.25)),
                             ([(3, 4)], lambda x: x.clip(None, 1.0))))


# -- products ------------------------------------------------------------
def _node_major(x: np.ndarray) -> np.ndarray:
    """``(..., n, c) -> (n, batch * c)``: the node axis leads the GEMM."""
    return np.moveaxis(x, -2, 0).reshape(x.shape[-2], -1)


def _mix(matrix: np.ndarray, flat: np.ndarray, shape, out=None) -> np.ndarray:
    """``matrix @ flat`` as ``shape`` ``(..., n, c)``: the node axis moved
    back to -2 of the C-contiguous ``(n, ..., c)`` product."""
    if out is not None:
        rows = np.moveaxis(out, -2, 0)
        if rows.flags.c_contiguous and \
                out.dtype == np.result_type(matrix, flat):
            np.matmul(matrix, flat, out=rows.reshape(matrix.shape[0], -1))
            return out
        return into(_mix(matrix, flat, shape), out)
    product = (matrix @ flat).reshape(shape[-2], *shape[:-2], shape[-1])
    return np.moveaxis(product, 0, -2)


def _node_major_grad(ctx, g, out=None):
    if out is None:
        return _node_major(g)
    moved = np.moveaxis(g, -2, 0)
    np.copyto(out.reshape(moved.shape), moved)
    return out


def _flat_grad(ctx, g2, y, xs, i, out=None):
    a, b = xs
    if i == 0:
        return matmul(g2, b.T, out, a.shape)
    return matmul(a.reshape(-1, b.shape[0]).T, g2, out)


def _mix_grad(ctx, gm, y, xs, i, out=None):
    a, b = xs
    if i == 0:
        return matmul(gm, _node_major(b).T, out)
    return _mix(a.T, gm, b.shape, out)


def _matmul(a, b, out=None):
    if a.ndim >= 2 and b.ndim >= 2:
        return matmul(a, b, out)
    return into(a @ b, out)


def _matmul_grad(ctx, g, y, xs, i, out=None):
    a, b = xs
    if a.ndim == 1 and b.ndim == 1:
        # (n,) @ (n,) -> (): grad is a scalar.
        return into(g * xs[1 - i], out)
    axes = list(range(g.ndim))
    if i == 0:
        if b.ndim == 1:
            # (..., n) @ (n,) -> (...,): grad_a[..., n] = grad[...] * b[n]
            return into(g[..., None] * b, out)
        bt = np.swapaxes(b, -1, -2)
        if a.ndim == 1:
            # (n,) @ (..., n, m) -> (..., m): contract grad with b over
            # every axis except b's node axis.
            return into(np.tensordot(g, bt, axes=(axes, axes)), out)
        if g.shape[:-2] == a.shape[:-2]:
            return matmul(g, bt, out)
        return into(_unbroadcast(g @ bt, a.shape), out)
    if a.ndim == 1:
        # grad_b[..., n, m] = a[n] * grad[..., m]
        return into(_unbroadcast(a[:, None] * g[..., None, :], b.shape), out)
    if b.ndim == 1:
        # grad_b[n] = sum grad[...] * a[..., n]
        return into(np.tensordot(g, a, axes=(axes, axes)), out)
    at = np.swapaxes(a, -1, -2)
    if g.shape[:-2] == b.shape[:-2]:
        return matmul(at, g, out)
    return into(_unbroadcast(at @ g, b.shape), out)


# (..., k) @ (k, m): the batch axes collapse into one big GEMM — numpy's
# batched matmul over thousands of tiny matrices is far slower.  Both
# VJPs read one 2-D copy of the grad.
MATMUL_FLAT = Primitive(
    "__matmul__",
    lambda a, b, out=None: matmul(a.reshape(-1, b.shape[0]), b, out,
                                  a.shape[:-1] + b.shape[1:]),
    (_flat_grad, _flat_grad),
    prepare=lambda ctx, g, out=None: reshaped(g, (-1, g.shape[-1]), out),
    examples=(([(2, 3, 4), (4, 5)], lambda a, b: a @ b),))
# (v, w) @ (..., w, c): the batch flattens into one GEMM instead of a
# batched matmul over (v, w) x (w, c) products; one node-major copy of the
# grad feeds both VJPs.
MATMUL_MIX = Primitive(
    "__matmul__",
    lambda a, b, out=None: _mix(a, _node_major(b),
                                b.shape[:-2] + (a.shape[0], b.shape[-1]),
                                out),
    (_mix_grad, _mix_grad), prepare=_node_major_grad,
    examples=(([(3, 3), (2, 3, 4)], lambda a, b: a @ b),))
MATMUL = Primitive(
    "__matmul__", _matmul, (_matmul_grad, _matmul_grad),
    examples=tuple(
        (shapes, lambda a, b: a @ b)
        for shapes in ([(3, 4), (4, 2)], [(2, 3, 4), (2, 4, 2)],
                       [(4,), (4,)], [(3, 4), (4,)], [(4,), (2, 4, 3)])))


# -- reductions ----------------------------------------------------------
def _sum_grad(ctx, g, y, xs, i, out=None):
    axis, keepdims = ctx
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    if out is None:
        out = np.empty(xs[0].shape, dtype=g.dtype)
    np.copyto(out, g)  # broadcast back over the summed axes
    return out


def _max_grad(ctx, g, y, xs, i, out=None):
    axis, keepdims = ctx
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
        y = np.expand_dims(y, axis)
    mask = xs[0] == y
    counts = mask.sum(axis=axis, keepdims=True)
    return into(np.broadcast_to(g, xs[0].shape) * mask / counts, out)


SUM = Primitive(
    "sum", lambda x, fields, out=None: np.sum(x, axis=fields[0],
                                              keepdims=fields[1], out=out),
    (_sum_grad,), examples=(([(3, 4)], lambda x: x.sum()),
                            ([(3, 4)], lambda x: x.sum(axis=0)),
                            ([(3, 4)], lambda x: x.sum(axis=1,
                                                      keepdims=True))))
MAX = Primitive(
    "max", lambda x, fields, out=None: np.max(x, axis=fields[0],
                                              keepdims=fields[1], out=out),
    (_max_grad,), examples=(([(3, 4)], lambda x: x.max(axis=1)),
                            ([(3, 4)], lambda x: x.max())))


# -- shape manipulation ----------------------------------------------------
def _taps(ctx, t_out: int) -> list[tuple[int, int, int]]:
    """``(j, shift, first)`` per tap: output step ``o`` of tap ``j`` reads
    input step ``o + shift``; outputs before ``first`` read the padding."""
    size, dilation, left_pad = ctx
    return [(j, j * dilation - left_pad,
             min(max(0, left_pad - j * dilation), t_out))
            for j in range(size)]


def _conv_windows(x, ctx, out=None):
    size, dilation, left_pad = ctx
    b, c, n, t = x.shape
    t_out = t + left_pad - (size - 1) * dilation
    if out is None:
        windows = np.empty((b, n, t_out, c, size), dtype=x.dtype)
    elif out.flags.c_contiguous:
        windows = out.reshape(b, n, t_out, c, size)
    else:
        return into(_conv_windows(x, ctx), out)
    source = x.transpose(0, 2, 3, 1)  # (B, N, T, C) view
    for j, shift, first in _taps(ctx, t_out):
        windows[:, :, :first, :, j] = 0.0
        if first < t_out:
            windows[:, :, first:, :, j] = \
                source[:, :, first + shift:t_out + shift]
    return windows.reshape(b, n, t_out, c * size) if out is None else out


def _conv_windows_grad(ctx, g, y, xs, i, out=None):
    # Taps j = 0..size-1 accumulate in order onto zeros.  A borrowing input
    # gets a [..., left_pad:] slice of a C-contiguous padded array, since
    # downstream reductions sum in memory order (DESIGN.md, "Fused temporal
    # windows"); an added grad gets the C-contiguous out the engine passes.
    size, dilation, left_pad = ctx
    b, c, n, t = xs[0].shape
    t_out = g.shape[2]
    tap_grads = g.reshape(b, n, t_out, c, size)
    summed = np.zeros((b, n, t, c), dtype=g.dtype)
    for j, shift, first in _taps(ctx, t_out):
        if first < t_out:
            summed[:, :, first + shift:t_out + shift] += \
                tap_grads[:, :, first:, :, j]
    if out is not None:
        np.copyto(out, summed.transpose(0, 3, 1, 2))
        return out
    full = np.zeros((b, c, n, t + left_pad), dtype=g.dtype)
    np.copyto(full[..., left_pad:], summed.transpose(0, 3, 1, 2))
    return full[..., left_pad:]


def _getitem_grad(ctx, g, y, xs, i, out=None):
    key, fancy = ctx
    if out is None:
        out = np.zeros(xs[0].shape, dtype=g.dtype)
    else:
        out.fill(0)
    if fancy:
        np.add.at(out, key, g)
    else:
        out[key] += g
    return out


_FANCY_ROWS = np.array([2, 0, 2])  # a fixed fancy key for the examples

RESHAPE = Primitive(
    "reshape", reshaped,
    (lambda ctx, g, y, xs, i, out=None: reshaped(g, xs[0].shape, out),),
    examples=(([(3, 4)], lambda x: x.reshape(2, 6)),
              ([(3, 4)], lambda x: x.T.reshape(-1))))
TRANSPOSE = Primitive(
    "transpose",
    lambda x, fields, out=None: into(x.transpose(fields[0]), out),
    (lambda ctx, g, y, xs, i, out=None: into(g.transpose(ctx[1]), out),),
    examples=(([(2, 3, 4)], lambda x: x.transpose(1, 2, 0)),))
GETITEM = Primitive(
    "__getitem__", lambda x, fields, out=None: into(x[fields[0]], out),
    (_getitem_grad,), examples=(([(3, 4)], lambda x: x[1:, ::2]),
                                ([(3, 4)], lambda x: x[_FANCY_ROWS])))
CONV_WINDOWS = Primitive(
    "conv_windows", _conv_windows, (_conv_windows_grad,),
    dense_accumulate=True,
    examples=(([(2, 3, 2, 5)], lambda x: x.conv_windows(2, 2, 1)),))


# -- graph-combining ops ---------------------------------------------------
def _concat_grad(ctx, g, y, xs, i, out=None):
    axis, offsets = ctx
    window = [slice(None)] * g.ndim
    window[axis] = slice(offsets[i], offsets[i + 1])
    return into(g[tuple(window)], out)


def _where(a, b, cond, out=None):
    if out is None:
        return np.where(cond, a, b)
    np.copyto(out, b)
    np.copyto(out, a, where=cond)
    return out


def _where_grad(ctx, g, y, xs, i, out=None):
    picked = np.where(ctx, g, 0.0) if i == 0 else np.where(ctx, 0.0, g)
    return into(_unbroadcast(picked, xs[i].shape), out)


_MASK = np.array([True, False, True, True])  # a fixed condition for examples

CONCAT = Primitive(
    "concat",
    lambda *args, out=None: np.concatenate(args[:-1], axis=args[-1][0],
                                           out=out),
    _concat_grad,
    examples=(([(2, 3), (2, 2)], lambda a, b: concat([a, b], axis=1)),))
STACK = Primitive(
    "stack",
    lambda *args, out=None: np.stack(args[:-1], axis=args[-1], out=out),
    lambda ctx, g, y, xs, i, out=None: into(np.moveaxis(g, ctx, 0)[i], out),
    examples=(([(2, 3), (2, 3)], lambda a, b: stack([a, b], axis=1)),))
WHERE = Primitive(
    "where", _where, (_where_grad, _where_grad), operand="mask",
    examples=(([(3, 4), (4,)], lambda a, b: where(_MASK, a, b)),))


def _unary_method(op: Primitive):
    """A ``Tensor`` method applying the one-parent primitive ``op``."""
    def method(self) -> "Tensor":
        return Tensor._make(op.forward(self._data), (self,), op)
    method.__name__ = op.name
    return method


class Tensor:
    """A numpy array plus gradient bookkeeping.

    Parameters
    ----------
    data:
        Array-like payload.  Stored as a float numpy array (integer input is
        promoted to ``float64``) because every op here is differentiable.
    requires_grad:
        When True, :meth:`backward` accumulates a gradient into
        :attr:`grad` for this tensor.
    """

    #: ``_trace_src`` and ``_tape`` are deliberately *not* initialised in
    #: ``__init__`` — they exist only on the few tensors the trace JIT
    #: annotates (dropout masks, softmax shifts) and on results recorded by
    #: a forward capture, and readers use ``getattr(t, name, None)``, so
    #: ordinary tensor creation pays nothing for the slots.
    __slots__ = ("_data", "grad", "requires_grad", "_op", "_ctx", "_parents",
                 "_grad_owned", "_version", "_parent_versions", "_trace",
                 "_trace_src", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        array = np.asarray(data)
        if array.dtype.kind in "iub":
            array = array.astype(_DEFAULT_DTYPE)
        self._data: np.ndarray = array
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad)
        self._op: Primitive | None = None
        self._ctx = None
        self._parents: tuple[Tensor, ...] = ()
        self._grad_owned: bool = False
        self._version: _Version = _Version()
        self._parent_versions: tuple[int, ...] | None = None
        self._trace: str | None = None

    @property
    def data(self) -> np.ndarray:
        """The underlying numpy array.

        Assigning to ``data`` (including augmented forms like
        ``t.data -= u``, which rebind after the in-place numpy op) bumps
        the tensor's version counter, so a pending ``backward()`` over a
        graph that used this tensor raises instead of differentiating
        stale values.  Raw in-place writes to the array itself
        (``t.data[i] = v``) bypass the counter — use :meth:`copy_` when a
        graph may be alive.
        """
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        self._data = value
        self._version.value += 1

    def copy_(self, value) -> "Tensor":
        """In-place copy into this tensor's storage (dtype-preserving).

        Bumps the shared version counter, so the staleness check catches
        the mutation if a recorded graph still references this storage
        (directly or through a :meth:`detach` view).
        """
        self._data[...] = np.asarray(value)
        self._version.value += 1
        return self

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared memory, not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self.data.item()

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the autodiff graph.

        The detached tensor *aliases* this tensor's storage — no copy is
        made, so in-place writes through either alias are visible to both
        (exactly like ``torch.Tensor.detach``).  Both aliases also share
        one version counter: mutating the detached view via
        :meth:`copy_` or ``.data`` assignment invalidates any recorded
        graph that used the original, and ``backward()`` raises rather
        than differentiating the silently-changed values.  Call
        ``.numpy().copy()`` for an independent snapshot.
        """
        out = Tensor(self._data, requires_grad=False)
        out._version = self._version
        return out

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"], op: Primitive,
              ctx=None) -> "Tensor":
        """Create ``op``'s result tensor, wiring the graph only when needed.

        ``ctx`` holds the op's static fields, which its kernels read.
        """
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._op = op
            out._ctx = ctx
            out._parent_versions = tuple(p._version.value for p in parents)
            if is_anomaly_enabled():
                out._trace = user_frame_summary()
            if _TRACE_HOOK is not None:
                _TRACE_HOOK(out)
        elif _FORWARD_HOOK is not None:
            _FORWARD_HOOK(out, parents, op, ctx)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        # Copy-on-write accumulation: interior nodes may *borrow* the
        # incoming buffer (it is never mutated once handed over), which
        # avoids a full copy per edge on the hot path.  Leaves with
        # persistent grads (Parameters, user inputs) always own a copy so
        # later in-place updates (optimizers, clipping) cannot alias.
        if self.grad is None:
            is_leaf = not self._parents and self._op is None
            if is_leaf:
                self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
                self._grad_owned = True
            else:
                self.grad = grad if grad.dtype == self.data.dtype \
                    else grad.astype(self.data.dtype)
                self._grad_owned = False
        elif self._grad_owned:
            self.grad += grad
        else:
            self.grad = self.grad + grad
            self._grad_owned = True

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (so calling ``loss.backward()`` on a scalar
        loss behaves like PyTorch).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad)
            if grad.dtype != self.data.dtype:
                # A mismatched seed dtype is a caller bug, symmetric with
                # the shape check below: silently downcasting a float64
                # seed into a float32 graph (or promoting the reverse)
                # would change every accumulated gradient without warning.
                raise TypeError(
                    f"gradient dtype {grad.dtype} does not match tensor "
                    f"dtype {self.data.dtype}; cast the seed explicitly")
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}")

        topo = topological_order(self)
        anomaly = is_anomaly_enabled()
        if anomaly and not np.all(np.isfinite(grad)):
            raise RuntimeError(
                "detect_anomaly: backward() was seeded with a non-finite "
                "gradient")
        self._accumulate(grad)
        hook = _BACKWARD_OP_HOOK
        for node in reversed(topo):
            op = node._op
            if op is None or node.grad is None:
                continue
            if node._parent_versions is not None:
                for index, (parent, expected) in enumerate(
                        zip(node._parents, node._parent_versions)):
                    if parent._version.value != expected:
                        raise RuntimeError(
                            f"autodiff: input {index} of op '{op.name}' "
                            f"(shape {parent.shape}) was mutated in place "
                            f"after the forward pass (version "
                            f"{parent._version.value}, expected {expected});"
                            " backward() would compute gradients from stale"
                            " values")
            if hook is None:
                _run_vjps(node, op)
            else:
                begin = _perf_counter()
                _run_vjps(node, op)
                hook(op.name, begin, _perf_counter(), node.grad.nbytes)
            if anomaly:
                for index, parent in enumerate(node._parents):
                    if parent.requires_grad and parent.grad is not None \
                            and not np.all(np.isfinite(parent.grad)):
                        where_made = ("" if node._trace is None
                                      else f"\n  op created at {node._trace}")
                        raise RuntimeError(
                            f"detect_anomaly: op '{op.name}' produced a "
                            f"non-finite gradient for its input {index} "
                            f"(shape {parent.shape}){where_made}")

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            # Python scalars keep the array dtype and add no graph node.
            return Tensor._make(ADD_SCALAR.forward(self._data, other),
                                (self,), ADD_SCALAR, other)
        other = as_tensor(other)
        return Tensor._make(ADD.forward(self._data, other._data),
                            (self, other), ADD)

    __radd__ = __add__

    __neg__ = _unary_method(NEG)

    def __sub__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return self + (-other)
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return (-self) + other
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return Tensor._make(MUL_SCALAR.forward(self._data, other),
                                (self,), MUL_SCALAR, other)
        other = as_tensor(other)
        return Tensor._make(MUL.forward(self._data, other._data),
                            (self, other), MUL)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return self * (1.0 / other)
        other = as_tensor(other)
        return Tensor._make(DIV.forward(self._data, other._data),
                            (self, other), DIV)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ supports scalar exponents only")
        return Tensor._make(POW.forward(self._data, exponent), (self,), POW,
                            exponent)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    exp = _unary_method(EXP)
    log = _unary_method(LOG)
    sqrt = _unary_method(SQRT)
    tanh = _unary_method(TANH)
    sigmoid = _unary_method(SIGMOID)
    relu = _unary_method(RELU)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        return Tensor._make(LEAKY_RELU.forward(self._data, negative_slope),
                            (self,), LEAKY_RELU, negative_slope)

    abs = _unary_method(ABS)

    def clip(self, low: float | None, high: float | None) -> "Tensor":
        """Clamp values; gradient is passed through only inside the window."""
        bounds = (low, high)
        return Tensor._make(CLIP.forward(self._data, bounds), (self,), CLIP,
                            bounds)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self._data, other._data
        if b.ndim == 2 and a.ndim > 2:
            # (..., k) @ (k, m): the Linear-layer hot path.
            op = MATMUL_FLAT
        elif a.ndim == 2 and b.ndim > 2:
            # (v, w) @ (..., w, c): the graph-propagation hot path.
            op = MATMUL_MIX
        else:
            op = MATMUL
        return Tensor._make(op.forward(a, b), (self, other), op)

    def __rmatmul__(self, other) -> "Tensor":
        return as_tensor(other) @ self

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        fields = (axis, keepdims)
        return Tensor._make(SUM.forward(self._data, fields), (self,), SUM,
                            fields)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / count

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Max reduction; gradient flows to (all) argmax positions equally."""
        fields = (axis, keepdims)
        return Tensor._make(MAX.forward(self._data, fields), (self,), MAX,
                            fields)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor._make(RESHAPE.forward(self._data, shape), (self,),
                            RESHAPE, shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        fields = (axes, tuple(np.argsort(axes)))
        return Tensor._make(TRANSPOSE.forward(self._data, fields), (self,),
                            TRANSPOSE, fields)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def __getitem__(self, key) -> "Tensor":
        # Basic indexing (ints/slices/ellipsis) never selects a position
        # twice, so its backward may assignment-add; integer-array (fancy)
        # indexing needs the general scatter-add.
        parts = key if isinstance(key, tuple) else (key,)
        fields = (key, any(isinstance(p, (list, np.ndarray)) for p in parts))
        return Tensor._make(GETITEM.forward(self._data, fields), (self,),
                            GETITEM, fields)

    def conv_windows(self, size: int, dilation: int = 1,
                     left_pad: int = 0) -> "Tensor":
        """im2col for a temporal convolution over ``(B, C, N, T)`` input.

        Left-pads time with ``left_pad`` exact zeros and returns the
        C-contiguous ``(B, N, T_out, C * size)`` window matrix, where
        ``T_out = T + left_pad - (size - 1) * dilation`` and column
        ``c * size + j`` holds channel ``c`` at tap ``j``: ``windows @
        weight.reshape(C_out, C * size).T`` is the convolution.  The
        backward's layout is part of the bitwise contract (see
        ``_conv_windows_grad``).
        """
        if self.ndim != 4:
            raise ValueError(
                f"conv_windows expects (B, C, N, T) input, got {self.shape}")
        if size < 1 or dilation < 1 or left_pad < 0:
            raise ValueError(
                "size and dilation must be >= 1 and left_pad >= 0")
        span = (size - 1) * dilation + 1
        if span > self.shape[-1] + left_pad:
            raise ValueError(f"window span {span} exceeds padded time "
                             f"length {self.shape[-1] + left_pad}")
        fields = (size, dilation, left_pad)
        return Tensor._make(CONV_WINDOWS.forward(self._data, fields),
                            (self,), CONV_WINDOWS, fields)

    # ------------------------------------------------------------------
    # Comparisons (non-differentiable; return plain numpy bool arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)


def topological_order(root: Tensor) -> list[Tensor]:
    """The nodes ``root.backward()`` visits, parents before children.

    An iterative DFS over parents that require grad; the trace JIT
    compiles its backward in exactly this order.
    """
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    return topo


def _run_vjps(node: Tensor, op: Primitive) -> None:
    """Accumulate ``node``'s grad into its parents through ``op``'s VJPs."""
    g = node.grad
    ctx = node._ctx
    parents = node._parents
    xs = [parent._data for parent in parents]
    if op.prepare is not None:
        g = op.prepare(ctx, g)
    for i, (parent, vjp) in enumerate(zip(parents, op.vjps)):
        if parent.requires_grad:
            out = None
            if op.dense_accumulate and parent.grad is not None:
                out = np.empty(parent.shape, dtype=g.dtype)
            parent._accumulate(vjp(ctx, g, node._data, xs, i, out))


# ----------------------------------------------------------------------
# Module-level graph-combining helpers (need access to several tensors)
# ----------------------------------------------------------------------
def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]
    offsets = (0,)
    for t in tensors:
        offsets += (offsets[-1] + t.shape[axis],)
    fields = (axis, offsets)
    return Tensor._make(CONCAT.forward(*[t._data for t in tensors], fields),
                        tensors, CONCAT, fields)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]
    return Tensor._make(STACK.forward(*[t._data for t in tensors], axis),
                        tensors, STACK, axis)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable select: condition is a plain boolean array."""
    a, b = as_tensor(a), as_tensor(b)
    cond = np.asarray(condition, dtype=bool)
    return Tensor._make(WHERE.forward(a._data, b._data, cond), (a, b), WHERE,
                        cond)
