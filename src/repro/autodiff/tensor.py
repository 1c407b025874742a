"""Reverse-mode automatic differentiation over numpy arrays.

This module is the computational substrate of the whole reproduction: the
paper trains its forecasters with PyTorch / PyTorch Geometric Temporal, which
is unavailable here, so we implement a compact define-by-run autodiff engine
with the same semantics (dynamic graph, ``backward()`` accumulating into
``.grad``).

The engine supports full numpy broadcasting.  Every differentiable operation
records its parents and a closure computing the local vector-Jacobian
product; :meth:`Tensor.backward` walks the graph in reverse topological
order.

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


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after a broadcast op.

    Numpy broadcasting may have (a) prepended axes and (b) stretched
    length-1 axes.  The adjoint of broadcasting is summation over exactly
    those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum away prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were stretched from length 1.
    stretched = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if stretched:
        grad = grad.sum(axis=stretched, keepdims=True)
    return grad


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


_OP_NAME_CACHE: dict = {}


def _op_name(backward: Callable) -> str:
    """Human-readable op name for a backward closure.

    Backward closures are defined inside the op that created them, so the
    enclosing function's name is recoverable from ``__qualname__``
    (``'Tensor.__mul__.<locals>.backward'`` -> ``'__mul__'``).  Keyed by
    the (shared, per-definition-site) code object so the parse runs once.
    """
    code = backward.__code__
    name = _OP_NAME_CACHE.get(code)
    if name is None:
        head = backward.__qualname__.split(".<locals>", 1)[0]
        name = head.rsplit(".", 1)[-1]
        _OP_NAME_CACHE[code] = name
    return name


_BACKWARD_OP_HOOK: Callable[[str, float, float, int], None] | None = None


def set_backward_op_hook(hook: Callable | None) -> None:
    """Install a per-op timing probe for :meth:`Tensor.backward`.

    ``hook(op_name, start, end, grad_nbytes)`` is called after each node's
    backward closure runs, with ``time.perf_counter`` stamps.  Pass ``None``
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

    #: ``_trace_src`` is deliberately *not* initialised in ``__init__`` —
    #: it exists only on the few tensors the trace JIT annotates (dropout
    #: masks, softmax shifts), and readers use ``getattr(t, "_trace_src",
    #: None)``, so ordinary tensor creation pays nothing for the slot.
    __slots__ = ("_data", "grad", "requires_grad", "_backward", "_parents",
                 "_grad_owned", "_version", "_parent_versions", "_trace",
                 "_trace_src")

    def __init__(self, data, requires_grad: bool = False):
        array = np.asarray(data)
        if array.dtype.kind in "iub":
            array = array.astype(_DEFAULT_DTYPE)
        self._data: np.ndarray = array
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] | None = None
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
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Create a result tensor, wiring the graph only when needed."""
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
            out._parent_versions = tuple(p._version.value for p in parents)
            if is_anomaly_enabled():
                out._trace = user_frame_summary()
            if _TRACE_HOOK is not None:
                _TRACE_HOOK(out)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        # Copy-on-write accumulation: interior nodes may *borrow* the
        # incoming buffer (it is never mutated once handed over), which
        # avoids a full copy per edge on the hot path.  Leaves with
        # persistent grads (Parameters, user inputs) always own a copy so
        # later in-place updates (optimizers, clipping) cannot alias.
        if self.grad is None:
            is_leaf = not self._parents and self._backward is None
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

        # Reverse topological order over the dynamic graph.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
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

        anomaly = is_anomaly_enabled()
        if anomaly and not np.all(np.isfinite(grad)):
            raise RuntimeError(
                "detect_anomaly: backward() was seeded with a non-finite "
                "gradient")
        self._accumulate(grad)
        hook = _BACKWARD_OP_HOOK
        # Hot-path memoization: op names are resolved through the
        # per-definition-site cache with one local dict probe per node —
        # the ``__qualname__`` parse in ``_op_name`` runs only on the
        # first-ever encounter of each op's backward code object.
        op_names = _OP_NAME_CACHE
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            if node._parent_versions is not None:
                for index, (parent, expected) in enumerate(
                        zip(node._parents, node._parent_versions)):
                    if parent._version.value != expected:
                        raise RuntimeError(
                            f"autodiff: input {index} of op "
                            f"'{_op_name(node._backward)}' (shape "
                            f"{parent.shape}) was mutated in place after "
                            f"the forward pass (version "
                            f"{parent._version.value}, expected {expected});"
                            " backward() would compute gradients from stale"
                            " values")
            if hook is None:
                node._backward(node.grad)
            else:
                backward_fn = node._backward
                begin = _perf_counter()
                backward_fn(node.grad)
                name = op_names.get(backward_fn.__code__)
                hook(name if name is not None else _op_name(backward_fn),
                     begin, _perf_counter(), node.grad.nbytes)
            if anomaly:
                for index, parent in enumerate(node._parents):
                    if parent.requires_grad and parent.grad is not None \
                            and not np.all(np.isfinite(parent.grad)):
                        where_made = ("" if node._trace is None
                                      else f"\n  op created at {node._trace}")
                        raise RuntimeError(
                            f"detect_anomaly: op '{_op_name(node._backward)}'"
                            f" produced a non-finite gradient for its input "
                            f"{index} (shape {parent.shape}){where_made}")

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            # Python scalars: keep the array dtype and skip a graph node.
            # The keyword-only default pins the scalar operand onto the
            # closure object (``__kwdefaults__``) where the trace JIT can
            # recover it; the backward math itself never reads it.
            def backward_scalar(grad: np.ndarray, *,
                                _scalar: float = other) -> None:
                self._accumulate(grad)

            return Tensor._make(self.data + other, (self,), backward_scalar)
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

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
            def backward_scalar(grad: np.ndarray) -> None:
                self._accumulate(grad * other)

            return Tensor._make(self.data * other, (self,), backward_scalar)
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return self * (1.0 / other)
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data ** 2), other.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ supports scalar exponents only")

        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / out_data)

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic via tanh: sigma(x) = (tanh(x/2) + 1)/2.
        out_data = 0.5 * (np.tanh(0.5 * self.data) + 1.0)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, negative_slope * self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.where(mask, 1.0, negative_slope))

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * sign)

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float | None, high: float | None) -> "Tensor":
        """Clamp values; gradient is passed through only inside the window."""
        out_data = np.clip(self.data, low, high)
        inside = np.ones_like(self.data, dtype=bool)
        if low is not None:
            inside &= self.data > low
        if high is not None:
            inside &= self.data < high

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * inside)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self.data, other.data
        if b.ndim == 2 and a.ndim > 2:
            # (..., k) @ (k, m): collapse the batch axes into one big GEMM —
            # numpy's batched matmul over thousands of tiny matrices is far
            # slower than a single large one.  This is the Linear-layer hot
            # path for every model in the repo.
            k, m = b.shape
            lead = a.shape[:-1]
            out_data = (a.reshape(-1, k) @ b).reshape(*lead, m)

            def backward(grad: np.ndarray) -> None:
                grad2d = grad.reshape(-1, m)
                if self.requires_grad:
                    self._accumulate((grad2d @ b.T).reshape(a.shape))
                if other.requires_grad:
                    other._accumulate(a.reshape(-1, k).T @ grad2d)

            return Tensor._make(out_data, (self, other), backward)
        if a.ndim == 2 and b.ndim > 2:
            # (v, w) @ (..., w, c): graph-propagation hot path.  Flatten the
            # batch into one GEMM instead of a batched matmul over thousands
            # of (v, w) x (w, c) products.
            c = b.shape[-1]
            batch_shape = b.shape[:-2]

            def _node_major(operand: np.ndarray) -> np.ndarray:
                # (..., n, c) -> (n, batch * c): the node axis leads the GEMM.
                return np.moveaxis(operand, -2, 0).reshape(operand.shape[-2], -1)

            def _mix(matrix: np.ndarray, flat: np.ndarray) -> np.ndarray:
                out = (matrix @ flat).reshape(matrix.shape[0], *batch_shape, c)
                return np.moveaxis(out, 0, -2)

            out_data = _mix(a, _node_major(b))

            def backward(grad: np.ndarray) -> None:
                # One node-major copy of the grad feeds both GEMMs.
                grad_mat = _node_major(grad)
                if self.requires_grad:
                    self._accumulate(grad_mat @ _node_major(b).T)
                if other.requires_grad:
                    other._accumulate(_mix(a.T, grad_mat))

            return Tensor._make(out_data, (self, other), backward)
        out_data = a @ b

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if a.ndim == 1 and b.ndim == 1:
                    # (n,) @ (n,) -> (): grad is a scalar.
                    grad_a = grad * b
                elif b.ndim == 1:
                    # (..., n) @ (n,) -> (...,): grad_a[..., n] = grad[...] * b[n]
                    grad_a = grad[..., None] * b
                elif a.ndim == 1:
                    # (n,) @ (..., n, m) -> (..., m): contract grad with b over
                    # every axis except b's node axis.
                    bt = np.swapaxes(b, -1, -2)  # (..., m, n)
                    axes = list(range(grad.ndim))
                    grad_a = np.tensordot(grad, bt, axes=(axes, axes))
                else:
                    grad_a = _unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape)
                self._accumulate(grad_a)
            if other.requires_grad:
                if a.ndim == 1 and b.ndim == 1:
                    grad_b = grad * a
                elif a.ndim == 1:
                    # grad_b[..., n, m] = a[n] * grad[..., m]
                    grad_b = _unbroadcast(a[:, None] * grad[..., None, :], b.shape)
                elif b.ndim == 1:
                    # (..., n) @ (n,) -> (...,): grad_b[n] = sum grad[...] * a[..., n]
                    axes = list(range(grad.ndim))
                    grad_b = np.tensordot(grad, a, axes=(axes, axes))
                else:
                    grad_b = _unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape)
                other._accumulate(grad_b)

        return Tensor._make(out_data, (self, other), backward)

    def __rmatmul__(self, other) -> "Tensor":
        return as_tensor(other) @ self

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward)

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
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            o = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                o = np.expand_dims(o, axis)
            mask = (self.data == o)
            counts = mask.sum(axis=axis if axis is not None else None, keepdims=True)
            self._accumulate(np.broadcast_to(g, self.shape) * mask / counts)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        in_shape = self.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(in_shape))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]
        in_shape = self.shape
        # Basic indexing (ints/slices/ellipsis) never selects a position
        # twice, so plain assignment-add is valid and much faster than the
        # general scatter-add needed for integer-array (fancy) indexing.
        parts = key if isinstance(key, tuple) else (key,)
        fancy = any(isinstance(p, (list, np.ndarray)) for p in parts)

        def backward(grad: np.ndarray) -> None:
            full = np.zeros(in_shape, dtype=grad.dtype)
            if fancy:
                np.add.at(full, key, grad)
            else:
                full[key] += grad
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    def conv_windows(self, size: int, dilation: int = 1,
                     left_pad: int = 0) -> "Tensor":
        """im2col for a temporal convolution over ``(B, C, N, T)`` input.

        Left-pads time with ``left_pad`` exact zeros and returns the
        C-contiguous ``(B, N, T_out, C * size)`` window matrix, where
        ``T_out = T + left_pad - (size - 1) * dilation`` and column
        ``c * size + j`` holds channel ``c`` at tap ``j``: ``windows @
        weight.reshape(C_out, C * size).T`` is the convolution.

        The backward pass is part of the bitwise contract.  It accumulates
        taps ``j = 0..size-1`` in order onto zeros.  When the input has no
        grad yet (so it may borrow this one) it hands the input a ``[...,
        left_pad:]`` slice of a C-contiguous ``(B, C, N, T + left_pad)``
        array, because downstream reductions sum in memory order
        (DESIGN.md, "Fused temporal windows"); when the grad is added onto
        an existing one it hands a C-contiguous ``(B, C, N, T)`` array.
        """
        if self.ndim != 4:
            raise ValueError(
                f"conv_windows expects (B, C, N, T) input, got {self.shape}")
        if size < 1 or dilation < 1 or left_pad < 0:
            raise ValueError(
                "size and dilation must be >= 1 and left_pad >= 0")
        b, c, n, t = self.shape
        t_pad = t + left_pad
        span = (size - 1) * dilation + 1
        if span > t_pad:
            raise ValueError(
                f"window span {span} exceeds padded time length {t_pad}")
        t_out = t_pad - span + 1
        # Tap j of output step o reads input step o + shift_j; outputs
        # before first_j read the zero padding.
        taps = []
        for j in range(size):
            shift = j * dilation - left_pad
            taps.append((j, shift, min(max(0, -shift), t_out)))
        source = self.data.transpose(0, 2, 3, 1)  # (B, N, T, C) view
        windows = np.empty((b, n, t_out, c, size), dtype=self.data.dtype)
        for j, shift, first in taps:
            windows[:, :, :first, :, j] = 0.0
            if first < t_out:
                windows[:, :, first:, :, j] = \
                    source[:, :, first + shift:t_out + shift]

        def backward(grad: np.ndarray) -> None:
            tap_grads = grad.reshape(b, n, t_out, c, size)
            # Padded taps feed no input step and are skipped; every input
            # step still sums its taps in order j = 0..size-1 onto zero.
            summed = np.zeros((b, n, t, c), dtype=grad.dtype)
            for j, shift, first in taps:
                if first < t_out:
                    summed[:, :, first + shift:t_out + shift] += \
                        tap_grads[:, :, first:, :, j]
            if self.grad is not None:
                # The grad is added onto an existing one, so nobody sees
                # this array's layout: a contiguous one adds ~25x faster
                # than the gappy slice, and gives the same values and the
                # same result layout (equal axis order).
                self._accumulate(summed.transpose(0, 3, 1, 2).copy())
                return
            full = np.zeros((b, c, n, t_pad), dtype=grad.dtype)
            np.copyto(full[..., left_pad:], summed.transpose(0, 3, 1, 2))
            self._accumulate(full[..., left_pad:])

        return Tensor._make(windows.reshape(b, n, t_out, c * size), (self,),
                            backward)

    # ------------------------------------------------------------------
    # Comparisons (non-differentiable; return plain numpy bool arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)


# ----------------------------------------------------------------------
# Module-level graph-combining helpers (need access to several tensors)
# ----------------------------------------------------------------------
def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * grad.ndim
                sl[axis] = slice(start, stop)
                t._accumulate(grad[tuple(sl)])

    return Tensor._make(out_data, tensors, backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slabs = np.moveaxis(grad, axis, 0)
        for t, slab in zip(tensors, slabs):
            if t.requires_grad:
                t._accumulate(slab)

    return Tensor._make(out_data, tensors, backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable select: condition is a plain boolean array."""
    a, b = as_tensor(a), as_tensor(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(np.where(cond, grad, 0.0), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.where(cond, 0.0, grad), b.shape))

    return Tensor._make(out_data, (a, b), backward)
