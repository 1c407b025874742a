"""Lane-exact autodiff ops for cross-individual stacked training.

The stacked cohort executor (:mod:`repro.training.stacked`) trains ``K``
individuals at once by giving every model parameter a leading lane axis:
``(K, *shape)``.  Elementwise tensor ops are shape-blind, so they vectorize
across lanes bit-identically for free — but the *linear-algebra* ops do
not: one big GEMM over ``(K·S, F)`` would change the floating-point
reduction order relative to ``K`` independent solo GEMMs.  The ops here
therefore run **one GEMM per lane** with exactly the operand shapes,
strides and association order of the solo code path, and assemble the
results into the stacked layout.  The win of stacking is not inside the
GEMM — it is everything around it: one graph walk, one optimizer step,
one Python-level epoch loop for the whole stack.

Bit-exactness contract (asserted end-to-end in ``tests/training``):

* :func:`lane_matmul` mirrors ``Tensor.__matmul__``'s flattened-GEMM
  branch per lane — the same ``reshape(-1, F) @ W`` forward and the same
  two backward GEMMs, on operands with identical memory layout.
* :func:`lane_bias_add` accumulates the bias gradient *directly* in its
  own backward (``grad.sum`` over the lane's leading axes), mirroring how
  the solo broadcast-add accumulates into the bias leaf without any
  intermediate node.  Inserting a reshape node instead would reorder the
  bias's gradient accumulation across its uses, which is bitwise visible
  once a parameter is used three or more times (IEEE addition is
  commutative but not associative).
* :func:`lane_affine` creates a **fresh** ``swapaxes`` node per call,
  exactly as ``Linear.forward`` creates a fresh ``.T`` node per call —
  hoisting one transposed weight out of the step loop would flip the
  order in which the weight's per-step gradient contributions accumulate.
* :func:`lane_propagate` mirrors the graph-propagation matmul branch
  (``(V, V) @ (..., V, C)``) per lane over a constant ``(K, V, V)``
  operator stack; :func:`lane_mix` does the same with the solo output
  layout.  Neither differentiates its operator: a learned one raises.
* :func:`lane_matvec` mirrors the general branch's ``(..., n) @ (n,)``
  matrix-vector product (``grad[..., None] * v`` for ``x``, a full
  ``tensordot`` for ``v``), and :func:`lane_scale` the broadcast multiply
  by a per-lane weight, its grad reduced per lane like ``_unbroadcast``.

Each op is a :class:`~repro.autodiff.primitive.Primitive`: the trace JIT
replays the same kernels, and :data:`BATCHED_LANES` picks batched or
per-lane loops inside them.

:func:`stack_lanes` builds a lane model from ``K`` solo models on these
ops, so a model has one forward for solo, stacked and batched execution.

Batched fast path
-----------------
``np.matmul`` on ``(K, m, n) @ (K, n, p)`` stacks dispatches one BLAS
GEMM per 2-D slice — the *same* GEMM, on slices with the same values and
strides, that the per-lane Python loop issues — so its output is bitwise
identical while the ``K``-iteration loop moves from Python into C.  The
same holds for a middle-axis ``sum`` versus per-lane leading-axis sums.
Because that equivalence is a property of the host numpy/BLAS build and
not of IEEE arithmetic, it is **probed at import time** over every
operand pattern these ops use (contiguous, transposed-view, float32 and
float64); any mismatch drops the module back to the per-lane reference
loops.  The probe verdict is exposed as :data:`BATCHED_LANES`.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..autodiff import Tensor, is_grad_enabled, no_grad, softmax
from ..autodiff.primitive import Primitive, into, matmul, reshaped
from ..autodiff.tensor import MATMUL_MIX
from .attention import SpatialAttention, TemporalAttention
from .conv import TemporalConv2d
from .dropout import Dropout
from .graph import ChebConv, GCNConv, MixHopPropagation
from .linear import Linear
from .module import Module, Parameter
from .normalization import LayerNorm

__all__ = ["BATCHED_LANES", "lane_matmul", "lane_matvec", "lane_bias_add",
           "lane_scale", "lane_affine", "lane_propagate", "lane_modulate",
           "lane_mix",
           "stack_lanes", "LaneSelector"]


def _probe_batched_exactness() -> bool:
    """True iff batched matmul/sum replay the per-lane loops bitwise.

    Covers the operand patterns the lane ops issue: plain stacked GEMM,
    transposed-view second operand (``weight.swapaxes``), transposed
    first operand (the grad-weight GEMM), the bias middle-axis
    reductions (one- and two-axis features) and matrix-vector products
    on contiguous and transposed-view left operands — in both default
    dtypes, with non-round shapes so BLAS blocking kicks in where it
    would for real workloads.
    """
    rng = np.random.default_rng(20260807)
    lanes = 4
    # Both engine dtypes must be probed regardless of the current default:
    # the flag is computed once at import and training may switch dtypes.
    for dtype in (np.float32, np.float64):  # repro: noqa[REPRO005]
        for m, n, p in ((13, 7, 5), (57, 33, 17)):
            a = rng.normal(size=(lanes, m, n)).astype(dtype)
            b = rng.normal(size=(lanes, n, p)).astype(dtype)
            w = rng.normal(size=(lanes, p, n)).astype(dtype)
            if not np.array_equal(np.matmul(a, b),
                                  np.stack([a[k] @ b[k]
                                            for k in range(lanes)])):
                return False
            if not np.array_equal(np.matmul(a, w.swapaxes(-1, -2)),
                                  np.stack([a[k] @ w[k].T
                                            for k in range(lanes)])):
                return False
            g = rng.normal(size=(lanes, m, p)).astype(dtype)
            if not np.array_equal(np.matmul(a.swapaxes(-1, -2), g),
                                  np.stack([a[k].T @ g[k]
                                            for k in range(lanes)])):
                return False
            r = rng.normal(size=(lanes, m, n, p)).astype(dtype)
            if not np.array_equal(r.sum(axis=(1, 2)),
                                  np.stack([r[k].sum(axis=(0, 1))
                                            for k in range(lanes)])):
                return False
            # Multi-axis feature reductions (2-D lane biases).
            if not np.array_equal(r.sum(axis=1),
                                  np.stack([r[k].sum(axis=0)
                                            for k in range(lanes)])):
                return False
            # Matrix-vector products against a per-lane 1-D operand, on
            # a contiguous and on a transposed-view left operand.
            v = rng.normal(size=(lanes, p)).astype(dtype)
            for left in (r, r.swapaxes(-1, -2).copy().swapaxes(-1, -2)):
                if not np.array_equal(_batched_matvec(left, v),
                                      np.stack([left[k] @ v[k]
                                                for k in range(lanes)])):
                    return False
    return True


def _batched_matvec(xd: np.ndarray, vd: np.ndarray) -> np.ndarray:
    """``out[k] = xd[k] @ vd[k]`` for ``vd`` of shape ``(K, n)``.

    The ``(n, 1)`` column keeps numpy's matrix-vector kernel, the one the
    solo ``(..., n) @ (n,)`` product dispatches per 2-D slice.
    """
    column = vd.reshape((vd.shape[0],) + (1,) * (xd.ndim - 3)
                        + (vd.shape[-1], 1))
    return np.matmul(xd, column)[..., 0]


#: Whether this host's numpy/BLAS build dispatches stacked ``np.matmul``
#: as one per-slice GEMM bitwise equal to an explicit per-lane loop.
BATCHED_LANES: bool = _probe_batched_exactness()


def _lane_matmul(x, w, out=None):
    lanes, in_f = x.shape[0], x.shape[-1]
    shape = x.shape[:-1] + w.shape[-1:]
    if BATCHED_LANES:
        return matmul(x.reshape(lanes, -1, in_f), w, out, shape)
    if out is None:
        out = np.empty(shape, dtype=np.result_type(x, w))
    for k in range(lanes):
        out[k] = (x[k].reshape(-1, in_f) @ w[k]).reshape(shape[1:])
    return out


def _lane_matmul_grad(ctx, g2, y, xs, i, out=None):
    x, w = xs
    lanes = x.shape[0]
    if i == 0:
        if BATCHED_LANES:
            # w.swapaxes is the strided view of the base weight rows,
            # exactly the layout the solo backward sees for b.T.
            return matmul(g2, w.swapaxes(-1, -2), out, x.shape)
        if out is None:
            out = np.empty(x.shape, dtype=np.result_type(g2, w))
        for k in range(lanes):
            out[k] = (g2[k] @ w[k].T).reshape(x.shape[1:])
        return out
    x2 = x.reshape(lanes, -1, x.shape[-1])
    if BATCHED_LANES:
        return matmul(x2.swapaxes(-1, -2), g2, out)
    if out is None:
        out = np.empty(w.shape, dtype=np.result_type(x, g2))
    for k in range(lanes):
        out[k] = x2[k].T @ g2[k]
    return out


def _lane_matvec(x, v, out=None):
    if BATCHED_LANES:
        return into(_batched_matvec(x, v), out)
    return np.stack([x[k] @ v[k] for k in range(x.shape[0])], out=out)


def _lane_matvec_grad(ctx, g, y, xs, i, out=None):
    x, v = xs
    if i == 0:
        return np.multiply(g[..., None], v.reshape(
            (x.shape[0],) + (1,) * (x.ndim - 2) + v.shape[-1:]), out=out)
    if out is None:
        out = np.empty(v.shape, dtype=np.result_type(g, x))
    axes = list(range(g.ndim - 1))
    for k in range(x.shape[0]):
        out[k] = np.tensordot(g[k], x[k], axes=(axes, axes))
    return out


def _lane_sum(product: np.ndarray, ndim: int, out=None) -> np.ndarray:
    """Per-lane sum of ``product`` over every axis before the last
    ``ndim - 1`` (the solo ``_unbroadcast`` reduction, lane by lane)."""
    reduce_axes = tuple(range(product.ndim - ndim))
    if BATCHED_LANES:
        return into(product.sum(axis=tuple(a + 1 for a in reduce_axes)), out)
    return np.stack([product[k].sum(axis=reduce_axes)
                     for k in range(product.shape[0])], out=out)


def _lane_bias_grad(ctx, g, y, xs, i, out=None):
    if i == 0:
        return into(g, out)
    return _lane_sum(g, xs[1].ndim, out)


def _lane_scale_grad(ctx, g, y, xs, i, out=None):
    x, w = xs
    if i == 0:
        return np.multiply(g, _lane_broadcast(x, w), out=out)
    return _lane_sum(g * x, w.ndim, out)


def _lane_propagate(x, operator, out=None):
    if BATCHED_LANES:
        return into(_mix_lanes(operator, x), out)
    if out is None:
        out = np.empty(x.shape[:-2] + (operator.shape[-2], x.shape[-1]),
                       dtype=np.result_type(operator, x))
    for k in range(x.shape[0]):
        out[k] = MATMUL_MIX.forward(operator[k], x[k])
    return out


def _lane_mix(operator: np.ndarray, x: np.ndarray) -> np.ndarray:
    if BATCHED_LANES:
        return _mix_lanes(operator, x, contiguous=False)
    mixed = np.stack([np.moveaxis(MATMUL_MIX.forward(operator[k], x[k]),
                                  -2, 0) for k in range(x.shape[0])])
    return np.moveaxis(mixed, 1, -2)


_OPERATORS = np.linspace(0.1, 1.0, 18).reshape(2, 3, 3)  # example (K, V, V)

LANE_MATMUL = Primitive(
    "lane_matmul", _lane_matmul, (_lane_matmul_grad, _lane_matmul_grad),
    prepare=lambda ctx, g, out=None: reshaped(
        g, (g.shape[0], -1, g.shape[-1]), out),
    examples=(([(2, 3, 4), (2, 4, 5)], lambda x, w: lane_matmul(x, w)),))
LANE_MATVEC = Primitive(
    "lane_matvec", _lane_matvec, (_lane_matvec_grad, _lane_matvec_grad),
    examples=(([(2, 3, 4), (2, 4)], lambda x, v: lane_matvec(x, v)),))
LANE_BIAS_ADD = Primitive(
    "lane_bias_add",
    lambda x, b, out=None: np.add(x, _lane_broadcast(x, b), out=out),
    (_lane_bias_grad, _lane_bias_grad),
    examples=(([(2, 3, 4), (2, 4)], lambda x, b: lane_bias_add(x, b)),))
LANE_SCALE = Primitive(
    "lane_scale",
    lambda x, w, out=None: np.multiply(x, _lane_broadcast(x, w), out=out),
    (_lane_scale_grad, _lane_scale_grad),
    examples=(([(2, 3, 4), (2, 4)], lambda x, w: lane_scale(x, w)),))

def _operator(ctx, xs) -> np.ndarray:
    """A lane operator op's ``(K, V, V)`` stack: its static field, or its
    second parent when given as a tensor (see :func:`_apply_operator`)."""
    return xs[1] if ctx is None else ctx


# The operator ops declare one VJP: an operator parent never gets a grad.
LANE_PROPAGATE = Primitive(
    "lane_propagate", _lane_propagate,
    (lambda ctx, g, y, xs, i, out=None:
     _lane_propagate(g, _operator(ctx, xs).swapaxes(-1, -2), out),),
    operand="operator",
    examples=(([(2, 2, 3, 4)], lambda x: lane_propagate(_OPERATORS, x)),))
LANE_MODULATE = Primitive(
    "lane_modulate",
    lambda x, operator, out=None: np.multiply(_lane_operator(operator, x), x,
                                              out=out),
    (lambda ctx, g, y, xs, i, out=None:
     np.multiply(g, _lane_operator(_operator(ctx, xs), g), out=out),),
    operand="operator",
    examples=(([(2, 3, 3, 3)], lambda x: lane_modulate(_OPERATORS, x)),))
LANE_MIX = Primitive(
    "lane_mix",
    lambda x, operator, out=None: into(_lane_mix(operator, x), out),
    (lambda ctx, g, y, xs, i, out=None:
     into(_lane_mix(_operator(ctx, xs).swapaxes(-1, -2), g), out),),
    operand="operator",
    examples=(([(2, 2, 3, 4)], lambda x: lane_mix(_OPERATORS, x)),))


def lane_matmul(x: Tensor, wt: Tensor) -> Tensor:
    """Per-lane matmul ``out[k] = x[k] @ wt[k]`` over the leading lane axis.

    ``x`` is ``(K, ..., F_in)`` and ``wt`` is ``(K, F_in, F_out)`` —
    typically a fresh ``weight.swapaxes(-1, -2)`` node (see
    :func:`lane_affine`).
    """
    xd, wd = x.data, wt.data
    if xd.shape[0] != wd.shape[0]:
        raise ValueError(f"lane counts disagree: {xd.shape[0]} vs "
                         f"{wd.shape[0]}")
    if xd.shape[-1] != wd.shape[-2]:
        raise ValueError(f"lane_matmul got {xd.shape} @ {wd.shape}")
    return Tensor._make(LANE_MATMUL.forward(xd, wd), (x, wt),
                        LANE_MATMUL)


def lane_matvec(x: Tensor, v: Tensor) -> Tensor:
    """Per-lane matrix-vector product ``out[k] = x[k] @ v[k]``.

    ``x`` is ``(K, ..., n)`` and ``v`` the stacked ``(K, n)`` parameter of
    a solo 1-D operand (the attention vectors of
    :class:`~repro.nn.SpatialAttention` / ``TemporalAttention``).
    """
    xd, vd = x.data, v.data
    if vd.ndim != 2 or xd.ndim < 3 or xd.shape[0] != vd.shape[0] \
            or xd.shape[-1] != vd.shape[-1]:
        raise ValueError(f"lane_matvec got {xd.shape} @ {vd.shape}")
    return Tensor._make(LANE_MATVEC.forward(xd, vd), (x, v),
                        LANE_MATVEC)


def _lane_broadcast(xd: np.ndarray, pd: np.ndarray) -> np.ndarray:
    """View a per-lane ``(K, *feature)`` array against ``(K, ..., *feature)``."""
    if xd.shape[0] != pd.shape[0] or xd.ndim < pd.ndim \
            or xd.shape[xd.ndim - pd.ndim + 1:] != pd.shape[1:]:
        raise ValueError(f"per-lane operand {pd.shape} does not match "
                         f"lanes of {xd.shape}")
    return pd.reshape((pd.shape[0],) + (1,) * (xd.ndim - pd.ndim)
                      + pd.shape[1:])


def lane_bias_add(x: Tensor, bias: Tensor) -> Tensor:
    """Add a per-lane bias ``(K, *F)`` to ``x`` of shape ``(K, ..., *F)``.

    ``F`` is the solo bias shape: one feature axis for ``Linear``, two
    for the attention biases.
    """
    return Tensor._make(LANE_BIAS_ADD.forward(x.data, bias.data),
                        (x, bias), LANE_BIAS_ADD)


def lane_scale(x: Tensor, weight: Tensor) -> Tensor:
    """Multiply ``x`` ``(K, ..., *F)`` by a per-lane weight ``(K, *F)``
    (``LayerNorm``'s affine scale)."""
    return Tensor._make(LANE_SCALE.forward(x.data, weight.data),
                        (x, weight), LANE_SCALE)


def lane_affine(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Per-lane ``Linear``: ``out[k] = x[k] @ weight[k].T + bias[k]``.

    ``weight`` is the stacked ``(K, F_out, F_in)`` parameter.  A fresh
    ``swapaxes(-1, -2)`` node is created per call — never hoisted — so a
    weight used several times per epoch (recurrent cells) accumulates its
    per-use gradient contributions through per-use transpose nodes in the
    same order the solo ``Linear``'s per-use ``.T`` nodes impose.
    """
    out = lane_matmul(x, weight.swapaxes(-1, -2))
    if bias is not None:
        out = lane_bias_add(out, bias)
    return out


def _mix_lanes(matrices: np.ndarray, operand: np.ndarray,
               contiguous: bool = True) -> np.ndarray:
    """The solo ``(V, V) @ (..., V, C)`` product (``MATMUL_MIX``) over
    ``(K, V, V)`` stacks, as one stacked matmul.

    moveaxis + C-order reshape copies element-for-element what the solo
    product copies per lane, so each 2-D GEMM sees identical operands;
    ascontiguousarray rebuilds the solo output layout so downstream
    reductions reduce in the same memory order.  ``contiguous=False``
    returns the solo's own ``moveaxis`` view, lane by lane, for consumers
    whose later reductions follow the operand's memory order.
    """
    lanes = operand.shape[0]
    moved = np.moveaxis(operand, -2, 1).reshape(lanes, operand.shape[-2], -1)
    mixed = np.matmul(matrices, moved).reshape(
        lanes, matrices.shape[-2], *operand.shape[1:-2], operand.shape[-1])
    mixed = np.moveaxis(mixed, 1, -2)
    return np.ascontiguousarray(mixed) if contiguous else mixed


def _apply_operator(op: Primitive, operator, x: Tensor, name: str) -> Tensor:
    """``op`` over ``x`` and a ``(K, V, V)`` operator of ``x``'s lanes.

    An array operator is a static field of the node.  A tensor operator (a
    served MTGNN's learned graphs, the ASTGCN attentions' ``vs``/``ve``)
    is its second parent, so a forward plan reads its current value.  A
    tensor that would need an operator gradient raises ``TypeError``
    instead of being silently detached: a learned ``(K, V, V)`` operator
    has no lane backward, which is what keeps those models' training solo.
    """
    data = operator.data if isinstance(operator, Tensor) else operator
    xd = x.data
    if data.ndim != 3 or data.shape[0] != xd.shape[0]:
        raise ValueError(f"operator must be (K, V, V) matching x lanes, "
                         f"got {data.shape} for x {xd.shape}")
    if xd.shape[-2] != data.shape[-1] or (
            op is LANE_MODULATE and xd.shape[-1] != data.shape[-1]):
        raise ValueError(f"{name} got {data.shape} with {xd.shape}")
    if not isinstance(operator, Tensor):
        return Tensor._make(op.forward(xd, data), (x,), op, data)
    if operator.requires_grad and is_grad_enabled():
        raise TypeError(
            f"{name}: the (K, V, V) operator requires grad; a learned "
            f"operator has no lane backward")
    return Tensor._make(op.forward(xd, data), (x, operator), op)


def lane_propagate(operator, x: Tensor) -> Tensor:
    """Per-lane graph propagation ``out[k] = operator[k] @ x[k]``.

    ``operator`` is a constant ``(K, V, V)`` stack (the solo layers'
    normalized operators, see :func:`stack_lanes`), or a tensor that
    needs no gradient, such as a served MTGNN's learned graphs; ``x`` is
    ``(K, ..., V, C)``.  Forward and backward mirror the solo ``(V, V) @
    (..., V, C)`` matmul branch (the ``_mix`` flatten-to-one-GEMM trick)
    once per lane; the operator is never differentiated (see
    :func:`_apply_operator`).
    """
    return _apply_operator(LANE_PROPAGATE, operator, x, "lane_propagate")


def _lane_operator(operator: np.ndarray, x: np.ndarray) -> np.ndarray:
    """View a ``(K, V, V)`` stack against ``x`` of shape ``(K, ..., V, V)``."""
    return operator.reshape(operator.shape[:1] + (1,) * (x.ndim - 3)
                            + operator.shape[1:])


def lane_modulate(operator, x: Tensor) -> Tensor:
    """Per-lane elementwise ``operator[k] * x[k]`` for a constant ``(K, V,
    V)`` stack against ``x`` of shape ``(K, ..., V, V)``.

    The lane form of ASTGCN's ``T_k ⊙ S_att``: the solo ``ChebConv``
    multiplies its basis tensor by the attention, and lane ``k`` here
    makes the same ``np.multiply`` call on its own rows.  Like
    :func:`lane_propagate`'s, the operator is never differentiated.
    """
    return _apply_operator(LANE_MODULATE, operator, x, "lane_modulate")


def lane_mix(operator, x: Tensor) -> Tensor:
    """:func:`lane_propagate` that keeps the solo output layout.

    The solo ``_mix`` returns a ``moveaxis`` view of a C-contiguous ``(V,
    ..., C)`` block; the ASTGCN attentions' products keep that layout
    through their softmax into ``ChebConv``, whose per-sample BLAS calls
    see its strides, so lane ``k`` here is the same view of its own
    block.  Used for the attentions' ``vs``/``ve`` parameters, which, as
    learned operators, have no lane backward.
    """
    return _apply_operator(LANE_MIX, operator, x, "lane_mix")


# ----------------------------------------------------------------------
# Lane models from solo module trees.


# A lane twin copies its solo class's plain attributes like any clone.  Its
# ``_derived`` names the attributes it does not copy: the solo state it has
# no use for, and the per-lane state ``_adopt`` builds from the K solos.
# Per-lane state is an array with the lane on axis 0, or a list of such
# arrays, so ``LaneSelector`` can take rows of it.


class _LaneLinear(Module):
    """Lane twin of :class:`~repro.nn.Linear`: ``x[k] @ W[k].T + b[k]``."""

    def forward(self, x: Tensor) -> Tensor:
        return lane_affine(x, self.weight, self.bias)


class _LaneGCNConv(Module):
    """Lane twin of :class:`~repro.nn.GCNConv`: propagate over the
    ``(K, V, V)`` stack of the solo operators, then the lane ``linear``."""

    _derived = ("_propagation",)

    def _adopt(self, solos: list, path: str) -> None:
        operator = np.stack([solo._propagation.data for solo in solos])
        operator.setflags(write=False)
        self._propagation = operator

    def forward(self, x: Tensor) -> Tensor:
        return self.linear(lane_propagate(self._propagation, x))


class _LaneDropout(Module):
    """Lane twin of :class:`~repro.nn.Dropout`: lane ``k``'s mask is one
    solo-shaped draw from solo ``k``'s generator, its exact solo stream."""

    _derived = ("rng", "_solos")

    def _adopt(self, solos: list, path: str) -> None:
        # An object array, so lane rows select solos like any lane state.
        self._solos = np.empty(len(solos), dtype=object)
        self._solos[:] = solos

    def _draw_masks(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        return np.stack([solo._draw_mask(shape, dtype) for solo in self._solos])

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        shape, dtype = x.shape[1:], x.data.dtype
        mask = Tensor(self._draw_masks(shape, dtype))
        # Volatile, like the solo mask: trace replay redraws it per epoch.
        mask._trace_src = ("volatile", partial(self._draw_masks, shape, dtype))
        return x * mask


class _LaneChebConv(ChebConv):
    """Lane twin of :class:`~repro.nn.ChebConv`: the solo forward over a
    stacked ``(K, V, V)`` operator per Chebyshev order."""

    _derived = ("_basis",)

    def _adopt(self, solos: list, path: str) -> None:
        self._basis = []
        for order in range(self.order):
            stacked = np.stack([solo._basis[order].data for solo in solos])
            stacked.setflags(write=False)
            self._basis.append(stacked)

    def _propagate(self, order: int, x: Tensor,
                   attention: Tensor | None) -> Tensor:
        basis = self._basis[order]
        if attention is None:
            return lane_propagate(basis, x)
        return lane_modulate(basis, attention) @ x


def _check_attention(module, x: Tensor, name: str) -> None:
    expected = (module.num_nodes, module.in_channels, module.num_steps)
    if x.ndim != 5 or x.shape[-3:] != expected:
        raise ValueError(f"{name} lanes expect (K, B, {expected[0]}, "
                         f"{expected[1]}, {expected[2]}), got {x.shape}")


class _LaneSpatialAttention(Module):
    """Lane twin of :class:`~repro.nn.SpatialAttention` on ``(K, B, N, C,
    T)``; the solo 1-D ``w1``/``w3`` become ``(K, n)`` lane rows."""

    def forward(self, x: Tensor) -> Tensor:
        _check_attention(self, x, "SpatialAttention")
        lhs = lane_matmul(lane_matvec(x, self.w1), self.w2)       # (K, B, N, T)
        rhs = lane_matvec(x.transpose(0, 1, 4, 2, 3), self.w3)   # (K, B, T, N)
        product = lhs @ rhs                                       # (K, B, N, N)
        scores = lane_mix(self.vs,
                          lane_bias_add(product, self.bias).sigmoid())
        return softmax(scores, axis=-1)


class _LaneTemporalAttention(Module):
    """Lane twin of :class:`~repro.nn.TemporalAttention` on ``(K, B, N,
    C, T)``; the solo 1-D ``u1``/``u3`` become ``(K, n)`` lane rows."""

    def forward(self, x: Tensor) -> Tensor:
        _check_attention(self, x, "TemporalAttention")
        xt = x.transpose(0, 1, 4, 3, 2)                           # (K, B, T, C, N)
        lhs = lane_matmul(lane_matvec(xt, self.u1), self.u2)      # (K, B, T, N)
        rhs = lane_matvec(x.transpose(0, 1, 2, 4, 3), self.u3)   # (K, B, N, T)
        product = lhs @ rhs                                       # (K, B, T, T)
        scores = lane_mix(self.ve,
                          lane_bias_add(product, self.bias).sigmoid())
        return softmax(scores, axis=-1)


class _LaneTemporalConv2d(TemporalConv2d):
    """Lane twin of :class:`~repro.nn.TemporalConv2d` on ``(K, B, C, N,
    T)``: the lanes fold into ``conv_windows``' batch axis, and each lane
    contracts its windows with its own kernel through :func:`lane_affine`."""

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 5 or x.shape[2] != self.in_channels:
            raise ValueError(f"TemporalConv2d lanes expect (K, B, "
                             f"{self.in_channels}, N, T), got {x.shape}")
        lanes = x.shape[0]
        if self.kernel_size == 1:
            mixed = lane_affine(x.transpose(0, 1, 3, 4, 2),
                                self.weight[:, :, :, 0], self.bias)
            return mixed.transpose(0, 1, 4, 2, 3)
        left = self.receptive_field - 1 if self.causal_pad else 0
        left = max(left, self.receptive_field - x.shape[-1])
        flat = x.reshape(-1, *x.shape[2:]).conv_windows(
            self.kernel_size, dilation=self.dilation, left_pad=left)
        flat = flat.reshape(lanes, -1, *flat.shape[1:])  # (K, B, N, T', C*k)
        kernel = self.weight.reshape(lanes, self.out_channels, -1)
        out = lane_affine(flat, kernel, self.bias)       # (K, B, N, T', C_out)
        return out.transpose(0, 1, 4, 2, 3)


class _LaneLayerNorm(LayerNorm):
    """Lane twin of :class:`~repro.nn.LayerNorm`: the solo normalization,
    then a per-lane affine."""

    def _affine(self, normalized: Tensor) -> Tensor:
        return lane_bias_add(lane_scale(normalized, self.weight), self.bias)


class _LaneMixHopPropagation(MixHopPropagation):
    """Lane twin of :class:`~repro.nn.MixHopPropagation`: each hop runs
    :func:`lane_propagate` over the ``(K, V, V)`` operator, which refuses
    an operator that requires grad (a learned graph in training)."""

    @staticmethod
    def _hop(propagation, hidden: Tensor) -> Tensor:
        return lane_propagate(propagation, hidden)


_LANE_TWINS = {Linear: _LaneLinear, GCNConv: _LaneGCNConv,
               Dropout: _LaneDropout, ChebConv: _LaneChebConv,
               SpatialAttention: _LaneSpatialAttention,
               TemporalAttention: _LaneTemporalAttention,
               TemporalConv2d: _LaneTemporalConv2d,
               LayerNorm: _LaneLayerNorm,
               MixHopPropagation: _LaneMixHopPropagation}


def _is_plain(value) -> bool:
    if isinstance(value, tuple):
        return all(_is_plain(item) for item in value)
    return value is None or isinstance(value, (bool, int, float, str,
                                               np.generic))


def _clone(solos: list, path: str) -> Module:
    first = solos[0]
    kind = type(first)
    if any(type(solo) is not kind for solo in solos):
        raise TypeError(f"stack_lanes: {path or 'root'} mixes module types")
    twin = _LANE_TWINS.get(kind, kind)
    clone = object.__new__(twin)
    Module.__init__(clone)
    for name in first._parameters:
        setattr(clone, name, Parameter(
            np.stack([solo._parameters[name].data for solo in solos])))
    children = {}
    for name, child in first._modules.items():
        children[id(child)] = _clone([solo._modules[name] for solo in solos],
                                     f"{path}{name}.")
        clone.register_module(name, children[id(child)])
    skip = {"_parameters", "_modules", "training", *first._parameters,
            *first._modules, *getattr(twin, "_derived", ())}
    states = [vars(solo) for solo in solos]
    for name, value in states[0].items():
        if name in skip:
            continue
        if isinstance(value, list) and all(id(item) in children
                                           for item in value):
            value = [children[id(item)] for item in value]  # container items
        elif not (_is_plain(value) and [state.get(name) for state in states]
                  .count(value) == len(states)):
            raise TypeError(f"stack_lanes: {path}{name} "
                            f"({type(value).__name__}) has no lane form")
        object.__setattr__(clone, name, value)
    object.__setattr__(clone, "training", first.training)
    if hasattr(twin, "_adopt"):
        clone._adopt(solos, path.rstrip("."))
    return clone


def stack_lanes(models) -> Module:
    """Clone ``K`` solo models of one architecture into one lane model.

    The clone keeps the solo module tree and parameter names; each
    parameter becomes the ``(K, *shape)`` stack of the solo values (in the
    current default dtype, which must be the solos'), and lane ``k`` of
    every output and gradient equals solo ``k``'s bitwise.  The layers
    in ``_LANE_TWINS`` (``Linear``, dense ``GCNConv``/``ChebConv``,
    ``Dropout``, ``LayerNorm``, ``TemporalConv2d``, the ASTGCN
    attentions, ``MixHopPropagation``) become lane twins; every other
    module runs its own ``forward``, which must accept one extra leading
    lane axis.  Per-instance state with no lane form — an array, tensor or
    generator, or a plain value the solos disagree on — raises a
    ``TypeError`` naming the attribute.  The root records ``num_lanes``,
    which lets a :class:`~repro.models.base.Forecaster` take
    ``(K, samples, seq_len, V)`` input.
    """
    models = list(models)
    if not models:
        raise ValueError("stack_lanes needs at least one model")
    clone = _clone(models, "")
    clone.num_lanes = len(models)
    return clone


class LaneSelector:
    """Serve row subsets of one :func:`stack_lanes` model without restacking.

    Captures the model's full ``(K, ...)`` parameter stacks and the
    per-lane state its twins name in ``_derived``.  :meth:`select` rebinds
    each parameter to the fancy-indexed rows ``rows`` of its stack
    (repeats allowed), gathers the per-lane state's rows into per-selector
    buffers with ``np.take(..., out=)``, and returns the model, so lane
    ``j`` of its output is lane ``rows[j]`` of the full model's, bitwise:
    a taken row holds the values and strides of the ``np.stack`` row it
    came from, and no module is cloned or re-adopted.  The state a module
    sees is one cached leading-slice view per row count, so every
    selection of ``n`` rows hands the model's primitives the same operator
    objects, which a forward plan keyed by ``n`` binds
    (:class:`~repro.autodiff.trace.ForwardJIT`).  The model is rebound in
    place, so one selection is live at a time and the selector is the
    model's only user.
    """

    def __init__(self, lanes: Module):
        self.model = lanes
        self._parameters = [(param, param.data)
                            for param in lanes.parameters()]
        # A list attribute (ChebConv's basis) holds one stack per item.
        self._lane_state = [(module, name, vars(module)[name])
                            for module in lanes.modules()
                            for name in getattr(module, "_derived", ())
                            if name in vars(module)]
        self._stacks = [stack for _, _, value in self._lane_state
                        for stack in (value if isinstance(value, list)
                                      else [value])]
        self._capacity = 0
        self._buffers: list[np.ndarray] = []
        self._by_count: dict[int, tuple] = {}

    def _views(self, count: int) -> tuple:
        """``(fills, bindings)`` for ``count`` rows: the writable buffer
        slice each stack's rows go to, and each attribute's value."""
        cached = self._by_count.get(count)
        if cached is not None:
            return cached
        if count > self._capacity:
            # Earlier counts keep their views into the old buffers.
            self._capacity = max(count, 2 * self._capacity)
            self._buffers = [np.empty((self._capacity,) + stack.shape[1:],
                                      dtype=stack.dtype)
                             for stack in self._stacks]
        fills, views = [], []
        for stack, buffer in zip(self._stacks, self._buffers):
            fills.append((stack, buffer[:count]))
            views.append(buffer[:count])
            views[-1].setflags(write=stack.flags.writeable)
        seen = iter(views)
        bindings = [(module, name, [next(seen) for _ in value]
                     if isinstance(value, list) else next(seen))
                    for module, name, value in self._lane_state]
        cached = self._by_count[count] = (fills, bindings)
        return cached

    def select(self, rows) -> Module:
        rows = np.asarray(rows, dtype=np.intp)
        with no_grad():
            for param, stack in self._parameters:
                param.data = stack[rows]
        fills, bindings = self._views(len(rows))
        for stack, out in fills:
            np.take(stack, rows, axis=0, out=out)
        for module, name, value in bindings:
            object.__setattr__(module, name, value)
        self.model.num_lanes = len(rows)
        return self.model
