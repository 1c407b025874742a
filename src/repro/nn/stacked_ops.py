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
  matrix-vector product, and :func:`lane_scale` the broadcast multiply
  by a per-lane weight.

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
from .attention import SpatialAttention, TemporalAttention
from .conv import TemporalConv2d
from .dropout import Dropout
from .graph import ChebConv, GCNConv, MixHopPropagation
from .linear import Linear
from .module import Module, Parameter
from .normalization import LayerNorm

__all__ = ["BATCHED_LANES", "lane_matmul", "lane_matvec", "lane_bias_add",
           "lane_scale", "lane_affine", "lane_propagate", "lane_mix",
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


def lane_matmul(x: Tensor, wt: Tensor) -> Tensor:
    """Per-lane matmul ``out[k] = x[k] @ wt[k]`` over the leading lane axis.

    ``x`` is ``(K, ..., F_in)`` and ``wt`` is ``(K, F_in, F_out)`` —
    typically a fresh ``weight.swapaxes(-1, -2)`` node (see
    :func:`lane_affine`).  Forward and backward run the exact GEMMs of the
    solo ``(..., F_in) @ (F_in, F_out)`` matmul branch, once per lane —
    through one batched ``np.matmul`` when :data:`BATCHED_LANES` holds,
    through an explicit Python loop otherwise.
    """
    xd, wd = x.data, wt.data
    if xd.shape[0] != wd.shape[0]:
        raise ValueError(f"lane counts disagree: {xd.shape[0]} vs "
                         f"{wd.shape[0]}")
    if xd.shape[-1] != wd.shape[-2]:
        raise ValueError(f"lane_matmul got {xd.shape} @ {wd.shape}")
    lanes = xd.shape[0]
    in_f = xd.shape[-1]
    out_f = wd.shape[-1]
    lane_lead = xd.shape[1:-1]
    lane_shape = xd.shape[1:]
    out_shape = (lanes,) + lane_lead + (out_f,)
    if BATCHED_LANES:
        out = np.matmul(xd.reshape(lanes, -1, in_f), wd).reshape(out_shape)
    else:
        out = np.empty(out_shape, dtype=np.result_type(xd, wd))
        for k in range(lanes):
            out[k] = (xd[k].reshape(-1, in_f) @ wd[k]).reshape(
                *lane_lead, out_f)

    def lane_matmul_backward(grad: np.ndarray) -> None:
        grad2 = grad.reshape(lanes, -1, out_f)
        if x.requires_grad:
            if BATCHED_LANES:
                # wd.swapaxes is the strided view of the base weight rows,
                # exactly the layout the solo backward sees for b.T.
                gx = np.matmul(grad2, wd.swapaxes(-1, -2)).reshape(xd.shape)
            else:
                gx = np.empty(xd.shape, dtype=np.result_type(grad, wd))
                for k in range(lanes):
                    gx[k] = (grad2[k] @ wd[k].T).reshape(lane_shape)
            x._accumulate(gx)
        if wt.requires_grad:
            x2 = xd.reshape(lanes, -1, in_f)
            if BATCHED_LANES:
                gw = np.matmul(x2.swapaxes(-1, -2), grad2)
            else:
                gw = np.empty(wd.shape, dtype=np.result_type(xd, grad))
                for k in range(lanes):
                    gw[k] = x2[k].T @ grad2[k]
            wt._accumulate(gw)

    return Tensor._make(out, (x, wt), lane_matmul_backward)


def lane_matvec(x: Tensor, v: Tensor) -> Tensor:
    """Per-lane matrix-vector product ``out[k] = x[k] @ v[k]``.

    ``x`` is ``(K, ..., n)`` and ``v`` the stacked ``(K, n)`` parameter of
    a solo 1-D operand (the attention vectors of
    :class:`~repro.nn.SpatialAttention` / ``TemporalAttention``).  Forward
    and backward mirror ``Tensor.__matmul__``'s general branch for a 1-D
    second operand: one matrix-vector product per 2-D slice, then
    ``grad[..., None] * v`` for ``x`` and a full ``tensordot`` contraction
    of ``grad`` with ``x`` for ``v``, lane by lane.
    """
    xd, vd = x.data, v.data
    if vd.ndim != 2 or xd.ndim < 3 or xd.shape[0] != vd.shape[0] \
            or xd.shape[-1] != vd.shape[-1]:
        raise ValueError(f"lane_matvec got {xd.shape} @ {vd.shape}")
    lanes = xd.shape[0]
    if BATCHED_LANES:
        out = _batched_matvec(xd, vd)
    else:
        out = np.stack([xd[k] @ vd[k] for k in range(lanes)])

    def lane_matvec_backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad[..., None] * vd.reshape(
                (lanes,) + (1,) * (xd.ndim - 2) + (vd.shape[-1],)))
        if v.requires_grad:
            gv = np.empty(vd.shape, dtype=np.result_type(grad, xd))
            axes = list(range(grad.ndim - 1))
            for k in range(lanes):
                gv[k] = np.tensordot(grad[k], xd[k], axes=(axes, axes))
            v._accumulate(gv)

    return Tensor._make(out, (x, v), lane_matvec_backward)


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
    for the attention biases.  The bias gradient is accumulated here
    directly — per lane, ``grad[k].sum`` over every axis before the
    feature axes, which is precisely the ``_unbroadcast`` reduction the
    solo broadcast-add performs — so the bias leaf sees its per-use
    contributions at the same graph positions (and therefore in the same
    order) as solo.
    """
    xd, bd = x.data, bias.data
    lanes = xd.shape[0]
    out = xd + _lane_broadcast(xd, bd)
    reduce_axes = tuple(range(xd.ndim - bd.ndim))
    batched_axes = tuple(a + 1 for a in reduce_axes)

    def lane_bias_add_backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad)
        if bias.requires_grad:
            if BATCHED_LANES:
                gb = grad.sum(axis=batched_axes)
            else:
                gb = np.empty(bd.shape, dtype=grad.dtype)
                for k in range(lanes):
                    gb[k] = grad[k].sum(axis=reduce_axes)
            bias._accumulate(gb)

    return Tensor._make(out, (x, bias), lane_bias_add_backward)


def lane_scale(x: Tensor, weight: Tensor) -> Tensor:
    """Multiply ``x`` ``(K, ..., *F)`` by a per-lane weight ``(K, *F)``.

    Mirrors the solo broadcast multiply ``x * weight`` (``LayerNorm``'s
    affine scale): the weight gradient is ``grad * x`` reduced per lane
    over the axes the solo ``_unbroadcast`` sums.
    """
    xd, wd = x.data, weight.data
    view = _lane_broadcast(xd, wd)
    out = xd * view
    reduce_axes = tuple(range(xd.ndim - wd.ndim))

    def lane_scale_backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * view)
        if weight.requires_grad:
            product = grad * xd
            if BATCHED_LANES:
                gw = product.sum(axis=tuple(a + 1 for a in reduce_axes))
            else:
                gw = np.stack([product[k].sum(axis=reduce_axes)
                               for k in range(wd.shape[0])])
            weight._accumulate(gw)

    return Tensor._make(out, (x, weight), lane_scale_backward)


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


def _mixers(lanes: int, batch_shape: tuple[int, ...],
            contiguous: bool = True):
    """The solo ``(V, V) @ (..., V, C)`` flatten-to-one-GEMM product
    (``_mix``) and its lane-batched form over ``(K, V, V)`` stacks.

    ``contiguous=False`` returns the batched product as the solo's own
    ``moveaxis`` view, lane by lane, for consumers whose later reductions
    follow the operand's memory order.
    """

    def _mix(matrix: np.ndarray, operand: np.ndarray) -> np.ndarray:
        moved = np.moveaxis(operand, -2, 0).reshape(operand.shape[-2], -1)
        mixed = matrix @ moved
        mixed = mixed.reshape(matrix.shape[0], *batch_shape,
                              operand.shape[-1])
        return np.moveaxis(mixed, 0, -2)

    def _mix_batched(matrices: np.ndarray, operand: np.ndarray) -> np.ndarray:
        # moveaxis + C-order reshape copies element-for-element what the
        # per-lane _mix copies, so each 2-D GEMM sees identical operands;
        # ascontiguousarray rebuilds the solo output layout so downstream
        # reductions reduce in the same memory order.
        moved = np.moveaxis(operand, -2, 1).reshape(
            lanes, operand.shape[-2], -1)
        mixed = np.matmul(matrices, moved)
        mixed = mixed.reshape(lanes, matrices.shape[-2], *batch_shape,
                              operand.shape[-1])
        if not contiguous:
            return np.moveaxis(mixed, 1, -2)
        return np.ascontiguousarray(np.moveaxis(mixed, 1, -2))

    return _mix, _mix_batched


def _check_mix(operator: np.ndarray, xd: np.ndarray, name: str) -> None:
    if operator.ndim != 3 or operator.shape[0] != xd.shape[0]:
        raise ValueError(f"operator must be (K, V, V) matching x lanes, "
                         f"got {operator.shape} for x {xd.shape}")
    if xd.shape[-2] != operator.shape[-1]:
        raise ValueError(f"{name} got {operator.shape} @ {xd.shape}")


def _constant_operator(operator, name: str) -> np.ndarray:
    """The ``(K, V, V)`` operand of a lane propagation, as an array.

    A tensor that would need an operator gradient raises ``TypeError``
    instead of being silently detached: a learned ``(K, V, V)`` operator
    (MTGNN's graph, the ASTGCN attentions' ``vs``/``ve``) has no lane
    backward, which is what keeps those models' training solo.
    """
    if isinstance(operator, Tensor):
        if operator.requires_grad and is_grad_enabled():
            raise TypeError(
                f"{name}: the (K, V, V) operator requires grad; a learned "
                f"operator has no lane backward")
        operator = operator.data
    return operator


def lane_propagate(operator, x: Tensor) -> Tensor:
    """Per-lane graph propagation ``out[k] = operator[k] @ x[k]``.

    ``operator`` is a constant ``(K, V, V)`` stack (the solo layers'
    normalized operators, see :func:`stack_lanes`), or a tensor that
    needs no gradient, such as a served MTGNN's learned graphs; ``x`` is
    ``(K, ..., V, C)``.  Forward and backward mirror the solo ``(V, V) @
    (..., V, C)`` matmul branch (the ``_mix`` flatten-to-one-GEMM trick)
    once per lane; the operator is never differentiated (see
    :func:`_constant_operator`).
    """
    operator = _constant_operator(operator, "lane_propagate")
    xd = x.data
    _check_mix(operator, xd, "lane_propagate")
    lanes = xd.shape[0]
    out_shape = xd.shape[:-2] + (operator.shape[-2], xd.shape[-1])
    _mix, _mix_batched = _mixers(lanes, xd.shape[1:-2])

    if BATCHED_LANES:
        out = _mix_batched(operator, xd)
    else:
        out = np.empty(out_shape, dtype=np.result_type(operator, xd))
        for k in range(lanes):
            out[k] = _mix(operator[k], xd[k])

    def lane_propagate_backward(grad: np.ndarray) -> None:
        if BATCHED_LANES:
            gx = _mix_batched(operator.swapaxes(-1, -2), grad)
        else:
            gx = np.empty(xd.shape, dtype=np.result_type(operator, grad))
            for k in range(lanes):
                gx[k] = _mix(operator[k].T, grad[k])
        x._accumulate(gx)

    return Tensor._make(out, (x,), lane_propagate_backward)


def lane_mix(operator, x: Tensor) -> Tensor:
    """:func:`lane_propagate` that keeps the solo output layout.

    The solo ``_mix`` returns a ``moveaxis`` view of a C-contiguous ``(V,
    ..., C)`` block; the ASTGCN attentions' products keep that layout
    through their softmax into ``ChebConv``, whose per-sample BLAS calls
    see its strides, so lane ``k`` here is the same view of its own
    block.  Used for the attentions' ``vs``/``ve`` parameters, which, as
    learned operators, have no lane backward.
    """
    operator = _constant_operator(operator, "lane_mix")
    xd = x.data
    _check_mix(operator, xd, "lane_mix")
    lanes = xd.shape[0]
    _mix, _mix_batched = _mixers(lanes, xd.shape[1:-2], contiguous=False)

    def per_lane(matrices: np.ndarray, operand: np.ndarray) -> np.ndarray:
        mixed = np.stack([np.moveaxis(_mix(matrices[k], operand[k]), -2, 0)
                          for k in range(lanes)])
        return np.moveaxis(mixed, 1, -2)

    mix = _mix_batched if BATCHED_LANES else per_lane
    out = mix(operator, xd)

    def lane_mix_backward(grad: np.ndarray) -> None:
        x._accumulate(mix(operator.swapaxes(-1, -2), grad))

    return Tensor._make(out, (x,), lane_mix_backward)


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
        # (K, V, V) -> (K, 1, ..., V, V) against the (K, S, 1, V, V)
        # attention: the solo ``T_k * S_att`` products, lane by lane.
        operator = Tensor(basis.reshape(
            basis.shape[:1] + (1,) * (attention.ndim - 3) + basis.shape[1:]))
        return (operator * attention) @ x


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


def _take_rows(value, rows: np.ndarray):
    if isinstance(value, list):
        return [_take_rows(item, rows) for item in value]
    taken = value[rows]
    taken.setflags(write=value.flags.writeable)
    return taken


class LaneSelector:
    """Serve row subsets of one :func:`stack_lanes` model without restacking.

    Captures the model's full ``(K, ...)`` parameter stacks and the
    per-lane state its twins name in ``_derived``.  :meth:`select` rebinds
    the model to rows ``rows`` of them (repeats allowed) and returns it,
    so lane ``j`` of its output is lane ``rows[j]`` of the full model's,
    bitwise: a fancy-indexed row holds the values and strides of the
    ``np.stack`` row it was taken from, and no module is cloned or
    re-adopted.  The model is rebound in place, so one selection is live
    at a time and the selector is the model's only user.
    """

    def __init__(self, lanes: Module):
        self.model = lanes
        self._parameters = [(param, param.data)
                            for param in lanes.parameters()]
        self._lane_state = [(module, name, vars(module)[name])
                            for module in lanes.modules()
                            for name in getattr(module, "_derived", ())
                            if name in vars(module)]

    def select(self, rows) -> Module:
        rows = np.asarray(rows, dtype=np.intp)
        with no_grad():
            for param, stack in self._parameters:
                param.data = stack[rows]
        for module, name, stack in self._lane_state:
            object.__setattr__(module, name, _take_rows(stack, rows))
        self.model.num_lanes = len(rows)
        return self.model
