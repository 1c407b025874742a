"""Trace-capture JIT: record one epoch's tape, verify it, fuse it, replay it.

A full-batch fit executes the *same* op sequence every epoch — only the
numbers change.  The eager engine nevertheless pays per-epoch Python costs
proportional to graph size: one :class:`~repro.autodiff.tensor.Tensor`
allocation and graph-wiring call per op, a topological sort per backward,
and a fresh output array per intermediate.  This module removes all of
that for epochs 3..N:

* **Capture** (epoch 1): :func:`repro.autodiff.tensor.set_trace_hook`
  records every graph-wired tensor in creation order — the tape.
* **Verify** (epoch 2): a second capture is compared node-by-node against
  the first — op identity (the backward closure's *code object*, which is
  per definition site), output shapes and dtypes, scalar operands
  (recovered from closure free variables), parameter identities and
  constant classifications all must match.  Any difference marks the
  trace invalid and the fit stays eager.
* **Replay** (epochs 3..N): the verified tape is compiled into a flat
  list of argument-free closures over a pre-planned buffer arena — the
  verify epoch's own intermediate arrays, written in place with
  ``out=`` — covering forward, backward (in the exact reverse-topological
  order the eager walk would use) and the trainer tail (loss readout,
  ``after_backward`` hooks, ``optimizer.step``).  Runs of single-parent
  elementwise ops are fused into single multi-ufunc closures sharing one
  output buffer.

Bit-identity contract
---------------------
Every replayed call mirrors the eager op's exact numpy expression and
evaluation order, so a replayed epoch produces the same floats — bit for
bit — as its eager twin (asserted with ``==`` in ``tests/training``).
Grad accumulation order is preserved by simulating the eager DFS
topological sort at compile time and emitting each parent contribution at
the same position the eager ``_accumulate`` call would run.

Data versus structure
---------------------
Constant (non-grad) inputs are classified at verify time:

* same object both epochs → **stable external** (bound by reference; the
  stacked executor refreshes its lane mask in place through this channel);
* equal values, different objects → **stable snapshot** (bound once);
* annotated ``_trace_src = ("volatile", provider)`` → **volatile data**
  (dropout masks): the provider is re-invoked on every replay, advancing
  the same RNG stream the eager forward would;
* annotated ``_trace_src = ("derived", src, fn)`` → recomputed from the
  current value of ``src``'s buffer on every replay (softmax max-shift);
* different values, no annotation → **invalid** (e.g. huber's
  data-dependent ``where`` mask): the fit falls back to eager.

Replay is further guarded per epoch: parameter storage identity
(``p.data is <bound array>``) and the anomaly-mode flag are checked before
running the plan; a failed guard retraces (bounded budget) or disables.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter
from typing import Callable

import numpy as np

from .anomaly import is_anomaly_enabled
from . import tensor as _tensor_mod
from .tensor import Tensor, _unbroadcast
from ..analysis.hazards import reason as _reason

__all__ = ["EpochJIT", "TraceInvalid", "chain_reference"]


class TraceInvalid(Exception):
    """The captured tapes are not structurally identical / replayable."""


def _closure_vars(fn: Callable) -> dict:
    """Free variables (plus keyword-only defaults) of a backward closure."""
    cells = fn.__closure__ or ()
    out = dict(zip(fn.__code__.co_freevars,
                   (cell.cell_contents for cell in cells)))
    if fn.__kwdefaults__:
        out.update(fn.__kwdefaults__)
    return out


def _provider_key(p) -> tuple:
    """Comparable identity for a volatile-constant provider callable.

    ``functools.partial(self.method, ...)`` builds a fresh bound-method
    object on every access, so raw ``is`` comparison would reject two
    annotations of the same layer's draw method — unwrap to the underlying
    function + receiver instead.
    """
    if isinstance(p, functools.partial):
        return ("partial", _provider_key(p.func), p.args,
                tuple(sorted(p.keywords.items())))
    func = getattr(p, "__func__", None)
    if func is not None:  # bound method
        return ("method", id(func), id(p.__self__))
    return ("callable", id(p))


def _same_provider(p1, p2) -> bool:
    """Whether two volatile-constant providers are the same draw source."""
    if p1 is p2:
        return True
    try:
        return _provider_key(p1) == _provider_key(p2)
    except Exception:
        return False


# ----------------------------------------------------------------------
# Op rules
# ----------------------------------------------------------------------
class _Rule:
    """How one op (identified by its backward code object) is replayed."""

    __slots__ = ("name", "fuse", "signature", "verify", "forward", "backward")

    def __init__(self, name, forward, backward, signature=None, verify=None,
                 fuse=None):
        self.name = name
        self.fuse = fuse  # None | "interior" | "terminal"
        self.signature = signature or (lambda cv: ())
        self.verify = verify  # optional extra cross-epoch check
        self.forward = forward  # emit_forward(C, rec) -> None
        self.backward = backward  # emit_backward(C, rec) -> None


_RULES: dict | None = None  # backward code object -> _Rule


def _fw_view(C, rec):
    """View-producing op: the output tracks parent writes; no call."""


# -- forward emitters --------------------------------------------------
def _fw_unary(ufunc):
    def emit(C, rec):
        src, buf = C.pbuf(rec.parents[0]), rec.tensor._data
        C.add_call(rec, "forward", lambda: ufunc(src, out=buf))
    return emit


def _fw_binary(ufunc):
    def emit(C, rec):
        a, b = C.pbuf(rec.parents[0]), C.pbuf(rec.parents[1])
        buf = rec.tensor._data
        C.add_call(rec, "forward", lambda: ufunc(a, b, out=buf))
    return emit


def _fw_scalar(ufunc, key):
    def emit(C, rec):
        src, buf = C.pbuf(rec.parents[0]), rec.tensor._data
        s = rec.cv[key]
        C.add_call(rec, "forward", lambda: ufunc(src, s, out=buf))
    return emit


def _fw_sigmoid(C, rec):
    # Mirrors ``0.5 * (np.tanh(0.5 * x) + 1.0)`` as an in-place chain.
    src, buf = C.pbuf(rec.parents[0]), rec.tensor._data

    def call():
        np.multiply(src, 0.5, out=buf)
        np.tanh(buf, out=buf)
        np.add(buf, 1.0, out=buf)
        np.multiply(buf, 0.5, out=buf)
    C.add_call(rec, "forward", call)


def _fw_relu(C, rec):
    src, buf = C.pbuf(rec.parents[0]), rec.tensor._data
    mask = rec.aux.setdefault("mask", np.empty(src.shape, dtype=bool))

    def call():
        np.greater(src, 0, out=mask)
        # np.where(mask, x, 0.0) puts a literal +0.0 at masked-out
        # positions; fill-then-copyto reproduces that exactly (x * mask
        # would leak -0.0 where x is negative zero... or negative).
        np.copyto(buf, 0.0)
        np.copyto(buf, src, where=mask)
    C.add_call(rec, "forward", call)


def _fw_leaky(C, rec):
    src, buf = C.pbuf(rec.parents[0]), rec.tensor._data
    slope = rec.cv["negative_slope"]
    mask = rec.aux.setdefault("mask", np.empty(src.shape, dtype=bool))

    def call():
        np.greater(src, 0, out=mask)
        np.multiply(src, slope, out=buf)
        np.copyto(buf, src, where=mask)
    C.add_call(rec, "forward", call)


def _fw_abs(C, rec):
    src, buf = C.pbuf(rec.parents[0]), rec.tensor._data
    sign = rec.aux.setdefault("sign", np.empty_like(src))

    def call():
        np.sign(src, out=sign)
        np.absolute(src, out=buf)
    C.add_call(rec, "forward", call)


def _fw_pow(C, rec):
    src, buf = C.pbuf(rec.parents[0]), rec.tensor._data
    exponent = rec.cv["exponent"]
    # ``a ** 2`` dispatches numpy's fast scalar-power path (np.square),
    # not np.power — mirror the operator expression itself.
    C.add_call(rec, "forward", lambda: np.copyto(buf, src ** exponent))


def _fw_sum(C, rec):
    src, buf = C.pbuf(rec.parents[0]), rec.tensor._data
    axis, keepdims = rec.cv["axis"], rec.cv["keepdims"]
    C.add_call(rec, "forward",
               lambda: np.sum(src, axis=axis, keepdims=keepdims, out=buf))


def _fw_copy_eval(expr):
    """Forward that mirrors an allocating eager expression, then copies."""
    def emit(C, rec):
        buf = rec.tensor._data
        fn = expr(C, rec)
        C.add_call(rec, "forward", lambda: np.copyto(buf, fn()))
    return emit


def _fw_matmul_flat(C, rec):
    a, b = C.pbuf(rec.parents[0]), C.pbuf(rec.parents[1])
    buf = rec.tensor._data
    k, m = rec.cv["k"], rec.cv["m"]
    out2d = buf.reshape(-1, m)
    C.add_call(rec, "forward",
               lambda: np.matmul(a.reshape(-1, k), b, out=out2d))


def _fw_matmul_mix(C, rec):
    a, b = C.pbuf(rec.parents[0]), C.pbuf(rec.parents[1])
    buf = rec.tensor._data
    # The captured closures themselves: guaranteed mirror.
    mix, node_major = rec.cv["_mix"], rec.cv["_node_major"]
    C.add_call(rec, "forward", lambda: np.copyto(buf, mix(a, node_major(b))))


def _fw_matmul_general(C, rec):
    a, b = C.pbuf(rec.parents[0]), C.pbuf(rec.parents[1])
    buf = rec.tensor._data
    C.add_call(rec, "forward", lambda: np.matmul(a, b, out=buf))


def _fw_concat(C, rec):
    bufs = [C.pbuf(p) for p in rec.parents]
    axis, buf = rec.cv["axis"], rec.tensor._data
    C.add_call(rec, "forward",
               lambda: np.concatenate(bufs, axis=axis, out=buf))


def _fw_stack(C, rec):
    bufs = [C.pbuf(p) for p in rec.parents]
    axis, buf = rec.cv["axis"], rec.tensor._data
    C.add_call(rec, "forward", lambda: np.stack(bufs, axis=axis, out=buf))


def _fw_where(C, rec):
    a, b = C.pbuf(rec.parents[0]), C.pbuf(rec.parents[1])
    cond, buf = rec.cv["cond"], rec.tensor._data

    def call():
        np.copyto(buf, b)
        np.copyto(buf, a, where=cond)
    C.add_call(rec, "forward", call)


def _fw_lane_matmul(C, rec):
    from ..nn.stacked_ops import BATCHED_LANES
    xd, wd = C.pbuf(rec.parents[0]), C.pbuf(rec.parents[1])
    buf = rec.tensor._data
    lanes, in_f, out_f = rec.cv["lanes"], rec.cv["in_f"], rec.cv["out_f"]
    lane_lead = buf.shape[1:-1]
    if BATCHED_LANES:
        out3 = buf.reshape(lanes, -1, out_f)
        C.add_call(rec, "forward",
                   lambda: np.matmul(xd.reshape(lanes, -1, in_f), wd,
                                     out=out3))
    else:
        def call():
            for lane in range(lanes):
                buf[lane] = (xd[lane].reshape(-1, in_f) @ wd[lane]).reshape(
                    *lane_lead, out_f)
        C.add_call(rec, "forward", call)


def _fw_lane_bias_add(C, rec):
    xd, bd = C.pbuf(rec.parents[0]), C.pbuf(rec.parents[1])
    buf = rec.tensor._data
    lanes = rec.cv["lanes"]
    bview = bd.reshape((lanes,) + (1,) * (xd.ndim - bd.ndim) + bd.shape[1:])
    C.add_call(rec, "forward", lambda: np.add(xd, bview, out=buf))


def _fw_lane_propagate(C, rec):
    from ..nn.stacked_ops import BATCHED_LANES
    xd, buf = C.pbuf(rec.parents[0]), rec.tensor._data
    operator, lanes = rec.cv["operator"], rec.cv["lanes"]
    mix, mix_batched = rec.cv["_mix"], rec.cv["_mix_batched"]
    if BATCHED_LANES:
        C.add_call(rec, "forward",
                   lambda: np.copyto(buf, mix_batched(operator, xd)))
    else:
        def call():
            for lane in range(lanes):
                buf[lane] = mix(operator[lane], xd[lane])
        C.add_call(rec, "forward", call)


# -- backward emitters -------------------------------------------------
def _bw_add_scalar(C, rec):
    C.acc_array(rec, rec.parents[0], C.gbuf(rec))


def _bw_add_tensor(C, rec):
    g = C.gbuf(rec)
    for parent in rec.parents:
        if not C.takes_grad(parent):
            continue
        shape = C.pbuf(parent).shape
        if shape == g.shape:
            C.acc_array(rec, parent, g)
        else:
            C.acc_fn(rec, parent, lambda shape=shape: _unbroadcast(g, shape))


def _bw_neg(C, rec):
    g = C.gbuf(rec)
    C.acc_fn(rec, rec.parents[0], lambda: -g)


def _bw_mul_scalar(C, rec):
    g, s = C.gbuf(rec), rec.cv["other"]
    C.acc_fn(rec, rec.parents[0], lambda: g * s)


def _bw_mul_tensor(C, rec):
    g = C.gbuf(rec)
    a, b = C.pbuf(rec.parents[0]), C.pbuf(rec.parents[1])
    if C.takes_grad(rec.parents[0]):
        C.acc_fn(rec, rec.parents[0], lambda: _unbroadcast(g * b, a.shape))
    if C.takes_grad(rec.parents[1]):
        C.acc_fn(rec, rec.parents[1], lambda: _unbroadcast(g * a, b.shape))


def _bw_div_tensor(C, rec):
    g = C.gbuf(rec)
    a, b = C.pbuf(rec.parents[0]), C.pbuf(rec.parents[1])
    if C.takes_grad(rec.parents[0]):
        C.acc_fn(rec, rec.parents[0], lambda: _unbroadcast(g / b, a.shape))
    if C.takes_grad(rec.parents[1]):
        C.acc_fn(rec, rec.parents[1],
                 lambda: _unbroadcast(-g * a / (b ** 2), b.shape))


def _bw_pow(C, rec):
    g, src = C.gbuf(rec), C.pbuf(rec.parents[0])
    exponent = rec.cv["exponent"]
    C.acc_fn(rec, rec.parents[0],
             lambda: g * exponent * src ** (exponent - 1))


def _bw_exp(C, rec):
    g, out = C.gbuf(rec), rec.tensor._data
    C.acc_fn(rec, rec.parents[0], lambda: g * out)


def _bw_log(C, rec):
    g, src = C.gbuf(rec), C.pbuf(rec.parents[0])
    C.acc_fn(rec, rec.parents[0], lambda: g / src)


def _bw_sqrt(C, rec):
    g, out = C.gbuf(rec), rec.tensor._data
    C.acc_fn(rec, rec.parents[0], lambda: g * 0.5 / out)


def _bw_tanh(C, rec):
    g, out = C.gbuf(rec), rec.tensor._data
    C.acc_fn(rec, rec.parents[0], lambda: g * (1.0 - out ** 2))


def _bw_sigmoid(C, rec):
    g, out = C.gbuf(rec), rec.tensor._data
    C.acc_fn(rec, rec.parents[0], lambda: g * out * (1.0 - out))


def _bw_relu(C, rec):
    g, mask = C.gbuf(rec), rec.aux["mask"]
    C.acc_fn(rec, rec.parents[0], lambda: g * mask)


def _bw_leaky(C, rec):
    g, mask = C.gbuf(rec), rec.aux["mask"]
    slope = rec.cv["negative_slope"]
    C.acc_fn(rec, rec.parents[0],
             lambda: g * np.where(mask, 1.0, slope))


def _bw_abs(C, rec):
    g, sign = C.gbuf(rec), rec.aux["sign"]
    C.acc_fn(rec, rec.parents[0], lambda: g * sign)


def _bw_sum(C, rec):
    g = C.gbuf(rec)
    axis, keepdims = rec.cv["axis"], rec.cv["keepdims"]
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)  # persistent view of the grad buffer
    C.acc_array(rec, rec.parents[0], g)


def _bw_reshape(C, rec):
    # The grad buffer is our own C-contiguous allocation, so this is a view.
    C.acc_array(rec, rec.parents[0], C.gbuf(rec).reshape(rec.cv["in_shape"]))


def _bw_transpose(C, rec):
    C.acc_array(rec, rec.parents[0], C.gbuf(rec).transpose(rec.cv["inverse"]))


def _bw_getitem(C, rec):
    g, key = C.gbuf(rec), rec.cv["key"]
    in_shape = rec.cv["in_shape"]
    scratch = rec.aux.setdefault(
        "scatter", np.empty(in_shape, dtype=g.dtype))

    def fn():
        scratch[...] = 0.0
        scratch[key] += g
        return scratch
    C.acc_fn(rec, rec.parents[0], fn)


def _bw_matmul_flat(C, rec):
    a, b = C.pbuf(rec.parents[0]), C.pbuf(rec.parents[1])
    k, m = rec.cv["k"], rec.cv["m"]
    g2 = C.gbuf(rec).reshape(-1, m)
    if C.takes_grad(rec.parents[0]):
        C.acc_fn(rec, rec.parents[0], lambda: (g2 @ b.T).reshape(a.shape))
    if C.takes_grad(rec.parents[1]):
        C.acc_fn(rec, rec.parents[1], lambda: a.reshape(-1, k).T @ g2)


def _bw_matmul_mix(C, rec):
    a, b = C.pbuf(rec.parents[0]), C.pbuf(rec.parents[1])
    g = C.gbuf(rec)
    mix, node_major = rec.cv["_mix"], rec.cv["_node_major"]
    if C.takes_grad(rec.parents[0]):
        C.acc_fn(rec, rec.parents[0],
                 lambda: node_major(g) @ node_major(b).T)
    if C.takes_grad(rec.parents[1]):
        C.acc_fn(rec, rec.parents[1], lambda: mix(a.T, node_major(g)))


def _bw_matmul_general(C, rec):
    a, b = C.pbuf(rec.parents[0]), C.pbuf(rec.parents[1])
    g = C.gbuf(rec)
    if C.takes_grad(rec.parents[0]):
        C.acc_fn(rec, rec.parents[0],
                 lambda: _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape))
    if C.takes_grad(rec.parents[1]):
        C.acc_fn(rec, rec.parents[1],
                 lambda: _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape))


def _bw_concat(C, rec):
    g, axis = C.gbuf(rec), rec.cv["axis"]
    offsets = rec.cv["offsets"]
    for parent, start, stop in zip(rec.parents, offsets[:-1], offsets[1:]):
        if not C.takes_grad(parent):
            continue
        sl = [slice(None)] * g.ndim
        sl[axis] = slice(start, stop)
        C.acc_array(rec, parent, g[tuple(sl)])


def _bw_stack(C, rec):
    slabs = np.moveaxis(C.gbuf(rec), rec.cv["axis"], 0)
    for parent, slab in zip(rec.parents, slabs):
        if C.takes_grad(parent):
            C.acc_array(rec, parent, slab)


def _bw_where(C, rec):
    g, cond = C.gbuf(rec), rec.cv["cond"]
    a, b = C.pbuf(rec.parents[0]), C.pbuf(rec.parents[1])
    if C.takes_grad(rec.parents[0]):
        C.acc_fn(rec, rec.parents[0],
                 lambda: _unbroadcast(np.where(cond, g, 0.0), a.shape))
    if C.takes_grad(rec.parents[1]):
        C.acc_fn(rec, rec.parents[1],
                 lambda: _unbroadcast(np.where(cond, 0.0, g), b.shape))


def _bw_lane_matmul(C, rec):
    from ..nn.stacked_ops import BATCHED_LANES
    xd, wd = C.pbuf(rec.parents[0]), C.pbuf(rec.parents[1])
    lanes, in_f, out_f = rec.cv["lanes"], rec.cv["in_f"], rec.cv["out_f"]
    lane_shape = rec.cv["lane_shape"]
    g2 = C.gbuf(rec).reshape(lanes, -1, out_f)
    if C.takes_grad(rec.parents[0]):
        if BATCHED_LANES:
            C.acc_fn(rec, rec.parents[0],
                     lambda: np.matmul(g2, wd.swapaxes(-1, -2)).reshape(
                         xd.shape))
        else:
            def fn():
                gx = np.empty(xd.shape, dtype=np.result_type(g2, wd))
                for lane in range(lanes):
                    gx[lane] = (g2[lane] @ wd[lane].T).reshape(lane_shape)
                return gx
            C.acc_fn(rec, rec.parents[0], fn)
    if C.takes_grad(rec.parents[1]):
        if BATCHED_LANES:
            C.acc_fn(rec, rec.parents[1],
                     lambda: np.matmul(
                         xd.reshape(lanes, -1, in_f).swapaxes(-1, -2), g2))
        else:
            def fn():
                x2 = xd.reshape(lanes, -1, in_f)
                gw = np.empty(wd.shape, dtype=np.result_type(xd, g2))
                for lane in range(lanes):
                    gw[lane] = x2[lane].T @ g2[lane]
                return gw
            C.acc_fn(rec, rec.parents[1], fn)


def _bw_lane_bias_add(C, rec):
    from ..nn.stacked_ops import BATCHED_LANES
    g = C.gbuf(rec)
    bd = C.pbuf(rec.parents[1])
    lanes = rec.cv["lanes"]
    batched_axes, reduce_axes = rec.cv["batched_axes"], rec.cv["reduce_axes"]
    if C.takes_grad(rec.parents[0]):
        C.acc_array(rec, rec.parents[0], g)
    if C.takes_grad(rec.parents[1]):
        if BATCHED_LANES:
            C.acc_fn(rec, rec.parents[1], lambda: g.sum(axis=batched_axes))
        else:
            def fn():
                gb = np.empty(bd.shape, dtype=g.dtype)
                for lane in range(lanes):
                    gb[lane] = g[lane].sum(axis=reduce_axes)
                return gb
            C.acc_fn(rec, rec.parents[1], fn)


def _bw_lane_propagate(C, rec):
    from ..nn.stacked_ops import BATCHED_LANES
    g, xd = C.gbuf(rec), C.pbuf(rec.parents[0])
    operator, lanes = rec.cv["operator"], rec.cv["lanes"]
    mix, mix_batched = rec.cv["_mix"], rec.cv["_mix_batched"]
    if BATCHED_LANES:
        C.acc_fn(rec, rec.parents[0],
                 lambda: mix_batched(operator.swapaxes(-1, -2), g))
    else:
        def fn():
            gx = np.empty(xd.shape, dtype=np.result_type(operator, g))
            for lane in range(lanes):
                gx[lane] = mix(operator[lane].T, g[lane])
            return gx
        C.acc_fn(rec, rec.parents[0], fn)


def _verify_where(cv1, cv2):
    # The condition lives in the closure, not in the graph.  The same
    # array object both epochs is a deliberately persistent, externally
    # maintained mask (the stacked executor's lane-active mask) and is
    # bound live.  Different objects mean the mask is recomputed per
    # epoch from data (huber's |error| <= delta) — even if the two
    # captured epochs happened to agree, later epochs may not, so the
    # trace is invalid.
    if cv1["cond"] is not cv2["cond"]:
        raise TraceInvalid(_reason("where-data-dependent"))


def _verify_lane_propagate(cv1, cv2):
    op1, op2 = cv1["operator"], cv2["operator"]
    if op1 is not op2 and not np.array_equal(op1, op2):
        raise TraceInvalid(_reason("lane-propagate-changed"))


def _verify_getitem(cv1, cv2):
    if cv1["fancy"] or cv2["fancy"]:
        raise TraceInvalid(_reason("getitem-fancy"))


def _verify_matmul_general(cv1, cv2):
    # The eager general branch has dedicated vector formulas for 1-D
    # operands (tensordot contractions) that the replay mirror does not
    # reproduce; only the ndim >= 2 path is compiled.
    if cv2["a"].ndim < 2 or cv2["b"].ndim < 2:
        raise TraceInvalid(_reason("matmul-1d"))


def _sig_keys(*keys):
    def signature(cv):
        return tuple(repr(cv[key]) for key in keys)
    return signature


def _build_rules() -> dict:
    """Harvest backward code objects by running each supported op once.

    Backward closures share one code object per definition site, so
    executing every op on dummy operands and reading
    ``out._backward.__code__`` yields the exact dispatch keys — no
    name-string matching, and the three ``__matmul__`` branches resolve
    to three distinct rules.
    """
    rules: dict = {}
    saved_hook = _tensor_mod._TRACE_HOOK
    _tensor_mod.set_trace_hook(None)
    try:
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.full((2, 3), 2.0), requires_grad=True)

        def rule(out, *args, **kwargs):
            rules[out._backward.__code__] = _Rule(*args, **kwargs)

        rule(a + 1.5, "__add__", _fw_scalar(np.add, "_scalar"),
             _bw_add_scalar, signature=_sig_keys("_scalar"),
             fuse="interior")
        rule(a + b, "__add__", _fw_binary(np.add), _bw_add_tensor)
        rule(-a, "__neg__", _fw_unary(np.negative), _bw_neg,
             fuse="interior")
        rule(a * 1.5, "__mul__", _fw_scalar(np.multiply, "other"),
             _bw_mul_scalar, signature=_sig_keys("other"), fuse="interior")
        rule(a * b, "__mul__", _fw_binary(np.multiply), _bw_mul_tensor)
        rule(a / b, "__truediv__", _fw_binary(np.divide), _bw_div_tensor)
        rule(a ** 2, "__pow__", _fw_pow, _bw_pow,
             signature=_sig_keys("exponent"))
        rule(a.exp(), "exp", _fw_unary(np.exp), _bw_exp, fuse="terminal")
        rule(a.log(), "log", _fw_unary(np.log), _bw_log)
        rule(a.sqrt(), "sqrt", _fw_unary(np.sqrt), _bw_sqrt,
             fuse="terminal")
        rule(a.tanh(), "tanh", _fw_unary(np.tanh), _bw_tanh,
             fuse="terminal")
        rule(a.sigmoid(), "sigmoid", _fw_sigmoid, _bw_sigmoid,
             fuse="terminal")
        rule(a.relu(), "relu", _fw_relu, _bw_relu)
        rule(a.leaky_relu(), "leaky_relu", _fw_leaky, _bw_leaky,
             signature=_sig_keys("negative_slope"))
        rule(a.abs(), "abs", _fw_abs, _bw_abs)
        rule(a.sum(), "sum", _fw_sum, _bw_sum,
             signature=_sig_keys("axis", "keepdims"))
        rule(a.reshape(3, 2), "reshape", _fw_copy_eval(
            lambda C, rec: (lambda src=C.pbuf(rec.parents[0]),
                            shape=rec.tensor._data.shape:
                            src.reshape(shape))), _bw_reshape,
            signature=_sig_keys("in_shape"))
        rule(a.transpose(), "transpose", _fw_view, _bw_transpose,
             signature=_sig_keys("inverse"))
        rule(a[0:1], "__getitem__", _fw_copy_eval(
            lambda C, rec: (lambda src=C.pbuf(rec.parents[0]),
                            key=rec.cv["key"]: src[key])), _bw_getitem,
            signature=_sig_keys("key"), verify=_verify_getitem)
        m3 = Tensor(np.ones((2, 2, 3)), requires_grad=True)
        m2 = Tensor(np.ones((3, 4)), requires_grad=True)
        rule(m3 @ m2, "__matmul__", _fw_matmul_flat, _bw_matmul_flat)
        sq = Tensor(np.ones((2, 2)), requires_grad=True)
        bat = Tensor(np.ones((3, 2, 4)), requires_grad=True)
        rule(sq @ bat, "__matmul__", _fw_matmul_mix, _bw_matmul_mix)
        g2 = Tensor(np.ones((3, 3)), requires_grad=True)
        rule(g2 @ g2, "__matmul__", _fw_matmul_general, _bw_matmul_general,
             verify=_verify_matmul_general)
        from .tensor import concat, stack, where
        rule(concat([a, b], axis=0), "concat", _fw_concat, _bw_concat,
             signature=lambda cv: (cv["axis"], tuple(cv["offsets"])))
        rule(stack([a, b], axis=0), "stack", _fw_stack, _bw_stack,
             signature=_sig_keys("axis"))
        rule(where(np.ones((2, 3), dtype=bool), a, b), "where", _fw_where,
             _bw_where, verify=_verify_where)
        try:
            from ..nn.stacked_ops import (lane_bias_add, lane_matmul,
                                          lane_propagate)
        except ImportError:  # pragma: no cover - nn layer always present
            pass
        else:
            lx = Tensor(np.ones((2, 3, 4)), requires_grad=True)
            lw = Tensor(np.ones((2, 4, 5)), requires_grad=True)
            lb = Tensor(np.ones((2, 4)), requires_grad=True)
            rule(lane_matmul(lx, lw), "lane_matmul", _fw_lane_matmul,
                 _bw_lane_matmul)
            rule(lane_bias_add(lx, lb), "lane_bias_add", _fw_lane_bias_add,
                 _bw_lane_bias_add)
            rule(lane_propagate(np.ones((2, 3, 3)), lx), "lane_propagate",
                 _fw_lane_propagate, _bw_lane_propagate,
                 verify=_verify_lane_propagate)
    finally:
        _tensor_mod.set_trace_hook(saved_hook)
    return rules


def _rules() -> dict:
    global _RULES
    if _RULES is None:
        _RULES = _build_rules()
    return _RULES


# ----------------------------------------------------------------------
# Fused elementwise chains
# ----------------------------------------------------------------------
#: forward step: fn(src, dst) writing dst in place; backward transform:
#: fn(g, s1, s2, out) -> ndarray (the transformed gradient).
def _chain_ops(name, scalar, out_buf):
    if name == "__neg__":
        return ((lambda x, d: np.negative(x, out=d)),
                (lambda g, s1, s2: np.negative(g, out=s1)))
    if name == "__add__":
        return ((lambda x, d, s=scalar: np.add(x, s, out=d)),
                (lambda g, s1, s2: g))  # d/dx (x + c) = 1
    if name == "__mul__":
        def bw(g, s1, s2, s=scalar):
            return np.multiply(g, s, out=s1)
        return (lambda x, d, s=scalar: np.multiply(x, s, out=d)), bw
    if name == "tanh":
        def bw(g, s1, s2, out=out_buf):
            np.square(out, out=s1)          # out ** 2 (fast scalar power)
            np.subtract(1.0, s1, out=s1)
            return np.multiply(g, s1, out=s1)
        return (lambda x, d: np.tanh(x, out=d)), bw
    if name == "sigmoid":
        def fw(x, d):
            np.multiply(x, 0.5, out=d)
            np.tanh(d, out=d)
            np.add(d, 1.0, out=d)
            np.multiply(d, 0.5, out=d)

        def bw(g, s1, s2, out=out_buf):
            np.multiply(g, out, out=s1)     # (grad * out) ...
            np.subtract(1.0, out, out=s2)
            return np.multiply(s1, s2, out=s1)  # ... * (1 - out)
        return fw, bw
    if name == "exp":
        def bw(g, s1, s2, out=out_buf):
            return np.multiply(g, out, out=s1)
        return (lambda x, d: np.exp(x, out=d)), bw
    if name == "sqrt":
        def bw(g, s1, s2, out=out_buf):
            np.multiply(g, 0.5, out=s1)
            return np.divide(s1, out, out=s1)
        return (lambda x, d: np.sqrt(x, out=d)), bw
    raise AssertionError(f"unknown chain op {name!r}")


def _chain_scalar(rec):
    if rec.rule.name == "__add__":
        return rec.cv["_scalar"]
    if rec.rule.name == "__mul__":
        return rec.cv["other"]
    return None


def chain_reference(ops) -> Callable[[Tensor], Tensor]:
    """Eager function applying a fused chain's op sequence (for gradcheck).

    ``ops`` is the ``(name, scalar)`` sequence from a compiled plan's
    ``fused_chains`` metadata; the returned callable rebuilds the same
    composition through the ordinary eager engine.
    """
    def apply(x: Tensor) -> Tensor:
        for name, scalar in ops:
            if name == "__neg__":
                x = -x
            elif name == "__add__":
                x = x + scalar
            elif name == "__mul__":
                x = x * scalar
            else:
                x = getattr(x, name)()
        return x
    return apply


# ----------------------------------------------------------------------
# Verification: structural identity of two captured tapes
# ----------------------------------------------------------------------
class _Record:
    """One tape node prepared for compilation (bound to epoch-2 storage)."""

    __slots__ = ("tensor", "rule", "cv", "parents", "gbuf", "aux")

    def __init__(self, tensor, rule, cv, parents):
        self.tensor = tensor
        self.rule = rule
        self.cv = cv
        self.parents = parents  # list of spec tuples
        self.gbuf = None
        self.aux = {}


def _classify_constant(t1, t2) -> tuple:
    src1 = getattr(t1, "_trace_src", None)
    src2 = getattr(t2, "_trace_src", None)
    if (src1 is None) != (src2 is None) or \
            (src1 is not None and src1[0] != src2[0]):
        raise TraceInvalid(_reason("const-annotation-changed"))
    if src1 is not None and src1[0] == "volatile":
        if not _same_provider(src1[1], src2[1]):
            raise TraceInvalid(_reason("const-provider-changed"))
        return ("volatile", t2, src2[1])
    if src1 is not None and src1[0] == "derived":
        return ("derived", t2, src2[1], src2[2])
    if t1 is t2:
        # Persistent external tensor (inputs, adjacency): bound live and
        # guarded per replay, so a ``.data`` rebind forces a retrace.
        return ("const", t2, True)
    if t1.data.dtype == t2.data.dtype and np.array_equal(t1.data, t2.data):
        return ("const", t2, False)  # stable snapshot (equal both epochs)
    raise TraceInvalid(_reason("const-value-changed"))


def _verify(tape1, tape2, root1, root2, watch1, watch2) -> list:
    """Match two captured tapes node-by-node; return compile-ready records.

    Raises :class:`TraceInvalid` on the first structural difference: op
    code object, output shape/dtype, scalar operands, parent wiring,
    parameter identity or constant classification.
    """
    if len(tape1) != len(tape2):
        raise TraceInvalid(_reason("op-count-changed",
                                   n1=len(tape1), n2=len(tape2)))
    if not tape2:
        raise TraceInvalid(_reason("empty-tape"))
    rules = _rules()
    idx1 = {id(t): i for i, t in enumerate(tape1)}
    idx2 = {id(t): i for i, t in enumerate(tape2)}
    if idx1.get(id(root1)) != idx2.get(id(root2)) or id(root2) not in idx2:
        raise TraceInvalid(_reason("root-moved"))
    for name in watch2:
        if idx1.get(id(watch1[name])) != idx2.get(id(watch2[name])):
            raise TraceInvalid(_reason("watch-moved", name=name))
    records: list[_Record] = []
    for i, (t1, t2) in enumerate(zip(tape1, tape2)):
        code = t2._backward.__code__
        if t1._backward.__code__ is not code:
            raise TraceInvalid(_reason(
                "op-changed", i=i, q1=t1._backward.__qualname__,
                q2=t2._backward.__qualname__))
        rule = rules.get(code)
        if rule is None:
            raise TraceInvalid(_reason(
                "op-unsupported", i=i,
                op=t2._backward.__qualname__.split('.<locals>')[0]))
        if t1.shape != t2.shape or t1.dtype != t2.dtype:
            raise TraceInvalid(_reason(
                "shape-changed", i=i, op=rule.name,
                before=f"{t1.shape}/{t1.dtype}",
                after=f"{t2.shape}/{t2.dtype}"))
        cv1, cv2 = _closure_vars(t1._backward), _closure_vars(t2._backward)
        try:
            if rule.signature(cv1) != rule.signature(cv2):
                raise TraceInvalid(_reason(
                    "scalar-operands-changed", i=i, op=rule.name))
        except TraceInvalid:
            raise
        except Exception as error:
            raise TraceInvalid(_reason(
                "signature-unreadable", i=i, op=rule.name,
                error=error)) from error
        if rule.verify is not None:
            rule.verify(cv1, cv2)
        if len(t1._parents) != len(t2._parents):
            raise TraceInvalid(_reason("arity-changed", i=i, op=rule.name))
        specs = []
        for p1, p2 in zip(t1._parents, t2._parents):
            if p1.requires_grad != p2.requires_grad:
                raise TraceInvalid(_reason("requires-grad-flipped", i=i))
            wired1, wired2 = p1._backward is not None, p2._backward is not None
            if wired1 != wired2:
                raise TraceInvalid(_reason("wiring-changed", i=i))
            if wired2:
                j1, j2 = idx1.get(id(p1)), idx2.get(id(p2))
                if j2 is None or j1 != j2:
                    raise TraceInvalid(_reason(
                        "graph-extends-beyond-epoch", i=i, op=rule.name))
                specs.append(("node", j2))
            elif p2.requires_grad:
                if p1 is not p2:
                    raise TraceInvalid(_reason(
                        "param-identity-changed", i=i, op=rule.name))
                specs.append(("param", p2))
            else:
                specs.append(_classify_constant(p1, p2))
        records.append(_Record(t2, rule, cv2, specs))
    return records


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
class _LeafGrad:
    """Per-replay gradient holder for one parameter leaf.

    Eager leaf accumulation allocates with ``np.array(grad, copy=True)``
    (order ``'K'``), so the copy inherits the incoming view's memory
    layout — a transposed weight-grad view yields an F-contiguous array,
    and downstream *reductions* over it (the grad-clip norm's
    ``sum(g**2)``) reduce in that layout's order.  Replay must mirror
    that allocation per epoch rather than reuse a C-contiguous arena
    buffer, or the recorded grad norms drift by an ulp.
    """

    __slots__ = ("leaf", "g")

    def __init__(self, leaf):
        self.leaf = leaf
        self.g = None


class _Plan:
    """A compiled epoch: flat call list over a persistent buffer arena."""

    __slots__ = ("calls", "meta", "tail", "root_buf", "watch_bufs",
                 "param_grads", "guards", "fused_chains", "replays",
                 "_records")

    def __init__(self):
        self.calls: list[Callable[[], None]] = []
        self.meta: list[tuple] = []  # (name, phase, nbytes) per call
        self.tail: tuple = ()
        self.root_buf: np.ndarray | None = None
        self.watch_bufs: dict[str, np.ndarray] = {}
        self.param_grads: list[tuple] = []  # (leaf tensor, grad buffer)
        self.guards: list[tuple] = []       # (tensor, bound data array)
        self.fused_chains: list[dict] = []
        self.replays = 0
        self._records: list = []  # keeps the arena (epoch-2 graph) alive

    def guards_ok(self) -> bool:
        for owner, bound in self.guards:
            if owner._data is not bound:
                return False
        return True

    def run(self) -> None:
        prof = _active_profiler()
        if prof is None:
            for call in self.calls:
                call()
        else:
            # One clock read per call boundary: each span absorbs the
            # bookkeeping of the previous one, so the whole loop's
            # wall-clock is attributed (see Profiler._add_span).
            add_span = prof._add_span
            clock = perf_counter
            prev = clock()
            for call, (name, phase, nbytes) in zip(self.calls, self.meta):
                call()
                now = clock()
                add_span("op", name, phase, prev, now - prev, nbytes)
                prev = now
        for call in self.tail:
            call()
        self.replays += 1


_PROFILER_LOOKUP: Callable | None = None


def _active_profiler():
    global _PROFILER_LOOKUP
    if _PROFILER_LOOKUP is None:
        try:
            from ..profiling.profiler import active_profiler
        except ImportError:  # pragma: no cover - profiling ships with repro
            def active_profiler():
                return None
        _PROFILER_LOOKUP = active_profiler
    return _PROFILER_LOOKUP()


class _Compiler:
    """Turns verified records into a :class:`_Plan`.

    The buffer arena is the verify epoch's own arrays: node outputs are
    written in place (``out=``), so view-producing ops (transpose, basic
    slicing, aliasing reshape) need no replay step at all — their epoch-2
    views track the parent writes automatically — and every array bound
    inside the captured backward closures (e.g. ``b`` in matmul) stays
    valid because it *is* the arena buffer.
    """

    def __init__(self, records, root_index, watch):
        self.records: list[_Record] = records
        self.root_index = root_index
        self.watch = watch
        self.plan = _Plan()
        self.plan._records = records
        self._written: set[int] = set()     # id(grad buffer) already stored
        self._param_gbufs: dict[int, np.ndarray] = {}
        self._guarded: set[int] = set()
        self._refilled: set[int] = set()
        self._phase = "forward"
        self._current_name = ""

    # -- emission helpers (called by the op rules) ---------------------
    def add_call(self, rec, phase, call) -> None:
        self.plan.calls.append(call)
        nbytes = rec.tensor._data.nbytes if phase == "forward" else \
            (rec.gbuf.nbytes if rec.gbuf is not None else 0)
        self.plan.meta.append((self._current_name or rec.rule.name,
                               phase, nbytes))

    def pbuf(self, spec) -> np.ndarray:
        kind = spec[0]
        if kind == "node":
            return self.records[spec[1]].tensor._data
        if kind == "param" or (kind == "const" and spec[2]):
            self._guard(spec[1])
        return spec[1]._data  # param / const / volatile / derived

    def takes_grad(self, spec) -> bool:
        return spec[0] in ("node", "param")

    def gbuf(self, rec) -> np.ndarray:
        if rec.gbuf is None:
            rec.gbuf = np.empty(rec.tensor.shape,
                                dtype=rec.tensor._data.dtype)
        return rec.gbuf

    def _grad_target(self, spec):
        if spec[0] == "node":
            return self.gbuf(self.records[spec[1]])
        leaf = spec[1]
        cell = self._param_gbufs.get(id(leaf))
        if cell is None:
            cell = _LeafGrad(leaf)
            self._param_gbufs[id(leaf)] = cell
            self.plan.param_grads.append(cell)
            self._guard(leaf)
        return cell

    def _guard(self, leaf) -> None:
        if id(leaf) not in self._guarded:
            self._guarded.add(id(leaf))
            self.plan.guards.append((leaf, leaf._data))

    def _emit_acc(self, rec, spec, produce) -> None:
        """Emit one gradient contribution, mirroring ``_accumulate``.

        ``produce()`` evaluates to the contribution array (it may be a
        bound array/view, evaluated lazily only for uniformity).  Node
        grads live in persistent arena buffers (store on the first
        emitted write, ``+=`` after); parameter leaves re-run the eager
        owned-copy allocation per replay (see :class:`_LeafGrad`).
        """
        dst = self._grad_target(spec)
        first = id(dst) not in self._written
        self._written.add(id(dst))
        if isinstance(dst, _LeafGrad):
            dtype = dst.leaf._data.dtype
            if first:
                def call():
                    dst.g = np.array(produce(), dtype=dtype, copy=True)
            else:
                def call():
                    dst.g += produce()
        elif first:
            def call():
                np.copyto(dst, produce())
        else:
            def call():
                np.add(dst, produce(), out=dst)
        self.add_call(rec, "backward", call)

    def acc_array(self, rec, spec, src) -> None:
        """Accumulate a precomputed array/view (may broadcast) into a grad."""
        self._emit_acc(rec, spec, lambda: src)

    def acc_fn(self, rec, spec, fn) -> None:
        """Accumulate the result of ``fn()`` (mirrors an eager expression)."""
        self._emit_acc(rec, spec, fn)

    # -- graph analysis ------------------------------------------------
    def _topo(self) -> list[Tensor]:
        """The eager DFS reverse-topological order, simulated exactly."""
        root = self.records[self.root_index].tensor
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

    def compile(self) -> _Plan:
        records = self.records
        index = {id(rec.tensor): i for i, rec in enumerate(records)}
        topo = self._topo()
        reachable = {index[id(t)] for t in topo if id(t) in index}

        # Consumer map over replayed nodes (plus derived-constant reads
        # and watch/root pins, which force materialization).
        consumers: dict[int, list[int]] = {i: [] for i in reachable}
        pinned: set[int] = {self.root_index}
        for name, t in self.watch.items():
            j = index.get(id(t))
            if j is None:
                raise TraceInvalid(_reason("watch-not-captured", name=name))
            pinned.add(j)
        for i in reachable:
            for spec in records[i].parents:
                if spec[0] == "node" and spec[1] in reachable:
                    consumers[spec[1]].append(i)
                elif spec[0] == "derived":
                    src = spec[2]
                    j = index.get(id(src))
                    if j is not None:
                        pinned.add(j)

        chains = self._find_chains(reachable, consumers, pinned)
        interior: set[int] = set()
        chain_at_last: dict[int, list[int]] = {}
        chain_at_first: dict[int, list[int]] = {}
        for members in chains:
            interior.update(members[:-1])
            chain_at_last[members[-1]] = members
            chain_at_first[members[0]] = members

        # ---- forward pass (tape order) -------------------------------
        for i, rec in enumerate(records):
            # Volatile/derived refills advance data streams (dropout RNG)
            # exactly once per consumer tensor, in forward order — even
            # ahead of dead nodes, so replay consumes the same random
            # numbers the eager epoch would.
            for spec in rec.parents:
                self._maybe_refill(rec, spec, index)
            if i not in reachable or i in interior:
                continue
            members = chain_at_last.get(i)
            self._current_name = rec.rule.name
            if members is not None and len(members) > 1:
                self._emit_chain_forward(members)
            elif not self._is_view(rec):
                rec.rule.forward(self, rec)
            self._current_name = ""

        # ---- backward pass (exact eager order) -----------------------
        root = records[self.root_index]
        seed = np.ones_like(root.tensor._data)
        root.gbuf = seed
        self._written.add(id(seed))
        self.plan.root_buf = root.tensor._data
        for t in reversed(topo):
            i = index.get(id(t))
            if i is None:
                continue  # leaf (parameter / input)
            rec = records[i]
            members = chain_at_first.get(i)
            if members is not None and len(members) > 1:
                self._current_name = "fused[" + "+".join(
                    records[j].rule.name for j in members) + "]"
                self._emit_chain_backward(members)
                self._current_name = ""
                continue
            if i in interior or (i in chain_at_last
                                 and len(chain_at_last[i]) > 1):
                continue  # handled at the chain's first-member position
            self._current_name = rec.rule.name
            rec.rule.backward(self, rec)
            self._current_name = ""

        # Expose gradients on the parameter leaves exactly as the eager
        # walk leaves them: owned, persistent arrays.
        param_grads = self.plan.param_grads

        def bind_grads():
            for cell in param_grads:
                cell.leaf.grad = cell.g
                cell.leaf._grad_owned = True
        self.plan.calls.append(bind_grads)
        self.plan.meta.append(("bind_grads", "backward", 0))

        for name, t in self.watch.items():
            self.plan.watch_bufs[name] = t._data
        return self.plan

    # -- pieces --------------------------------------------------------
    def _is_view(self, rec) -> bool:
        out = rec.tensor._data
        if out.base is None or not rec.parents:
            return False
        # pbuf (not raw access) so a parameter/persistent-constant parent
        # gets its storage-identity guard even when no call is emitted.
        return np.shares_memory(out, self.pbuf(rec.parents[0]))

    def _maybe_refill(self, rec, spec, index) -> None:
        kind = spec[0]
        if kind not in ("volatile", "derived") or \
                id(spec[1]) in self._refilled:
            return
        self._refilled.add(id(spec[1]))
        buf = spec[1]._data
        if kind == "volatile":
            provider = spec[2]
            self.add_call(rec, "forward",
                          lambda: np.copyto(buf, provider()))
            return
        src, fn = spec[2], spec[3]
        j = index.get(id(src))
        if j is not None:
            src_buf = self.records[j].tensor._data
        elif src._backward is None:
            self._guard(src)
            src_buf = src._data
        else:
            raise TraceInvalid(_reason("derived-source-outside"))
        self.add_call(rec, "forward", lambda: np.copyto(buf, fn(src_buf)))

    def _find_chains(self, reachable, consumers, pinned) -> list[list[int]]:
        """Maximal runs of fusible single-parent elementwise ops."""
        records = self.records
        in_chain: set[int] = set()
        chains: list[list[int]] = []

        def chainable(i) -> bool:
            rec = records[i]
            return rec.rule.fuse is not None and len(rec.parents) == 1

        for i in sorted(reachable):
            if i in in_chain or not chainable(i):
                continue
            members = [i]
            cur = i
            while (records[cur].rule.fuse == "interior"
                   and cur not in pinned
                   and len(consumers[cur]) == 1):
                nxt = consumers[cur][0]
                if nxt in in_chain or not chainable(nxt):
                    break
                if records[nxt].parents[0] != ("node", cur):
                    break
                members.append(nxt)
                cur = nxt
            if len(members) > 1:
                chains.append(members)
                in_chain.update(members)
        return chains

    def _chain_descr(self, members) -> list[tuple]:
        return [(self.records[j].rule.name, _chain_scalar(self.records[j]))
                for j in members]

    def _emit_chain_forward(self, members) -> None:
        records = self.records
        last = records[members[-1]]
        dst = last.tensor._data
        src = self.pbuf(records[members[0]].parents[0])
        ops = self._chain_descr(members)
        steps = [_chain_ops(name, scalar, dst)[0] for name, scalar in ops]
        first = steps[0]
        rest = steps[1:]

        def call():
            first(src, dst)
            for step in rest:
                step(dst, dst)
        self._current_name = "fused[" + "+".join(n for n, _ in ops) + "]"
        self.add_call(last, "forward", call)
        self.plan.fused_chains.append({
            "ops": ops,
            "shape": last.tensor.shape,
            "dtype": str(last.tensor._data.dtype),
        })

    def _emit_chain_backward(self, members) -> None:
        records = self.records
        last = records[members[-1]]
        first = records[members[0]]
        g = self.gbuf(last)
        s1 = np.empty_like(last.tensor._data)
        s2 = np.empty_like(last.tensor._data)
        transforms = []
        for j in reversed(members):
            rec = records[j]
            transforms.append(_chain_ops(
                rec.rule.name, _chain_scalar(rec), rec.tensor._data)[1])

        def fn():
            cur = g
            for transform in transforms:
                cur = transform(cur, s1, s2)
            return cur
        self.acc_fn(last, first.parents[0], fn)


# ----------------------------------------------------------------------
# The per-fit state machine
# ----------------------------------------------------------------------
class EpochJIT:
    """Capture → verify → replay controller for one fit's epoch loop.

    Usage (see :meth:`repro.training.trainer.Trainer.fit`)::

        jit = EpochJIT(tail=[set_loss, *hooks, step])
        for epoch in ...:
            if jit.replay():
                continue               # epoch ran from the compiled plan
            with jit.capture():        # no-op once disabled
                loss = forward(); loss.backward()
            jit.seal(loss)
            ... eager hooks / step ...

    ``tail`` closures are appended to the flat call list of every replay
    (loss readout, ``after_backward`` hooks, ``optimizer.step``), so a
    replayed epoch is one :meth:`_Plan.run` call.  Replay guard failures
    (parameter storage rebound) trigger a bounded number of retraces;
    structural verification failures disable the JIT for the rest of the
    fit (``disabled_reason`` says why).  An active anomaly mode skips
    replay for that epoch without burning a retrace — the sanitizer needs
    the eager graph.
    """

    def __init__(self, tail=(), max_retraces: int = 2):
        self._tail = tuple(tail)
        self._state = "capture1"
        self._retraces_left = max_retraces
        self._tape1: list[Tensor] | None = None
        self._root1: Tensor | None = None
        self._watch1: dict | None = None
        self._nodes: list[Tensor] = []
        self.plan: _Plan | None = None
        self.disabled_reason: str | None = None
        self.retrace_count = 0
        self.total_replays = 0

    # -- state ---------------------------------------------------------
    @property
    def ready(self) -> bool:
        return self._state == "ready"

    @property
    def wants_capture(self) -> bool:
        return self._state in ("capture1", "capture2")

    @property
    def off(self) -> bool:
        return self._state == "off"

    def _disable(self, reason: str) -> None:
        self._state = "off"
        self.disabled_reason = reason
        self._tape1 = self._root1 = self._watch1 = None
        self.plan = None

    def _invalidate(self, reason: str) -> None:
        """Guard failure: retrace if budget remains, else go eager for good."""
        self.plan = None
        self._tape1 = self._root1 = self._watch1 = None
        if self._retraces_left > 0:
            self._retraces_left -= 1
            self.retrace_count += 1
            self._state = "capture1"
        else:
            self._disable(f"{reason} (retrace budget exhausted)")

    # -- capture -------------------------------------------------------
    @contextlib.contextmanager
    def capture(self):
        """Record every graph-wired tensor created inside the block."""
        if not self.wants_capture or is_anomaly_enabled():
            # Anomaly mode rebuilds graphs with trace frames — capture
            # under it would freeze sanitizer bookkeeping into the plan.
            yield
            return
        self._nodes = []
        previous = _tensor_mod._TRACE_HOOK
        _tensor_mod.set_trace_hook(self._nodes.append)
        try:
            yield
        finally:
            _tensor_mod.set_trace_hook(previous)

    def seal(self, root: Tensor, watch: dict | None = None) -> None:
        """Finish a captured epoch; compiles after the second capture."""
        if not self.wants_capture:
            return
        if is_anomaly_enabled():
            return  # nothing was captured this epoch; try again next epoch
        nodes, self._nodes = self._nodes, []
        watch = dict(watch or {})
        if self._state == "capture1":
            self._tape1, self._root1, self._watch1 = nodes, root, watch
            self._state = "capture2"
            return
        # Verify+compile is the JIT's one-time cost; meter it so a profiled
        # fit attributes the capture epochs' overhead to a named span.
        prof = _active_profiler()
        start = prof._begin() if prof is not None else 0.0
        try:
            records = _verify(self._tape1, nodes, self._root1, root,
                              self._watch1, watch)
            root_index = next(i for i, rec in enumerate(records)
                              if rec.tensor is root)
            self.plan = _Compiler(records, root_index, watch).compile()
            self.plan.tail = self._tail
        except TraceInvalid as invalid:
            self._disable(str(invalid))
        else:
            self._state = "ready"
        finally:
            self._tape1 = self._root1 = self._watch1 = None
            if prof is not None:
                prof._end("autodiff", "trace.compile", "compile", start, 0)

    # -- replay --------------------------------------------------------
    def replay(self) -> bool:
        """Run one epoch from the plan; False means "run this epoch eager"."""
        if self._state != "ready":
            return False
        if is_anomaly_enabled():
            return False  # stay ready; replay resumes when the mode exits
        if not self.plan.guards_ok():
            self._invalidate(_reason("param-storage-rebound"))
            return False
        self.plan.run()
        self.total_replays += 1
        return True

    # -- results -------------------------------------------------------
    def loss_value(self) -> float:
        return float(self.plan.root_buf)

    def value(self, name: str) -> np.ndarray:
        """Current contents of a watched tensor's arena buffer."""
        return self.plan.watch_bufs[name]
