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
  the first — the node's :class:`~repro.autodiff.primitive.Primitive`
  (by identity), output shapes and dtypes, the primitive's static fields
  (scalars, axes, keys, shapes), parameter identities and constant
  classifications all must match.  Any difference marks the trace
  invalid and the fit stays eager.
* **Replay** (epochs 3..N): the verified tape is compiled into a flat
  list of argument-free closures over a fixed buffer arena — the verify
  epoch's own forward arrays and node grads — that call each primitive's
  own forward and VJP kernels with ``out=`` buffers.  The list covers
  forward, backward (in the exact reverse-topological order the eager
  walk would use) and the trainer tail (loss readout, ``after_backward``
  hooks, ``optimizer.step``).  Runs of single-parent elementwise ops are
  fused into single closures over their kernels, sharing one buffer.

:class:`ForwardJIT` applies the same capture and verification to a
forward-only call of fixed shapes, the served lane forward: it records
under :func:`repro.autodiff.tensor.record_forward`, binds no value
snapshots, and replays the forward kernels with ``out=None``
(:class:`ForwardPlan`), keeping no captured array.

Bit-identity contract
---------------------
A kernel computes the same values into an ``out`` buffer as into a fresh
array, so a replayed epoch produces the same floats — bit for bit — as its
eager twin (asserted with ``==`` in ``tests/training``).  Contributions
are emitted in the eager walk's order (:func:`topological_order`).  A
node grad's layout decides the order of every reduction over it, so each
node's grad buffer *is* its verify-epoch grad, as eager's borrow-or-copy
left it.

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
  current value of ``src``'s buffer on every replay (softmax max-shift,
  MTGNN's top-k graph mask);
* different values, no annotation → **invalid**: the fit falls back to
  eager.

Arrays among a primitive's static fields (fancy keys, ``where``'s
condition) must be the same object both epochs, bound live: huber's
data-dependent ``where`` mask is a fresh array every epoch, so its fits
fall back to eager.

Replay is further guarded per epoch: parameter storage identity
(``p.data is <bound array>``) and the anomaly-mode flag are checked before
running the plan; a failed guard retraces (bounded budget) or disables.
"""

from __future__ import annotations

import contextlib
import functools
from operator import itemgetter
from time import perf_counter
from typing import Callable

import numpy as np

from .anomaly import is_anomaly_enabled
from . import tensor as _tensor_mod
from .tensor import Tensor, topological_order
from ..analysis.hazards import reason as _reason

__all__ = ["EpochJIT", "ForwardJIT", "ForwardPlan", "TraceInvalid",
           "chain_reference"]


class TraceInvalid(Exception):
    """The captured tapes are not structurally identical / replayable."""


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
    try:
        return p1 is p2 or _provider_key(p1) == _provider_key(p2)
    except Exception:
        return False


# ----------------------------------------------------------------------
# Fused elementwise chains
# ----------------------------------------------------------------------
def chain_reference(ops) -> Callable[[Tensor], Tensor]:
    """Eager function applying a fused chain's op sequence (for gradcheck).

    ``ops`` is the ``(name, scalar)`` sequence from a compiled plan's
    ``fused_chains`` metadata; the returned callable rebuilds the same
    composition through the ordinary eager engine.
    """
    def apply(x: Tensor) -> Tensor:
        for name, scalar in ops:
            x = getattr(x, name)(*(() if scalar is None else (scalar,)))
        return x
    return apply


# ----------------------------------------------------------------------
# Verification: structural identity of two captured tapes
# ----------------------------------------------------------------------
class _Record:
    """One tape node prepared for compilation (bound to epoch-2 storage)."""

    __slots__ = ("tensor", "op", "ctx", "parents")

    def __init__(self, tensor, parents):
        self.tensor = tensor
        self.op = tensor._op
        self.ctx = tensor._ctx
        self.parents = parents  # list of spec tuples


def _same_fields(a, b) -> bool:
    """Whether two epochs' static fields agree.

    Arrays (fancy keys) must be the same object: a key recomputed each
    epoch may agree in the two captured epochs and differ later.
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return a is b
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) \
            and all(map(_same_fields, a, b))
    return type(a) is type(b) and repr(a) == repr(b)


def _check_fields(i: int, op, ctx1, ctx2, snapshots: bool) -> None:
    if op.operand == "mask":
        # The same array object both epochs is a deliberately persistent,
        # externally maintained mask (the stacked executor's lane-active
        # mask) and is bound live.  Different objects mean the mask is
        # recomputed per epoch from data (huber's |error| <= delta) — even
        # if the two captured epochs happened to agree, later epochs may
        # not, so the trace is invalid.
        if ctx1 is not ctx2:
            raise TraceInvalid(_reason("where-data-dependent"))
    elif op.operand == "operator" and ctx1 is not ctx2:
        # A tensor operator is a parent (ctx None); an array must be the
        # same object to be bound live, or, in training, equal.
        if not snapshots:
            raise TraceInvalid(_reason("forward-snapshot", i=i, op=op.name))
        if not np.array_equal(ctx1, ctx2):
            raise TraceInvalid(_reason("lane-propagate-changed"))
    elif not _same_fields(ctx1, ctx2):
        raise TraceInvalid(_reason("scalar-operands-changed", i=i,
                                   op=op.name))


def _classify_constant(i: int, op, t1, t2, snapshots: bool,
                       source1, source2) -> tuple:
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
        # Without snapshots the source must be the same tape node, or the
        # same external tensor (read live): a source from one capture
        # would freeze that capture's values into the plan.
        if not snapshots and not _same_ref(source1, source2):
            raise TraceInvalid(_reason("forward-snapshot", i=i, op=op.name))
        return ("derived", t2, src2[1], src2[2])
    if t1 is t2:
        # Persistent external tensor (inputs, adjacency): bound live and
        # guarded per replay, so a ``.data`` rebind forces a retrace.
        return ("const", t2, True)
    if not snapshots:
        raise TraceInvalid(_reason("forward-snapshot", i=i, op=op.name))
    if t1.data.dtype == t2.data.dtype and np.array_equal(t1.data, t2.data):
        return ("const", t2, False)  # stable snapshot (equal both epochs)
    raise TraceInvalid(_reason("const-value-changed"))


def _derived_source(t, ref):
    """A derived constant's source as ``ref`` maps it (its tape index, or
    the tensor itself); None for any other leaf."""
    src = getattr(t, "_trace_src", None)
    return None if src is None or src[0] != "derived" else ref(src[1])


class _Summary:
    """One captured tape as verification reads it.

    ``nodes`` holds per node its primitive, static fields, output shape
    and dtype, and per parent its ``requires_grad`` flag and a reference:
    the parent's tape index (``-1`` for a node of another capture),
    ``("input", k)`` for the ``k``-th declared input, or the leaf tensor.
    ``sources`` maps ``id(leaf)`` to a derived constant's source reference.
    No node array is kept, so the captured graph is freed as in eager.
    """

    def __init__(self, nodes, sources, root, watch):
        self.nodes = nodes
        self.sources = sources
        self.root = root
        self.watch = watch

    @classmethod
    def of_tape(cls, tape, root, watch) -> "_Summary":
        """The summary of a training capture's graph-wired tensors."""
        index = {id(t): i for i, t in enumerate(tape)}

        def ref(p):
            return index.get(id(p), -1) if p._op is not None else p
        nodes = [(t._op, t._ctx, t.shape, t.dtype,
                  [(p.requires_grad, ref(p)) for p in t._parents])
                 for t in tape]
        sources = {id(p): _derived_source(p, ref)
                   for t in tape for p in t._parents if p._op is None}
        return cls(nodes, sources, index.get(id(root)),
                   {name: index.get(id(t)) for name, t in watch.items()})


class _ForwardRecorder:
    """The :func:`~repro.autodiff.tensor.record_forward` hook of one
    forward capture: builds its :class:`_Summary` node by node.

    Each result is tagged with ``(token, index)`` in ``_tape`` instead of
    being kept, so an intermediate dies when eager drops it and a
    capture's memory peak is eager's.
    """

    def __init__(self, inputs):
        self.token = object()
        self.inputs = {id(t): k for k, t in enumerate(inputs)}
        self.summary = _Summary([], {}, None, {})

    def ref(self, p):
        tag = getattr(p, "_tape", None)
        if tag is not None:
            return tag[1] if tag[0] is self.token else -1
        slot = self.inputs.get(id(p))
        return p if slot is None else ("input", slot)

    def __call__(self, out, parents, op, ctx) -> None:
        nodes, sources = self.summary.nodes, self.summary.sources
        out._tape = (self.token, len(nodes))
        refs = [(p.requires_grad, self.ref(p)) for p in parents]
        for _, ref in refs:
            if isinstance(ref, Tensor):
                sources[id(ref)] = _derived_source(ref, self.ref)
        nodes.append((op, ctx, out._data.shape, out._data.dtype, refs))


def _ref_kind(ref) -> type:
    """``int`` (a node), ``tuple`` (an input) or ``Tensor`` (a leaf)."""
    return type(ref) if type(ref) in (int, tuple) else Tensor


def _same_ref(a, b) -> bool:
    return a is b or (_ref_kind(a) is _ref_kind(b) is not Tensor and a == b)


def _verify(first: _Summary, second: _Summary,
            snapshots: bool = True) -> list[list[tuple]]:
    """Match two captured tapes node by node; return the second's parent
    specs per node.

    Raises :class:`TraceInvalid` on the first structural difference:
    primitive, output shape/dtype, static fields, parent wiring, parameter
    identity or constant classification.  With ``snapshots=False``
    (served forward plans) no constant or operator may be bound by value:
    each must be the same object in both captures or carry a
    volatile/derived annotation over a same-object source.
    """
    if len(first.nodes) != len(second.nodes):
        raise TraceInvalid(_reason("op-count-changed", n1=len(first.nodes),
                                   n2=len(second.nodes)))
    if not second.nodes:
        raise TraceInvalid(_reason("empty-tape"))
    if second.root is None or first.root != second.root:
        raise TraceInvalid(_reason("root-moved"))
    for name, j in second.watch.items():
        if first.watch.get(name) != j:
            raise TraceInvalid(_reason("watch-moved", name=name))
    all_specs: list[list[tuple]] = []
    for i, ((op1, ctx1, shape1, dtype1, parents1),
            (op, ctx2, shape2, dtype2, parents2)) in enumerate(
                zip(first.nodes, second.nodes)):
        if op1 is not op:
            raise TraceInvalid(_reason("op-changed", i=i, q1=op1.name,
                                       q2=op.name))
        if shape1 != shape2 or dtype1 != dtype2:
            raise TraceInvalid(_reason(
                "shape-changed", i=i, op=op.name,
                before=f"{shape1}/{dtype1}", after=f"{shape2}/{dtype2}"))
        _check_fields(i, op, ctx1, ctx2, snapshots)
        if len(parents1) != len(parents2):
            raise TraceInvalid(_reason("arity-changed", i=i, op=op.name))
        specs = []
        for (grad1, p1), (grad2, p2) in zip(parents1, parents2):
            if grad1 != grad2:
                raise TraceInvalid(_reason("requires-grad-flipped", i=i))
            if _ref_kind(p1) != _ref_kind(p2) or \
                    type(p1) is tuple and p1 != p2:
                raise TraceInvalid(_reason("wiring-changed", i=i))
            if type(p2) is int:
                if p2 < 0 or p1 != p2:
                    raise TraceInvalid(_reason(
                        "graph-extends-beyond-epoch", i=i, op=op.name))
                specs.append(("node", p2))
            elif type(p2) is tuple:
                specs.append(p2)
            elif grad2:
                if p1 is not p2:
                    raise TraceInvalid(_reason(
                        "param-identity-changed", i=i, op=op.name))
                specs.append(("param", p2))
            else:
                specs.append(_classify_constant(
                    i, op, p1, p2, snapshots, first.sources.get(id(p1)),
                    second.sources.get(id(p2))))
        all_specs.append(specs)
    return all_specs


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
class _LeafGrad:
    """Per-replay gradient holder for one parameter leaf.

    Eager leaf accumulation copies with ``np.array(grad, copy=True)``
    (order ``'K'``): a transposed weight-grad view yields an F-contiguous
    array, which the grad-clip norm's ``sum(g**2)`` reduces in that order.
    Replay repeats that copy per epoch, or grad norms drift by an ulp.
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

    The buffer arena is the verify epoch's own arrays, outputs and node
    grads alike, written in place (``out=``): a view (transpose, basic
    slicing, a borrowed grad) tracks its base with no replay step at all.
    """

    def __init__(self, records, root_index, watch):
        self.records: list[_Record] = records
        self.root_index = root_index
        self.watch = watch
        self.plan = _Plan()
        self.plan._records = records
        self._grads: dict[int, np.ndarray] = {}  # record index -> grad
        self._counts: dict[int, int] = {}   # record index -> contributions
        self._seen: dict[int, int] = {}     # ... of which emitted so far
        self._scratch: dict[tuple, np.ndarray] = {}
        self._param_gbufs: dict[int, _LeafGrad] = {}
        self._guarded: set[int] = set()
        self._refilled: set[int] = set()

    # -- emission helpers ------------------------------------------------
    def add_call(self, name, phase, nbytes, call) -> None:
        self.plan.calls.append(call)
        self.plan.meta.append((name, phase, nbytes))

    def pbuf(self, spec) -> np.ndarray:
        kind = spec[0]
        if kind == "node":
            return self.records[spec[1]].tensor._data
        if kind == "param" or (kind == "const" and spec[2]):
            self._guard(spec[1])
        return spec[1]._data  # param / const / volatile / derived

    def gbuf(self, i: int) -> np.ndarray:
        """Record ``i``'s grad buffer: the verify epoch's own grad."""
        grad = self._grads.get(i)
        if grad is None:
            tensor = self.records[i].tensor
            grad = tensor.grad
            if grad is None:
                grad = np.empty(tensor.shape, dtype=tensor._data.dtype)
            elif not isinstance(grad, np.ndarray):
                grad = np.array(grad)  # a 0-d op hands over numpy scalars
            self._grads[i] = grad
        return grad

    def _guard(self, leaf) -> None:
        if id(leaf) not in self._guarded:
            self._guarded.add(id(leaf))
            self.plan.guards.append((leaf, leaf._data))

    def _contribute(self, name, nbytes, spec, produce, reads) -> None:
        """Emit one grad contribution, mirroring ``Tensor._accumulate``.

        ``produce(out)`` runs the VJP kernel into ``out`` (``None``: fresh,
        as eager).  A node's first contribution goes into its grad buffer,
        or nowhere when a sole one left a view of an array in ``reads``;
        later ones are added from scratch.  Leaves copy as eager does.
        """
        if spec[0] == "node":
            j = spec[1]
            target = self.gbuf(j)
            first = self._seen.get(j, 0) == 0
            self._seen[j] = self._seen.get(j, 0) + 1
            if first and self._counts[j] == 1 and any(
                    np.may_share_memory(target, array) for array in reads):
                return
            if first:
                def call():
                    produce(target)
            else:
                scratch = self._scratch_like(produce(None))

                def call():
                    np.add(target, produce(scratch), out=target)
            self.add_call(name, "backward", nbytes, call)
            return
        leaf = spec[1]
        cell = self._param_gbufs.get(id(leaf))
        if cell is None:
            cell = self._param_gbufs[id(leaf)] = _LeafGrad(leaf)
            self.plan.param_grads.append(cell)
            self._guard(leaf)
            dtype = leaf._data.dtype

            def call():
                cell.g = np.array(produce(None), dtype=dtype, copy=True)
        else:
            def call():
                cell.g += produce(None)
        self.add_call(name, "backward", nbytes, call)

    def _scratch_like(self, sample: np.ndarray) -> np.ndarray:
        """A C-contiguous buffer of ``sample``'s shape and dtype, shared
        by every added contribution of that kind (each is consumed at
        once)."""
        key = (sample.shape, sample.dtype)
        if key not in self._scratch:
            self._scratch[key] = np.empty(sample.shape, sample.dtype)
        return self._scratch[key]

    def compile(self) -> _Plan:
        records = self.records
        index = {id(rec.tensor): i for i, rec in enumerate(records)}
        topo = topological_order(records[self.root_index].tensor)
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
                    j = index.get(id(spec[2]))
                    if j is not None:
                        pinned.add(j)
        self._counts = {i: len(users) for i, users in consumers.items()}

        chains = self._find_chains(reachable, consumers, pinned)
        interior: set[int] = set()
        chain_at_last: dict[int, list[int]] = {}
        chain_at_first: dict[int, list[int]] = {}
        for members in chains:
            interior.update(members[:-1])
            chain_at_last[members[-1]] = members
            chain_at_first[members[0]] = members
        for i in interior:
            records[i].tensor.grad = None  # the fused plan never reads it

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
            if members is not None:
                self._emit_chain_forward(members)
            elif not self._is_view(rec):
                self._emit_forward(rec)

        # ---- backward pass (exact eager order) -----------------------
        root = records[self.root_index]
        self.plan.root_buf = root.tensor._data
        for t in reversed(topo):
            i = index.get(id(t))
            if i is None:
                continue  # leaf (parameter / input)
            members = chain_at_first.get(i)
            if members is not None:
                self._emit_chain_backward(members)
            elif i not in interior and i not in chain_at_last:
                self._emit_backward(i)

        # Expose gradients on the parameter leaves exactly as the eager
        # walk leaves them: owned, persistent arrays.
        param_grads = self.plan.param_grads

        def bind_grads():
            for cell in param_grads:
                cell.leaf.grad = cell.g
                cell.leaf._grad_owned = True
        self.add_call("bind_grads", "backward", 0, bind_grads)

        for name, t in self.watch.items():
            self.plan.watch_bufs[name] = t._data
        return self.plan

    # -- pieces --------------------------------------------------------
    def _emit_forward(self, rec) -> None:
        forward = rec.op.forward
        args = [self.pbuf(spec) for spec in rec.parents]
        if rec.ctx is not None:
            args.append(rec.ctx)
        out = rec.tensor._data
        self.add_call(rec.op.name, "forward", out.nbytes,
                      lambda: forward(*args, out=out))

    def _emit_backward(self, i: int) -> None:
        rec = self.records[i]
        op, ctx = rec.op, rec.ctx
        g = gin = self.gbuf(i)
        nbytes = g.nbytes
        if op.prepare is not None:
            gin = op.prepare(ctx, g)
            if not np.may_share_memory(gin, g):
                prepare, prepared = op.prepare, gin
                self.add_call(op.name, "backward", nbytes,
                              lambda: prepare(ctx, g, out=prepared))
        y = rec.tensor._data
        xs = [self.pbuf(spec) for spec in rec.parents]
        for k, (spec, vjp) in enumerate(zip(rec.parents, op.vjps)):
            if spec[0] not in ("node", "param"):
                continue

            def produce(out, vjp=vjp, k=k):
                return vjp(ctx, gin, y, xs, k, out)
            self._contribute(op.name, nbytes, spec, produce,
                             (g, gin, y, *xs))

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
            self.add_call(rec.op.name, "forward", rec.tensor._data.nbytes,
                          lambda: np.copyto(buf, provider()))
            return
        src, fn = spec[2], spec[3]
        j = index.get(id(src))
        if j is not None:
            src_buf = self.records[j].tensor._data
        elif src._op is None:
            self._guard(src)
            src_buf = src._data
        else:
            raise TraceInvalid(_reason("derived-source-outside"))
        self.add_call(rec.op.name, "forward", rec.tensor._data.nbytes,
                      lambda: np.copyto(buf, fn(src_buf)))

    def _find_chains(self, reachable, consumers, pinned) -> list[list[int]]:
        """Maximal runs of fusible single-parent elementwise ops."""
        records = self.records
        in_chain: set[int] = set()
        chains: list[list[int]] = []

        def chainable(i) -> bool:
            rec = records[i]
            return rec.op.fuse is not None and len(rec.parents) == 1

        for i in sorted(reachable):
            if i in in_chain or not chainable(i):
                continue
            members = [i]
            cur = i
            while (records[cur].op.fuse == "interior"
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

    def _chain_name(self, members) -> str:
        return "fused[" + "+".join(self.records[j].op.name
                                   for j in members) + "]"

    def _emit_chain_forward(self, members) -> None:
        records = self.records
        last = records[members[-1]]
        dst = last.tensor._data
        src = self.pbuf(records[members[0]].parents[0])
        (head, head_ctx), *rest = [
            (records[j].op.forward,
             () if records[j].ctx is None else (records[j].ctx,))
            for j in members]

        def call():
            head(src, *head_ctx, out=dst)
            for forward, ctx in rest:
                forward(dst, *ctx, out=dst)
        self.add_call(self._chain_name(members), "forward", dst.nbytes, call)
        self.plan.fused_chains.append({
            "ops": [(records[j].op.name, records[j].ctx) for j in members],
            "shape": last.tensor.shape,
            "dtype": str(dst.dtype),
        })

    def _emit_chain_backward(self, members) -> None:
        # Interior VJPs read only g and their scalar; the terminal one (the
        # last member) also reads the chain's materialized output.
        records = self.records
        last = records[members[-1]]
        g = self.gbuf(members[-1])
        y = last.tensor._data
        work = np.empty_like(y)
        *steps, (tail, tail_ctx) = [(records[j].op.vjps[0], records[j].ctx)
                                    for j in reversed(members)]

        def produce(out):
            cur = g
            for vjp, ctx in steps:
                cur = vjp(ctx, cur, y, (), 0, work)
            return tail(tail_ctx, cur, y, (), 0, out)
        self._contribute(self._chain_name(members), g.nbytes,
                         records[members[0]].parents[0], produce, (g, y))


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
        self._first: _Summary | None = None
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
        self._first = None
        self.plan = None

    def _invalidate(self, reason: str) -> None:
        """Guard failure: retrace if budget remains, else go eager for good."""
        self.plan = None
        self._first = None
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
            self._first = _Summary.of_tape(nodes, root, watch)
            self._state = "capture2"
            return
        # Verify+compile is the JIT's one-time cost; meter it so a profiled
        # fit attributes the capture epochs' overhead to a named span.
        prof = _active_profiler()
        start = prof._begin() if prof is not None else 0.0
        first, self._first = self._first, None
        try:
            second = _Summary.of_tape(nodes, root, watch)
            records = [_Record(t, specs) for t, specs in
                       zip(nodes, _verify(first, second))]
            root_index = second.root
            self.plan = _Compiler(records, root_index, watch).compile()
            self.plan.tail = self._tail
        except TraceInvalid as invalid:
            self._disable(str(invalid))
        else:
            self._state = "ready"
        finally:
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


# ----------------------------------------------------------------------
# Served forward replay
# ----------------------------------------------------------------------
class ForwardPlan:
    """A verified forward tape as a flat list of its kernels' calls.

    Each step calls a primitive's forward kernel with ``out=None`` on the
    slots of its parents and static fields, exactly the call eager makes,
    so the output is eager's bit for bit.  The plan holds no captured
    array: parameters and persistent constants are read through their
    tensors on every run, inputs come from the caller, and each node
    output lives in a fresh per-run slot list that drops it after its last
    reader, as eager drops an intermediate.
    """

    __slots__ = ("steps", "template", "inputs", "live", "output", "replays")

    def __init__(self, steps, template, inputs, live, output):
        # A step reads its arguments with one ``itemgetter`` call, which
        # returns the bare value for a single slot: ``many`` says whether
        # to unpack it.
        self.steps = [(kernel, itemgetter(*args) if args else _no_args,
                       len(args) != 1, out, dead)
                      for kernel, args, out, dead in steps]
        self.template = template  # slot list with static fields filled in
        self.inputs = inputs      # slot per declared input
        self.live = live          # (slot, tensor) read as tensor._data
        self.output = output
        self.replays = 0

    def __call__(self, *arrays) -> np.ndarray:
        values = self.template.copy()
        for slot, array in zip(self.inputs, arrays):
            values[slot] = array
        for slot, owner in self.live:
            values[slot] = owner._data
        for kernel, get, many, out, dead in self.steps:
            values[out] = kernel(*get(values)) if many else kernel(get(values))
            for slot in dead:
                values[slot] = None
        self.replays += 1
        return values[self.output]


def _no_args(values) -> tuple:
    return ()


def _compile_forward(summary: _Summary, specs, inputs: int) -> ForwardPlan:
    """Lay a verified forward capture out as :class:`ForwardPlan` steps.

    Nodes the output does not depend on are skipped (kernels are pure);
    a volatile or derived constant is rebuilt just before its first
    reader, as the eager forward built it.
    """
    output = summary.root
    needed = {output}
    for i in range(output, -1, -1):
        if i in needed:
            for spec in specs[i]:
                if spec[0] == "node":
                    needed.add(spec[1])
                elif spec[0] == "derived":
                    source = summary.sources[id(spec[1])]
                    if type(source) is int:
                        needed.add(source)
    template: list = [None] * len(summary.nodes)
    inputs_at = list(range(len(template), len(template) + inputs))
    template += [None] * inputs
    live: list[tuple] = []
    slots: dict[int, int] = {}   # id(leaf tensor) -> slot
    steps: list[tuple] = []

    def new_slot(value=None) -> int:
        template.append(value)
        return len(template) - 1

    def slot_of(spec) -> int:
        """The slot a parent spec reads; rebuilds are emitted here."""
        kind = spec[0]
        if kind == "node":
            return spec[1]
        if kind == "input":
            return inputs_at[spec[1]]
        tensor = spec[1]
        if id(tensor) in slots:
            return slots[id(tensor)]
        slot = slots[id(tensor)] = new_slot()
        if kind in ("param", "const"):
            live.append((slot, tensor))
        elif kind == "volatile":
            steps.append((spec[2], (), slot))
        else:  # derived: from a node, an input or a tensor read live
            source = summary.sources[id(tensor)]
            if isinstance(source, Tensor):
                source = ("const", source)
            elif type(source) is int:
                source = ("node", source)
            steps.append((spec[3], (slot_of(source),), slot))
        return slot

    for i, (op, ctx, _, _, _) in enumerate(summary.nodes):
        if i not in needed:
            continue
        args = [slot_of(spec) for spec in specs[i]]
        if ctx is not None:
            args.append(new_slot(ctx))
        steps.append((op.forward, tuple(args), i))
    # Liveness: drop each computed slot after its last reader.
    last: dict[int, int] = {}
    for position, (_, args, _) in enumerate(steps):
        for slot in args:
            last[slot] = position
    computed = {out for _, _, out in steps} - {output}
    dead: list[list[int]] = [[] for _ in steps]
    for slot, position in last.items():
        if slot in computed:
            dead[position].append(slot)
    return ForwardPlan([(kernel, args, out, tuple(gone))
                        for (kernel, args, out), gone in zip(steps, dead)],
                       template, inputs_at, live, output)


class ForwardJIT:
    """Capture → verify → replay for one forward of fixed shapes.

    The served lane forward runs the same ops on every flush of a given
    row count; only the inputs, the selected parameter rows and the
    per-lane operators change.  Usage (see
    :class:`repro.serving.InferenceEngine`)::

        jit = ForwardJIT()
        out = jit.replay(array)        # None: run this call eagerly
        if out is None:
            x = Tensor(array)
            with jit.capture(x):       # no_grad; records while capturing
                y = model(x)
            jit.seal(y)
            out = y.data

    The first two calls capture with :func:`~repro.autodiff.tensor.
    record_forward`; :func:`_verify` matches the tapes without value
    snapshots, and the second capture compiles to a :class:`ForwardPlan`,
    which keeps none of its arrays.  A failed verification, or a replay
    that raises, turns the JIT off for good (``disabled_reason`` names the
    catalogued hazard) and the caller runs eagerly.
    """

    def __init__(self):
        self._state = "capture1"
        self._first: _Summary | None = None
        self._recorder: _ForwardRecorder | None = None
        self.plan: ForwardPlan | None = None
        self.disabled_reason: str | None = None

    @property
    def ready(self) -> bool:
        return self._state == "ready"

    @property
    def off(self) -> bool:
        return self._state == "off"

    def _disable(self, reason: str) -> None:
        self._state = "off"
        self.disabled_reason = reason
        self._first = None
        self.plan = None

    @contextlib.contextmanager
    def capture(self, *inputs: Tensor):
        """Run the block under ``no_grad``; while capturing, record every
        op result, with ``inputs`` as the tensors :meth:`replay` feeds."""
        if self._state not in ("capture1", "capture2"):
            with _tensor_mod.no_grad():
                yield
            return
        self._recorder = _ForwardRecorder(inputs)
        with _tensor_mod.record_forward(self._recorder):
            yield

    def seal(self, output: Tensor) -> None:
        """Finish a capture of ``output``; the second capture verifies
        against the first and compiles."""
        if self._state not in ("capture1", "capture2"):
            return
        recorder, self._recorder = self._recorder, None
        summary = recorder.summary
        root = recorder.ref(output)
        summary.root = root if type(root) is int and root >= 0 else None
        if self._state == "capture1":
            self._first = summary
            self._state = "capture2"
            return
        first, self._first = self._first, None
        try:
            specs = _verify(first, summary, snapshots=False)
            self.plan = _compile_forward(summary, specs,
                                         len(recorder.inputs))
        except TraceInvalid as invalid:
            self._disable(str(invalid))
        else:
            self._state = "ready"

    def replay(self, *arrays) -> np.ndarray | None:
        """The plan's output for ``arrays``; None when not ready or when
        the replay raised (the JIT is then off)."""
        if self._state != "ready":
            return None
        try:
            return self.plan(*arrays)
        except Exception as error:  # noqa: BLE001 - the caller runs eager
            self._disable(_reason("forward-replay-raised",
                                  error=f"{type(error).__name__}: {error}"))
            return None
