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
from time import perf_counter
from typing import Callable

import numpy as np

from .anomaly import is_anomaly_enabled
from . import tensor as _tensor_mod
from .tensor import Tensor, topological_order
from ..analysis.hazards import reason as _reason

__all__ = ["EpochJIT", "TraceInvalid", "chain_reference"]


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


def _check_fields(i: int, op, ctx1, ctx2) -> None:
    if op.operand == "mask":
        # The same array object both epochs is a deliberately persistent,
        # externally maintained mask (the stacked executor's lane-active
        # mask) and is bound live.  Different objects mean the mask is
        # recomputed per epoch from data (huber's |error| <= delta) — even
        # if the two captured epochs happened to agree, later epochs may
        # not, so the trace is invalid.
        if ctx1 is not ctx2:
            raise TraceInvalid(_reason("where-data-dependent"))
    elif op.operand == "operator":
        if ctx1 is not ctx2 and not np.array_equal(ctx1, ctx2):
            raise TraceInvalid(_reason("lane-propagate-changed"))
    elif not _same_fields(ctx1, ctx2):
        raise TraceInvalid(_reason("scalar-operands-changed", i=i,
                                   op=op.name))


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


class _Summary:
    """What verification needs of the first captured epoch: per node its
    primitive, static fields, shape and dtype, and per parent its
    ``requires_grad`` flag and tape index (a node) or the leaf tensor.
    Node arrays are not kept, so the epoch's graph is freed as in eager."""

    def __init__(self, tape, root, watch):
        index = {id(t): i for i, t in enumerate(tape)}
        self.nodes = [(t._op, t._ctx, t.shape, t.dtype,
                       [(p.requires_grad, index.get(id(p), -1)
                         if p._op is not None else p) for p in t._parents])
                      for t in tape]
        self.root = index.get(id(root))
        self.watch = {name: index.get(id(t)) for name, t in watch.items()}


def _verify(first: _Summary, tape2, root2, watch2) -> list:
    """Match the second captured tape against the first, node by node;
    return compile-ready records.

    Raises :class:`TraceInvalid` on the first structural difference:
    primitive, output shape/dtype, static fields, parent wiring, parameter
    identity or constant classification.
    """
    if len(first.nodes) != len(tape2):
        raise TraceInvalid(_reason("op-count-changed",
                                   n1=len(first.nodes), n2=len(tape2)))
    if not tape2:
        raise TraceInvalid(_reason("empty-tape"))
    idx2 = {id(t): i for i, t in enumerate(tape2)}
    if first.root != idx2.get(id(root2)) or id(root2) not in idx2:
        raise TraceInvalid(_reason("root-moved"))
    for name in watch2:
        if first.watch.get(name) != idx2.get(id(watch2[name])):
            raise TraceInvalid(_reason("watch-moved", name=name))
    records: list[_Record] = []
    for i, ((op1, ctx1, shape1, dtype1, parents1), t2) in enumerate(
            zip(first.nodes, tape2)):
        op = t2._op
        if op1 is not op:
            raise TraceInvalid(_reason("op-changed", i=i, q1=op1.name,
                                       q2=op.name))
        if shape1 != t2.shape or dtype1 != t2.dtype:
            raise TraceInvalid(_reason(
                "shape-changed", i=i, op=op.name,
                before=f"{shape1}/{dtype1}", after=f"{t2.shape}/{t2.dtype}"))
        _check_fields(i, op, ctx1, t2._ctx)
        if len(parents1) != len(t2._parents):
            raise TraceInvalid(_reason("arity-changed", i=i, op=op.name))
        specs = []
        for (grad1, p1), p2 in zip(parents1, t2._parents):
            if grad1 != p2.requires_grad:
                raise TraceInvalid(_reason("requires-grad-flipped", i=i))
            wired2 = p2._op is not None
            if isinstance(p1, int) != wired2:
                raise TraceInvalid(_reason("wiring-changed", i=i))
            if wired2:
                j2 = idx2.get(id(p2))
                if j2 is None or p1 != j2:
                    raise TraceInvalid(_reason(
                        "graph-extends-beyond-epoch", i=i, op=op.name))
                specs.append(("node", j2))
            elif p2.requires_grad:
                if p1 is not p2:
                    raise TraceInvalid(_reason(
                        "param-identity-changed", i=i, op=op.name))
                specs.append(("param", p2))
            else:
                specs.append(_classify_constant(p1, p2))
        records.append(_Record(t2, specs))
    return records


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
            self._first = _Summary(nodes, root, watch)
            self._state = "capture2"
            return
        # Verify+compile is the JIT's one-time cost; meter it so a profiled
        # fit attributes the capture epochs' overhead to a named span.
        prof = _active_profiler()
        start = prof._begin() if prof is not None else 0.0
        first, self._first = self._first, None
        try:
            records = _verify(first, nodes, root, watch)
            root_index = next(i for i, rec in enumerate(records)
                              if rec.tensor is root)
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
