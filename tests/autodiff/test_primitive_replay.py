"""Every declared primitive replays bitwise: a test generated from the table.

Each :class:`~repro.autodiff.primitive.Primitive` declares example calls.
For every example, both dtypes and every kind of parent, an eager loop
and a sealed-and-replayed loop must agree with ``==`` on the op's output
and on every leaf grad's values, signbits and strides, epoch by epoch.  A
parent is a constant, a parameter leaf (the VJP allocates, as eager), an
interior node (the plan writes the VJP into the node's grad buffer with
``out=``) or a shared interior node (a second consumer's grad is added
from scratch).  The inputs change in place between epochs, so a replay
that froze any value would show.  A new primitive gets its cases from its
own ``examples``; this file needs no edit.
"""

import contextlib
import itertools

import numpy as np
import pytest

from repro.autodiff import EpochJIT, Tensor
from repro.autodiff import tensor as tensor_module
from repro.autodiff.primitive import PRIMITIVES, Primitive
from repro.nn import stacked_ops

EPOCHS = 4

CASES = [(prim, shapes, call)
         for prim in PRIMITIVES for shapes, call in prim.examples]


def _case_id(case) -> str:
    prim, shapes, _ = case
    return prim.name + ":" + "@".join("x".join(map(str, s)) or "scalar"
                                      for s in shapes)


KINDS = ("const", "leaf", "node", "shared")


def _kind_choices(arity: int):
    return [kinds for kinds in itertools.product(KINDS, repeat=arity)
            if any(kind != "const" for kind in kinds)]


PARAMS = [(case, kinds) for case in CASES
          for kinds in _kind_choices(len(case[1]))]


def _run(prim, shapes, call, dtype, kinds, use_jit):
    rng = np.random.default_rng(0)
    leaves = [Tensor(rng.uniform(0.5, 1.5, size=shape).astype(dtype),
                     requires_grad=kind != "const")
              for shape, kind in zip(shapes, kinds)]
    jit = EpochJIT() if use_jit else None
    weight = None
    epochs = []
    for _ in range(EPOCHS):
        for t in leaves:
            t.grad = None
        if jit is not None and jit.replay():
            out = jit.value("out")
        else:
            capture = jit.capture() if jit is not None \
                else contextlib.nullcontext()
            with capture:
                parents = [leaf if kind in ("const", "leaf") else leaf * 1.0
                           for leaf, kind in zip(leaves, kinds)]
                y = call(*parents)
                assert y._op is prim
                if weight is None:
                    weight = Tensor(np.asarray(rng.uniform(
                        -1.0, 1.0, size=y.shape)).astype(y.dtype))
                loss = (y * weight).sum()
                for parent, kind in zip(parents, kinds):
                    if kind == "shared":
                        loss = loss + (parent * 0.5).sum()
                loss.backward()
            if jit is not None:
                jit.seal(loss, watch={"out": y})
            out = y.data
        epochs.append((out.copy(), [None if t.grad is None else t.grad
                                    for t in leaves]))
        for t in leaves:
            t.data *= 1.0625  # in place: the plan's bound arrays see it
    return epochs, jit


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.strides == b.strides and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "case,kinds", PARAMS,
    ids=[f"{_case_id(case)}-{'+'.join(kinds)}" for case, kinds in PARAMS])
def test_replay_matches_eager(case, kinds, dtype):
    prim, shapes, call = case
    eager, _ = _run(prim, shapes, call, dtype, kinds, use_jit=False)
    replayed, jit = _run(prim, shapes, call, dtype, kinds, use_jit=True)
    assert jit.disabled_reason is None
    assert jit.total_replays == EPOCHS - 2
    for (out_e, grads_e), (out_r, grads_r) in zip(eager, replayed):
        assert np.array_equal(out_e, out_r)
        assert np.array_equal(np.signbit(out_e), np.signbit(out_r))
        for g_e, g_r in zip(grads_e, grads_r):
            assert (g_e is None) == (g_r is None)
            if g_e is not None:
                assert _same_bits(g_e, g_r)


def test_every_library_primitive_is_in_the_table():
    declared = [value for module in (tensor_module, stacked_ops)
                for value in vars(module).values()
                if isinstance(value, Primitive)]
    assert declared
    assert all(prim in PRIMITIVES for prim in declared)
