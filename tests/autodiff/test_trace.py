"""Unit and property tests for the trace-capture JIT (repro.autodiff.trace).

The contract under test is *bitwise*: a replayed epoch must produce the
same floats — losses, gradients, updated parameters — as the eager epoch
it replaced, so every comparison is ``==`` / ``array_equal``, never
``allclose``.  The second half covers the invalidation table from
DESIGN.md: which changes force a retrace or an eager fallback (shape,
dtype, constant values, graph structure) and which are plain data the
plan replays (dropout RNG advances, parameter values, lane masks).
"""

import contextlib

import numpy as np
import pytest

from repro.autodiff import (EpochJIT, Tensor, check_gradients,
                            detect_anomaly, huber, mse, where)
from repro.autodiff.trace import TraceInvalid, chain_reference
from repro.nn import TemporalConv2d


def _problem(dtype=np.float32, seed=0, shape=(8, 4), out=3):
    rng = np.random.default_rng(seed)
    w = Tensor(rng.normal(size=(shape[1], out)).astype(dtype),
               requires_grad=True)
    b = Tensor(rng.normal(size=(out,)).astype(dtype), requires_grad=True)
    x = rng.normal(size=shape).astype(dtype)
    y = rng.normal(size=(shape[0], out)).astype(dtype)
    return w, b, x, y


def _sgd(params, lr=0.1):
    def step():
        for p in params:
            p.data -= lr * p.grad
    return step


def _loop(epochs, use_jit, loss_fn, params, tail=None, before_epoch=None,
          watch=None):
    """The trainer's epoch skeleton, reduced to its JIT state machine."""
    tail = tail or _sgd(params)
    jit = EpochJIT(tail=(tail,)) if use_jit else None
    losses = []
    for epoch in range(epochs):
        if before_epoch is not None:
            before_epoch(epoch)
        if jit is not None and jit.replay():
            losses.append(jit.loss_value())
            continue
        for p in params:
            p.grad = None
        ctx = jit.capture() if jit is not None else contextlib.nullcontext()
        with ctx:
            loss = loss_fn()
            loss.backward()
        if jit is not None:
            jit.seal(loss, watch=watch() if watch else None)
        losses.append(loss.item())
        tail()
    return losses, jit


class TestReplayBitIdentity:
    def test_losses_and_weights_bitwise(self):
        results = []
        for use_jit in (False, True):
            w, b, x, y = _problem()

            def loss_fn():
                pred = (Tensor(x) @ w + b).tanh()
                return mse(pred, y)

            losses, jit = _loop(10, use_jit, loss_fn, [w, b])
            results.append((losses, w.data.copy(), b.data.copy()))
            if use_jit:
                assert jit.total_replays == 8
                assert jit.disabled_reason is None
        (el, ew, eb), (jl, jw, jb) = results
        assert el == jl
        np.testing.assert_array_equal(ew, jw)
        np.testing.assert_array_equal(eb, jb)

    def test_leaf_grads_bitwise_after_replay(self):
        # Replay must leave ``p.grad`` exactly as the eager epoch would —
        # including the layout-dependent accumulation copy (_LeafGrad).
        grads = []
        for use_jit in (False, True):
            w, b, x, y = _problem()

            def loss_fn():
                return mse(Tensor(x) @ w + b, y)

            def tail():  # keep weights fixed: compare pure grads
                pass

            _loop(6, use_jit, loss_fn, [w, b], tail=tail)
            grads.append((w.grad.copy(), b.grad.copy()))
        np.testing.assert_array_equal(grads[0][0], grads[1][0])
        np.testing.assert_array_equal(grads[0][1], grads[1][1])

    def test_volatile_constant_replays_and_advances_rng(self):
        # Dropout-style masks are *data*: the plan refills the buffer from
        # the provider each epoch, so the RNG stream advances exactly as
        # in eager mode and replay stays enabled (S3: no invalidation).
        def run(use_jit):
            w, b, x, y = _problem()
            rng = np.random.default_rng(99)

            def draw():
                return (rng.random(y.shape) < 0.8).astype(np.float32)

            def loss_fn():
                mask = Tensor(draw())
                mask._trace_src = ("volatile", draw)
                return mse((Tensor(x) @ w + b) * mask, y)

            losses, jit = _loop(8, use_jit, loss_fn, [w, b])
            return losses, jit

        eager_losses, _ = run(False)
        jit_losses, jit = run(True)
        assert jit_losses == eager_losses
        assert jit.total_replays == 6
        assert jit.disabled_reason is None

    def test_watch_buffer_tracks_values(self):
        w, b, x, y = _problem()
        holder = {}

        def loss_fn():
            pred = Tensor(x) @ w + b
            holder["pred"] = pred
            return mse(pred, y)

        losses, jit = _loop(6, True, loss_fn, [w, b], tail=lambda: None,
                            watch=lambda: {"pred": holder["pred"]})
        assert jit.total_replays == 4
        np.testing.assert_array_equal(jit.value("pred"), x @ w.data + b.data)


class TestFusion:
    @staticmethod
    def _chain_loss(w, b, x, y):
        # (-(xw+b) + 1.0) * 0.5 then tanh: a fuseable interior chain with
        # a terminal-class tail and a single consumer.
        pred = ((-(Tensor(x) @ w + b)) + 1.0) * 0.5
        return mse(pred.tanh(), y)

    def test_chain_emitted_and_bitwise(self):
        results = []
        for use_jit in (False, True):
            w, b, x, y = _problem(seed=3)
            losses, jit = _loop(
                8, use_jit, lambda: self._chain_loss(w, b, x, y), [w, b])
            results.append((losses, w.data.copy()))
            if use_jit:
                ops_seen = [[name for name, _ in chain["ops"]]
                            for chain in jit.plan.fused_chains]
                assert any(len(ops) >= 2 for ops in ops_seen)
                flat = [name for ops in ops_seen for name in ops]
                assert "__neg__" in flat
        assert results[0][0] == results[1][0]
        np.testing.assert_array_equal(results[0][1], results[1][1])

    def test_gradcheck_every_emitted_chain(self):
        # S3: every fused chain the compiler emits must agree with finite
        # differences when rebuilt through the eager engine in float64.
        w, b, x, y = _problem(seed=3)
        _, jit = _loop(4, True, lambda: self._chain_loss(w, b, x, y),
                       [w, b])
        assert jit.plan.fused_chains
        rng = np.random.default_rng(17)
        for chain in jit.plan.fused_chains:
            fn = chain_reference(chain["ops"])
            leaf = Tensor(rng.normal(size=chain["shape"]),
                          requires_grad=True)
            check_gradients(lambda t: fn(t).sum(), [leaf])


class TestInvalidation:
    """The DESIGN.md invalidation table, row by row."""

    def test_shape_change_disables(self):
        w, b, x, y = _problem()
        box = {"n": 8}

        def before(epoch):
            box["n"] = 8 if epoch == 0 else 6

        def loss_fn():
            return mse(Tensor(x[:box["n"]]) @ w + b, y[:box["n"]])

        losses, jit = _loop(5, True, loss_fn, [w, b], before_epoch=before)
        assert jit.off
        assert jit.total_replays == 0

    def test_dtype_change_disables(self):
        w, b, x, y = _problem()
        box = {"x": x}

        def before(epoch):
            box["x"] = x if epoch == 0 else x.astype(np.float64)

        def loss_fn():
            return mse(Tensor(box["x"]) @ w + b, y)

        losses, jit = _loop(4, True, loss_fn, [w, b], before_epoch=before)
        assert jit.off

    def test_constant_value_change_disables(self):
        # An adjacency-style constant whose *values* drift between the two
        # captured epochs has no volatile/derived annotation — the tracer
        # must refuse rather than freeze either epoch's values.
        w, b, x, y = _problem()
        box = {"adj": np.eye(4, dtype=np.float32)}

        def before(epoch):
            box["adj"] = np.eye(4, dtype=np.float32) * (1.0 + epoch)

        def loss_fn():
            return mse(Tensor(x) @ Tensor(box["adj"]) @ w + b, y)

        losses, jit = _loop(5, True, loss_fn, [w, b], before_epoch=before)
        assert jit.off
        assert "constant" in jit.disabled_reason

    def test_structure_change_disables(self):
        # Epoch 2 computes a different graph (extra op) than epoch 1.
        w, b, x, y = _problem()
        box = {"epoch": 0}

        def before(epoch):
            box["epoch"] = epoch

        def loss_fn():
            pred = Tensor(x) @ w + b
            if box["epoch"] >= 1:
                pred = pred.tanh()
            return mse(pred, y)

        losses, jit = _loop(5, True, loss_fn, [w, b], before_epoch=before)
        assert jit.off
        assert jit.total_replays == 0

    def test_param_rebind_retraces_then_recovers(self):
        w, b, x, y = _problem()

        def loss_fn():
            return mse(Tensor(x) @ w + b, y)

        rebound = {"done": False}

        def before(epoch):
            if epoch == 4 and not rebound["done"]:
                # Fresh storage (e.g. a restore from snapshot): the guard
                # must catch it and the JIT must retrace, not replay stale
                # buffers.
                w.data = w.data.copy()
                rebound["done"] = True

        losses, jit = _loop(10, True, loss_fn, [w, b], before_epoch=before)
        assert jit.retrace_count == 1
        assert jit.ready
        assert jit.total_replays > 0
        # eager reference
        w2, b2, _, _ = _problem()

        def loss2():
            return mse(Tensor(x) @ w2 + b2, y)

        def before2(epoch):
            if epoch == 4:
                w2.data = w2.data.copy()

        eager_losses, _ = _loop(10, False, loss2, [w2, b2],
                                before_epoch=before2)
        assert losses == eager_losses

    def test_retrace_budget_exhaustion_goes_eager(self):
        w, b, x, y = _problem()

        def loss_fn():
            return mse(Tensor(x) @ w + b, y)

        def before(epoch):
            w.data = w.data.copy()  # rebind storage every epoch

        losses, jit = _loop(12, True, loss_fn, [w, b], before_epoch=before)
        assert jit.off
        assert "retrace budget exhausted" in jit.disabled_reason

    def test_anomaly_mode_pauses_replay(self):
        w, b, x, y = _problem()

        def loss_fn():
            return mse(Tensor(x) @ w + b, y)

        jit = EpochJIT(tail=(_sgd([w, b]),))
        losses = []
        for epoch in range(8):
            anomaly = (epoch == 4)
            with detect_anomaly() if anomaly else contextlib.nullcontext():
                if jit.replay():
                    losses.append(jit.loss_value())
                    continue
                w.grad = None
                b.grad = None
                with jit.capture():
                    loss = loss_fn()
                    loss.backward()
                jit.seal(loss)
                losses.append(loss.item())
                _sgd([w, b])()
        # epoch 4 ran eager under the sanitizer; replay resumed after
        assert jit.ready
        assert jit.total_replays == 5


class TestKnownDrift:
    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: _Compiler.gbuf allocates C-contiguous node grads "
        "where eager borrows the transposed view, so _unbroadcast sums the "
        "bias grad in another memory order"))
    def test_channel_mix_conv_replays_bitwise(self):
        # A 1x1 TemporalConv2d is transpose -> matmul -> +bias ->
        # transpose: the bias add's grad is a transposed view in eager
        # mode but a C-contiguous arena buffer in replay.
        drift = []
        for shape in ((5, 3, 6, 4), (64, 3, 26, 2)):
            for dtype in (np.float32, np.float64):
                rng = np.random.default_rng(1)
                x = rng.normal(size=shape).astype(dtype)
                y = rng.normal(size=(shape[0], 4) + shape[2:]).astype(dtype)
                runs = []
                for use_jit in (False, True):
                    conv = TemporalConv2d(3, 4, 1,
                                          rng=np.random.default_rng(0))
                    params = list(conv.parameters())
                    for p in params:
                        p.data = p.data.astype(dtype)
                    losses, _ = _loop(8, use_jit,
                                      lambda: mse(conv(Tensor(x)), y), params)
                    runs.append((losses, conv.weight.data.copy(),
                                 conv.bias.data.copy()))
                (el, ew, eb), (jl, jw, jb) = runs
                if el != jl or not np.array_equal(ew, jw) \
                        or not np.array_equal(eb, jb):
                    drift.append((shape, dtype.__name__))
        assert drift == []


class TestFallbackReasons:
    def _run(self, loss_fn, params, epochs=4):
        return _loop(epochs, True, loss_fn, params)

    def test_data_dependent_where_falls_back(self):
        # huber's quadratic/linear switch depends on the residuals, so its
        # condition array is fresh (and different) every epoch.  The
        # eager fallback must still be bit-identical to never-jitted.
        w, b, x, y = _problem()
        losses, jit = self._run(
            lambda: huber(Tensor(x) @ w + b, y, delta=0.05), [w, b])
        assert jit.off
        w2, b2, _, _ = _problem()
        ref, _ = _loop(4, False,
                       lambda: huber(Tensor(x) @ w2 + b2, y, delta=0.05),
                       [w2, b2])
        assert losses == ref

    def test_matmul_with_1d_operand_falls_back(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(4,)).astype(np.float32),
                   requires_grad=True)
        x = rng.normal(size=(8, 4)).astype(np.float32)
        y = rng.normal(size=(8,)).astype(np.float32)
        losses, jit = self._run(lambda: mse(Tensor(x) @ w, y), [w])
        assert jit.off
        assert "1-D" in jit.disabled_reason

    def test_fancy_index_falls_back(self):
        w, b, x, y = _problem()
        idx = np.array([0, 2, 1])

        def loss_fn():
            return mse((Tensor(x) @ w + b)[idx], y[idx])

        losses, jit = self._run(loss_fn, [w, b])
        assert jit.off

    def test_fallback_is_transparent(self):
        # A disabled JIT never perturbs the loop: capture() and seal()
        # become no-ops and replay() stays False.
        w, b, x, y = _problem()
        losses, jit = self._run(
            lambda: huber(Tensor(x) @ w + b, y, delta=0.05), [w, b],
            epochs=6)
        assert jit.total_replays == 0
        assert jit.off and not jit.wants_capture


class TestLoopControl:
    def test_lane_mask_same_object_replays(self):
        # The stacked backend's ``where(cond, ...)`` pattern: one bool
        # array refreshed in place is trusted as externally-managed data.
        def run(use_jit):
            w, b, x, y = _problem()
            cond = np.ones(8, dtype=bool)

            def before(epoch):
                cond[:] = True
                if epoch >= 3:
                    cond[::2] = False

            def loss_fn():
                per_row = ((Tensor(x) @ w + b - Tensor(y)) ** 2).mean(axis=1)
                masked = where(cond, per_row,
                               Tensor(np.zeros(8, dtype=np.float32)))
                return masked.sum()

            return _loop(8, use_jit, loss_fn, [w, b], before_epoch=before)

        eager_losses, _ = run(False)
        jit_losses, jit = run(True)
        assert jit_losses == eager_losses
        assert jit.total_replays == 6

    def test_fresh_cond_array_disables(self):
        # Same values, different object every epoch: the tracer cannot
        # prove the condition is managed storage, so it must refuse.
        w, b, x, y = _problem()

        def loss_fn():
            per_row = ((Tensor(x) @ w + b - Tensor(y)) ** 2).mean(axis=1)
            return where(np.ones(8, dtype=bool), per_row,
                         Tensor(np.zeros(8, dtype=np.float32))).sum()

        losses, jit = _loop(4, True, loss_fn, [w, b])
        assert jit.off
