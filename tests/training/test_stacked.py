"""Bit-exactness and routing tests for the stacked cohort backend.

Every comparison here is ``==`` on floats on purpose: the stacked
backend's contract is *bitwise* identity with the per-individual serial
path (see DESIGN.md), so any tolerance would hide a broken lane.
"""

import warnings

import numpy as np
import pytest

from repro.autodiff import set_default_dtype
from repro.data.containers import EMADataset, Individual
from repro.models import ModelConfig
from repro.training import (ExecutionPolicy, FaultPolicy, ParallelConfig,
                            TrainerConfig, run_cohort, stackable_reason)
from repro.training.callbacks import CallbackSpec
from repro.training.personalized import enumerate_cells

FAST_MODEL = ModelConfig(hidden_size=8, mtgnn_layers=1, mtgnn_embedding_dim=4)


def make_cohort(num_individuals=3, num_variables=5, time_points=50,
                seed=11, ragged=True, scale_one=None, pairs=False):
    """``ragged`` lengths split a cohort into stacks; ``pairs`` repeats
    each length twice, so every stack holds two lanes."""
    rng = np.random.default_rng(seed)
    individuals = []
    for i in range(num_individuals):
        extra = 4 * (i // 2 if pairs else i) if ragged else 0
        values = rng.normal(size=(time_points + extra, num_variables))
        if scale_one is not None and i == scale_one:
            # Squared error on a 1e200-scale target overflows even float64,
            # so the divergence guard trips deterministically at epoch 1.
            values = values * 1e200
        individuals.append(Individual(
            identifier=f"p{i}", values=values,
            variable_names=tuple(f"v{j}" for j in range(num_variables))))
    return EMADataset(individuals)


def run_both(cohort, model, trainer_config, seq_len=2, stack_size=32,
             faults=None, **kw):
    results = []
    for backend in ("process", "stacked"):
        parallel = ParallelConfig(
            execution=ExecutionPolicy(jobs=1, backend=backend,
                                      stack_size=stack_size),
            faults=faults)
        results.append(run_cohort(cohort, model, seq_len,
                                  trainer_config=trainer_config,
                                  model_config=FAST_MODEL,
                                  parallel=parallel, **kw))
    return results


def assert_identical(serial, stacked):
    from repro.training.faults import CellFailure

    assert len(serial) == len(stacked)
    for a, b in zip(serial, stacked):
        assert a.identifier == b.identifier
        if isinstance(a, CellFailure) or isinstance(b, CellFailure):
            # on_error="collect" keeps failures in the result list; both
            # backends must fail the same cell the same way.
            assert type(a) is type(b)
            assert (a.key, a.kind) == (b.key, b.kind)
            continue
        assert a.test_mse == b.test_mse or (
            np.isnan(a.test_mse) and np.isnan(b.test_mse))
        assert a.train_mse == b.train_mse or (
            np.isnan(a.train_mse) and np.isnan(b.train_mse))
        assert a.repeat_scores == b.repeat_scores
        assert [e.loss for e in a.history.records] == \
            [e.loss for e in b.history.records]
        assert [e.grad_norm for e in a.history.records] == \
            [e.grad_norm for e in b.history.records]
        assert a.history.stop_reason == b.history.stop_reason


@pytest.fixture
def stack_sizes(monkeypatch):
    """Lane counts of every stack the stacked backend trains."""
    import repro.training.stacked as stacked_mod

    sizes = []
    execute = stacked_mod._execute_stack

    def counting(lanes, resolved):
        sizes.append(len(lanes))
        return execute(lanes, resolved)

    monkeypatch.setattr(stacked_mod, "_execute_stack", counting)
    return sizes


class TestBitIdentity:
    @pytest.mark.parametrize("model", ["lstm", "tgcn", "a3tgcn"])
    def test_matches_serial_bitwise(self, model, stack_sizes):
        # Ragged lengths split the cohort into several stacks of two
        # lanes each; dropout is active at the model default, exercising
        # per-lane RNG streams.
        cohort = make_cohort(num_individuals=4, pairs=True)
        serial, stacked = run_both(cohort, model, TrainerConfig(epochs=4))
        assert_identical(serial, stacked)
        assert stack_sizes == [2, 2]

    @pytest.mark.parametrize("model", ["lstm", "tgcn", "a3tgcn"])
    def test_seq_len_one(self, model, stack_sizes):
        # seq_len=1 leaves A3TGCN's attention parameter unused (grad None)
        # — the stacked optimizer must replay that pattern too.
        cohort = make_cohort(ragged=False)
        serial, stacked = run_both(cohort, model, TrainerConfig(epochs=4),
                                   seq_len=1)
        assert_identical(serial, stacked)
        assert stack_sizes == [3]

    def test_chunked_stacks(self):
        # stack_size smaller than the group forces multiple chunks.
        cohort = make_cohort(num_individuals=5, ragged=False)
        serial, stacked = run_both(cohort, "lstm", TrainerConfig(epochs=3),
                                   stack_size=2)
        assert_identical(serial, stacked)

    def test_float64(self):
        set_default_dtype("float64")
        cohort = make_cohort(ragged=False)
        serial, stacked = run_both(cohort, "a3tgcn", TrainerConfig(epochs=3))
        assert_identical(serial, stacked)

    def test_random_graph_repeats(self):
        cohort = make_cohort(ragged=False)
        serial, stacked = run_both(cohort, "a3tgcn", TrainerConfig(epochs=3),
                                   graph_method="random",
                                   num_random_repeats=3)
        assert_identical(serial, stacked)
        assert all(len(r.repeat_scores) == 3 for r in stacked)

    def test_high_lr_clip_path(self):
        # Regression: per-lane grad norms must reduce over each lane's
        # strided gradient slice, not a C-order flattening — solo leaf
        # grads keep the transpose-view layout, and a reshape-forced copy
        # changes the pairwise summation order (and thus the clip scale)
        # by a few ULPs once clipping actually triggers.
        cohort = make_cohort()
        config = TrainerConfig(epochs=5, learning_rate=5.0, grad_clip=1.0)
        for model in ("lstm", "a3tgcn"):
            serial, stacked = run_both(cohort, model, config)
            assert_identical(serial, stacked)

    def test_explicit_weight_decay(self):
        cohort = make_cohort(ragged=False)
        serial, stacked = run_both(cohort, "lstm",
                                   TrainerConfig(epochs=3,
                                                 weight_decay=0.01))
        assert_identical(serial, stacked)


class TestJitReplay:
    """``TrainerConfig.jit`` on the stacked backend: replay the whole
    lane-stack epoch (forward, masked loss, backward, clip, step) from a
    compiled plan, bit-identically — including in-place lane freezes."""

    def run_jit_pair(self, cohort, model, trainer_config, **kw):
        import dataclasses

        jitted_config = dataclasses.replace(trainer_config, jit=True)
        results = []
        for config in (trainer_config, jitted_config):
            parallel = ParallelConfig(
                execution=ExecutionPolicy(jobs=1, backend="stacked"))
            results.append(run_cohort(cohort, model, 2,
                                      trainer_config=config,
                                      model_config=FAST_MODEL,
                                      parallel=parallel, **kw))
        return results

    @pytest.mark.parametrize("model", ["lstm", "tgcn", "a3tgcn"])
    def test_replay_matches_eager_stack(self, model):
        # Dropout active at the model default: the plan refills each
        # lane's mask from its solo RNG stream every replayed epoch.
        cohort = make_cohort()
        eager, jitted = self.run_jit_pair(cohort, model,
                                          TrainerConfig(epochs=5))
        assert_identical(eager, jitted)

    def test_replay_with_grad_clip(self):
        cohort = make_cohort()
        config = TrainerConfig(epochs=5, learning_rate=5.0, grad_clip=1.0)
        for model in ("lstm", "a3tgcn"):
            eager, jitted = self.run_jit_pair(cohort, model, config)
            assert_identical(eager, jitted)

    def test_replay_tracks_lane_freezes(self):
        # Lanes stop at different epochs; the refreshed in-place ``where``
        # condition must mask them out of replayed epochs without a
        # retrace, and each lane must finish bitwise-equal to eager.
        cohort = make_cohort(num_individuals=4)
        config = TrainerConfig(
            epochs=25,
            callbacks=(CallbackSpec.make("early-stopping", patience=2,
                                         min_delta=1e-3),))
        eager, jitted = self.run_jit_pair(cohort, "lstm", config)
        assert_identical(eager, jitted)
        assert any(r.history.stop_reason for r in jitted)
        assert len({r.history.epochs for r in jitted}) > 1

    def test_jit_matches_serial_process_backend(self):
        # Transitivity check straight to ground truth: stacked+jit vs the
        # per-individual serial path.
        cohort = make_cohort(ragged=False)
        config = TrainerConfig(epochs=4, jit=True)
        serial = run_cohort(cohort, "lstm", 2, trainer_config=config,
                            model_config=FAST_MODEL,
                            parallel=ParallelConfig(
                                execution=ExecutionPolicy(jobs=1)))
        stacked = run_cohort(cohort, "lstm", 2, trainer_config=config,
                             model_config=FAST_MODEL,
                             parallel=ParallelConfig(
                                 execution=ExecutionPolicy(
                                     jobs=1, backend="stacked")))
        assert_identical(serial, stacked)

    def test_huber_stack_falls_back_bitwise(self):
        # Data-dependent where condition: the stack JIT must disable
        # itself and the eager stack must carry the epoch unchanged.
        cohort = make_cohort(ragged=False)
        eager, jitted = self.run_jit_pair(
            cohort, "lstm", TrainerConfig(epochs=4, loss="huber"))
        assert_identical(eager, jitted)


class TestLaneMasks:
    def test_early_stopped_lane_bitwise(self):
        # Lanes stop at different epochs; each must end with weights (and
        # stop reason) bit-identical to its solo fit, while later lanes
        # keep training with the stopped lane frozen.
        cohort = make_cohort(num_individuals=4)
        config = TrainerConfig(
            epochs=25,
            callbacks=(CallbackSpec.make("early-stopping", patience=2,
                                         min_delta=1e-3),))
        serial, stacked = run_both(cohort, "lstm", config)
        assert_identical(serial, stacked)
        assert any(r.history.stop_reason for r in stacked)
        epochs = {r.history.epochs for r in stacked}
        assert len(epochs) > 1, "expected lanes to stop at distinct epochs"

    def test_nan_lane_does_not_contaminate_siblings(self):
        # One individual's series overflows float64 on the first squared
        # error; its divergence-guard lane trips at epoch 1 and freezes,
        # the non-finite-scoring cell is handed back to the solo
        # scheduler (which fails it the same way serial does), and every
        # sibling must stay bit-identical to its solo fit.
        from repro.training.faults import CellFailure

        cohort = make_cohort(num_individuals=4, ragged=False, scale_one=1)
        config = TrainerConfig(
            epochs=8, learning_rate=5.0,
            callbacks=(CallbackSpec.make("divergence-guard"),))
        serial, stacked = run_both(cohort, "lstm", config,
                                   faults=FaultPolicy(on_error="collect"))
        assert_identical(serial, stacked)
        assert isinstance(stacked[1], CellFailure)
        assert stacked[1].kind == "divergence"
        assert sum(isinstance(r, CellFailure) for r in stacked) == 1

    def test_nan_lane_without_callbacks_reruns_solo(self):
        # With no callback specs there is no solo-faithful NaN semantics
        # to replay mid-stack; the lane is frozen and the cell re-runs on
        # the canonical per-individual path (with its retry machinery).
        from repro.training.faults import CellFailure

        cohort = make_cohort(num_individuals=3, ragged=False, scale_one=1)
        config = TrainerConfig(epochs=8, learning_rate=5.0)
        serial, stacked = run_both(cohort, "lstm", config,
                                   faults=FaultPolicy(on_error="collect",
                                                      retries=1,
                                                      retry_backoff=0.0))
        assert_identical(serial, stacked)
        assert isinstance(stacked[1], CellFailure)
        assert stacked[1].kind == "divergence"
        assert stacked[1].attempts == 2  # retries=1 exhausted on the solo path

    @pytest.mark.parametrize("kwargs", [{"patience": 0},
                                        {"min_delta": -1.0}])
    def test_callback_argument_checks_match_solo(self, kwargs):
        # A lane builds the solo callback, so an invalid spec fails the
        # cell exactly as the per-individual path does instead of
        # training lanes the solo constructor would have refused.
        from repro.training.faults import CellFailure

        cohort = make_cohort(num_individuals=3, ragged=False)
        config = TrainerConfig(
            epochs=4,
            callbacks=(CallbackSpec.make("early-stopping", **kwargs),))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            serial, stacked = run_both(cohort, "lstm", config,
                                       faults=FaultPolicy(on_error="collect"))
        assert_identical(serial, stacked)
        assert all(isinstance(r, CellFailure) for r in serial + stacked)
        assert [(r.error_type, r.message) for r in serial] == \
            [(r.error_type, r.message) for r in stacked]


class TestRouting:
    def test_unstackable_model_falls_back(self, stack_sizes):
        # MTGNN serves through lanes but has no lane training step: its
        # cells stay solo up front, with the catalogued reason and no
        # failed-stack warning.
        from repro.analysis.hazards import match_reason

        cohort = make_cohort(ragged=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            serial, stacked = run_both(cohort, "mtgnn",
                                       TrainerConfig(epochs=2))
        assert_identical(serial, stacked)
        assert stack_sizes == []
        for result in stacked:
            reason = result.fallback_reason
            assert reason.startswith("not stacked: ")
            assert match_reason(reason[len("not stacked: "):]) == \
                "stack-no-backward"
            assert "lane_propagate" in reason

    def test_tgcn_cohort_at_128_variables_stacks_bitwise(self, stack_sizes):
        # 128 variables over a 2% graph: GCNConv propagates densely at any
        # size and density, so the cohort stacks and matches serial bitwise.
        cohort = make_cohort(num_individuals=2, num_variables=128,
                             time_points=20, ragged=False)
        cells = enumerate_cells(cohort, "tgcn", 2, keep_fraction=0.02,
                                trainer_config=TrainerConfig(epochs=1),
                                model_config=FAST_MODEL)
        assert stackable_reason(cells[0]) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            serial, stacked = run_both(cohort, "tgcn",
                                       TrainerConfig(epochs=1),
                                       keep_fraction=0.02)
        assert_identical(serial, stacked)
        assert stack_sizes == [2]

    def test_stackable_reason(self):
        cells = enumerate_cells(make_cohort(), "lstm", 2,
                                trainer_config=TrainerConfig(epochs=2))
        assert stackable_reason(cells[0]) is None

        sgd = enumerate_cells(
            make_cohort(), "lstm", 2,
            trainer_config=TrainerConfig(epochs=2, optimizer="sgd"))
        assert "optimizer" in stackable_reason(sgd[0])

        for name in ("astgcn", "mtgnn"):
            cells = enumerate_cells(make_cohort(), name, 2,
                                    trainer_config=TrainerConfig(epochs=2))
            assert "no stacked training step" in stackable_reason(cells[0])

        var = enumerate_cells(make_cohort(), "var", 2,
                              trainer_config=TrainerConfig(epochs=2))
        assert "no stacked forward" in stackable_reason(var[0])

        timer = enumerate_cells(
            make_cohort(), "lstm", 2,
            trainer_config=TrainerConfig(
                epochs=2, callbacks=(CallbackSpec.make("epoch-timer"),)))
        assert "callback" in stackable_reason(timer[0])

    def test_backend_validation(self):
        with pytest.raises(ValueError):
            ParallelConfig(execution=ExecutionPolicy(backend="gpu"))
        with pytest.raises(ValueError):
            ParallelConfig(
                execution=ExecutionPolicy(backend="stacked", stack_size=0))

    def test_stack_failure_falls_back_to_solo(self, monkeypatch):
        # A crash inside the stacked executor must not fail the run: the
        # touched cells return to the per-individual scheduler.
        import repro.training.stacked as stacked_mod

        def boom(lanes, resolved):
            raise RuntimeError("stack exploded")

        monkeypatch.setattr(stacked_mod, "_execute_stack", boom)
        cohort = make_cohort(ragged=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            results = run_cohort(
                cohort, "lstm", 2, trainer_config=TrainerConfig(epochs=2),
                model_config=FAST_MODEL,
                parallel=ParallelConfig(
                    execution=ExecutionPolicy(jobs=1, backend="stacked")))
        serial = run_cohort(cohort, "lstm", 2,
                            trainer_config=TrainerConfig(epochs=2),
                            model_config=FAST_MODEL,
                            parallel=ParallelConfig(
                                execution=ExecutionPolicy(jobs=1)))
        assert_identical(serial, results)


class TestLaneMaskedAdam:
    """``Adam.step(active=mask)`` over parameters stacked on a lane axis."""

    def _clone_params(self, rng, lanes, shapes, dtype):
        from repro.nn.module import Parameter

        solo = [[Parameter(rng.normal(size=shape).astype(dtype))
                 for shape in shapes] for _ in range(lanes)]
        stacked = [Parameter(np.stack([solo[k][i].data
                                       for k in range(lanes)]))
                   for i in range(len(shapes))]
        return solo, stacked

    def _set_grads(self, rng, solo, stacked, dtype):
        for i, param in enumerate(stacked):
            grads = [rng.normal(size=solo[0][i].data.shape).astype(dtype)
                     for _ in solo]
            for lane, g in enumerate(grads):
                solo[lane][i].grad = g
            param.grad = np.stack(grads)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_full_step_matches_solo_adams(self, dtype):
        from repro.optim import Adam

        set_default_dtype(np.dtype(dtype).name)
        rng = np.random.default_rng(0)
        lanes, shapes = 3, [(4, 5), (5,), (2, 4, 3)]
        solo, stacked = self._clone_params(rng, lanes, shapes, dtype)
        solo_opts = [Adam(params, lr=0.05, weight_decay=0.01)
                     for params in solo]
        opt = Adam(stacked, lr=0.05, weight_decay=0.01)
        # Lanes stop one by one: the mask runs full, then partial steps.
        masks = [[True] * 3, [True] * 3, [True, False, True],
                 [False, False, True], [False, False, True]]
        for mask in masks:
            active = np.array(mask)
            self._set_grads(rng, solo, stacked, dtype)
            for lane, solo_opt in enumerate(solo_opts):
                if active[lane]:
                    solo_opt.step()
            opt.step(active=active)
        for i, param in enumerate(stacked):
            for lane in range(lanes):
                np.testing.assert_array_equal(param.data[lane],
                                              solo[lane][i].data)

    def test_masked_step_freezes_lanes(self):
        from repro.optim import Adam

        set_default_dtype("float32")
        rng = np.random.default_rng(1)
        lanes, shapes = 4, [(3, 3), (3,)]
        solo, stacked = self._clone_params(rng, lanes, shapes, np.float32)
        solo_opts = [Adam(params, lr=0.1) for params in solo]
        opt = Adam(stacked, lr=0.1)
        active = np.array([True, False, True, False])
        frozen = [param.data[~active].copy() for param in stacked]
        for step in range(4):
            self._set_grads(rng, solo, stacked, np.float32)
            for lane, solo_opt in enumerate(solo_opts):
                if active[lane]:
                    solo_opt.step()
            opt.step(active=active)
        for i, param in enumerate(stacked):
            np.testing.assert_array_equal(param.data[~active], frozen[i])
            assert not opt._m[i][~active].any()
            for lane in range(lanes):
                np.testing.assert_array_equal(param.data[lane],
                                              solo[lane][i].data)


class TestLaneOps:
    def test_lane_matmul_matches_per_lane_reference(self):
        # The batched fast path must replay the per-lane loop bitwise on
        # this host (the import-time probe's verdict, asserted end-to-end).
        from repro.autodiff import Tensor
        from repro.nn import lane_affine

        rng = np.random.default_rng(2)
        lanes, m, f_in, f_out = 4, 7, 5, 6
        x = rng.normal(size=(lanes, m, f_in)).astype(np.float32)
        w = rng.normal(size=(lanes, f_out, f_in)).astype(np.float32)
        b = rng.normal(size=(lanes, f_out)).astype(np.float32)

        xs = Tensor(x, requires_grad=True)
        ws = Tensor(w, requires_grad=True)
        bs = Tensor(b, requires_grad=True)
        out = lane_affine(xs, ws, bs)
        out.sum().backward()

        for k in range(lanes):
            xk = Tensor(x[k], requires_grad=True)
            wk = Tensor(w[k], requires_grad=True)
            bk = Tensor(b[k], requires_grad=True)
            ok = xk @ wk.T + bk
            ok.sum().backward()
            np.testing.assert_array_equal(out.data[k], ok.data)
            np.testing.assert_array_equal(xs.grad[k], xk.grad)
            np.testing.assert_array_equal(ws.grad[k], wk.grad)
            np.testing.assert_array_equal(bs.grad[k], bk.grad)


class TestLaneOpGradients:
    """The lane forms of the ASTGCN/MTGNN layers' ops, both directions,
    against the solo op lane by lane (the models train solo today, so no
    cohort test reaches these backwards)."""

    @staticmethod
    def _check(lane_op, solo_op, x, p):
        from repro.autodiff import Tensor

        lx, lp = Tensor(x, requires_grad=True), Tensor(p, requires_grad=True)
        out = lane_op(lx, lp)
        seed = np.random.default_rng(5).normal(size=out.shape).astype(x.dtype)
        out.backward(seed)
        for k in range(x.shape[0]):
            sx = Tensor(x[k], requires_grad=True)
            sp = Tensor(p[k], requires_grad=True)
            solo = solo_op(sx, sp)
            solo.backward(seed[k])
            np.testing.assert_array_equal(out.data[k], solo.data)
            np.testing.assert_array_equal(lx.grad[k], sx.grad)
            np.testing.assert_array_equal(lp.grad[k], sp.grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matvec_scale_and_2d_bias(self, dtype):
        from repro.nn.stacked_ops import lane_bias_add, lane_matvec, lane_scale

        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 5, 4, 2, 7)).astype(dtype)
        self._check(lane_matvec, lambda a, b: a @ b, x,
                    rng.normal(size=(3, 7)).astype(dtype))
        self._check(lane_scale, lambda a, b: a * b, x,
                    rng.normal(size=(3, 7)).astype(dtype))
        self._check(lane_bias_add, lambda a, b: a + b, x,
                    rng.normal(size=(3, 2, 7)).astype(dtype))

    def test_learned_operators_have_no_lane_backward(self):
        from repro.autodiff import Tensor, no_grad
        from repro.nn.stacked_ops import lane_mix, lane_propagate

        x = Tensor(np.ones((2, 3, 4, 5)), requires_grad=True)
        operator = Tensor(np.ones((2, 4, 4)), requires_grad=True)
        for op in (lane_propagate, lane_mix):
            with pytest.raises(TypeError, match="no lane backward"):
                op(operator, x)
            with no_grad():
                assert op(operator, x).shape == (2, 3, 4, 5)


class TestStackLanes:
    """``repro.nn.stack_lanes`` directly, outside the cohort scheduler."""

    def test_two_layer_lstm_lanes_match_solos_bitwise(self):
        # The registry builds one LSTM layer, so the cohort tests never
        # stack a deeper one: check the layer loop, the gradients and the
        # per-lane dropout streams here, in train mode.
        from repro.autodiff import Tensor
        from repro.models.lstm import LSTMForecaster
        from repro.nn import stack_lanes

        lanes, samples, seq_len, nodes = 3, 4, 3, 5

        def build(seed):
            return LSTMForecaster(nodes, seq_len, hidden_size=6, num_layers=2,
                                  dropout=0.3,
                                  rng=np.random.default_rng(seed))

        inputs = np.random.default_rng(0).normal(
            size=(lanes, samples, seq_len, nodes)).astype(np.float32)
        stacked = stack_lanes([build(seed) for seed in range(lanes)])
        assert stacked.training and stacked.dropout.p == 0.3
        out = stacked(Tensor(inputs))
        (out * out).sum().backward()
        lane_grads = {name: p.grad for name, p in stacked.named_parameters()}
        assert len(lane_grads) == 6
        for k in range(lanes):
            solo = build(k)
            solo_out = solo(Tensor(inputs[k]))
            (solo_out * solo_out).sum().backward()
            np.testing.assert_array_equal(out.data[k], solo_out.data)
            for name, param in solo.named_parameters():
                np.testing.assert_array_equal(lane_grads[name][k], param.grad)

    def test_selected_rows_match_a_fresh_stack(self):
        # LaneSelector takes rows of every stacked parameter and of each
        # twin's per-lane state (GCN operators, dropout solos), repeats
        # and reorderings included.
        from repro.autodiff import Tensor, no_grad
        from repro.models import create_model
        from repro.nn import stack_lanes
        from repro.nn.stacked_ops import LaneSelector

        rng = np.random.default_rng(3)
        models = [create_model("tgcn", 5, 2,
                               adjacency=np.abs(rng.normal(size=(5, 5))),
                               config=FAST_MODEL, seed=seed)
                  for seed in range(3)]
        selector = LaneSelector(stack_lanes(models).eval())
        for rows in ([2, 0], [1, 1, 0], [0, 1, 2]):
            fresh = stack_lanes([models[row] for row in rows]).eval()
            selected = selector.select(rows)
            assert selected.num_lanes == len(rows)
            inputs = Tensor(rng.normal(size=(len(rows), 4, 2, 5)))
            with no_grad():
                np.testing.assert_array_equal(selected(inputs).data,
                                              fresh(inputs).data)
            for name, param in fresh.named_parameters():
                np.testing.assert_array_equal(
                    dict(selected.named_parameters())[name].data, param.data)
            lane_state = set()
            for (_, mine), (_, theirs) in zip(selected.named_modules(),
                                              fresh.named_modules()):
                for attr in getattr(mine, "_derived", ()):
                    if attr in vars(mine):
                        lane_state.add(attr)
                        np.testing.assert_array_equal(
                            getattr(mine, attr), getattr(theirs, attr))
            assert lane_state == {"_propagation", "_solos"}

    def test_attribute_without_lane_form_is_named(self):
        from repro.models import create_model
        from repro.nn import stack_lanes

        adjacency = np.ones((4, 4))
        static = ModelConfig(hidden_size=8, mtgnn_layers=1,
                             mtgnn_use_graph_learning=False)
        models = [create_model("mtgnn", 4, 3, adjacency=adjacency,
                               config=static, seed=seed)
                  for seed in range(2)]
        with pytest.raises(TypeError,
                           match=r"_static_adjacency .*no lane form"):
            stack_lanes(models)

    def test_only_lane_clones_accept_a_lane_axis(self):
        from repro.autodiff import Tensor
        from repro.models import create_model
        from repro.nn import stack_lanes

        models = [create_model("lstm", 5, 2, config=FAST_MODEL, seed=seed)
                  for seed in range(2)]
        batch = Tensor(np.zeros((2, 4, 2, 5)))
        with pytest.raises(ValueError, match="expects"):
            models[0](batch)
        stacked = stack_lanes(models)
        assert stacked(batch).shape == (2, 4, 5)
        with pytest.raises(ValueError, match="2 lanes"):
            stacked(Tensor(np.zeros((4, 2, 5))))
        with pytest.raises(ValueError, match="2 lanes"):
            stacked(Tensor(np.zeros((3, 4, 2, 5))))
