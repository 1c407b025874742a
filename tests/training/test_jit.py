"""Engine-level tests for the trace-capture JIT (``TrainerConfig.jit``).

A jitted fit must be *bitwise* identical to an eager one — same losses,
same grad norms, same evaluation scores — on both the serial trainer and
the stacked cohort backend, and must fall back to the eager loop (not
fail, not drift) on any fit whose per-epoch graph the tracer cannot
prove stable (huber's data-dependent mask).
"""

import numpy as np
import pytest

from repro.data.splits import split_windows
from repro.models import ModelConfig, create_model
from repro.training import Trainer, TrainerConfig
from repro.training.callbacks import CallbackSpec

FAST_MODEL = ModelConfig(hidden_size=8, mtgnn_layers=1, mtgnn_embedding_dim=4)


def fit_once(model_name, jit, epochs=8, seq_len=3, callbacks=(), seed=0,
             **config_kwargs):
    rng = np.random.default_rng(7)
    values = rng.normal(size=(60, 5))
    split = split_windows(values, seq_len, 0.8)
    adjacency = np.abs(np.corrcoef(values.T))
    model = create_model(model_name, 5, seq_len, adjacency=adjacency,
                        config=FAST_MODEL, seed=seed)
    trainer = Trainer(TrainerConfig(epochs=epochs, jit=jit,
                                    callbacks=tuple(callbacks),
                                    **config_kwargs))
    history = trainer.fit(model, split.train)
    test_mse = trainer.evaluate(model, split.test)
    return history, test_mse, trainer


def assert_bitwise(eager, jitted):
    eh, et, _ = eager
    jh, jt, _ = jitted
    assert [e.loss for e in eh.records] == [e.loss for e in jh.records]
    assert [e.grad_norm for e in eh.records] == \
        [e.grad_norm for e in jh.records]
    assert et == jt
    assert eh.stop_reason == jh.stop_reason


class TestSerialBitIdentity:
    @pytest.mark.parametrize("model", ["lstm", "a3tgcn", "astgcn", "mtgnn"])
    def test_replay_matches_eager(self, model):
        eager = fit_once(model, jit=False)
        jitted = fit_once(model, jit=True)
        assert_bitwise(eager, jitted)
        jit = jitted[2].last_jit
        assert jit.total_replays == 6  # epochs 3..8
        assert jit.disabled_reason is None

    def test_a3tgcn_fuses_update_gate_chains(self):
        _, _, trainer = fit_once("a3tgcn", jit=True)
        chains = trainer.last_jit.plan.fused_chains
        assert any([name for name, _ in chain["ops"]] ==
                   ["__neg__", "__add__"] for chain in chains)

    def test_early_stopping_during_replay(self):
        callbacks = (CallbackSpec.make("early-stopping", patience=2,
                                       min_delta=1e-2),)
        eager = fit_once("lstm", jit=False, epochs=40, callbacks=callbacks)
        jitted = fit_once("lstm", jit=True, epochs=40, callbacks=callbacks)
        assert_bitwise(eager, jitted)
        assert jitted[0].stop_reason  # actually stopped early

    def test_grad_clip_callback_during_replay(self):
        # grad-clip runs as an after-backward hook inside the replay tail
        # and must see the plan-bound gradient arrays.
        callbacks = (CallbackSpec.make("grad-clip", max_norm=0.5),)
        eager = fit_once("lstm", jit=False, callbacks=callbacks,
                         learning_rate=1.0)
        jitted = fit_once("lstm", jit=True, callbacks=callbacks,
                          learning_rate=1.0)
        assert_bitwise(eager, jitted)
        assert jitted[2].last_jit.total_replays > 0
        assert any(e.grad_norm is not None for e in jitted[0].records)

    def test_huber_loss_falls_back(self):
        eager = fit_once("lstm", jit=False, epochs=4, loss="huber")
        jitted = fit_once("lstm", jit=True, epochs=4, loss="huber")
        assert_bitwise(eager, jitted)
        assert jitted[2].last_jit.off


class TestProfilerCoverage:
    @pytest.mark.parametrize("model", ["lstm", "a3tgcn"])
    def test_replay_coverage_at_least_95_percent(self, model):
        # Every replayed plan call is metered (plus the one-time
        # verify/compile span), so a jitted fit stays accountable to the
        # op-level profiler.  Paper-scale windows (not the hidden-8 toy
        # above): at toy sizes a replayed op is ~1us and the metric would
        # measure Python loop overhead rather than attribution.
        rng = np.random.default_rng(3)
        values = rng.normal(size=(120, 8))
        split = split_windows(values, 5, 0.8)
        adjacency = np.abs(np.corrcoef(values.T))
        net = create_model(model, 8, 5, adjacency=adjacency,
                           config=ModelConfig(hidden_size=16), seed=0)
        trainer = Trainer(TrainerConfig(
            epochs=20, jit=True,
            callbacks=(CallbackSpec.make("profiler"),)))
        history = trainer.fit(net, split.train)
        assert trainer.last_jit.total_replays == 18
        report = history.profile
        assert report.coverage() >= 0.95
        names = {stat.name for stat in report.ops}
        assert "trace.compile" in names
        assert any(name.startswith("fused[") for name in names) or \
            model == "lstm"

    def test_profiled_replay_stays_bitwise(self):
        plain = fit_once("lstm", jit=True)
        profiled = fit_once("lstm", jit=True,
                            callbacks=(CallbackSpec.make("profiler"),))
        assert [e.loss for e in plain[0].records] == \
            [e.loss for e in profiled[0].records]
        assert plain[1] == profiled[1]
