"""Registry verdicts, baseline sync, and the probe/runtime agreement.

The contract under test: a model the verdict calls traceable/stackable
must actually take that fast path at runtime, and a blocked model's
reason must be the one the runtime reports.  The traceable half comes
from a two-epoch probe of the real trace JIT, so it runs no fit and
leaves no global state behind (``TestProbeIsolation``).

Runtime probes go through :func:`run_individual` / ``Trainer`` directly,
NOT through ``run_cells``: the cohort scheduler pre-routes blocked cells
away from the JIT, which would mask the genuine runtime
``disabled_reason`` this test compares against.
"""

import numpy as np
import pytest

from repro.analysis import fastpath, hazards
from repro.analysis.fastpath import (BASELINE_PATH, ModelVerdict,
                                     analyze_model, check_registry,
                                     diff_baseline, load_baseline,
                                     registry_verdict, probe_adjacency)
from repro.autodiff import (detect_anomaly, get_default_dtype,
                            is_anomaly_enabled, set_default_dtype)
from repro.autodiff import tensor as tensor_mod
from repro.data.containers import Individual
from repro.models import MODEL_REGISTRY, ModelConfig
from repro.training import TrainerConfig, stackable_reason
from repro.training.history import TrainingHistory
from repro.training.personalized import run_individual

FAST_MODEL = ModelConfig(hidden_size=8, mtgnn_layers=1, mtgnn_embedding_dim=4)

GRADIENT_MODELS = tuple(name for name, spec in MODEL_REGISTRY.items()
                        if spec.family == "gradient")
CLOSED_FORM_MODELS = tuple(name for name, spec in MODEL_REGISTRY.items()
                           if spec.family != "gradient")


def make_individual(num_variables=5, time_points=40, seed=3):
    rng = np.random.default_rng(seed)
    return Individual(
        identifier="p0",
        values=rng.normal(size=(time_points, num_variables)),
        variable_names=tuple(f"v{j}" for j in range(num_variables)))


def jit_probe(model_name, trainer_config):
    """One real (tiny) training run; returns the JIT's disabled_reason."""
    individual = make_individual()
    result = run_individual(
        individual, model_name, seq_len=3,
        graph=probe_adjacency(individual.num_variables),
        trainer_config=trainer_config, model_config=FAST_MODEL, seed=0)
    return result.fallback_reason


class TestBaseline:
    def test_committed_baseline_matches_fresh_verdicts(self):
        diffs = diff_baseline(check_registry(), load_baseline(BASELINE_PATH))
        assert diffs == [], (
            "fastpath_baseline.json drifted; regenerate with: "
            "ema-gnn check --write-baseline\n" + "\n".join(diffs))

    def test_baseline_covers_the_whole_registry(self):
        baseline = load_baseline(BASELINE_PATH)
        assert set(baseline["models"]) == set(MODEL_REGISTRY)

    def test_diff_reports_missing_and_changed_models(self):
        verdicts = check_registry(models=("lstm",))
        baseline = fastpath.baseline_summary(verdicts)
        flipped = ModelVerdict("lstm", "gradient",
                               traceable=False, stackable=False)
        diffs = diff_baseline((flipped,), baseline)
        assert any("traceable changed" in d for d in diffs)
        diffs = diff_baseline((), baseline)
        assert diffs == ["lstm: in baseline but not analyzed"]


#: Expected verdicts: (traceable, stackable, required hazard codes).
EXPECTED = {
    "lstm": (True, True, set()),
    "tgcn": (True, True, set()),
    "a3tgcn": (True, True, set()),
    "astgcn": (False, False, {"REPRO009"}),
    "mtgnn": (False, False, {"REPRO011"}),
    "var": (False, False, {"REPRO011"}),
    "naive-mean": (False, False, {"REPRO011"}),
}


class TestVerdicts:
    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_registry_verdict(self, name):
        traceable, stackable, codes = EXPECTED[name]
        verdict = registry_verdict(name)
        assert verdict.model == name
        assert verdict.traceable is traceable
        assert verdict.stackable is stackable
        assert codes <= {h.code for h in verdict.hazards}
        if not stackable:
            assert verdict.stack_blockers

    def test_unknown_model_is_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            analyze_model("gpt")

    def test_closed_form_verdict_is_empty_tape(self):
        for name in CLOSED_FORM_MODELS:
            verdict = registry_verdict(name)
            assert [h.key for h in verdict.hazards] == ["empty-tape"]

    def test_trace_reason_is_first_hazard_message(self):
        verdict = registry_verdict("astgcn")
        assert verdict.trace_reason == verdict.hazards[0].message
        assert registry_verdict("lstm").trace_reason is None

    def test_huber_loss_blocks_the_recurrent_models(self):
        config = TrainerConfig(loss="huber")
        for name in ("lstm", "tgcn", "a3tgcn"):
            verdict = analyze_model(name, trainer_config=config)
            assert not verdict.traceable
            assert "where-data-dependent" in {h.key for h in verdict.hazards}
            # Huber stacks fine — the blocker is trace-only.
            assert verdict.stackable

    def test_verdict_cache_is_keyed_by_resolved_loss(self):
        default = registry_verdict("lstm")
        assert registry_verdict("lstm", TrainerConfig()) is default
        huber = registry_verdict("lstm", TrainerConfig(loss="huber"))
        assert huber is not default and not huber.traceable


class TestRuntimeAgreement:
    """Static verdict vs what the Trainer/stacked backend actually do."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("name", GRADIENT_MODELS)
    def test_jit_agreement(self, name, dtype):
        set_default_dtype(dtype)
        verdict = registry_verdict(name)
        config = TrainerConfig(epochs=4, jit=True)
        disabled = jit_probe(name, config)
        if verdict.traceable:
            assert disabled is None, (
                f"{name}/{dtype}: statically traceable but the JIT "
                f"disabled itself: {disabled!r} — false eligible")
        else:
            assert disabled is not None, (
                f"{name}/{dtype}: statically blocked but the JIT replayed")
            # The runtime diagnostic must be a catalogued hazard the
            # probe also reported.
            key = hazards.match_reason(disabled)
            assert key in {h.key for h in verdict.hazards}

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_jit_agreement_huber(self, dtype):
        set_default_dtype(dtype)
        config = TrainerConfig(epochs=4, jit=True, loss="huber")
        verdict = analyze_model("lstm", trainer_config=config)
        assert not verdict.traceable
        disabled = jit_probe("lstm", config)
        assert hazards.match_reason(disabled) == "where-data-dependent"

    def test_jit_off_leaves_no_fallback_reason(self):
        assert jit_probe("lstm", TrainerConfig(epochs=2, jit=False)) is None

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_stack_agreement(self, name):
        from types import SimpleNamespace

        verdict = registry_verdict(name)
        cell = SimpleNamespace(model_name=name, export_learned_graph=False,
                               trainer_config=None)
        blocker = stackable_reason(cell)
        assert (blocker is None) == verdict.stackable
        if blocker is not None:
            assert hazards.match_reason(blocker) is not None


class TestProbeIsolation:
    """The JIT probe runs no fit and leaves global state as it found it."""

    def test_check_registry_records_no_training_history(self, monkeypatch):
        calls = []
        record = TrainingHistory.record

        def counting_record(self, *args, **kwargs):
            calls.append(args)
            return record(self, *args, **kwargs)

        monkeypatch.setattr(TrainingHistory, "record", counting_record)
        check_registry()
        assert calls == []

    def test_verdict_under_anomaly_mode_is_not_cached(self, monkeypatch):
        monkeypatch.setattr(fastpath, "_VERDICT_CACHE", {})
        with detect_anomaly():
            undecided = registry_verdict("lstm")
        assert undecided.error is not None and not undecided.traceable
        assert undecided.trace_reason == undecided.error
        assert fastpath._VERDICT_CACHE == {}
        verdict = registry_verdict("lstm")
        assert verdict.error is None and verdict.traceable
        assert registry_verdict("lstm") is verdict

    @pytest.mark.parametrize("name", ["lstm", "mtgnn"])
    def test_probe_restores_global_state(self, name):
        def hook(node):
            raise AssertionError("the probe leaked a node to the outer hook")

        set_default_dtype("float32")
        tensor_mod.set_trace_hook(hook)
        try:
            analyze_model(name)
            assert tensor_mod._TRACE_HOOK is hook
        finally:
            tensor_mod.set_trace_hook(None)
        assert not is_anomaly_enabled()
        assert get_default_dtype() is np.float32
