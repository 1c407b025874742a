"""Inference engine: batching, bit-identity, timeouts, isolation."""

import time

import numpy as np
import pytest

import repro.autodiff as ad
from repro.serving import (ForecastResponse, InferenceEngine, ModelStore,
                           RequestFailure, build_shards)

from .test_store import V, L, make_artifact


def engine_for(model_name, count=4, dtype="float64", **kwargs):
    artifacts, models = [], {}
    for i in range(count):
        artifact, model = make_artifact(model_name, dtype,
                                        identifier=f"p{i}", seed=i)
        artifacts.append(artifact)
        models[f"p{i}"] = model
    shards = build_shards(artifacts)
    kwargs.setdefault("max_batch_size", count)
    kwargs.setdefault("max_linger", 60.0)
    return InferenceEngine(shards, **kwargs), models, shards


def reference(models, identifier, window):
    return models[identifier].predict(np.asarray(window)[None])[0]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("model_name",
                         ["a3tgcn", "astgcn", "lstm", "mtgnn", "tgcn"])
class TestBatchedBitIdentity:
    def test_batched_equals_solo_predict(self, model_name, dtype):
        engine, models, shards = engine_for(model_name, count=4, dtype=dtype)
        outcomes = []
        for identifier in engine.individuals:
            outcomes.extend(engine.submit(identifier))
        assert len(outcomes) == 4  # full batch auto-flushed on last submit
        for outcome in outcomes:
            assert isinstance(outcome, ForecastResponse)
            assert outcome.batched
            window = shards[0].artifacts[outcome.identifier].window_tail
            np.testing.assert_array_equal(
                outcome.prediction, reference(models, outcome.identifier,
                                              window))

    def test_eager_engine_matches_batched(self, model_name, dtype):
        batched, _, _ = engine_for(model_name, count=3, dtype=dtype)
        eager, _, _ = engine_for(model_name, count=3, dtype=dtype,
                                 use_stacked=False)
        for identifier in batched.individuals:
            np.testing.assert_array_equal(batched.forecast(identifier),
                                          eager.forecast(identifier))
        outcomes = []
        for identifier in eager.individuals:
            outcomes.extend(eager.submit(identifier))
        outcomes.extend(eager.flush())
        assert len(outcomes) == 3
        assert all(not outcome.batched for outcome in outcomes)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_one_lane_build_per_shard(dtype):
    # Flushes of different subsets, in permuted order, with one individual
    # twice, all serve from the one lane model each shard built.
    lane_models = ["a3tgcn", "astgcn", "lstm", "mtgnn", "tgcn"]
    artifacts, models = [], {}
    for name in lane_models:
        for i in range(4):
            artifact, model = make_artifact(name, dtype, identifier=f"p{i}",
                                            seed=i)
            artifacts.append(artifact)
            models[name, f"p{i}"] = model
    engine = InferenceEngine(build_shards(artifacts), max_batch_size=100,
                             max_linger=60.0)
    rng = np.random.default_rng(7)
    for flush in (["p0", "p1", "p2"], ["p3", "p1", "p0", "p2"],
                  ["p2", "p3", "p2"]):
        sent = []
        for name in lane_models:
            for identifier in flush:
                window = rng.standard_normal((L, V)).astype(dtype)
                assert engine.submit(identifier, window,
                                     model_name=name) == []
                sent.append((name, identifier, window))
        outcomes = engine.flush()
        assert len(outcomes) == len(sent)
        for (name, identifier, window), outcome in zip(sent, outcomes):
            assert isinstance(outcome, ForecastResponse) and outcome.batched
            assert (outcome.model_name, outcome.identifier) == \
                (name, identifier)
            np.testing.assert_array_equal(
                outcome.prediction,
                models[name, identifier].predict(window[None])[0])
    assert engine.stats["lane_builds"] == len(lane_models)


class TestQueue:
    def test_requests_linger_until_flush(self):
        engine, _, _ = engine_for("lstm", count=3, max_batch_size=10,
                                  max_linger=60.0)
        assert engine.submit("p0") == []
        assert engine.poll() == []  # linger window still open
        assert engine.submit("p1") == []
        outcomes = engine.flush()
        assert sorted(o.identifier for o in outcomes) == ["p0", "p1"]
        assert engine.flush() == []

    def test_full_batch_auto_flushes(self):
        engine, _, _ = engine_for("lstm", count=3, max_batch_size=2,
                                  max_linger=60.0)
        assert engine.submit("p0") == []
        outcomes = engine.submit("p1")
        assert len(outcomes) == 2

    def test_zero_linger_poll_flushes_immediately(self):
        engine, _, _ = engine_for("lstm", count=3, max_batch_size=10,
                                  max_linger=0.0)
        engine.submit("p0")
        assert len(engine.poll()) == 1

    def test_outcomes_keep_submission_order(self):
        engine, _, _ = engine_for("tgcn", count=4, max_batch_size=10)
        order = ["p2", "p0", "p3", "p1"]
        for identifier in order:
            engine.submit(identifier)
        assert [o.identifier for o in engine.flush()] == order

    @pytest.mark.parametrize("linger", [float("nan"), float("inf"),
                                        float("-inf"), -1.0])
    def test_non_finite_or_negative_linger_is_rejected(self, linger):
        # A NaN linger would never flush: ``waited >= nan`` is always False.
        with pytest.raises(ValueError, match=f"max_linger .*got {linger}"):
            engine_for("lstm", count=2, max_linger=linger)

    def test_explicit_window_is_used(self):
        engine, models, _ = engine_for("lstm", count=2)
        rng = np.random.default_rng(99)
        window = rng.standard_normal((L, V))
        np.testing.assert_array_equal(
            engine.forecast("p0", window), reference(models, "p0", window))


class TestFailures:
    def test_unknown_individual_fails_immediately(self):
        engine, _, _ = engine_for("lstm", count=2)
        outcomes = engine.submit("nobody")
        assert len(outcomes) == 1
        assert isinstance(outcomes[0], RequestFailure)
        assert outcomes[0].kind == "exception"
        assert "unknown individual" in outcomes[0].message
        assert engine.flush() == []  # never enqueued

    def test_bad_window_shape_fails_immediately(self):
        engine, _, _ = engine_for("lstm", count=2)
        outcomes = engine.submit("p0", np.zeros((L + 1, V)))
        assert isinstance(outcomes[0], RequestFailure)
        assert "expects" in outcomes[0].message

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_window_fails_immediately(self, bad):
        # Before the check, NaN gave an all-NaN batched forecast and inf a
        # finite one from saturated LSTM gates.
        engine, _, _ = engine_for("lstm", count=3)
        window = np.zeros((L, V))
        window[L - 1, 2] = bad
        outcomes = engine.submit("p0", window)
        assert isinstance(outcomes[0], RequestFailure)
        assert (outcomes[0].kind, outcomes[0].error_type) == \
            ("exception", "ValueError")
        assert f"1 non-finite value(s), first in row {L - 1}" in \
            outcomes[0].message
        assert engine.flush() == []  # never enqueued

    def test_sync_forecast_raises_on_null_in_window(self):
        engine, _, _ = engine_for("lstm", count=2)
        window = np.zeros((L, V)).tolist()
        window[0][1] = None  # what a JSON null decodes to
        with pytest.raises(ValueError, match="non-finite"):
            engine.forecast("p0", window)

    def test_expired_deadline_becomes_timeout_failure(self):
        engine, _, _ = engine_for("lstm", count=3, max_batch_size=10)
        engine.submit("p0", timeout=1e-9)
        engine.submit("p1")  # no deadline
        time.sleep(0.01)
        outcomes = engine.flush()
        by_id = {o.identifier: o for o in outcomes}
        assert isinstance(by_id["p0"], RequestFailure)
        assert by_id["p0"].kind == "timeout"
        assert isinstance(by_id["p1"], ForecastResponse)

    def test_sync_forecast_raises_on_unknown(self):
        engine, _, _ = engine_for("lstm", count=2)
        with pytest.raises(KeyError, match="unknown individual"):
            engine.forecast("nobody")

    def test_batched_failure_falls_back_to_eager(self, monkeypatch):
        engine, models, shards = engine_for("tgcn", count=3)

        def explode(*args, **kwargs):
            raise RuntimeError("stacked path poisoned")

        monkeypatch.setattr(InferenceEngine, "_run_stacked", explode)
        outcomes = []
        for identifier in engine.individuals:
            outcomes.extend(engine.submit(identifier))
        outcomes.extend(engine.flush())
        assert len(outcomes) == 3
        for outcome in outcomes:
            assert isinstance(outcome, ForecastResponse)
            assert not outcome.batched
            window = shards[0].artifacts[outcome.identifier].window_tail
            np.testing.assert_array_equal(
                outcome.prediction,
                reference(models, outcome.identifier, window))

    def test_poisoned_request_does_not_sink_batchmates(self, monkeypatch):
        engine, _, _ = engine_for("tgcn", count=3)
        original = InferenceEngine._solo_model

        def poisoned(self, shard, identifier):
            if identifier == "p1":
                raise RuntimeError("model rebuild failed")
            return original(self, shard, identifier)

        monkeypatch.setattr(InferenceEngine, "_solo_model", poisoned)
        collected = []
        for identifier in engine.individuals:
            collected.extend(engine.submit(identifier))
        collected.extend(engine.flush())
        outcomes = {o.identifier: o for o in collected}
        assert isinstance(outcomes["p1"], RequestFailure)
        assert outcomes["p1"].error_type == "RuntimeError"
        assert isinstance(outcomes["p0"], ForecastResponse)
        assert isinstance(outcomes["p2"], ForecastResponse)


    def test_unbuildable_individual_leaves_batchmates_batched(self,
                                                               monkeypatch):
        engine, models, shards = engine_for("tgcn", count=3)
        original = InferenceEngine._solo_model

        def poisoned(self, shard, identifier):
            if identifier == "p1":
                raise RuntimeError("model rebuild failed")
            return original(self, shard, identifier)

        monkeypatch.setattr(InferenceEngine, "_solo_model", poisoned)
        for _ in range(2):
            collected = []
            for identifier in engine.individuals:
                collected.extend(engine.submit(identifier))
            outcomes = {o.identifier: o for o in collected}
            assert isinstance(outcomes["p1"], RequestFailure)
            assert outcomes["p1"].error_type == "RuntimeError"
            for identifier in ("p0", "p2"):
                assert outcomes[identifier].batched
                window = shards[0].artifacts[identifier].window_tail
                np.testing.assert_array_equal(
                    outcomes[identifier].prediction,
                    reference(models, identifier, window))
        assert engine.stats["lane_builds"] == 1

    def test_failed_lane_build_is_recorded_once(self, monkeypatch):
        from repro.serving import engine as engine_module

        def refuse(models):
            raise TypeError("no lane form")

        monkeypatch.setattr(engine_module, "stack_lanes", refuse)
        engine, models, shards = engine_for("tgcn", count=3)
        for _ in range(2):
            collected = []
            for identifier in engine.individuals:
                collected.extend(engine.submit(identifier))
            assert len(collected) == 3
            for outcome in collected:
                assert isinstance(outcome, ForecastResponse)
                assert not outcome.batched
                window = shards[0].artifacts[outcome.identifier].window_tail
                np.testing.assert_array_equal(
                    outcome.prediction,
                    reference(models, outcome.identifier, window))
        assert engine.stats["lane_builds"] == 1


class TestRouting:
    def test_non_stackable_models_serve_eagerly(self):
        engine, models, shards = engine_for("var", count=2)
        engine.submit("p0")
        engine.submit("p1")
        outcomes = engine.flush()
        assert all(isinstance(o, ForecastResponse) and not o.batched
                   for o in outcomes)
        for outcome in outcomes:
            window = shards[0].artifacts[outcome.identifier].window_tail
            np.testing.assert_array_equal(
                outcome.prediction,
                reference(models, outcome.identifier, window))

    def test_astgcn_shard_at_128_variables_serves_batched(self):
        # A dense 128-node graph: every Chebyshev term propagates densely
        # at any size, so the shard takes the lane path, and each batched
        # forecast equals the individual's solo predict bitwise.
        from repro.models import create_model
        from repro.serving import CohortArtifact

        nodes, seq_len = 128, 2
        graph = np.ones((nodes, nodes)) - np.eye(nodes)
        artifacts, models = [], {}
        for i in range(2):
            model = create_model("astgcn", nodes, seq_len, adjacency=graph,
                                 seed=i)
            models[f"p{i}"] = model
            artifacts.append(CohortArtifact(
                identifier=f"p{i}", model_name="astgcn", seq_len=seq_len,
                num_variables=nodes, dtype="float64",
                state=model.state_dict(), adjacency=graph,
                window_tail=np.random.default_rng(i).normal(
                    size=(seq_len, nodes))))
        shards = build_shards(artifacts)
        engine = InferenceEngine(shards, max_batch_size=2, max_linger=60.0)
        assert engine._stackable(shards[0])
        engine.submit("p0")
        outcomes = engine.submit("p1")
        assert [o.batched for o in outcomes] == [True, True]
        for outcome in outcomes:
            window = shards[0].artifacts[outcome.identifier].window_tail
            np.testing.assert_array_equal(
                outcome.prediction,
                reference(models, outcome.identifier, window))

    def test_multi_model_store_requires_model_name(self):
        a0, _ = make_artifact("lstm", identifier="p0")
        a1, _ = make_artifact("tgcn", identifier="p0")
        engine = InferenceEngine(build_shards([a0, a1]))
        with pytest.raises(KeyError, match="multiple models"):
            engine.forecast("p0")
        assert engine.forecast("p0", model_name="lstm").shape == (V,)

    def test_engine_does_not_disturb_caller_dtype(self):
        engine, _, _ = engine_for("lstm", count=2, dtype="float32")
        ad.set_default_dtype("float64")
        engine.forecast("p0")
        assert np.dtype(ad.get_default_dtype()) == np.dtype("float64")

    def test_stats_accounting(self):
        engine, _, _ = engine_for("tgcn", count=3, max_batch_size=3)
        for identifier in engine.individuals:
            engine.submit(identifier)
        engine.submit("nobody")
        assert engine.stats["submitted"] == 4
        assert engine.stats["served"] == 3
        assert engine.stats["batched"] == 3
        assert engine.stats["failed"] == 1


class TestNonFiniteForecasts:
    # A window of 3e38 is finite, so it passes the submit-time check, but
    # float32 ASTGCN overflows on it and forecasts NaN.
    HUGE = 3e38

    def huge_window(self):
        return np.full((L, V), self.HUGE, dtype="float32")

    @pytest.mark.parametrize("use_stacked", [True, False])
    def test_nan_forecast_is_a_failure_naming_individual_and_model(
            self, use_stacked):
        engine, models, shards = engine_for("astgcn", count=2,
                                            dtype="float32",
                                            use_stacked=use_stacked)
        for _ in range(3):  # capture, verify, replay on the batched path
            engine.submit("p0", self.huge_window())
            outcomes = engine.submit("p1")
            bad, good = outcomes
            assert isinstance(bad, RequestFailure)
            assert (bad.kind, bad.error_type) == ("exception",
                                                  "FloatingPointError")
            assert "'p0'" in bad.message and "astgcn" in bad.message
            assert isinstance(good, ForecastResponse)
            assert good.batched == use_stacked
            window = shards[0].artifacts["p1"].window_tail
            np.testing.assert_array_equal(
                good.prediction, reference(models, "p1", window))
        assert engine.stats["failed"] == 3
        if use_stacked:
            assert engine.stats["replayed"] == 2

    def test_sync_forecast_raises_on_nan_forecast(self):
        engine, _, _ = engine_for("astgcn", count=2, dtype="float32")
        with pytest.raises(RuntimeError, match="non-finite"):
            engine.forecast("p0", self.huge_window())
