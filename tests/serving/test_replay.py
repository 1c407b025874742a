"""Served forward replay: capture, verify and replay the batched lane forward.

Each (shard, row count) gets a :class:`~repro.autodiff.trace.ForwardJIT`:
the first two batched flushes of that size capture, the second verifies
and compiles, and later flushes replay the primitives' forward kernels.
Every served forecast must equal solo ``predict`` bit for bit, in each
of the three phases.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.analysis.hazards import match_reason
from repro.autodiff import EpochJIT, Tensor
from repro.autodiff.trace import ForwardJIT
from repro.nn import Module, Parameter, stack_lanes
from repro.nn.stacked_ops import LaneSelector
from repro.serving import ForecastResponse, InferenceEngine, build_shards

from .test_store import V, L, make_artifact

LANE_MODELS = ["lstm", "tgcn", "a3tgcn", "astgcn", "mtgnn"]
COUNT = 3  # individuals per shard


def shard_of(model_name, dtype, count=COUNT):
    artifacts, models = [], {}
    for i in range(count):
        artifact, model = make_artifact(model_name, dtype,
                                        identifier=f"p{i}", seed=i)
        artifacts.append(artifact)
        models[f"p{i}"] = model
    return build_shards(artifacts), models


def serve(engine, model_name, identifiers, rng, dtype):
    """One flush of ``identifiers``; (identifier, window, outcome) each."""
    windows = [rng.standard_normal((L, V)).astype(dtype)
               for _ in identifiers]
    for identifier, window in zip(identifiers, windows):
        assert engine.submit(identifier, window, model_name=model_name) == []
    return list(zip(identifiers, windows, engine.flush()))


def assert_bytes_equal(served, expected):
    assert served.dtype == expected.dtype
    assert served.shape == expected.shape
    assert served.strides == expected.strides
    assert served.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("model_name", LANE_MODELS)
class TestReplayBitIdentity:
    def test_capture_verify_replay_equal_solo_predict(self, model_name,
                                                      dtype):
        shards, models = shard_of(model_name, dtype)
        engine = InferenceEngine(shards, max_batch_size=100,
                                 max_linger=60.0)
        rng = np.random.default_rng(11)
        flushes = {
            1: ["p1"],
            2: ["p2", "p0"],
            3: ["p1", "p1", "p0"],                 # a repeated row
            COUNT + 2: ["p0", "p1", "p2", "p2", "p0"],  # more rows than lanes
        }
        for phase in range(3):  # capture, verify + compile, replay
            for rows in flushes.values():
                for identifier, window, outcome in serve(
                        engine, model_name, rows, rng, dtype):
                    assert isinstance(outcome, ForecastResponse)
                    assert outcome.batched == (len(rows) > 1)
                    assert_bytes_equal(outcome.prediction,
                                       models[identifier].predict(
                                           window[None])[0])
        batched_sizes = len(flushes) - 1
        assert engine.stats["plan_builds"] == batched_sizes
        assert engine.stats["replay_fallbacks"] == {}
        assert engine.stats["replayed"] == sum(
            len(rows) for rows in flushes.values() if len(rows) > 1)

    def test_one_row_plan_equals_solo_predict(self, model_name, dtype):
        # The engine serves a lone request eagerly; a one-row plan is still
        # a plan, driven here through the selector directly.
        shards, models = shard_of(model_name, dtype)
        solos = [models[f"p{i}"] for i in range(COUNT)]
        selector = LaneSelector(stack_lanes(solos).eval())
        jit = ForwardJIT()
        rng = np.random.default_rng(5)
        for row in (2, 0, 1):
            window = rng.standard_normal((1, 1, L, V)).astype(dtype)
            lanes = selector.select([row])
            served = jit.replay(window)
            if served is None:
                inputs = Tensor(window)
                with jit.capture(inputs):
                    output = lanes(inputs)
                jit.seal(output)
                served = output.data
            assert_bytes_equal(np.ascontiguousarray(served[0, 0]),
                               solos[row].predict(window[0])[0])
        assert jit.ready and jit.plan.replays == 1


@pytest.mark.parametrize("count", [1, 2, 4, 7])
def test_batched_bytes_equal_solo_predict_at_every_batch_size(count):
    # Every forecast of a full shard equals the individual's solo predict
    # in bytes and strides at each batch cap, over enough passes to
    # replay.
    shards, models = shard_of("a3tgcn", "float64", count=7)
    engine = InferenceEngine(shards, max_batch_size=count, max_linger=60.0)
    identifiers = sorted(models)
    for _ in range(3):
        outcomes = []
        for identifier in identifiers:
            outcomes += engine.submit(identifier)
        outcomes += engine.flush()
        assert len(outcomes) == len(identifiers)
        for outcome in outcomes:
            window = shards[0].artifacts[outcome.identifier].window_tail
            assert_bytes_equal(outcome.prediction,
                               models[outcome.identifier].predict(
                                   window[None])[0])
    assert (engine.stats["replayed"] > 0) == (count > 1)


class _RowScaled(Module):
    """A lane model that builds a row-dependent constant afresh per call."""

    def __init__(self, scales):
        super().__init__()
        self.weight = Parameter(np.ones((len(scales), 1)))
        self._scales = np.asarray(scales, dtype=float)[:, None]

    def forward(self, x):
        return (x * self.weight) * Tensor(self._scales.copy())


class TestNoSnapshots:
    def test_identical_rows_cannot_bind_a_row_dependent_constant(self):
        # Two captures that select the same rows see equal constants; a
        # training trace would bind the value, a served plan must not.
        model = _RowScaled([2.0, 3.0])
        jit = ForwardJIT()
        for _ in range(2):
            inputs = Tensor(np.ones((2, 4)))
            with jit.capture(inputs):
                output = model(inputs)
            jit.seal(output)
        assert jit.off and not jit.ready
        assert match_reason(jit.disabled_reason) == "forward-snapshot"
        # A changed selection then runs eagerly, with the current rows.
        model._scales = np.array([[5.0], [7.0]])
        assert jit.replay(np.ones((2, 4))) is None

    def test_training_capture_still_binds_equal_constants(self):
        model = _RowScaled([2.0, 3.0])
        jit = EpochJIT()
        for _ in range(2):
            with jit.capture():
                loss = model(Tensor(np.ones((2, 4)))).sum()
                loss.backward()
            jit.seal(loss)
        assert jit.ready

    def test_a_plan_reads_the_operator_rows_of_its_flush(self):
        # Flushes of one size with different rows share one operator view;
        # the replayed flush must serve the rows selected for it.
        shards, models = shard_of("tgcn", "float64")
        engine = InferenceEngine(shards, max_batch_size=100,
                                 max_linger=60.0)
        rng = np.random.default_rng(2)
        for rows in (["p0", "p0"], ["p0", "p0"], ["p2", "p1"]):
            for identifier, window, outcome in serve(engine, "tgcn", rows,
                                                     rng, "float64"):
                assert_bytes_equal(outcome.prediction,
                                   models[identifier].predict(
                                       window[None])[0])
        assert engine.stats["replayed"] == 2


class TestPlanLifetime:
    def test_captured_outputs_die_once_the_plan_compiles(self):
        shards, models = shard_of("mtgnn", "float32")
        selector = LaneSelector(stack_lanes(
            [models[f"p{i}"] for i in range(COUNT)]).eval())
        jit = ForwardJIT()
        refs = []
        for _ in range(2):
            lanes = selector.select([0, 2])
            inputs = Tensor(np.ones((2, 1, L, V), dtype=np.float32))
            with jit.capture(inputs):
                output = lanes(inputs)
            jit.seal(output)
            refs.append(weakref.ref(output.data))
            del output, inputs
        assert jit.ready
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_replay_that_raises_falls_back_with_its_reason(self,
                                                           monkeypatch):
        shards, models = shard_of("lstm", "float64")
        engine = InferenceEngine(shards, max_batch_size=2, max_linger=60.0)
        for _ in range(2):
            engine.submit("p0")
            engine.submit("p1")
        [jit] = engine._plans.values()
        assert jit.ready

        def explode(*arrays):
            raise RuntimeError("kernel failed")

        monkeypatch.setattr(jit, "plan", explode)
        engine.submit("p0")
        outcomes = engine.submit("p1")
        assert [o.batched for o in outcomes] == [True, True]
        for outcome in outcomes:
            window = shards[0].artifacts[outcome.identifier].window_tail
            assert_bytes_equal(outcome.prediction,
                               models[outcome.identifier].predict(
                                   window[None])[0])
        assert jit.off
        assert engine.stats["replay_fallbacks"] == {
            "forward-replay-raised": 1}
        assert "RuntimeError: kernel failed" in jit.disabled_reason
