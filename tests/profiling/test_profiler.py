"""Tests for the op-level profiler, its reports, and the trainer callback."""

import pickle

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.autodiff.tensor import _BACKWARD_OP_HOOK as _hook_sentinel  # noqa: F401
from repro.data.windows import make_windows
from repro.models import ModelConfig, create_model
from repro.nn import Linear
from repro.profiling import (ProfileReport, Profiler, ProfilerCallback,
                             chrome_trace, profile, write_chrome_trace)
from repro.training import Trainer, TrainerConfig
from repro.training.callbacks import CallbackSpec, build_callbacks


def _windows(seed=0, t=50, v=6, seq=3):
    rng = np.random.default_rng(seed)
    return make_windows(rng.standard_normal((t, v)), seq)


def _adjacency(v=6, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.random((v, v))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    return a


class TestProfilerCore:
    def test_records_forward_ops(self):
        with profile() as prof:
            x = Tensor(np.ones((4, 4)))
            y = (x @ x + 1.0).relu().sum()
        report = prof.report()
        names = {(s.name, s.phase) for s in report.ops}
        assert ("__matmul__", "forward") in names
        assert ("__add__", "forward") in names
        assert ("relu", "forward") in names
        assert ("sum", "forward") in names
        assert float(y.item()) > 0  # the math still happened

    def test_records_backward_per_op(self):
        with profile() as prof:
            x = Tensor(np.ones((3, 3)), requires_grad=True)
            ((x @ x).sum()).backward()
        report = prof.report()
        backward = {s.name for s in report.ops if s.phase == "backward"}
        assert "__matmul__" in backward
        assert "sum" in backward
        engine = {s.name for s in report.ops if s.kind == "autodiff"}
        assert "backward" in engine

    def test_records_module_spans_with_self_time(self):
        layer = Linear(4, 2, rng=np.random.default_rng(0))
        with profile() as prof:
            layer(Tensor(np.ones((5, 4))))
        report = prof.report()
        (module_stat,) = [s for s in report.ops if s.kind == "module"]
        assert module_stat.name == "Linear"
        assert module_stat.count == 1
        # inclusive >= exclusive: the matmul inside is not double-charged.
        assert module_stat.total_seconds >= module_stat.self_seconds

    def test_patches_are_restored_on_exit(self):
        matmul_before = Tensor.__matmul__
        backward_before = Tensor.backward
        with profile():
            assert Tensor.__matmul__ is not matmul_before
        assert Tensor.__matmul__ is matmul_before
        assert Tensor.backward is backward_before
        # unprofiled math after exit records nothing and works.
        out = Tensor(np.ones((2, 2))) @ Tensor(np.ones((2, 2)))
        assert out.shape == (2, 2)

    def test_restored_even_when_body_raises(self):
        matmul_before = Tensor.__matmul__
        with pytest.raises(RuntimeError, match="boom"):
            with profile():
                raise RuntimeError("boom")
        assert Tensor.__matmul__ is matmul_before

    def test_nested_profilers_rejected(self):
        with profile():
            with pytest.raises(RuntimeError, match="already active"):
                Profiler().__enter__()

    def test_op_error_still_recorded_and_raised(self):
        with profile() as prof:
            with pytest.raises(ValueError):
                Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))
        counts = {s.name: s.count for s in prof.report().ops}
        assert counts.get("__matmul__") == 1

    def test_phase_accounting_and_coverage(self):
        prof = Profiler()
        with prof:
            x = Tensor(np.ones((8, 8)), requires_grad=True)
            (x @ x).sum().backward()
        prof.add_phase("epoch", prof.report().attributed_seconds())
        report = prof.report()
        assert report.phases["epoch"][0] == 1
        assert report.coverage() == pytest.approx(1.0)


class TestProfileReport:
    def _report(self):
        with profile() as prof:
            x = Tensor(np.ones((6, 6)), requires_grad=True)
            ((x @ x).relu().sum()).backward()
        return prof.report(label="unit")

    def test_tables_and_render(self):
        report = self._report()
        per_op = report.per_op_table()
        assert per_op == sorted(per_op, key=lambda s: s.self_seconds,
                                reverse=True)
        text = report.render()
        assert "unit" in text and "__matmul__" in text

    def test_merge_sums_counts(self):
        a, b = self._report(), self._report()
        merged = ProfileReport.merge([a, b], label="both")
        count = {s.name: s.count for s in merged.ops}
        single = {s.name: s.count for s in a.ops}
        assert count["__matmul__"] == 2 * single["__matmul__"]
        assert merged.label == "both"

    def test_pickle_roundtrip(self):
        report = self._report()
        clone = pickle.loads(pickle.dumps(report))
        assert clone.to_json() == report.to_json()

    def test_chrome_trace_schema(self, tmp_path):
        reports = [self._report(), self._report()]
        trace = chrome_trace(reports)
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        events = trace["traceEvents"]
        assert {e["pid"] for e in events} == {0, 1}
        metadata = [e for e in events if e["ph"] == "M"]
        assert len(metadata) == 2
        for event in events:
            if event["ph"] == "X":
                assert event["dur"] >= 0 and event["ts"] >= 0
                assert event["cat"] and event["name"]
        path = write_chrome_trace(tmp_path / "sub" / "trace.json", reports)
        assert path.exists() and path.stat().st_size > 0

    def test_event_cap_drops_and_reports(self):
        with profile(max_events=10) as prof:
            x = Tensor(np.ones((2, 2)))
            for _ in range(50):
                x = x + 0.0
        report = prof.report()
        assert len(report.events) <= 10
        assert report.dropped_events > 0
        assert "dropped" in report.render()


class TestProfilerCallback:
    def test_spec_builds_and_pickles(self):
        spec = CallbackSpec.make("profiler")
        clone = pickle.loads(pickle.dumps(spec))
        (callback,) = build_callbacks([clone])
        assert isinstance(callback, ProfilerCallback)

    def test_profiled_fit_is_loss_bit_identical(self):
        windows = _windows()
        adjacency = _adjacency()
        plain = Trainer(TrainerConfig(epochs=6)).fit(
            create_model("a3tgcn", 6, 3, adjacency=adjacency, seed=4),
            windows)
        config = TrainerConfig(epochs=6,
                               callbacks=(CallbackSpec.make("profiler"),))
        profiled = Trainer(config).fit(
            create_model("a3tgcn", 6, 3, adjacency=adjacency, seed=4),
            windows)
        assert plain.losses == profiled.losses
        assert plain.profile is None
        assert profiled.profile is not None

    def test_report_rides_history_with_epochs_and_coverage(self):
        windows = _windows()
        config = TrainerConfig(epochs=5,
                               callbacks=(CallbackSpec.make("profiler"),))
        history = Trainer(config).fit(
            create_model("a3tgcn", 6, 3, adjacency=_adjacency(), seed=4),
            windows)
        report = history.profile
        assert report.phases["epoch"][0] == 5
        assert report.coverage() >= 0.9
        assert "A3TGCN" in (report.label or "")
        pickle.loads(pickle.dumps(history))  # whole history stays picklable

    def test_mtgnn_profile_times_conv_windows_both_ways(self):
        # TemporalConv2d's window matrix is one fused op: it must show up
        # under its own name in both phases, with coverage intact.
        config = TrainerConfig(epochs=6,
                               callbacks=(CallbackSpec.make("profiler"),))
        history = Trainer(config).fit(
            create_model("mtgnn", 6, 3, adjacency=_adjacency(),
                         config=ModelConfig(hidden_size=16), seed=4),
            _windows())
        report = history.profile
        phases = {stat.phase for stat in report.ops
                  if stat.name == "conv_windows" and stat.self_seconds > 0}
        assert phases == {"forward", "backward"}
        assert report.coverage() >= 0.95

    def test_world_restored_after_fit(self):
        matmul_before = Tensor.__matmul__
        config = TrainerConfig(epochs=2,
                               callbacks=(CallbackSpec.make("profiler"),))
        Trainer(config).fit(create_model("lstm", 6, 3, seed=1), _windows())
        assert Tensor.__matmul__ is matmul_before

    def test_two_profiled_fits_in_sequence(self):
        config = TrainerConfig(epochs=2,
                               callbacks=(CallbackSpec.make("profiler"),))
        for _ in range(2):
            history = Trainer(config).fit(
                create_model("lstm", 6, 3, seed=1), _windows())
            assert history.profile is not None
