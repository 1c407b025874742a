"""Layer spans for the traced benchmark run.

A traced run replaces each layer's public function with a timing wrapper
at the name its caller looks up (``from x import f`` binds ``f`` in the
caller's module, so the wrapper goes there, not at ``x.f``).  Every call
becomes a span ``(name, parent, start, end)`` kept in memory and written
out when the run ends.  Op-level time inside the autodiff engine comes
from the repository's own profiler (:func:`repro.profiling.profile`).

A layer's busy time counts its outermost spans only, so a layer calling
itself is not charged twice; coverage is the share of the traced window
spent inside top-level spans.  Layers that some workloads never enter
report shares of the traced window and counts rather than seconds, so an
unused layer reads as a zero share, never as a measured time.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time
from pathlib import Path

#: (module, attribute path, layer): one wrapper per caller-visible name.
TARGETS = (
    ("repro.data.synthesis", "generate_cohort", "data"),
    ("repro.data.preprocessing", "PreprocessingPipeline.run", "data"),
    ("repro.training.personalized", "split_windows", "data"),
    ("repro.training.stacked", "split_windows", "data"),
    ("repro.training.personalized", "build_adjacency", "graphs"),
    ("repro.training.parallel", "GraphCache.get", "graphs"),
    ("repro.training.personalized", "create_model", "models"),
    ("repro.training.stacked", "create_model", "models"),
    ("repro.serving.store", "create_model", "models"),
    ("repro.training.personalized", "run_cells", "training"),
    ("repro.training.parallel", "execute_cell", "training"),
    ("repro.training.stacked", "run_stacked", "training"),
    ("repro.analysis.fastpath", "registry_verdict", "analysis"),
    ("repro.training.trainer", "Trainer.fit", "trainer"),
    ("repro.training.trainer", "Trainer.evaluate", "trainer"),
    ("repro.autodiff.trace", "EpochJIT.seal", "trace"),
    ("repro.autodiff.trace", "EpochJIT.replay", "trace"),
    ("repro.experiments.experiment_a", "score_results", "evaluation"),
    ("repro.serving.store", "ModelStore.load_cohort", "store"),
    ("repro.serving.engine", "InferenceEngine.submit", "engine"),
    ("repro.serving.engine", "InferenceEngine.poll", "engine"),
    ("repro.serving.engine", "InferenceEngine.flush", "engine"),
)

_COHORT = ("synthesis.generate_cohort",
           "preprocessing.PreprocessingPipeline.run")
_TRAINING = _COHORT + ("personalized.build_adjacency",
                       "parallel.GraphCache.get", "personalized.run_cells",
                       "trainer.Trainer.evaluate")
_EAGER_CELLS = ("personalized.split_windows", "personalized.create_model",
                "parallel.execute_cell", "trainer.Trainer.fit",
                "experiment_a.score_results")
_FAST_CELLS = ("stacked.split_windows", "stacked.create_model",
               "stacked.run_stacked", "fastpath.registry_verdict",
               "trace.EpochJIT.seal", "trace.EpochJIT.replay")

#: Spans each workload must record at least once.  A call site that moves
#: (a caller importing the function from elsewhere) would otherwise make
#: its layer read 0 instead of failing the traced run.
EXPECTED_SPANS = {
    "table2": _TRAINING + _EAGER_CELLS,
    "table2-fast": _TRAINING + _EAGER_CELLS + _FAST_CELLS,
    "serve-mixed": _COHORT + ("store.create_model",
                              "store.ModelStore.load_cohort",
                              "engine.InferenceEngine.submit",
                              "engine.InferenceEngine.poll",
                              "engine.InferenceEngine.flush"),
}


class _BoundTimer:
    """Descriptor wrapper: times whatever the wrapped descriptor binds to.

    The trainer's ``evaluate`` is a descriptor with an instance and a
    class-level call style, so the function it binds is wrapped per access.
    """

    def __init__(self, tracer: "Tracer", name: str, layer: str, descriptor):
        self._args = (tracer, name, layer, descriptor)

    def __get__(self, obj, objtype=None):
        tracer, name, layer, descriptor = self._args
        return tracer.wrap(name, layer, descriptor.__get__(obj, objtype))


class Tracer:
    """Installs the layer wrappers and keeps their spans in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: dict[str, str] = {}
        self._index: dict[str, int] = {}
        self.spans: list[list] = []   # [name index, parent index, start, end]
        self.counters: dict[str, float] = {}
        self.submitted_at: dict[str, float] = {}   # request id -> time
        self.queue_waits: list[float] = []
        self.flush_seconds: list[float] = []
        self.batch_sizes: list[int] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._paused = False
        self._paused_s = 0.0
        self._started = 0.0
        self._stopped = 0.0
        self._profiler = None

    # -- spans -----------------------------------------------------------
    def _name_index(self, name: str, layer: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.layers[name] = layer
        return self._index[name]

    def _count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """Record the enclosed block as one span (no-op while paused)."""
        if self._paused:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._name_index(name, layer), parent,
                           time.perf_counter(), 0.0])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, layer: str, original, before=None, after=None):
        """``original`` with every unpaused call recorded as a span."""

        def traced(*args, **kwargs):
            if self._paused:
                return original(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            with self.span(name, layer):
                out = original(*args, **kwargs)
            if after is not None:
                after(state, args, out)
            return out

        traced.__wrapped__ = original
        return traced

    # -- per-call counters ------------------------------------------------
    def _hooks(self, name: str):
        """(before, after) hooks counting what a span's call did."""
        if name == "trace.EpochJIT.replay":
            def after(_, args, replayed):
                if replayed:
                    self._count("trace.replays")
            return None, after
        if name == "trainer.Trainer.fit":
            def after(_, args, history):
                self._count("trainer.epochs", len(history.records))
            return None, after
        if name == "engine.InferenceEngine.submit":
            def before(args, kwargs):
                # A submit that fills the batch flushes inside the call,
                # so the time is noted before it, by the caller's id.
                self.submitted_at[kwargs["request_id"]] = time.perf_counter()
            return before, None
        if name == "engine.InferenceEngine.flush":
            def before(args, kwargs):
                return time.perf_counter()

            def after(started, args, outcomes):
                if not outcomes:
                    return
                self.batch_sizes.append(len(outcomes))
                self.queue_waits.extend(
                    started - self.submitted_at.pop(outcome.request_id)
                    for outcome in outcomes)
                self.flush_seconds.append(time.perf_counter() - started)
            return before, after
        return None, None

    # -- install / remove -------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every target, enter the op profiler, start the window."""
        from repro.profiling import profile

        try:
            for module_name, attr, layer in TARGETS:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                name = f"{module_name.rsplit('.', 1)[1]}.{attr}"
                self._name_index(name, layer)
                original = owner.__dict__[leaf]
                if callable(original):
                    replacement = self.wrap(name, layer, original,
                                            *self._hooks(name))
                else:
                    replacement = _BoundTimer(self, name, layer, original)
                self._saved.append((owner, leaf, original))
                setattr(owner, leaf, replacement)
        except BaseException:
            self.remove()
            raise
        self._profiler = profile(trace=False)
        self._profiler.__enter__()
        self._started = time.perf_counter()
        return self

    def remove(self) -> None:
        """Stop the window, leave the profiler, restore every target."""
        if self._started and not self._stopped:
            self._stopped = time.perf_counter()
            self._profiler.__exit__(None, None, None)
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Run the block unrecorded; it is excluded from the window."""
        self._profiler.__exit__(None, None, None)
        self._paused = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self._paused_s += time.perf_counter() - start
            self._paused = False
            self._profiler.__enter__()

    # -- results ----------------------------------------------------------
    def window_seconds(self) -> float:
        end = self._stopped or time.perf_counter()
        return end - self._started - self._paused_s

    def _outermost(self, index: int, same) -> bool:
        """Whether no ancestor of span ``index`` satisfies ``same``."""
        parent = self.spans[index][1]
        while parent >= 0:
            if same(self.spans[parent][0]):
                return False
            parent = self.spans[parent][1]
        return True

    def summary(self) -> tuple[dict, dict]:
        """Per span name: calls, busy and self seconds; busy per layer.

        A name's busy time skips calls nested in a call of the same name;
        a layer's skips spans nested in a span of the same layer.
        """
        table = {name: {"layer": self.layers[name], "calls": 0,
                        "busy_s": 0.0, "self_s": 0.0}
                 for name in self.names}
        layer_busy = dict.fromkeys(self.layers.values(), 0.0)
        layer_of = [self.layers[name] for name in self.names]
        children = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for index, (name_index, _, start, end) in enumerate(self.spans):
            entry = table[self.names[name_index]]
            entry["calls"] += 1
            entry["self_s"] += end - start - children[index]
            if self._outermost(index, lambda other: other == name_index):
                entry["busy_s"] += end - start
            layer = layer_of[name_index]
            if self._outermost(index,
                               lambda other: layer_of[other] == layer):
                layer_busy[layer] += end - start
        return table, layer_busy

    def layer_metrics(self, rounds: int, counts: dict) -> tuple[dict, dict]:
        """Per-layer metrics (name -> value) plus diagnostic details.

        ``counts`` holds what the workload counted itself (cells, failed
        and fallback cells per round, late requests, the engine batch cap
        and the batched share of its own ``stats``); a count the workload
        has no use for reads 0.
        """
        window = self.window_seconds()
        table, layer_busy = self.summary()
        top_level = sum(end - start for _, parent, start, end in self.spans
                        if parent < 0)

        def calls(*names):
            return sum(table[name]["calls"] for name in names)

        def busy(name):
            return table[name]["busy_s"]

        def share(seconds):
            return seconds / window

        cache = self._index["parallel.GraphCache.get"]
        build = self._index["personalized.build_adjacency"]
        misses = sum(1 for name_index, parent, _, _ in self.spans
                     if name_index == build and parent >= 0
                     and self.spans[parent][0] == cache)
        gets = calls("parallel.GraphCache.get")
        fit_busy = busy("trainer.Trainer.fit")
        epochs = self.counters.get("trainer.epochs", 0)

        def profiled(keep):
            return sum(stat.self_seconds
                       for stat in self._profiler.report().ops if keep(stat))

        forward = profiled(lambda s: s.kind == "op" and s.phase == "forward")
        backward = profiled(lambda s: (s.kind == "op"
                                       and s.phase == "backward")
                            or (s.kind == "autodiff" and s.name == "backward"))
        module_self = profiled(lambda s: s.kind == "module")
        step = profiled(lambda s: s.kind == "optimizer"
                        and s.name.endswith(".step"))
        zero_grad = profiled(lambda s: s.kind == "optimizer"
                             and s.name == "zero_grad")
        ops = sum(stat.count for stat in self._profiler.report().ops
                  if stat.kind == "op")
        waited = sum(self.queue_waits)
        in_flush = sum(size * seconds for size, seconds
                       in zip(self.batch_sizes, self.flush_seconds))

        metrics = {
            "run.coverage": share(top_level),
            "run.rounds": rounds,
            "data.busy_s": layer_busy["data"],
            "graphs.builds": calls("personalized.build_adjacency") / rounds,
            "graphs.cache_hit_ratio": (gets - misses) / gets if gets else 0.0,
            "graphs.busy_share": share(layer_busy["graphs"]),
            "models.builds": calls("personalized.create_model",
                                   "stacked.create_model",
                                   "store.create_model") / rounds,
            "models.busy_s": layer_busy["models"],
            "training.cells": counts.get("cells_per_round", 0),
            "training.failed_cells": counts.get("failed_cells_per_round", 0),
            "training.solo_share": share(busy("parallel.execute_cell")),
            "training.stacked_share": share(busy("stacked.run_stacked")),
            "training.scheduler_self_share": share(
                table["personalized.run_cells"]["self_s"]),
            "analysis.verdicts": calls("fastpath.registry_verdict") / rounds,
            "analysis.verdict_share": share(layer_busy["analysis"]),
            "trainer.fits": calls("trainer.Trainer.fit") / rounds,
            "trainer.epochs": epochs / rounds,
            "trainer.epochs_per_s": epochs / fit_busy if fit_busy else 0.0,
            "trainer.fit_share": share(fit_busy),
            "trainer.evaluate_share": share(busy("trainer.Trainer.evaluate")),
            "trace.seals": calls("trace.EpochJIT.seal") / rounds,
            "trace.compile_share": share(busy("trace.EpochJIT.seal")),
            "trace.replays": self.counters.get("trace.replays", 0) / rounds,
            "trace.replay_share": share(busy("trace.EpochJIT.replay")),
            "trace.fallback_cells": counts.get("fallback_cells_per_round", 0),
            "autodiff.ops": ops / rounds,
            "autodiff.forward_self_share": share(forward),
            "autodiff.backward_self_share": share(backward),
            "nn.module_self_share": share(module_self),
            "optim.step_share": share(step),
            "optim.zero_grad_share": share(zero_grad),
            "evaluation.busy_share": share(layer_busy["evaluation"]),
            "store.load_share": share(busy("store.ModelStore.load_cohort")),
            "engine.flushes": len(self.batch_sizes) / rounds,
            "engine.batch_fill": (statistics.fmean(self.batch_sizes)
                                  / counts["max_batch_size"]
                                  if self.batch_sizes else 0.0),
            "engine.batched_share": counts.get("batched_share", 0.0),
            "engine.queue_wait_share": (waited / (waited + in_flush)
                                        if self.batch_sizes else 0.0),
            "engine.flush_share": share(busy("engine.InferenceEngine.flush")),
            "gen.late_share": counts.get("late_share", 0.0),
        }
        details = {
            "traced_window_s": window,
            "layer_busy_s": layer_busy,
            "spans": table,
            "profile_self_s": {"op_forward": forward, "op_backward": backward,
                               "module": module_self, "optimizer_step": step,
                               "optimizer_zero_grad": zero_grad},
            "engine": {
                "queue_wait_p50_ms": 1e3 * statistics.median(self.queue_waits)
                if self.queue_waits else 0.0,
                "flush_p50_ms": 1e3 * statistics.median(self.flush_seconds)
                if self.flush_seconds else 0.0,
                "flush_busy_s": busy("engine.InferenceEngine.flush"),
            },
        }
        return metrics, details

    def write(self, path: Path) -> None:
        """Dump every span (seconds from the window start) as JSON."""
        origin = self._started
        path.write_text(json.dumps({
            "names": self.names,
            "layers": [self.layers[name] for name in self.names],
            "spans": [[name_index, parent, start - origin, end - origin]
                      for name_index, parent, start, end in self.spans],
        }))
