"""The benchmark's workloads, each run in a fresh child process.

``run.py`` starts this file as ``python workloads.py '<json spec>'``; the
child sets a workload up, measures it for the requested seconds, checks
its outputs and writes one JSON result file.  Only the standard library
is imported before the clock that ``setup_s`` reads has started, so the
package's import cost is part of set-up, as it is for a user.

Inputs come from ``--seed`` through the repository's own synthetic cohort
generator.  Shapes are fixed here rather than left to the seed: every
individual is cut to ``TIME_POINTS`` beeps of ``NUM_VARIABLES`` items, so
a different seed changes the numbers trained on but not the amount of
work, and equal shapes let the stacked backend put individuals in one
stack.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Days generated per individual; min compliance 0.5 leaves >= 96 beeps.
NUM_DAYS = 24
TIME_POINTS = 96
NUM_VARIABLES = 26
STACK_SIZE = 8
#: Fewest rounds of a training grid a run measures.  Each condition's
#: epochs are timed in one stretch of each round, so three rounds give
#: three chances to time every condition outside the host's slow spells.
MIN_ROUNDS = 3
#: Epochs of a fit after this many repeat the same work: eager epochs
#: past the first, or JIT replays past the capture and verify epochs.
WARM_EPOCHS = 3
SERVE_MODELS = ("lstm", "tgcn", "a3tgcn", "astgcn", "mtgnn")
SERVE_SEQ_LEN = 4
SERVE_WINDOWS = 4
SERVE_CLIENTS = 32
#: Open-loop arrival rate in forecasts/s: a load level, not a
#: participants' schedule.  On a 2-vCPU host it is about a quarter of the
#: closed-loop capacity at full speed and under 60% in the host's slowest
#: spells, so a queue forms at each linger expiry but never grows.
SERVE_RATE = 300.0
#: Open-loop windows, each after a closed-loop segment; latency
#: percentiles are their medians.  In a 30 s run each window holds about
#: 1,100 requests, so its p99 has about 11 samples beyond it.
OPEN_WINDOWS = 6
#: Shares of the run for the closed-loop warm-up and the closed loop;
#: the open loop gets the rest, as its tail percentile needs the samples.
WARM_UP_SHARE = 0.05
CLOSED_SHARE = 0.2
#: Fewest closed-loop passes over the cohort in each segment.
MIN_PASSES = 2
#: An open-loop request sent this much after its due time counts as late.
LATE_SECONDS = 0.001

#: Fixed sizes per sizing; ``smoke`` is the self-test's.  ``raw`` is the
#: generated cohort, ``keep`` the most compliant individuals kept.
SIZES = {
    "default": {
        "table2": {"raw": 10, "keep": 2, "epochs": 30},
        "serve-mixed": {"raw": 160, "keep": 64},
    },
    "smoke": {
        "table2": {"raw": 10, "keep": 2, "epochs": 3},
        "serve-mixed": {"raw": 25, "keep": 10},
    },
}


@contextlib.contextmanager
def _no_span(name, layer):
    yield


@contextlib.contextmanager
def _epoch_ticks(ticks: list):
    """Note ``(perf_counter, history id, epochs so far)`` at the end of
    every epoch: each ``TrainingHistory.record`` call, made once per epoch
    by a solo fit and once per lane and epoch by a stack."""
    from repro.training.history import TrainingHistory

    original = TrainingHistory.record

    def record(history, *args, **kwargs):
        original(history, *args, **kwargs)
        ticks.append((time.perf_counter(), id(history), len(history.records)))

    TrainingHistory.record = record
    try:
        yield
    finally:
        TrainingHistory.record = original


def build_cohort(seed: int, raw: int, keep: int):
    """The preprocessed synthetic cohort, cut to the benchmark's shape."""
    from repro.data import EMADataset, preprocessing, synthesis

    generated = synthesis.generate_cohort(synthesis.SynthesisConfig(
        num_individuals=raw, num_days=NUM_DAYS, seed=seed))
    clean, _ = preprocessing.PreprocessingPipeline(
        min_compliance=0.5, max_individuals=keep).run(generated)
    if len(clean) < keep or clean.num_variables < NUM_VARIABLES:
        raise RuntimeError(
            f"seed {seed}: {len(clean)} individuals x {clean.num_variables} "
            f"variables pass preprocessing; the benchmark needs {keep} x "
            f"{NUM_VARIABLES}")
    return EMADataset([
        individual.with_values(individual.values[:TIME_POINTS])
        .select_variables(range(NUM_VARIABLES)) for individual in clean])


def result_digest(rows) -> str:
    """SHA-256 over the ``repr`` of each row, in order."""
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(row).encode())
    return digest.hexdigest()


def _cell_rows(cells) -> list:
    return [(condition, column, result.identifier,
             float(result.test_mse).hex(), float(result.train_mse).hex())
            for condition, column, result in cells]


def _cell_failed(result) -> bool:
    import math

    test = getattr(result, "test_mse", None)
    train = getattr(result, "train_mse", None)
    return test is None or not (math.isfinite(test) and math.isfinite(train))


@dataclass
class Round:
    """One timed pass over a training workload's fixed grid."""

    start: float
    wall_s: float
    #: Seconds from the round's start until each cell's result arrived.
    ready_s: list
    cells: list = field(repr=False)
    digest: str = ""
    #: The round cut at every epoch end and cell result: the seconds each
    #: piece took, what work it was (see ``split``), and which pieces end
    #: with a cell's result.
    gaps: list = field(default_factory=list, repr=False)
    keys: list = field(default_factory=list, repr=False)
    cell_ends: list = field(default_factory=list, repr=False)

    def split(self, ticks: list) -> None:
        """Cut the round at ``ticks`` (from ``_epoch_ticks``) and results.

        A piece ending an epoch is keyed by the cell's condition and the
        epoch, with every epoch past ``WARM_EPOCHS`` under one key: the
        individuals of a condition share their shapes, so those pieces do
        the same work.  A stack ends an epoch with one tick per lane; the
        piece up to its last lane's tick holds the epoch.  Any other piece
        is keyed by its position, which holds the same work in every round.
        """
        condition = {id(result.history): (label, column)
                     for label, column, result in self.cells}
        marks = [(at, condition.get(history), count)
                 for at, history, count in ticks]
        events = [(at, None) for at in self.ready_s]
        for number, (at, cell, count) in enumerate(marks):
            if marks[number + 1:number + 2] \
                    and marks[number + 1][1:] == (cell, count):
                continue   # a lane of a stack, not its last
            events.append((at - self.start, cell and (
                "epoch", *cell, min(count, WARM_EPOCHS + 1))))
        events.sort(key=lambda event: event[0])
        events.append((self.wall_s, None))
        before = 0.0
        for position, (at, key) in enumerate(events):
            self.gaps.append(at - before)
            self.keys.append(key or ("at", position))
            before = at
        ends = {at for at in self.ready_s}
        self.cell_ends = [position for position, (at, _) in enumerate(events)
                          if at in ends]


class Table2:
    """Table II at Seq2 on correlation graphs, as ``ema-gnn table2`` runs it.

    A run repeats the fixed grid ("round").  ``fast`` turns on the trace
    JIT and the stacked backend; the results must not change (the
    repository's eager == jit == stacked contract).
    """

    def __init__(self, size: dict, seed: int, fast: bool):
        self.size = size
        self.seed = seed
        self.fast = fast
        self.rounds: list[Round] = []

    def setup(self) -> None:
        from dataclasses import replace

        from repro.experiments.config import PROFILES

        self.cohort = build_cohort(self.seed, self.size["raw"],
                                   self.size["keep"])
        self.config = replace(PROFILES["tiny"], seed=self.seed,
                              seq_lens=(2,), graph_methods=("correlation",),
                              epochs=self.size["epochs"], jit=self.fast)

    def prep(self) -> None:
        """Nothing to prepare: a round only needs the cohort."""

    def finish_setup(self) -> None:
        """Nothing after prep: the cohort is all a round needs."""

    def expected_cells(self) -> int:
        conditions = 1 + len(self.config.graph_methods) \
            * len(self.config.gnn_models)
        return conditions * len(self.config.seq_lens) * len(self.cohort)

    def run_round(self, config=None) -> Round:
        from repro.experiments import experiment_a
        from repro.training import ExecutionPolicy, ParallelConfig

        config = config or self.config
        ready: list[float] = []
        start = time.perf_counter()

        def record(done, total, label, eta):
            ready.append(time.perf_counter() - start)

        execution = ExecutionPolicy(backend="stacked", stack_size=STACK_SIZE) \
            if config.jit else ExecutionPolicy()
        result = experiment_a.run_experiment_a(
            self.cohort, config,
            parallel=ParallelConfig(execution=execution, progress=record))
        wall = time.perf_counter() - start
        cells = [(label, column, cell)
                 for (label, column), results in result.raw.items()
                 for cell in results]
        return Round(start, wall, ready, cells,
                     result_digest(_cell_rows(cells)))

    def measure(self, seconds: float, span=_no_span) -> None:
        """Repeat rounds while the next one still fits in ``seconds``.

        At least ``MIN_ROUNDS`` run, so each piece has a sample besides
        the first round's, which also pays one-time work (lazy imports, the
        memoized fast-path analysis).
        """
        start = time.perf_counter()
        ticks: list = []
        with _epoch_ticks(ticks):
            while True:
                ticks.clear()
                round_ = self.run_round()
                round_.split(ticks)
                self.rounds.append(round_)
                elapsed = time.perf_counter() - start
                typical = statistics.median(r.wall_s for r in self.rounds)
                if len(self.rounds) >= MIN_ROUNDS \
                        and elapsed + typical > seconds:
                    return

    def counts(self) -> dict:
        cells = self.rounds[0].cells
        return {
            "cells_per_round": len(cells),
            "failed_cells_per_round": sum(_cell_failed(result)
                                          for _, _, result in cells),
            "fallback_cells_per_round": sum(
                result.fallback_reason is not None for _, _, result in cells),
        }

    def typical_gaps(self) -> list[float]:
        """Each piece of a round at the fastest time measured for its work.

        Pieces with one key (see ``Round.split``) do the same work, in
        this round or another.  A shared host runs this process at about
        half speed for stretches of seconds; the fastest sample of a key
        is one taken outside them, and summing those gives a round that
        no other tenant slowed.
        """
        pooled: dict[tuple, float] = {}
        for round_ in self.rounds:
            for key, gap in zip(round_.keys, round_.gaps):
                pooled[key] = min(gap, pooled.get(key, gap))
        return [pooled[key] for key in self.rounds[0].keys]

    def summary(self) -> dict:
        import numpy as np

        from repro.analysis.hazards import match_reason

        fallbacks: dict[str, int] = {}
        for _, _, result in self.rounds[0].cells:
            reason = result.fallback_reason
            if reason is not None:
                key = match_reason(reason.removeprefix("not stacked: ")) \
                    or "uncatalogued"
                fallbacks[key] = fallbacks.get(key, 0) + 1
        gaps = self.typical_gaps()
        elapsed = list(itertools.accumulate(gaps))
        ready = [elapsed[position] for position in self.rounds[0].cell_ends]
        steady = sum(gap for gap, key in zip(gaps, self.rounds[0].keys)
                     if key[0] == "epoch" and key[-1] > WARM_EPOCHS)
        return {
            "wall_s": elapsed[-1],
            "p50_ms": 1e3 * float(np.percentile(ready, 50)),
            "p99_ms": 1e3 * float(np.percentile(ready, 99)),
            "latency_samples": len(ready),
            "rounds": len(self.rounds),
            "attempted": sum(len(r.cells) for r in self.rounds),
            "failed": sum(_cell_failed(result) for r in self.rounds
                          for _, _, result in r.cells),
            "digest": self.rounds[0].digest,
            "details": {"round_wall_s": [r.wall_s for r in self.rounds],
                        "pieces_per_round": len(gaps),
                        "steady_epoch_share": steady / elapsed[-1],
                        "cells_per_round": len(ready),
                        "fallback_cells_by_reason": fallbacks},
        }

    def check(self) -> list[str]:
        """Problems found in the outputs (empty when they are correct)."""
        problems = []
        expected = self.expected_cells()
        for number, round_ in enumerate(self.rounds):
            if len(round_.cells) != expected:
                problems.append(f"round {number}: {len(round_.cells)} cells, "
                                f"expected {expected}")
            if any(_cell_failed(result) for _, _, result in round_.cells):
                problems.append(f"round {number}: a cell failed or gave a "
                                f"non-finite MSE")
            if round_.digest != self.rounds[0].digest:
                problems.append(f"round {number} digest {round_.digest[:16]} "
                                f"differs from round 0 "
                                f"{self.rounds[0].digest[:16]}: training is "
                                f"not deterministic")
            if round_.keys != self.rounds[0].keys:
                problems.append(f"round {number} ran other epochs than "
                                f"round 0, so its timings cannot be paired")
        return problems + self.check_against_eager()

    def check_against_eager(self) -> list[str]:
        """Re-run eagerly every condition that took a fast path.

        A cell that fell back already ran the eager code, so only the
        others need an eager reference (the LSTM baseline always runs).
        """
        if not self.fast:
            return []
        from dataclasses import replace

        cells = self.rounds[0].cells
        fast = {result.model_name for _, _, result in cells
                if result.fallback_reason is None}
        eager = self.run_round(replace(
            self.config, jit=False,
            gnn_models=tuple(model for model in self.config.gnn_models
                             if model in fast)))
        rerun = {(label, column) for label, column, _ in eager.cells}
        expected = result_digest(_cell_rows(
            [cell for cell in cells if cell[:2] in rerun]))
        if eager.digest != expected:
            return [f"jit+stacked digest {expected[:16]} of the fast-path "
                    f"conditions differs from the eager digest "
                    f"{eager.digest[:16]}"]
        return []


class ServeMixed:
    """A 64-individual mixed-model store behind the batching engine.

    This is a capacity and load test, not a model of participants' beeps.
    Phase (a) is a closed loop of 32 clients making passes over the
    cohort: each wave is 32 requests and the engine's 32-request batch cap
    flushes it.  Phase (b) is an open loop of Poisson arrivals at
    ``SERVE_RATE``, a fixed rate well below the closed-loop capacity, so
    the queue forms but does not grow.  Each request
    asks for a random individual with one of that individual's windows,
    and the five models are assigned round-robin: batches then mix models
    and individuals beyond what the engine's stack cache holds, and both
    the batched and the eager path serve.
    """

    def __init__(self, size: dict, seed: int, scratch: Path):
        self.size = size
        self.seed = seed
        self.store_dir = scratch / "store"
        self.requests: list = []     # request index -> (individual, window)
        self.outcomes: list = []
        self.latencies: list = [[] for _ in range(OPEN_WINDOWS)]
        self.lateness: list = []
        self.passes: list = []
        self.closed_seconds = 0.0
        self.closed_requests = 0

    def setup(self) -> None:
        import numpy as np

        from repro.autodiff import set_default_dtype

        set_default_dtype(np.float32)
        self.cohort = build_cohort(self.seed, self.size["raw"],
                                   self.size["keep"])

    def prep(self) -> None:
        """Seeded, untrained models per individual, saved as one store.

        Forward cost does not depend on training, so the weights stay at
        their seeded initialization; graphs are each individual's own
        correlation graph at GDT 20% from their training segment.
        """
        import numpy as np

        from repro.data import split_boundary
        from repro.graphs import build_adjacency
        from repro.models import create_model
        from repro.serving import CohortArtifact, ModelStore
        from repro.training import derive_seed

        rng = np.random.default_rng(self.seed)
        artifacts = []
        self.windows = []
        self.expected = []
        self.identifiers = []
        for number, individual in enumerate(self.cohort):
            name = SERVE_MODELS[number % len(SERVE_MODELS)]
            boundary = split_boundary(individual.num_time_points, 0.7)
            graph = None if name == "lstm" else build_adjacency(
                individual.values[:boundary], "correlation", gdt=0.2,
                seed=derive_seed(individual.identifier, "graph",
                                 base=self.seed))
            model = create_model(name, individual.num_variables,
                                 SERVE_SEQ_LEN, adjacency=graph,
                                 seed=derive_seed(individual.identifier, name,
                                                  base=self.seed))
            starts = rng.choice(individual.num_time_points - SERVE_SEQ_LEN,
                                size=SERVE_WINDOWS, replace=False)
            windows = [individual.values[s:s + SERVE_SEQ_LEN]
                       .astype(np.float32) for s in starts]
            self.identifiers.append(individual.identifier)
            self.windows.append(windows)
            self.expected.append([model.predict(w[None])[0]
                                  for w in windows])
            artifacts.append(CohortArtifact(
                identifier=individual.identifier, model_name=name,
                seq_len=SERVE_SEQ_LEN,
                num_variables=individual.num_variables, dtype="float32",
                state=model.state_dict(), adjacency=graph,
                graph_method=None if graph is None else "correlation",
                gdt=0.2, seed=self.seed, window_tail=windows[-1],
                config_digest="benchmark"))
        self.version = ModelStore(self.store_dir).save_cohort(artifacts)

    def finish_setup(self) -> None:
        import repro

        self.engine = repro.load(self.store_dir).engine()

    def _picks(self, rng, count: int):
        individuals = rng.integers(0, len(self.identifiers), size=count)
        windows = rng.integers(0, SERVE_WINDOWS, size=count)
        return zip(individuals.tolist(), windows.tolist())

    def _submit(self, individual: int, window: int) -> list:
        index = len(self.requests)
        self.requests.append((individual, window))
        return self.engine.submit(self.identifiers[individual],
                                  self.windows[individual][window],
                                  request_id=str(index))

    def _closed_loop(self, seconds: float, rng, waves: list,
                     min_passes: int = 0) -> None:
        """Passes over the cohort, each asking once for every individual.

        ``SERVE_CLIENTS`` clients send a pass in waves, and each wave
        waits for all its forecasts.  The individuals of each model are
        dealt to the waves in a random order, so a wave's mix of models is
        the same in every pass while its individuals, windows and order
        are random.  ``waves`` gets each pass's wave times.
        """
        count = len(self.identifiers)
        models = len(SERVE_MODELS)
        split = -(-count // SERVE_CLIENTS)
        end = time.perf_counter() + seconds
        while time.perf_counter() < end or len(waves) < min_passes:
            dealt = [index for model in range(models)
                     for index in rng.permutation(range(model, count, models))]
            times = []
            for wave in range(split):
                members = rng.permutation(dealt[wave::split]).tolist()
                windows = rng.integers(0, SERVE_WINDOWS,
                                       size=len(members)).tolist()
                started = time.perf_counter()
                outcomes = []
                for individual, window in zip(members, windows):
                    outcomes += self._submit(individual, window)
                if len(outcomes) < len(members):
                    outcomes += self.engine.flush()
                times.append(time.perf_counter() - started)
                self.outcomes += outcomes
            waves.append(times)

    def _open_loop(self, seconds: float, rng, span, latencies: list) -> None:
        import numpy as np

        gaps = rng.exponential(1.0 / SERVE_RATE,
                               size=int(SERVE_RATE * seconds * 1.5) + 16)
        due = np.cumsum(gaps)
        due = due[due < seconds].tolist()
        picks = list(self._picks(rng, len(due)))
        first = len(self.requests)
        linger = self.engine.max_linger
        waiting: dict[int, float] = {}   # request index -> submit time
        start = time.monotonic()

        def deliver(outcomes):
            now = time.monotonic() - start
            for outcome in outcomes:
                index = int(outcome.request_id)
                waiting.pop(index, None)
                latencies.append(now - due[index - first])
            self.outcomes.extend(outcomes)

        sent = 0
        while True:
            now = time.monotonic() - start
            while sent < len(due) and due[sent] <= now:
                self.lateness.append(now - due[sent])
                waiting[first + sent] = now
                deliver(self._submit(*picks[sent]))
                sent += 1
                now = time.monotonic() - start
            deliver(self.engine.poll())
            wakes = [next(iter(waiting.values())) + linger] if waiting else []
            if sent < len(due):
                wakes.append(due[sent])
            if not wakes:
                return
            wake = min(wakes)
            delay = wake - (time.monotonic() - start)
            if delay > 0:
                with span("gen.sleep", "gen"):
                    time.sleep(delay)

    def measure(self, seconds: float, span=_no_span) -> None:
        """Warm-up, then phase (a) and phase (b) in ``OPEN_WINDOWS`` turns.

        Taking turns spreads both phases over the whole run, so a slow
        spell of a shared host moves one segment of each rather than all
        of one phase.  The tail percentile needs the most samples, so
        most of the time goes to the open loop.
        """
        import numpy as np

        rng = np.random.default_rng(self.seed)
        self._closed_loop(WARM_UP_SHARE * seconds, rng, [])
        turn = seconds / OPEN_WINDOWS
        for latencies in self.latencies:
            first = len(self.requests)
            started = time.perf_counter()
            self._closed_loop(CLOSED_SHARE * turn, rng, self.passes,
                              min_passes=len(self.passes) + MIN_PASSES)
            self.closed_seconds += time.perf_counter() - started
            self.closed_requests += len(self.requests) - first
            self._open_loop((1 - WARM_UP_SHARE - CLOSED_SHARE) * turn, rng,
                            span, latencies)

    def counts(self) -> dict:
        stats = self.engine.stats
        return {"late_share": sum(late > LATE_SECONDS
                                  for late in self.lateness)
                / len(self.lateness),
                "max_batch_size": self.engine.max_batch_size,
                "batched_share": stats["batched"] / stats["served"]}

    def summary(self) -> dict:
        import numpy as np

        def window_ms(q):
            return [1e3 * float(np.percentile(window, q))
                    for window in self.latencies]

        return {
            # A pass from each wave's fastest time, as training takes the
            # fastest pieces: another tenant's load only adds time.
            "wall_s": sum(min(times) for times in zip(*self.passes)),
            # Per window, then the median over windows: a slow spell of the
            # host moves one window's tail, not the result.
            "p50_ms": statistics.median(window_ms(50)),
            "p99_ms": statistics.median(window_ms(99)),
            "latency_samples": min(len(w) for w in self.latencies),
            "rounds": 1,
            "attempted": len(self.requests),
            "failed": self.failed_requests,
            # Every served forecast equals its reference bit for bit, so
            # the references and the store version pin the whole output.
            "digest": result_digest(
                [(identifier, number, prediction.tobytes().hex())
                 for identifier, predictions
                 in zip(self.identifiers, self.expected)
                 for number, prediction in enumerate(predictions)]
                + [self.version]),
            "details": {
                "serve_rps": self.closed_requests / self.closed_seconds,
                "closed_loop_requests": self.closed_requests,
                "closed_loop_passes": len(self.passes),
                "forecasts_per_pass": len(self.identifiers),
                "wave_s": self.passes,
                "open_loop_requests": sum(len(w) for w in self.latencies),
                "window_p50_ms": window_ms(50),
                "window_p99_ms": window_ms(99),
                "late_p99_ms": 1e3 * float(np.percentile(self.lateness, 99)),
            },
        }

    def check_outcomes(self) -> list[str]:
        """One entry per request not answered with its bitwise forecast."""
        import numpy as np

        problems = []
        answered = set()
        for outcome in self.outcomes:
            index = int(outcome.request_id)
            answered.add(index)
            individual, window = self.requests[index]
            prediction = getattr(outcome, "prediction", None)
            if prediction is None:
                problems.append(f"request {index} failed: {outcome}")
            elif not np.array_equal(prediction,
                                    self.expected[individual][window]):
                problems.append(f"request {index} "
                                f"({self.identifiers[individual]}): served "
                                f"forecast differs from solo predict")
        problems += [f"request {index} was never answered"
                     for index in range(len(self.requests))
                     if index not in answered]
        return problems

    def check(self) -> list[str]:
        problems = self.check_outcomes()
        self.failed_requests = len(problems)
        return problems[:20] + ([f"... {len(problems) - 20} more"]
                                if len(problems) > 20 else [])


def make_workload(name: str, sizing: str, seed: int, scratch: Path):
    sizes = SIZES[sizing]
    if name in ("table2", "table2-fast"):
        return Table2(sizes["table2"], seed, fast=name == "table2-fast")
    if name == "serve-mixed":
        return ServeMixed(sizes[name], seed, scratch)
    raise ValueError(f"unknown workload {name!r}")


def main(spec: dict) -> None:
    """Run one child: ``mode`` is ``measure``, ``setup`` or ``trace``."""
    scratch = Path(spec["scratch"])
    workload = make_workload(spec["workload"], spec["sizing"], spec["seed"],
                             scratch)
    tracer = None
    if spec["mode"] == "trace":
        from tracing import Tracer

        tracer = Tracer().install()
    workload.setup()
    setup_s = time.monotonic() - spec["spawned_at"]
    # Every child prepares, so a set-up child may run before the
    # measuring one; the serve store it saves is content-addressed, and
    # saving it again in the same scratch directory changes nothing.
    start = time.perf_counter()
    with tracer.paused() if tracer else contextlib.nullcontext():
        workload.prep()
    prep_s = time.perf_counter() - start
    start = time.monotonic()
    workload.finish_setup()
    setup_s += time.monotonic() - start
    result = {"setup_s": setup_s}
    if spec["mode"] != "setup":
        workload.measure(spec["seconds"],
                         tracer.span if tracer else _no_span)
        if tracer is not None:
            tracer.remove()
        result["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        start = time.perf_counter()
        result["problems"] = workload.check()
        result["check_s"] = time.perf_counter() - start
        result["prep_s"] = prep_s
        result.update(workload.summary())
        if tracer is not None:
            result["layers"], result["layer_details"] = \
                tracer.layer_metrics(result["rounds"], workload.counts())
            tracer.write(Path(spec["spans_path"]))
    Path(spec["result_path"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
