"""Parallel cohort execution engine.

Every paper artifact (Table II, Table III, Fig. 3) is a grid of completely
independent (individual, model, graph) cells, so the cohort loop
parallelizes embarrassingly well.  This module provides the machinery:

* :class:`CohortCell` — one picklable unit of work (all random repeats of
  one individual under one condition);
* :func:`execute_cell` — runs a cell in any process, serial or worker;
* :func:`run_cells` — the scheduler: serial for ``jobs=1``, a supervised
  ``ProcessPoolExecutor`` fan-out otherwise, with progress/ETA callbacks
  and an append-only checkpoint journal for resumable full-scale runs;
* :class:`GraphCache` — memoizes per-individual graph construction
  (DTW especially) across model conditions that share a graph;
* :class:`CohortCheckpoint` — the on-disk journal of completed cells.

Fault tolerance (:mod:`repro.training.faults`): every cell gets a retry
budget (``ParallelConfig.retries``) with exponential backoff, an optional
wall-clock ``timeout``, and an ``on_error`` policy.  A worker exception,
a hung cell, a dead worker (``BrokenProcessPool``) or a NaN-divergent
result consumes one attempt; when the budget is exhausted the cell turns
into a structured :class:`~repro.training.faults.CellFailure` that is
raised, skipped or collected — surviving cells keep running either way,
with the pool rebuilt underneath them when a worker had to be killed.

Determinism guarantee: every cell derives its seeds via
:func:`~repro.training.seeding.derive_seed` and carries the default dtype
it was enumerated under, so serial and parallel schedules produce
bit-identical :class:`~repro.training.personalized.IndividualResult`\\ s
regardless of worker count or completion order.  Retries re-run the cell
with its original seeds (a flaky-infra retry is bit-identical to an
unfaulted run); only divergence retries bump seeds, and deterministically
(:func:`~repro.training.faults.reseed_cell`).
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from ..data.containers import Individual
from ..models import ModelConfig
from .faults import (ON_ERROR_MODES, CellFailure, CohortExecutionError,
                     FaultInjector, TrainingDivergedError, describe_exception,
                     is_divergent, reseed_cell)
from .trainer import TrainerConfig

__all__ = ["CohortCell", "GraphCache", "CohortCheckpoint", "ParallelConfig",
           "FaultPolicy", "ExecutionPolicy", "execute_cell", "run_attempt",
           "run_cells"]

#: Supervision-loop poll interval while deadlines or backoffs are pending.
_POLL_SECONDS = 0.1

#: Sentinel occupying the result slot of a failed cell under
#: ``on_error="skip"`` until the final filtering pass.
_SKIPPED = object()


@dataclass(frozen=True)
class CohortCell:
    """One schedulable unit of cohort work.

    A cell bundles everything ``run_individual`` needs for all repeats of
    one individual under one (model, graph, GDT, seq) condition.  Graphs
    are pre-built at enumeration time (see
    :func:`~repro.training.personalized.enumerate_cells`) so workers do
    pure model training and the expensive constructions can be cached
    across conditions in the parent process.

    ``trainer_config`` carries the engine's callback configuration as
    declarative :class:`~repro.training.callbacks.CallbackSpec` records,
    which pickle with the cell; each worker builds fresh callback
    instances per fit, so early stopping / LR scheduling state is never
    shared across processes and serial vs parallel schedules stay
    bit-identical.
    """

    key: str
    label: str
    individual: Individual
    model_name: str
    seq_len: int
    graph_method: str
    graphs: tuple
    seeds: tuple[int, ...]
    trainer_config: TrainerConfig | None
    model_config: ModelConfig | None
    train_fraction: float
    export_learned_graph: bool
    #: Default dtype captured at enumeration time; workers re-apply it so
    #: results are bit-identical to a serial run in the parent process.
    dtype: str
    #: Attach the fitted ``state_dict`` to each repeat's result (the
    #: serving store's export path).  Defaulted so cells pickled before
    #: the field existed keep loading from old checkpoints.
    export_state: bool = False

    def __post_init__(self):
        if len(self.graphs) != len(self.seeds):
            raise ValueError(
                f"{len(self.graphs)} graphs but {len(self.seeds)} seeds")
        if not self.seeds:
            raise ValueError("a cell needs at least one repeat")


def execute_cell(cell: CohortCell):
    """Run all repeats of one cell and aggregate them into one result.

    Importable at module level so ``ProcessPoolExecutor`` can ship it to
    workers by reference; also the serial path, so both schedules share
    one code path.
    """
    from ..autodiff import set_default_dtype
    from .personalized import aggregate_repeats, run_individual

    set_default_dtype(cell.dtype)
    repeats = [
        run_individual(cell.individual, cell.model_name, cell.seq_len, graph,
                       graph_method=cell.graph_method,
                       trainer_config=cell.trainer_config,
                       model_config=cell.model_config,
                       train_fraction=cell.train_fraction, seed=seed,
                       export_learned_graph=cell.export_learned_graph,
                       export_state=cell.export_state)
        for graph, seed in zip(cell.graphs, cell.seeds)
    ]
    return aggregate_repeats(repeats)


class GraphCache:
    """Memoizes per-individual graph construction across conditions.

    Table II/III run every graph method against three GNNs, so without a
    cache each (individual, method, GDT) graph — DTW costs a full dynamic
    program per pair — is rebuilt once per model.  Experiments share one
    cache across their ``run_cohort`` calls so it is built exactly once.
    """

    def __init__(self):
        self._store: dict = {}
        self.hits = 0
        self.misses = 0

    def get(self, key, builder: Callable[[], np.ndarray]) -> np.ndarray:
        """Return the cached graph for ``key``, building it on first use."""
        if key in self._store:
            self.hits += 1
        else:
            self.misses += 1
            self._store[key] = builder()
        return self._store[key]

    def __len__(self) -> int:
        return len(self._store)


class CohortCheckpoint:
    """Append-only journal of completed cells, keyed by ``CohortCell.key``.

    Each record is one pickled ``(key, result)`` tuple appended to the
    file, so an interrupted run loses at most the cell being written; a
    truncated trailing record is ignored on load.  Keys encode the full
    condition (individual, model, graph, seq, GDT, base seed), so one
    checkpoint file safely spans every condition of an experiment.

    Failed cells are journaled too, as
    :class:`~repro.training.faults.CellFailure` records: a resumed run
    *retries* them instead of serving the failure, and the fresh outcome
    is appended under the same key (the later record wins on load).
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._results: dict = {}
        if self.path.exists():
            with open(self.path, "rb") as handle:
                while True:
                    offset = handle.tell()
                    try:
                        key, result = pickle.load(handle)
                    except EOFError:
                        break
                    except (pickle.UnpicklingError, ValueError, TypeError,
                            AttributeError) as error:
                        # Truncated/corrupt tail from an interrupt: usable
                        # records before it are kept, but tell the user —
                        # the cells after this point will re-run.
                        warnings.warn(
                            f"checkpoint {self.path} has a corrupt record "
                            f"at byte offset {offset} "
                            f"({type(error).__name__}: {error}); ignoring "
                            f"the rest of the journal — cells not yet "
                            f"loaded will be recomputed",
                            RuntimeWarning, stacklevel=2)
                        break
                    self._results[key] = result

    def __contains__(self, key: str) -> bool:
        return key in self._results

    def __len__(self) -> int:
        return len(self._results)

    def get(self, key: str):
        return self._results[key]

    def failed_keys(self) -> tuple[str, ...]:
        """Keys whose latest journaled record is a :class:`CellFailure`."""
        return tuple(key for key, value in self._results.items()
                     if isinstance(value, CellFailure))

    def record(self, key: str, result) -> None:
        """Persist one completed cell (single durable append).

        The record is serialized to bytes first and written in one append
        call followed by ``fsync``, so a crash mid-``record`` leaves at
        most one partial record at the tail of the journal — exactly the
        shape the corrupt-tail recovery in ``__init__`` knows how to
        skip.  A buffered ``pickle.dump`` straight into the handle could
        interleave two partial records across a flush boundary instead.
        """
        self._results[key] = result
        blob = pickle.dumps((key, result))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())


@dataclass
class FaultPolicy:
    """What :func:`run_cells` does when a cell misbehaves.

    Parameters
    ----------
    retries:
        Extra attempts per cell after the first (default 0).  Exception,
        timeout and dead-worker retries re-run with the original seeds —
        bit-identical to an unfaulted run; divergence retries bump seeds
        deterministically when ``divergence_reseed`` is on.
    timeout:
        Per-cell wall-clock seconds before the cell's worker is killed
        and the attempt counts as failed.  Enforcing a timeout requires
        a worker process, so ``jobs=1`` with a timeout runs a
        single-worker pool (results remain bit-identical).
    on_error:
        What to do with a cell whose retry budget is exhausted:
        ``"raise"`` (default) raises
        :class:`~repro.training.faults.CohortExecutionError`;
        ``"skip"`` drops the cell from the returned list; ``"collect"``
        keeps a :class:`~repro.training.faults.CellFailure` in its slot.
    retry_backoff:
        Base of the exponential backoff between attempts, in seconds
        (``backoff * 2**(attempt-1)``); 0 disables waiting.
    divergence_reseed:
        Bump model seeds on divergence retries (default on) — replaying
        the identical RNG stream would replay the identical NaN.
    fault_injector:
        Deterministic :class:`~repro.training.faults.FaultInjector` used
        by tests, benchmarks and the CI smoke job.
    """

    retries: int = 0
    timeout: float | None = None
    on_error: str = "raise"
    retry_backoff: float = 0.5
    divergence_reseed: bool = True
    fault_injector: FaultInjector | None = None

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.on_error not in ON_ERROR_MODES:
            raise ValueError(f"on_error must be one of {ON_ERROR_MODES}, "
                             f"got {self.on_error!r}")
        if self.retry_backoff < 0:
            raise ValueError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}")


@dataclass
class ExecutionPolicy:
    """Where and how :func:`run_cells` executes a cohort.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` (default) runs serially in-process.
        Results are bit-identical either way.
    backend:
        ``"process"`` (default) runs every cell per-individual, serially
        or across worker processes.  ``"stacked"`` first trains eligible
        cells in cross-individual parameter stacks
        (:mod:`repro.training.stacked`) — results are identical to the
        per-individual path — and routes the rest (ineligible cells,
        failed or divergent stacks) through the process backend with its
        full retry/timeout semantics.  Fault injection bypasses stacking.
    stack_size:
        Maximum lanes (cell repeats) trained in one parameter stack under
        ``backend="stacked"``.
    """

    jobs: int = 1
    backend: str = "process"
    stack_size: int = 32

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.backend not in ("process", "stacked"):
            raise ValueError(f"backend must be 'process' or 'stacked', "
                             f"got {self.backend!r}")
        if self.stack_size < 1:
            raise ValueError(
                f"stack_size must be >= 1, got {self.stack_size}")


class ParallelConfig:
    """How :func:`run_cells` schedules a cohort.

    The scheduling knobs are grouped into two composable policies::

        ParallelConfig(execution=ExecutionPolicy(jobs=8, backend="stacked"),
                       faults=FaultPolicy(retries=2, on_error="collect"),
                       checkpoint="run.ckpt")

    Parameters
    ----------
    faults:
        A :class:`FaultPolicy` (retry budget, per-cell timeout, error
        disposition, fault injection).  Default: no retries, raise.
    execution:
        An :class:`ExecutionPolicy` (worker count, backend, stack size).
        Default: serial per-individual execution.
    checkpoint:
        A :class:`CohortCheckpoint` or a path to one.  Completed cells
        found in it are reused; newly completed cells are appended.
        Journaled failures are retried, not served.
    progress:
        Optional ``(done, total, label, eta_seconds)`` callback invoked
        after every cell (``eta_seconds`` is ``None`` until estimable).
        Checkpoint-served cells complete in microseconds and are excluded
        from the ETA rate, so a resumed run's estimate reflects the cells
        it actually has to compute.
    on_result:
        Optional ``(cell, result)`` callback invoked for every
        successfully completed cell — including checkpoint-served ones —
        as it completes.  The serving layer streams trained artifacts
        into the model store through this hook; failures never reach it.

    Flat *attribute* reads (``config.jobs``, ``config.retries`` etc.) are
    first-class — the scheduler uses them.
    """

    def __init__(self, *, execution: ExecutionPolicy | None = None,
                 faults: FaultPolicy | None = None, checkpoint=None,
                 progress: Callable | None = None,
                 on_result: Callable | None = None):
        self.execution = execution if execution is not None \
            else ExecutionPolicy()
        self.faults = faults if faults is not None else FaultPolicy()
        if isinstance(checkpoint, (str, Path)):
            checkpoint = CohortCheckpoint(checkpoint)
        self.checkpoint = checkpoint
        self.progress = progress
        self.on_result = on_result

    # Flat attribute access stays first-class: the scheduler (and user
    # code inspecting a config) reads these without caring how the knobs
    # were grouped at construction time.
    @property
    def jobs(self) -> int:
        return self.execution.jobs

    @property
    def backend(self) -> str:
        return self.execution.backend

    @property
    def stack_size(self) -> int:
        return self.execution.stack_size

    @property
    def retries(self) -> int:
        return self.faults.retries

    @property
    def timeout(self) -> float | None:
        return self.faults.timeout

    @property
    def on_error(self) -> str:
        return self.faults.on_error

    @property
    def retry_backoff(self) -> float:
        return self.faults.retry_backoff

    @property
    def divergence_reseed(self) -> bool:
        return self.faults.divergence_reseed

    @property
    def fault_injector(self) -> FaultInjector | None:
        return self.faults.fault_injector

    def __repr__(self) -> str:
        return (f"ParallelConfig(execution={self.execution!r}, "
                f"faults={self.faults!r}, checkpoint={self.checkpoint!r})")


def run_attempt(cell: CohortCell, injector: FaultInjector | None,
                index: int, attempt: int):
    """Execute one try of one cell, under optional fault injection.

    Module-level so the pool can ship it to workers by reference; the
    serial path calls it too, so injected faults behave identically
    across schedules.
    """
    if injector is None:
        return execute_cell(cell)
    injector.before_execute(index, attempt)
    return injector.after_execute(execute_cell(cell), index, attempt)


def _static_jit_notes(cells: list[CohortCell]) -> dict[int, str]:
    """Indexes of statically JIT-blocked cells mapped to their reason.

    Consults the memoized static verdict
    (:func:`repro.analysis.fastpath.registry_verdict`) for every cell
    whose trainer config requests the trace-capture JIT.  Cells the
    analyzer proves non-traceable are pre-routed: the scheduler trains
    them with ``jit=False`` — bit-identical results, minus the doomed
    capture/verify epochs — and attaches the static reason to their
    results.  Purely an optimization + diagnostics layer: any analysis
    failure degrades to "no pre-routing", never to a broken run.
    """
    notes: dict[int, str] = {}
    try:
        from ..analysis.fastpath import registry_verdict

        for index, cell in enumerate(cells):
            tc = cell.trainer_config
            if tc is None or not tc.jit:
                continue
            verdict = registry_verdict(cell.model_name, tc)
            if not verdict.traceable and verdict.trace_reason is not None:
                notes[index] = verdict.trace_reason
    except Exception:  # pragma: no cover - analysis must never break runs
        return {}
    return notes


@dataclass
class _Attempt:
    """Scheduler bookkeeping for one cell's execution tries."""

    index: int
    cell: CohortCell
    #: Attempts started so far; the budget allows ``retries + 1`` total.
    attempt: int = 0
    first_started: float | None = None
    #: Backoff gate — do not resubmit before this monotonic instant.
    ready_at: float = 0.0
    #: Run alone in the pool.  Set after a pool break with ambiguous
    #: blame: solo execution makes the next break attributable, so a
    #: crashing cell can only spend its own retry budget, never a
    #: neighbor's.
    quarantined: bool = False


def _stop_pool(pool: ProcessPoolExecutor, kill: bool) -> None:
    """Shut a pool down; ``kill`` also terminates its worker processes.

    ``cancel_futures=True`` drops queued work immediately, so an error or
    Ctrl-C exits promptly instead of draining the queue; killing is for
    hung or poisoned workers whose results are being discarded anyway.
    """
    if not kill:
        pool.shutdown(wait=True)
        return
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.kill()
    for process in processes:
        process.join(timeout=5)


def run_cells(cells: list[CohortCell],
              config: ParallelConfig | None = None) -> list:
    """Execute cells and return their results in input order.

    ``jobs=1`` runs in-process; ``jobs>1`` fans out over a supervised
    ``ProcessPoolExecutor``.  Checkpointed cells are served from the
    journal without recomputation (journaled failures are retried).
    Failed cells are retried per ``config.retries`` and finally raised,
    skipped or collected per ``config.on_error``; under ``"collect"``
    the returned list holds a :class:`~repro.training.faults.CellFailure`
    in each failed slot.
    """
    config = config if config is not None else ParallelConfig()
    cells = list(cells)
    # Static fast-path pre-routing: cells the analyzer proves untraceable
    # skip the JIT's capture/verify epochs entirely (replay on/off is
    # bit-identical, so results and checkpoint keys are unaffected).
    fallback_notes = _static_jit_notes(cells)
    for index in fallback_notes:
        cell = cells[index]
        cells[index] = replace(cell, trainer_config=replace(
            cell.trainer_config, jit=False))
    checkpoint = config.checkpoint
    total = len(cells)
    results: list = [None] * total
    completed = 0
    computed = 0
    started = time.monotonic()

    def report(label: str, *, from_checkpoint: bool = False) -> None:
        nonlocal completed, computed
        completed += 1
        if not from_checkpoint:
            computed += 1
        if config.progress is not None:
            remaining = total - completed
            if computed:
                eta = (time.monotonic() - started) / computed * remaining
            else:
                # Only checkpoint hits so far: no measured compute rate,
                # and microsecond journal reads must not fake one.
                eta = None
            config.progress(completed, total, label, eta)

    pending: list[int] = []
    for index, cell in enumerate(cells):
        if checkpoint is not None and cell.key in checkpoint:
            prior = checkpoint.get(cell.key)
            if isinstance(prior, CellFailure):
                # Journaled failures are retried on resume, not skipped.
                pending.append(index)
                continue
            results[index] = prior
            if config.on_result is not None:
                config.on_result(cell, prior)
            report(f"{cell.label} [checkpoint]", from_checkpoint=True)
        else:
            pending.append(index)

    def finish(index: int, result) -> None:
        results[index] = result
        if checkpoint is not None:
            checkpoint.record(cells[index].key, result)
        if config.on_result is not None:
            config.on_result(cells[index], result)
        report(cells[index].label)

    def make_failure(task: _Attempt, kind: str, error: BaseException | None,
                     message: str | None) -> CellFailure:
        if error is not None:
            error_type, text, trace = describe_exception(error)
        else:
            error_type, text, trace = kind, message or "", ""
        cell = cells[task.index]
        return CellFailure(
            key=cell.key, label=cell.label,
            identifier=cell.individual.identifier, kind=kind,
            error_type=error_type, message=text, traceback=trace,
            attempts=task.attempt,
            elapsed=time.monotonic() - (task.first_started or started))

    def fail(task: _Attempt, failure: CellFailure) -> None:
        if checkpoint is not None:
            checkpoint.record(failure.key, failure)
        if config.on_error == "raise":
            raise CohortExecutionError(failure)
        results[task.index] = _SKIPPED if config.on_error == "skip" \
            else failure
        report(f"{failure.label} [failed: {failure.kind}]")

    def handle_failure(task: _Attempt, kind: str,
                       error: BaseException | None = None,
                       message: str | None = None,
                       requeue: Callable[[_Attempt], None] | None = None
                       ) -> bool:
        """Consume one failed attempt: schedule a retry or fail for good.

        Returns ``True`` when a retry was scheduled (via ``requeue``, or
        left to the caller's loop when ``requeue`` is ``None``).
        """
        if task.attempt <= config.retries:
            if kind == "divergence" and config.divergence_reseed:
                task.cell = reseed_cell(task.cell, task.attempt)
            backoff = config.retry_backoff * (2 ** (task.attempt - 1)) \
                if config.retry_backoff > 0 else 0.0
            task.ready_at = time.monotonic() + backoff
            if requeue is not None:
                requeue(task)
            return True
        fail(task, make_failure(task, kind, error, message))
        return False

    if config.backend == "stacked" and pending:
        # Stacked execution finishes eligible cells in cross-individual
        # parameter stacks and returns the rest (ineligible, failed or
        # divergent) to run below under the ordinary per-individual
        # scheduler with its full retry semantics.
        from .stacked import run_stacked, stackable_reason

        pending = run_stacked(cells, pending, config, finish)
        for index in pending:
            if index not in fallback_notes:
                blocker = stackable_reason(cells[index])
                if blocker is not None:
                    fallback_notes[index] = f"not stacked: {blocker}"

    use_pool = bool(pending) and (
        (config.jobs > 1 and len(pending) > 1) or config.timeout is not None)
    if use_pool:
        _run_supervised_pool(cells, pending, config, finish, handle_failure)
    else:
        _run_serial(cells, pending, config, finish, handle_failure)

    # Attach the static/stacking diagnosis to results that carry no
    # runtime one (pre-routed cells never attempted capture, so the
    # runtime field is empty).  getattr: checkpointed results pickled
    # before the field existed must still load.
    for index, note in fallback_notes.items():
        result = results[index]
        if result is None or result is _SKIPPED \
                or isinstance(result, CellFailure):
            continue
        if getattr(result, "fallback_reason", None) is None:
            result.fallback_reason = note

    if config.on_error == "skip":
        return [result for result in results if result is not _SKIPPED]
    return results


def _run_serial(cells, pending, config, finish, handle_failure) -> None:
    """In-process execution with retries and failure isolation.

    Timeouts cannot be enforced on the calling thread; ``run_cells``
    routes timeout-bearing configs through the supervised pool instead.
    """
    for index in pending:
        task = _Attempt(index=index, cell=cells[index])
        while True:
            now = time.monotonic()
            if task.ready_at > now:
                time.sleep(task.ready_at - now)
            task.attempt += 1
            if task.first_started is None:
                task.first_started = time.monotonic()
            try:
                result = run_attempt(task.cell, config.fault_injector,
                                     index, task.attempt)
            except Exception as error:
                if handle_failure(task, "exception", error=error):
                    continue
                break
            if is_divergent(result):
                error = TrainingDivergedError(
                    f"non-finite scores for {task.cell.label}")
                if handle_failure(task, "divergence", error=error):
                    continue
                break
            finish(index, result)
            break


def _run_supervised_pool(cells, pending, config, finish,
                         handle_failure) -> None:
    """Fan cells out over a ``ProcessPoolExecutor`` under supervision.

    At most ``workers`` futures are in flight at a time (the rest wait in
    the scheduler's own queue), so when the pool breaks the casualties
    are exactly the cells that were actually running.  Hung cells are
    handled by killing the whole pool — the only way to stop a worker —
    after which innocent in-flight cells are requeued *without* consuming
    an attempt and the pool is rebuilt for the survivors.

    A pool break with several cells in flight has ambiguous blame (only
    one of them crashed the worker), so none of them consumes an attempt;
    instead they are *quarantined* and re-run one at a time.  A solo run
    that breaks the pool identifies the true crasher, which then — and
    only then — spends its own retry budget.  A persistently crashing
    cell therefore cannot exhaust its neighbors' retries.
    """
    workers = min(config.jobs, len(pending))
    injector = config.fault_injector
    queue: list[_Attempt] = [_Attempt(index=index, cell=cells[index])
                             for index in pending]
    inflight: dict = {}  # future -> (task, deadline)
    pool = ProcessPoolExecutor(max_workers=workers)
    pool_broken = False
    casualties: list[_Attempt] = []

    def submit(task: _Attempt) -> None:
        task.attempt += 1
        now = time.monotonic()
        if task.first_started is None:
            task.first_started = now
        future = pool.submit(run_attempt, task.cell, injector,
                             task.index, task.attempt)
        deadline = now + config.timeout if config.timeout is not None \
            else None
        inflight[future] = (task, deadline)

    def rebuild_pool() -> None:
        nonlocal pool
        _stop_pool(pool, kill=True)
        pool = ProcessPoolExecutor(max_workers=workers)

    def consume(future, task: _Attempt) -> None:
        """Fold one completed future back into the schedule."""
        nonlocal pool_broken
        try:
            result = future.result()
        except BrokenProcessPool:
            pool_broken = True
            casualties.append(task)
            return
        except Exception as error:
            handle_failure(task, "exception", error=error,
                           requeue=queue.append)
            return
        if is_divergent(result):
            handle_failure(task, "divergence",
                           error=TrainingDivergedError(
                               f"non-finite scores for {task.cell.label}"),
                           requeue=queue.append)
        else:
            finish(task.index, result)

    try:
        while queue or inflight:
            now = time.monotonic()
            solo = any(t.quarantined for t, _ in inflight.values())
            while not solo and len(inflight) < workers:
                # A quarantined cell only enters an otherwise-empty pool,
                # and nothing joins it until it completes.
                ready = next((t for t in queue if t.ready_at <= now
                              and (not t.quarantined or not inflight)), None)
                if ready is None:
                    break
                queue.remove(ready)
                submit(ready)
                solo = ready.quarantined
            if not inflight:
                # Everything left is backing off; sleep to the nearest gate.
                time.sleep(max(0.0, min(t.ready_at for t in queue) - now))
                continue
            tick = _POLL_SECONDS if config.timeout is not None or queue \
                else None
            done, _ = wait(set(inflight), timeout=tick,
                           return_when=FIRST_COMPLETED)
            for future in done:
                task, _deadline = inflight.pop(future)
                consume(future, task)
            if pool_broken:
                # Remaining in-flight futures rode the dead pool: the
                # finished ones still hold results, the rest are
                # casualties of the break.
                for future in list(inflight):
                    task, _deadline = inflight.pop(future)
                    if future.done():
                        consume(future, task)
                    else:
                        casualties.append(task)
                rebuild_pool()
                pool_broken = False

                def requeue_front(task: _Attempt) -> None:
                    queue.insert(0, task)

                if len(casualties) == 1:
                    # Sole in-flight cell: blame is unambiguous, so this
                    # attempt counts against the cell's own budget.
                    task = casualties[0]
                    task.quarantined = True
                    handle_failure(
                        task, "broken-pool",
                        message="worker process died (BrokenProcessPool)",
                        requeue=requeue_front)
                else:
                    # Ambiguous blame: only one of these crashed the
                    # worker.  Give everyone the attempt back and
                    # quarantine them — solo re-runs make the next
                    # break attributable to its true cause.
                    for task in casualties:
                        task.attempt -= 1
                        task.ready_at = 0.0
                        task.quarantined = True
                        requeue_front(task)
                casualties = []
                continue
            if config.timeout is None:
                continue
            now = time.monotonic()
            overdue = {future for future, (task, deadline) in
                       inflight.items()
                       if deadline is not None and now >= deadline
                       and not future.done()}
            if not overdue:
                continue
            # Killing a hung worker means killing its pool: harvest any
            # completions that raced in, requeue innocent in-flight cells
            # without consuming their attempt, then rebuild.
            timed_out: list[_Attempt] = []
            for future in list(inflight):
                task, _deadline = inflight.pop(future)
                if future in overdue:
                    timed_out.append(task)
                elif future.done():
                    consume(future, task)
                else:
                    task.attempt -= 1
                    task.ready_at = 0.0
                    queue.append(task)
            rebuild_pool()
            for task in timed_out:
                handle_failure(
                    task, "timeout",
                    message=f"exceeded cell timeout of {config.timeout:g}s",
                    requeue=queue.append)
    except BaseException:
        # on_error="raise" or Ctrl-C: cancel queued futures and kill the
        # workers so the caller gets control back promptly.
        _stop_pool(pool, kill=True)
        raise
    _stop_pool(pool, kill=False)
