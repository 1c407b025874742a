"""Tests for the fault-tolerance layer (retries, timeouts, isolation).

Covers :mod:`repro.training.faults` and the failure handling in
:func:`repro.training.parallel.run_cells`: the deterministic
fault-injection harness, retry/reseed semantics, timeout kills,
``BrokenProcessPool`` recovery, the ``on_error`` policies, and the
checkpoint journal's failure records.
"""

import math
import pickle

import numpy as np
import pytest

from repro.data import PreprocessingPipeline, SynthesisConfig, generate_cohort
from repro.evaluation import score_results
from repro.models import ModelConfig
from repro.training import (CellFailure, CohortCheckpoint,
                            CohortExecutionError, ExecutionPolicy,
                            FaultInjector, FaultPolicy, InjectedFault,
                            ParallelConfig, TrainerConfig, enumerate_cells,
                            inject_faults, is_divergent, reseed_cell,
                            run_cells)

FAST_MODEL = ModelConfig(hidden_size=8, mtgnn_layers=1, mtgnn_embedding_dim=4)
FAST_TRAINER = TrainerConfig(epochs=2)


@pytest.fixture(scope="module")
def cells10():
    raw = generate_cohort(SynthesisConfig(num_individuals=24, num_days=14,
                                          beeps_per_day=4, seed=5))
    cohort, _ = PreprocessingPipeline(min_compliance=0.5, max_individuals=10,
                                      min_time_points=25).run(raw)
    cells = enumerate_cells(cohort, "a3tgcn", 2, graph_method="correlation",
                            keep_fraction=0.4, trainer_config=FAST_TRAINER,
                            model_config=FAST_MODEL, base_seed=3)
    assert len(cells) == 10
    return cells


@pytest.fixture(scope="module")
def baseline10(cells10):
    """Fault-free reference results for bit-identity assertions."""
    return run_cells(cells10)


def kinds_of(results):
    return ["ok" if not isinstance(r, CellFailure) else r.kind
            for r in results]


def scores_of(results):
    return [r.test_mse if not isinstance(r, CellFailure) else None
            for r in results]


class TestFaultInjector:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            inject_faults("segfault")

    def test_rejects_bad_every_and_times(self):
        with pytest.raises(ValueError):
            inject_faults("exception", every=0)
        with pytest.raises(ValueError):
            inject_faults("exception", times=0)

    def test_selects_every_kth_cell(self):
        injector = inject_faults("exception", every=3)
        assert [i for i in range(9) if injector.selects(i)] == [2, 5, 8]

    def test_times_limits_faulted_attempts(self):
        injector = inject_faults("exception", every=1, times=2)
        assert injector.active(0, 1) and injector.active(0, 2)
        assert not injector.active(0, 3)
        persistent = inject_faults("exception", every=1)
        assert persistent.active(0, 99)

    def test_injector_is_picklable(self):
        injector = inject_faults("hang", every=4, times=1, hang_seconds=2.5)
        clone = pickle.loads(pickle.dumps(injector))
        assert clone == injector

    def test_exception_raises_injected_fault(self):
        injector = inject_faults("exception", every=1)
        with pytest.raises(InjectedFault):
            injector.before_execute(0, 1)
        # Untargeted cells pass through untouched.
        inject_faults("exception", every=2).before_execute(0, 1)


class TestDivergenceHelpers:
    class _Result:
        def __init__(self, test_mse, train_mse=0.1, repeat_scores=(0.1,)):
            self.test_mse = test_mse
            self.train_mse = train_mse
            self.repeat_scores = repeat_scores

    def test_is_divergent_flags_nan_and_inf(self):
        assert is_divergent(self._Result(float("nan")))
        assert is_divergent(self._Result(0.5, train_mse=float("inf")))
        assert is_divergent(self._Result(0.5, repeat_scores=(float("nan"),)))
        assert not is_divergent(self._Result(0.5))

    def test_reseed_cell_is_deterministic(self, cells10):
        cell = cells10[0]
        once = reseed_cell(cell, 1)
        again = reseed_cell(cell, 1)
        assert once.seeds == again.seeds
        assert once.seeds != cell.seeds
        assert reseed_cell(cell, 2).seeds != once.seeds
        # Graphs are data, not trajectory: retries keep them.
        np.testing.assert_array_equal(once.graphs[0], cell.graphs[0])


class TestSerialFaults:
    def test_retry_then_succeed_is_bit_identical(self, cells10, baseline10):
        results = run_cells(cells10, ParallelConfig(
            faults=FaultPolicy(retries=1, retry_backoff=0.0,
                               fault_injector=inject_faults(
                                   "exception", every=2, times=1))))
        assert scores_of(results) == scores_of(baseline10)

    def test_collect_returns_structured_failures(self, cells10, baseline10):
        results = run_cells(cells10, ParallelConfig(
            faults=FaultPolicy(retries=1, on_error="collect",
                               retry_backoff=0.0,
                               fault_injector=inject_faults(
                                   "exception", every=5))))
        assert kinds_of(results) == ["ok"] * 4 + ["exception"] + ["ok"] * 4 \
            + ["exception"]
        for index in (4, 9):
            failure = results[index]
            assert failure.attempts == 2
            assert failure.error_type == "InjectedFault"
            assert failure.identifier == cells10[index].individual.identifier
            assert failure.key == cells10[index].key
            assert "InjectedFault" in failure.traceback
            assert "exception after 2 attempt(s)" in str(failure)
        # Survivors are bit-identical to the unfaulted run.
        for index in (0, 1, 2, 3, 5, 6, 7, 8):
            assert results[index].test_mse == baseline10[index].test_mse

    def test_acceptance_degraded_cohort_aggregates(self, cells10):
        """10 cells, 2 injected failures: 8 results + n_failed=2."""
        results = run_cells(cells10, ParallelConfig(
            faults=FaultPolicy(retries=1, on_error="collect",
                               retry_backoff=0.0,
                               fault_injector=inject_faults(
                                   "exception", every=5))))
        assert sum(isinstance(r, CellFailure) for r in results) == 2
        score = score_results(results)
        assert score.count == 8
        assert score.n_failed == 2
        assert "[2 failed]" in str(score)

    def test_on_error_raise_carries_failure(self, cells10):
        with pytest.raises(CohortExecutionError) as caught:
            run_cells(cells10, ParallelConfig(
                faults=FaultPolicy(on_error="raise", retry_backoff=0.0,
                                   fault_injector=inject_faults(
                                       "exception", every=5))))
        failure = caught.value.failure
        assert failure.kind == "exception"
        assert failure.key == cells10[4].key

    def test_on_error_skip_drops_failed_cells(self, cells10):
        results = run_cells(cells10, ParallelConfig(
            faults=FaultPolicy(on_error="skip", retry_backoff=0.0,
                               fault_injector=inject_faults(
                                   "exception", every=5))))
        assert len(results) == 8
        survivors = {c.individual.identifier for i, c in enumerate(cells10)
                     if i not in (4, 9)}
        assert {r.identifier for r in results} == survivors

    def test_nan_divergence_reseeds_and_recovers(self, cells10, baseline10):
        results = run_cells(cells10, ParallelConfig(
            faults=FaultPolicy(retries=1, on_error="collect",
                               retry_backoff=0.0, divergence_reseed=True,
                               fault_injector=inject_faults(
                                   "nan", every=5, times=1))))
        assert not any(isinstance(r, CellFailure) for r in results)
        assert all(math.isfinite(r.test_mse) for r in results)
        # The reseeded retries trained under fresh seeds: different scores.
        for index in (4, 9):
            assert results[index].test_mse != baseline10[index].test_mse
        for index in (0, 1, 2, 3, 5, 6, 7, 8):
            assert results[index].test_mse == baseline10[index].test_mse

    def test_nan_retry_without_reseed_replays_seeds(self, cells10,
                                                    baseline10):
        # With reseeding off the retry replays the original RNG stream;
        # since the injector only poisons attempt 1, the replay is
        # bit-identical to the unfaulted run.
        results = run_cells(cells10, ParallelConfig(
            faults=FaultPolicy(retries=1, retry_backoff=0.0,
                               divergence_reseed=False,
                               fault_injector=inject_faults(
                                   "nan", every=5, times=1))))
        assert scores_of(results) == scores_of(baseline10)

    def test_persistent_nan_fails_as_divergence(self, cells10):
        results = run_cells(cells10[:5], ParallelConfig(
            faults=FaultPolicy(retries=1, on_error="collect",
                               retry_backoff=0.0,
                               fault_injector=inject_faults("nan", every=5))))
        assert kinds_of(results) == ["ok"] * 4 + ["divergence"]
        assert results[4].attempts == 2

    def test_serial_crash_degrades_to_exception(self, cells10, baseline10):
        # In-process "crash" must not kill the interpreter; it raises and
        # the retry recovers bit-identically.
        results = run_cells(cells10[:4], ParallelConfig(
            faults=FaultPolicy(retries=1, retry_backoff=0.0,
                               fault_injector=inject_faults(
                                   "crash", every=2, times=1))))
        assert scores_of(results) == scores_of(baseline10[:4])


class TestPoolFaults:
    def test_pool_retry_is_bit_identical(self, cells10, baseline10):
        results = run_cells(cells10[:4], ParallelConfig(
            execution=ExecutionPolicy(jobs=2),
            faults=FaultPolicy(retries=1, retry_backoff=0.0,
                               fault_injector=inject_faults(
                                   "exception", every=2, times=1))))
        assert scores_of(results) == scores_of(baseline10[:4])

    def test_serial_and_parallel_agree_under_faults(self, cells10):
        faults = FaultPolicy(retries=0, on_error="collect", retry_backoff=0.0,
                             fault_injector=inject_faults("exception",
                                                          every=2))
        serial = run_cells(cells10[:4], ParallelConfig(
            execution=ExecutionPolicy(jobs=1), faults=faults))
        parallel = run_cells(cells10[:4], ParallelConfig(
            execution=ExecutionPolicy(jobs=2), faults=faults))
        assert kinds_of(serial) == kinds_of(parallel)
        assert scores_of(serial) == scores_of(parallel)

    def test_timeout_kills_hung_cells(self, cells10, baseline10):
        results = run_cells(cells10[:4], ParallelConfig(
            execution=ExecutionPolicy(jobs=2),
            faults=FaultPolicy(timeout=1.0, on_error="collect",
                               retry_backoff=0.0,
                               fault_injector=inject_faults(
                                   "hang", every=2, hang_seconds=30.0))))
        assert kinds_of(results) == ["ok", "timeout", "ok", "timeout"]
        for failure in (results[1], results[3]):
            assert failure.attempts == 1
            assert failure.elapsed >= 1.0
            assert "timeout" in failure.message
        # Innocent neighbors of the killed pool are unharmed.
        assert results[0].test_mse == baseline10[0].test_mse
        assert results[2].test_mse == baseline10[2].test_mse

    def test_timeout_with_one_job_uses_a_pool(self, cells10, baseline10):
        # Timeouts cannot be enforced in-process, so jobs=1 + timeout
        # routes through a single-worker pool — still bit-identical.
        results = run_cells(cells10[:4], ParallelConfig(
            execution=ExecutionPolicy(jobs=1),
            faults=FaultPolicy(timeout=1.0, on_error="collect",
                               retry_backoff=0.0,
                               fault_injector=inject_faults(
                                   "hang", every=4, hang_seconds=30.0))))
        assert kinds_of(results) == ["ok", "ok", "ok", "timeout"]
        for index in range(3):
            assert results[index].test_mse == baseline10[index].test_mse

    def test_broken_pool_recovers_bit_identically(self, cells10, baseline10):
        results = run_cells(cells10[:4], ParallelConfig(
            execution=ExecutionPolicy(jobs=2),
            faults=FaultPolicy(retries=1, retry_backoff=0.0,
                               fault_injector=inject_faults(
                                   "crash", every=2, times=1))))
        assert scores_of(results) == scores_of(baseline10[:4])

    def test_persistent_crash_spends_only_its_own_budget(self, cells10,
                                                         baseline10):
        # Cell 3 kills its worker on every attempt.  Quarantine must keep
        # its pool-mates from losing retries to breaks they didn't cause.
        results = run_cells(cells10[:4], ParallelConfig(
            execution=ExecutionPolicy(jobs=2),
            faults=FaultPolicy(retries=1, on_error="collect",
                               retry_backoff=0.0,
                               fault_injector=inject_faults(
                                   "crash", every=4))))
        assert kinds_of(results) == ["ok", "ok", "ok", "broken-pool"]
        assert results[3].attempts == 2
        for index in range(3):
            assert results[index].test_mse == baseline10[index].test_mse


class TestCheckpointFaults:
    def test_failures_are_journaled(self, cells10, tmp_path):
        path = tmp_path / "cells.pkl"
        run_cells(cells10[:4], ParallelConfig(
            faults=FaultPolicy(on_error="collect", retry_backoff=0.0,
                               fault_injector=inject_faults(
                                   "exception", every=4)),
            checkpoint=path))
        reloaded = CohortCheckpoint(path)
        assert len(reloaded) == 4
        assert reloaded.failed_keys() == (cells10[3].key,)
        assert isinstance(reloaded.get(cells10[3].key), CellFailure)

    def test_resume_retries_only_failed_cells(self, cells10, baseline10,
                                              tmp_path, monkeypatch):
        path = tmp_path / "cells.pkl"
        run_cells(cells10[:4], ParallelConfig(
            faults=FaultPolicy(on_error="collect", retry_backoff=0.0,
                               fault_injector=inject_faults(
                                   "exception", every=4)),
            checkpoint=path))

        import repro.training.parallel as parallel_module
        real = parallel_module.execute_cell
        executed = []

        def counting(cell):
            executed.append(cell.key)
            return real(cell)

        monkeypatch.setattr("repro.training.parallel.execute_cell", counting)
        results = run_cells(cells10[:4], ParallelConfig(checkpoint=path))
        # Healthy cells came from the journal; only the failure re-ran.
        assert executed == [cells10[3].key]
        assert scores_of(results) == scores_of(baseline10[:4])
        # The fresh success supersedes the journaled failure.
        assert CohortCheckpoint(path).failed_keys() == ()

    def test_record_is_a_single_durable_append(self, cells10, tmp_path):
        path = tmp_path / "one.pkl"
        checkpoint = CohortCheckpoint(path)
        checkpoint.record(cells10[0].key, "payload")
        # One record == one contiguous pickle blob: a crash mid-write can
        # only truncate the tail, never interleave two partial records.
        assert path.read_bytes() == pickle.dumps((cells10[0].key, "payload"))

    def test_resume_eta_excludes_checkpoint_hits(self, cells10, tmp_path):
        path = tmp_path / "cells.pkl"
        run_cells(cells10[:4], ParallelConfig(checkpoint=path))
        etas = []
        run_cells(cells10[:4], ParallelConfig(
            checkpoint=path,
            progress=lambda done, total, label, eta: etas.append(eta)))
        # Every cell was served from the journal: there is no measured
        # compute rate, so no (absurdly optimistic) ETA either.
        assert etas == [None] * 4


class TestCellFailure:
    def test_round_trips_through_pickle(self):
        failure = CellFailure(key="k", label="cell", identifier="i01",
                              kind="timeout", error_type="timeout",
                              message="exceeded 5s", traceback="",
                              attempts=3, elapsed=15.2)
        clone = pickle.loads(pickle.dumps(failure))
        assert clone == failure
        assert "timeout after 3 attempt(s)" in str(clone)
