"""Benchmark of the parallel cohort engine: scaling vs worker count.

Runs one cohort condition serially and across worker processes, checks the
results are bit-identical, and prints the wall-clock scaling table.  The
speedup assertion only applies when the machine actually has >= 2 cores
(``os.sched_getaffinity``); on a single-core container the parallel
schedule is still exercised but cannot beat serial wall-clock.

Also measures the shared graph cache: the second model condition over the
same (method, GDT) grid must reuse every constructed DTW graph.
"""

import os
import time

from repro.training import (ExecutionPolicy, GraphCache, ParallelConfig,
                            run_cohort)

SEQ_LEN = 2


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _condition_kwargs(experiment_config, **overrides):
    kwargs = dict(graph_method="correlation", keep_fraction=0.2,
                  trainer_config=experiment_config.trainer_config(),
                  model_config=experiment_config.model,
                  base_seed=experiment_config.seed)
    kwargs.update(overrides)
    return kwargs


def test_parallel_scaling(cohort, experiment_config):
    experiment_config.apply_dtype()
    kwargs = _condition_kwargs(experiment_config)
    timings = {}
    scores = {}
    for jobs in (1, 2, 4):
        start = time.perf_counter()
        results = run_cohort(cohort, "a3tgcn", SEQ_LEN, **kwargs,
                             parallel=ParallelConfig(
                                 execution=ExecutionPolicy(jobs=jobs)))
        timings[jobs] = time.perf_counter() - start
        scores[jobs] = [r.test_mse for r in results]

    print(f"\nparallel cohort scaling ({len(cohort)} individuals, "
          f"{_available_cores()} cores available):")
    for jobs, elapsed in timings.items():
        print(f"  jobs={jobs}: {elapsed:6.2f}s  "
              f"(speedup x{timings[1] / elapsed:.2f})")

    # Determinism across schedules is unconditional.
    assert scores[2] == scores[1]
    assert scores[4] == scores[1]
    # Wall-clock speedup needs real cores to run on.
    if _available_cores() >= 2:
        assert timings[2] < timings[1], \
            f"2 workers ({timings[2]:.2f}s) not faster than serial " \
            f"({timings[1]:.2f}s)"


def test_graph_cache_amortizes_dtw(cohort, experiment_config):
    experiment_config.apply_dtype()
    from repro.training import enumerate_cells

    kwargs = _condition_kwargs(
        experiment_config, graph_method="dtw",
        graph_kwargs=experiment_config.graph_kwargs("dtw"))
    cache = GraphCache()

    start = time.perf_counter()
    enumerate_cells(cohort, "a3tgcn", SEQ_LEN, **kwargs, graph_cache=cache)
    cold = time.perf_counter() - start
    assert cache.misses == len(cohort) and cache.hits == 0

    start = time.perf_counter()
    enumerate_cells(cohort, "astgcn", SEQ_LEN, **kwargs, graph_cache=cache)
    warm = time.perf_counter() - start
    assert cache.misses == len(cohort)
    assert cache.hits == len(cohort)

    print(f"\nDTW graph construction: cold {cold * 1000:.0f}ms, "
          f"cached {warm * 1000:.0f}ms "
          f"({cache.hits} hits / {cache.misses} misses)")
    assert warm < cold
