"""Tests for the parallel cohort execution engine."""

import pickle
import warnings

import numpy as np
import pytest

from repro.data import PreprocessingPipeline, SynthesisConfig, generate_cohort
from repro.experiments import PROFILES, make_dataset
from repro.models import ModelConfig
from repro.training import (CohortCell, CohortCheckpoint, ExecutionPolicy,
                            GraphCache, ParallelConfig, TrainerConfig,
                            enumerate_cells, execute_cell, run_cells,
                            run_cohort)

FAST_MODEL = ModelConfig(hidden_size=8, mtgnn_layers=1, mtgnn_embedding_dim=4)
FAST_TRAINER = TrainerConfig(epochs=2)


@pytest.fixture(scope="module")
def mini_cohort():
    raw = generate_cohort(SynthesisConfig(num_individuals=8, num_days=14,
                                          beeps_per_day=4, seed=5))
    clean, _ = PreprocessingPipeline(min_compliance=0.5, max_individuals=2,
                                     min_time_points=25).run(raw)
    return clean


def mini_cells(cohort, model="a3tgcn", **overrides):
    kwargs = dict(graph_method="correlation", keep_fraction=0.4,
                  trainer_config=FAST_TRAINER, model_config=FAST_MODEL,
                  base_seed=3)
    kwargs.update(overrides)
    return enumerate_cells(cohort, model, 2, **kwargs)


class TestParallelConfig:
    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            ParallelConfig(execution=ExecutionPolicy(jobs=0))

    def test_checkpoint_path_is_normalized(self, tmp_path):
        config = ParallelConfig(checkpoint=tmp_path / "cells.pkl")
        assert isinstance(config.checkpoint, CohortCheckpoint)


class TestEnumerateCells:
    def test_one_cell_per_individual(self, mini_cohort):
        cells = mini_cells(mini_cohort)
        assert [c.individual.identifier for c in cells] == \
            [i.identifier for i in mini_cohort]
        assert all(len(c.graphs) == len(c.seeds) == 1 for c in cells)

    def test_cells_are_picklable(self, mini_cohort):
        for cell in mini_cells(mini_cohort):
            clone = pickle.loads(pickle.dumps(cell))
            assert clone.key == cell.key
            np.testing.assert_array_equal(clone.graphs[0], cell.graphs[0])

    def test_random_method_yields_repeats(self, mini_cohort):
        cells = mini_cells(mini_cohort, graph_method="random",
                           num_random_repeats=3)
        assert all(len(c.graphs) == 3 for c in cells)
        # Repeats draw distinct graphs and seeds.
        for cell in cells:
            assert len(set(cell.seeds)) == 3
            assert not np.array_equal(cell.graphs[0], cell.graphs[1])

    def test_lstm_cells_carry_no_graph(self, mini_cohort):
        cells = mini_cells(mini_cohort, model="lstm")
        assert all(c.graphs == (None,) for c in cells)

    def test_keys_distinguish_conditions(self, mini_cohort):
        keys = {c.key for c in mini_cells(mini_cohort)}
        keys |= {c.key for c in mini_cells(mini_cohort, keep_fraction=1.0)}
        keys |= {c.key for c in mini_cells(mini_cohort, model="astgcn")}
        assert len(keys) == 3 * len(mini_cohort)

    def test_validates_mismatched_repeats(self, mini_cohort):
        cell = mini_cells(mini_cohort)[0]
        with pytest.raises(ValueError):
            CohortCell(key="k", label="l", individual=cell.individual,
                       model_name="a3tgcn", seq_len=2,
                       graph_method="correlation",
                       graphs=cell.graphs, seeds=(1, 2),
                       trainer_config=None, model_config=None,
                       train_fraction=0.7, export_learned_graph=False,
                       dtype="float64")


class TestGraphCache:
    def test_shared_cache_builds_each_graph_once(self, mini_cohort):
        cache = GraphCache()
        first = mini_cells(mini_cohort, graph_cache=cache)
        assert cache.misses == len(mini_cohort) and cache.hits == 0
        second = mini_cells(mini_cohort, model="astgcn", graph_cache=cache)
        assert cache.misses == len(mini_cohort)
        assert cache.hits == len(mini_cohort)
        for a, b in zip(first, second):
            assert a.graphs[0] is b.graphs[0]

    def test_distinct_conditions_not_conflated(self, mini_cohort):
        cache = GraphCache()
        mini_cells(mini_cohort, graph_cache=cache)
        mini_cells(mini_cohort, keep_fraction=1.0, graph_cache=cache)
        assert cache.misses == 2 * len(mini_cohort)


class TestExecuteCell:
    def test_sets_repeat_scores(self, mini_cohort):
        result = execute_cell(mini_cells(mini_cohort)[0])
        assert result.repeat_scores == (result.test_mse,)

    def test_random_repeats_averaged(self, mini_cohort):
        cell = mini_cells(mini_cohort, graph_method="random",
                          num_random_repeats=2)[0]
        result = execute_cell(cell)
        assert len(result.repeat_scores) == 2
        assert result.test_mse == pytest.approx(np.mean(result.repeat_scores))


class TestRunCells:
    def test_progress_callback_with_eta(self, mini_cohort):
        seen = []
        run_cells(mini_cells(mini_cohort),
                  ParallelConfig(progress=lambda *a: seen.append(a)))
        assert [s[:2] for s in seen] == [(1, 2), (2, 2)]
        done, total, label, eta = seen[-1]
        assert "a3tgcn" in label
        assert eta == 0.0

    def test_results_in_input_order(self, mini_cohort):
        results = run_cells(mini_cells(mini_cohort))
        assert [r.identifier for r in results] == \
            [i.identifier for i in mini_cohort]


class TestCheckpoint:
    def test_resume_skips_execution(self, mini_cohort, tmp_path, monkeypatch):
        path = tmp_path / "cells.pkl"
        cells = mini_cells(mini_cohort)
        first = run_cells(cells, ParallelConfig(checkpoint=path))
        assert path.exists()

        def boom(cell):
            raise AssertionError("checkpointed cell was re-executed")

        monkeypatch.setattr("repro.training.parallel.execute_cell", boom)
        labels = []
        second = run_cells(cells, ParallelConfig(
            checkpoint=path,
            progress=lambda done, total, label, eta: labels.append(label)))
        assert all("[checkpoint]" in label for label in labels)
        assert [r.test_mse for r in first] == [r.test_mse for r in second]

    def test_train_fraction_change_invalidates_checkpoint(self, mini_cohort,
                                                          tmp_path):
        # Regression: cell keys used to omit train_fraction (and the
        # other config knobs behind the digest), so resuming after a
        # split change silently replayed the stale records.
        path = tmp_path / "cells.pkl"
        original = mini_cells(mini_cohort)
        run_cells(original, ParallelConfig(checkpoint=path))

        changed = mini_cells(mini_cohort, train_fraction=0.8)
        assert not {c.key for c in changed} & {c.key for c in original}
        labels = []
        run_cells(changed, ParallelConfig(
            checkpoint=path,
            progress=lambda done, total, label, eta: labels.append(label)))
        assert labels
        assert not any("[checkpoint]" in label for label in labels)

    def test_partial_checkpoint_completes_missing_cells(self, mini_cohort,
                                                        tmp_path):
        path = tmp_path / "cells.pkl"
        cells = mini_cells(mini_cohort)
        checkpoint = CohortCheckpoint(path)
        checkpoint.record(cells[0].key, execute_cell(cells[0]))
        results = run_cells(cells, ParallelConfig(checkpoint=path))
        assert len(CohortCheckpoint(path)) == len(cells)
        assert [r.identifier for r in results] == \
            [i.identifier for i in mini_cohort]

    def test_truncated_tail_is_ignored_with_warning(self, mini_cohort,
                                                    tmp_path):
        path = tmp_path / "cells.pkl"
        cells = mini_cells(mini_cohort)
        run_cells(cells, ParallelConfig(checkpoint=path))
        offset = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b"\x80\x04corrupt-partial-record")
        with pytest.warns(RuntimeWarning) as caught:
            reloaded = CohortCheckpoint(path)
        assert len(reloaded) == len(cells)
        assert all(cell.key in reloaded for cell in cells)
        # The warning names the file and the byte offset of the bad record.
        message = str(caught[0].message)
        assert str(path) in message
        assert f"byte offset {offset}" in message

    def test_clean_checkpoint_loads_without_warning(self, mini_cohort,
                                                    tmp_path):
        path = tmp_path / "cells.pkl"
        run_cells(mini_cells(mini_cohort), ParallelConfig(checkpoint=path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            CohortCheckpoint(path)


class TestSerialParallelEquivalence:
    def test_tiny_profile_bit_identical(self):
        """Acceptance: jobs>1 reproduces the serial run bit-for-bit."""
        config = PROFILES["tiny"]
        config.apply_dtype()
        dataset = make_dataset(config)
        kwargs = dict(graph_method="correlation", keep_fraction=0.2,
                      trainer_config=config.trainer_config(),
                      model_config=config.model, base_seed=config.seed)
        serial = run_cohort(dataset, "a3tgcn", 2, **kwargs)
        parallel = run_cohort(dataset, "a3tgcn", 2, **kwargs,
                              parallel=ParallelConfig(
                                  execution=ExecutionPolicy(jobs=2)))
        assert [r.test_mse for r in serial] == [r.test_mse for r in parallel]
        assert [r.train_mse for r in serial] == [r.train_mse for r in parallel]

    def test_random_repeats_parallel_equivalence(self, mini_cohort):
        kwargs = dict(graph_method="random", keep_fraction=0.4,
                      num_random_repeats=2, trainer_config=FAST_TRAINER,
                      model_config=FAST_MODEL, base_seed=7)
        serial = run_cohort(mini_cohort, "a3tgcn", 2, **kwargs)
        parallel = run_cohort(mini_cohort, "a3tgcn", 2, **kwargs,
                              parallel=ParallelConfig(
                                  execution=ExecutionPolicy(jobs=2)))
        assert [r.repeat_scores for r in serial] == \
            [r.repeat_scores for r in parallel]
        assert [r.test_mse for r in serial] == [r.test_mse for r in parallel]
