"""FaultPolicy/ExecutionPolicy composition of ParallelConfig."""

import warnings

import pytest

from repro.training import (ExecutionPolicy, FaultPolicy, ParallelConfig,
                            TrainerConfig, run_cohort)


class TestPolicyComposition:
    def test_policy_form_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            config = ParallelConfig(
                execution=ExecutionPolicy(jobs=2, backend="stacked",
                                          stack_size=8),
                faults=FaultPolicy(retries=1, timeout=5.0,
                                   on_error="collect"))
        assert config.jobs == 2
        assert config.backend == "stacked"
        assert config.stack_size == 8
        assert config.retries == 1
        assert config.timeout == 5.0
        assert config.on_error == "collect"

    def test_defaults_need_no_policies(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            config = ParallelConfig()
        assert config.jobs == 1
        assert config.retries == 0
        assert config.divergence_reseed is True

    def test_execution_policy_validates(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(jobs=0)
        with pytest.raises(ValueError):
            ExecutionPolicy(backend="thread")
        with pytest.raises(ValueError):
            ExecutionPolicy(stack_size=0)

    def test_fault_policy_validates(self):
        with pytest.raises(ValueError):
            FaultPolicy(retries=-1)
        with pytest.raises(ValueError):
            FaultPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            FaultPolicy(on_error="explode")
        with pytest.raises(ValueError):
            FaultPolicy(retry_backoff=-0.5)


class TestSchedulerIntegration:
    def test_run_cohort_accepts_policy_config(self):
        from repro.data import (PreprocessingPipeline, SynthesisConfig,
                                generate_cohort)

        raw = generate_cohort(SynthesisConfig(num_individuals=8, num_days=14,
                                              beeps_per_day=4, seed=5))
        cohort, _ = PreprocessingPipeline(min_compliance=0.5,
                                          max_individuals=2,
                                          min_time_points=25).run(raw)
        config = ParallelConfig(faults=FaultPolicy(on_error="collect"))
        results = run_cohort(cohort, "naive-mean", 2,
                             trainer_config=TrainerConfig(epochs=1),
                             parallel=config)
        assert len(results) == len(cohort)

    def test_on_result_hook_sees_every_cell(self):
        from repro.data import (PreprocessingPipeline, SynthesisConfig,
                                generate_cohort)

        raw = generate_cohort(SynthesisConfig(num_individuals=8, num_days=14,
                                              beeps_per_day=4, seed=5))
        cohort, _ = PreprocessingPipeline(min_compliance=0.5,
                                          max_individuals=2,
                                          min_time_points=25).run(raw)
        seen = []
        config = ParallelConfig(
            on_result=lambda cell, result: seen.append(
                (cell.individual.identifier, result.identifier)))
        run_cohort(cohort, "naive-mean", 2,
                   trainer_config=TrainerConfig(epochs=1), parallel=config)
        assert sorted(identifier for identifier, _ in seen) == \
            sorted(individual.identifier for individual in cohort)
        assert all(a == b for a, b in seen)
