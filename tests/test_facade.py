"""The stable public facade (``repro.api``) and package ``__all__`` audits."""

import importlib

import numpy as np
import pytest

import repro
from repro.data import PreprocessingPipeline, SynthesisConfig, generate_cohort
from repro.training import TrainerConfig


@pytest.fixture(scope="module")
def mini_cohort():
    raw = generate_cohort(SynthesisConfig(num_individuals=8, num_days=14,
                                          beeps_per_day=4, seed=5))
    clean, _ = PreprocessingPipeline(min_compliance=0.5, max_individuals=3,
                                     min_time_points=25).run(raw)
    return clean


class TestAllAudit:
    """Every advertised name must resolve; the facade must stay re-exported."""

    PACKAGES = ["repro", "repro.api", "repro.training", "repro.graphs",
                "repro.models", "repro.serving"]

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        assert module.__all__, f"{package} advertises no public names"
        for name in module.__all__:
            assert hasattr(module, name), \
                f"{package}.__all__ lists {name!r} but it does not resolve"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_has_no_duplicates(self, package):
        module = importlib.import_module(package)
        assert len(module.__all__) == len(set(module.__all__))

    def test_facade_reexported_from_top_level(self):
        assert repro.fit_cohort is repro.api.fit_cohort
        assert repro.load is repro.api.load
        assert repro.CohortHandle is repro.api.CohortHandle
        assert repro.ModelStore is repro.api.ModelStore
        for name in repro.api.__all__:
            assert name in repro.__all__

    def test_star_import_is_facade_only(self):
        namespace = {}
        exec("from repro import *", namespace)  # noqa: S102 - the audit
        exported = {name for name in namespace if not name.startswith("__")}
        assert exported == {name for name in repro.__all__
                            if not name.startswith("__")}


class TestLifecycle:
    """fit -> save -> load -> forecast through the facade only."""

    def test_closed_form_cohort_round_trip(self, mini_cohort, tmp_path):
        handle = repro.fit_cohort(mini_cohort, "naive-mean", 2)
        assert handle.individuals == \
            sorted(i.identifier for i in mini_cohort)
        assert handle.version == "unsaved"
        fresh = {identifier: handle.forecast(identifier)
                 for identifier in handle.individuals}
        version = handle.save(tmp_path / "store")
        assert handle.version == version
        served = repro.load(tmp_path / "store", version)
        assert served.version == version
        assert served.results is None  # scores are not persisted
        for identifier, expected in fresh.items():
            np.testing.assert_array_equal(served.forecast(identifier),
                                          expected)

    def test_gradient_cohort_round_trip_bitwise(self, mini_cohort, tmp_path):
        handle = repro.fit_cohort(mini_cohort, "tgcn", 2,
                                  trainer_config=TrainerConfig(epochs=2),
                                  seed=3)
        version = handle.save(tmp_path / "store")
        served = repro.load(tmp_path / "store")
        for identifier in served.individuals:
            np.testing.assert_array_equal(served.forecast(identifier),
                                          handle.forecast(identifier))

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_served_batching_ignores_training_optimizer(
            self, mini_cohort, tmp_path, monkeypatch, optimizer):
        # A --jit fit memoizes its verdict; the store's default-config
        # verdict must not inherit the training optimizer's stack blocker.
        from repro.analysis import fastpath

        monkeypatch.setattr(fastpath, "_VERDICT_CACHE", {})
        handle = repro.fit_cohort(
            mini_cohort, "lstm", 2,
            trainer_config=TrainerConfig(epochs=2, jit=True,
                                         optimizer=optimizer))
        handle.save(tmp_path / "store")
        engine = repro.load(tmp_path / "store").engine(max_linger=60.0)
        for identifier in engine.individuals:
            assert engine.submit(identifier) == []
        outcomes = engine.flush()
        assert len(outcomes) == len(engine.individuals) > 1
        assert all(outcome.batched for outcome in outcomes)

    def test_results_carry_fit_scores(self, mini_cohort):
        handle = repro.fit_cohort(mini_cohort, "naive-mean", 2)
        assert len(handle.results) == len(mini_cohort)
        assert all(np.isfinite(result.test_mse)
                   for result in handle.results)

    def test_forecast_accepts_fresh_window(self, mini_cohort):
        handle = repro.fit_cohort(mini_cohort, "naive-mean", 2)
        identifier = handle.individuals[0]
        num_variables = mini_cohort[0].num_variables
        rng = np.random.default_rng(0)
        window = rng.standard_normal((2, num_variables))
        shard = handle.shards[0]
        expected = shard.materialize(identifier).predict(window[None])[0]
        np.testing.assert_array_equal(handle.forecast(identifier, window),
                                      expected)

    def test_version_skew_rejected_through_facade(self, mini_cohort,
                                                  tmp_path):
        from repro.serving import StoreVersionError

        handle = repro.fit_cohort(mini_cohort, "naive-mean", 2)
        handle.save(tmp_path / "store")
        with pytest.raises(StoreVersionError, match="version skew"):
            repro.load(tmp_path / "store", expected_config_digest="bogus")

    def test_expected_digest_accepts_matching_fit(self, mini_cohort,
                                                  tmp_path):
        from repro.training import cell_config_digest

        handle = repro.fit_cohort(mini_cohort, "naive-mean", 2)
        handle.save(tmp_path / "store")
        digest = cell_config_digest(0.7, None, None, None)
        served = repro.load(tmp_path / "store",
                            expected_config_digest=digest)
        assert served.individuals == handle.individuals


class TestHostileInputs:
    def test_nan_beeps_fail_before_training(self, mini_cohort):
        """Unimputed missed beeps are an input error, not a divergence."""
        from repro.data.containers import EMADataset, Individual
        from repro.training import CohortExecutionError

        person = mini_cohort[0]
        values = person.values.copy()
        values[3:8] = np.nan
        damaged = Individual(identifier=person.identifier, values=values,
                             variable_names=person.variable_names)
        with pytest.raises(CohortExecutionError) as caught:
            repro.fit_cohort(EMADataset([damaged]), "tgcn", 2,
                             trainer_config=TrainerConfig(epochs=2))
        failure = caught.value.failure
        assert failure.kind == "exception"
        message = str(caught.value)
        assert f"{5 * person.num_variables} non-finite" in message
        assert "first in row 3" in message
        assert "repro.data.imputation" in message
