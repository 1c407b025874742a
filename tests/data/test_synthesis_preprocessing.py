"""Tests for the synthetic cohort generator and the preprocessing pipeline."""

import numpy as np
import pytest

from repro.data import (DEFAULT_VARIABLE_NAMES, LOW_VARIANCE_NAMES,
                        PreprocessingPipeline, SynthesisConfig,
                        filter_compliance, generate_cohort,
                        shared_high_variance_variables)


@pytest.fixture(scope="module")
def small_cohort():
    return generate_cohort(SynthesisConfig(num_individuals=20, seed=7))


class TestSynthesisConfig:
    def test_defaults_mirror_protocol(self):
        cfg = SynthesisConfig()
        assert cfg.scheduled_beeps == 28 * 8 == 224
        assert cfg.num_variables == 30
        assert len(DEFAULT_VARIABLE_NAMES) == 26  # the paper's shared subset

    def test_validations(self):
        with pytest.raises(ValueError):
            SynthesisConfig(num_individuals=0)
        with pytest.raises(ValueError):
            SynthesisConfig(spectral_radius=(0.9, 0.5))
        with pytest.raises(ValueError):
            SynthesisConfig(event_rate=1.5)

    @pytest.mark.parametrize("field, value", [
        ("burn_in", -5),
        ("noise_scale", (1.0, 0.5)),
        ("noise_scale", (-0.5, 1.0)),
        ("event_scale", -1.0),
        ("event_scale", float("nan")),
        ("compliance_alpha", 0.0),
        ("compliance_beta", 0.0),
        ("variable_names", ("a", "b")),
    ])
    def test_rejects_unusable_values_naming_the_field(self, field, value):
        # Each would otherwise surface only as a bare numpy error from
        # inside generate_cohort ("a <= 0", "scale < 0", "negative
        # dimensions are not allowed", ...).
        with pytest.raises(ValueError, match=f"^{field} must"):
            SynthesisConfig(**{field: value})


class TestGenerateCohort:
    def test_cohort_size_and_variables(self, small_cohort):
        assert len(small_cohort) == 20
        assert small_cohort.num_variables == 30

    def test_values_are_likert(self, small_cohort):
        for ind in small_cohort:
            assert ind.values.min() >= 1
            assert ind.values.max() <= 7
            np.testing.assert_array_equal(ind.values, np.rint(ind.values))

    def test_compliance_creates_varying_lengths(self, small_cohort):
        lengths = {ind.num_time_points for ind in small_cohort}
        assert len(lengths) > 5
        assert all(ind.num_time_points <= 224 for ind in small_cohort)

    def test_some_individuals_have_low_compliance(self, small_cohort):
        rates = [ind.compliance for ind in small_cohort]
        assert min(rates) < 0.5 < max(rates)

    def test_ground_truth_graph_attached(self, small_cohort):
        ind = small_cohort[0]
        g = ind.ground_truth_graph
        assert g.shape == (30, 30)
        assert np.allclose(g, g.T)
        assert (np.diag(g) == 0).all()
        assert g.sum() > 0

    def test_graphs_differ_across_individuals(self, small_cohort):
        a = small_cohort[0].ground_truth_graph
        b = small_cohort[1].ground_truth_graph
        assert not np.allclose(a, b)

    def test_deterministic_under_seed(self):
        cfg = SynthesisConfig(num_individuals=3, seed=11)
        a = generate_cohort(cfg)
        b = generate_cohort(cfg)
        for ia, ib in zip(a, b):
            np.testing.assert_array_equal(ia.values, ib.values)

    def test_different_seeds_differ(self):
        a = generate_cohort(SynthesisConfig(num_individuals=3, seed=1))
        b = generate_cohort(SynthesisConfig(num_individuals=3, seed=2))
        assert any(ia.values.shape != ib.values.shape
                   or not np.allclose(ia.values, ib.values)
                   for ia, ib in zip(a, b))

    def test_rare_items_have_low_variance(self, small_cohort):
        names = small_cohort.variable_names
        rare_idx = [names.index(n) for n in LOW_VARIANCE_NAMES]
        for ind in small_cohort:
            assert ind.values[:, rare_idx].std(axis=0).max() < 0.6

    def test_active_items_have_temporal_autocorrelation(self, small_cohort):
        # The EMA inertia signal the forecasters rely on must exist.
        best = [ind for ind in small_cohort if ind.num_time_points > 100]
        autocorrs = []
        for ind in best:
            v = ind.values[:, :26]
            for j in range(26):
                col = v[:, j]
                if col.std() > 0.3:
                    autocorrs.append(np.corrcoef(col[:-1], col[1:])[0, 1])
        assert np.mean(autocorrs) > 0.15


class TestFilterCompliance:
    def test_threshold(self, small_cohort):
        kept, dropped = filter_compliance(small_cohort, 0.5)
        assert all(ind.compliance >= 0.5 for ind in kept)
        assert len(kept) + len(dropped) == len(small_cohort)

    def test_cap_keeps_most_compliant(self, small_cohort):
        kept, _ = filter_compliance(small_cohort, 0.0, max_individuals=5)
        assert len(kept) == 5
        floor = min(ind.compliance for ind in kept)
        all_rates = sorted((i.compliance for i in small_cohort), reverse=True)
        assert floor >= all_rates[4] - 1e-12

    def test_validates_threshold(self, small_cohort):
        with pytest.raises(ValueError):
            filter_compliance(small_cohort, 1.5)


class TestSharedVarianceFilter:
    def test_drops_rare_items(self, small_cohort):
        kept, _ = filter_compliance(small_cohort, 0.5)
        indices = shared_high_variance_variables(kept, min_std=0.25)
        names = [small_cohort.variable_names[i] for i in indices]
        for rare in LOW_VARIANCE_NAMES:
            assert rare not in names

    def test_empty_dataset(self):
        from repro.data import EMADataset

        assert shared_high_variance_variables(EMADataset([])) == []


class TestPipeline:
    def test_end_to_end(self, small_cohort):
        clean, report = PreprocessingPipeline(
            min_compliance=0.5, max_individuals=8).run(small_cohort)
        assert len(clean) <= 8
        assert report.kept_individuals == len(clean)
        assert report.initial_individuals == 20
        assert clean.num_variables == report.kept_variables
        # All rare items gone; only the 26 active items remain.
        assert set(clean.variable_names) <= set(DEFAULT_VARIABLE_NAMES)

    def test_output_is_normalized(self, small_cohort):
        clean, _ = PreprocessingPipeline(min_compliance=0.5, max_individuals=8
                                         ).run(small_cohort)
        for ind in clean:
            np.testing.assert_allclose(ind.values.mean(axis=0), 0.0, atol=1e-8)
            stds = ind.values.std(axis=0)
            np.testing.assert_allclose(stds[stds > 0], 1.0, atol=1e-8)

    def test_report_str_readable(self, small_cohort):
        _, report = PreprocessingPipeline(min_compliance=0.5).run(small_cohort)
        text = str(report)
        assert "individuals" in text and "variables" in text

    def test_impossible_variance_threshold_raises(self, small_cohort):
        with pytest.raises(ValueError):
            PreprocessingPipeline(min_compliance=0.5, min_std=10.0).run(small_cohort)
