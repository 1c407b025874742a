"""Tests for the trainer, seeding, and history."""

import numpy as np
import pytest

from repro.data import make_windows, split_windows
from repro.models import create_model
from repro.training import (Trainer, TrainerConfig, TrainingHistory,
                            derive_seed)

V, L = 6, 2


def predictable_series(t=120, seed=0):
    """AR(1) series with strong inertia: clearly learnable."""
    rng = np.random.default_rng(seed)
    x = np.zeros((t, V))
    state = rng.standard_normal(V)
    for i in range(t):
        state = 0.8 * state + 0.4 * rng.standard_normal(V)
        x[i] = state
    return (x - x.mean(0)) / x.std(0)


class TestTrainerConfig:
    def test_paper_defaults(self):
        cfg = TrainerConfig()
        assert cfg.epochs == 300
        assert cfg.learning_rate == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainerConfig(learning_rate=-1)
        with pytest.raises(ValueError):
            TrainerConfig(grad_clip=0)


class TestTrainer:
    def test_fit_reduces_training_loss(self):
        series = predictable_series()
        windows = make_windows(series, L)
        model = create_model("lstm", V, L, seed=0)
        history = Trainer(TrainerConfig(epochs=60)).fit(model, windows)
        assert history.epochs == 60
        assert history.final_loss < 0.8 * history.losses[0]

    def test_evaluate_matches_manual_mse(self):
        series = predictable_series(seed=1)
        windows = make_windows(series, L)
        model = create_model("lstm", V, L, seed=0)
        score = Trainer().evaluate(model, windows)
        pred = model.predict(windows.inputs)
        manual = float(np.mean((pred - windows.targets) ** 2))
        assert score == pytest.approx(manual, rel=1e-5)

    def test_learned_model_beats_untrained(self):
        series = predictable_series(seed=2)
        split = split_windows(series, L)
        model = create_model("lstm", V, L, seed=0)
        before = Trainer().evaluate(model, split.test)
        Trainer(TrainerConfig(epochs=80)).fit(model, split.train)
        after = Trainer().evaluate(model, split.test)
        assert after < before

    def test_training_is_deterministic_under_seed(self):
        series = predictable_series(seed=3)
        windows = make_windows(series, L)
        losses = []
        for _ in range(2):
            model = create_model("lstm", V, L, seed=5)
            history = Trainer(TrainerConfig(epochs=5)).fit(model, windows)
            losses.append(history.losses)
        np.testing.assert_allclose(losses[0], losses[1])

    def test_evaluate_restores_prior_mode(self):
        # Regression: evaluate() used to force train mode afterwards,
        # re-enabling dropout on a model that was deliberately in eval mode.
        series = predictable_series(seed=6)
        windows = make_windows(series, L)
        model = create_model("lstm", V, L, seed=0)
        model.eval()
        Trainer().evaluate(model, windows)
        assert model.training is False
        model.train()
        Trainer().evaluate(model, windows)
        assert model.training is True

    def test_grad_clip_none_allowed(self):
        series = predictable_series(seed=4)
        windows = make_windows(series, L)
        model = create_model("lstm", V, L, seed=0)
        cfg = TrainerConfig(epochs=2, grad_clip=None)
        history = Trainer(cfg).fit(model, windows)
        assert history.epochs == 2


class TestHistory:
    def test_best_tracking(self):
        h = TrainingHistory()
        for v in [1.0, 0.5, 0.7, 0.4, 0.6]:
            h.record(v)
        assert h.best_loss == 0.4
        assert h.best_epoch == 3
        assert h.final_loss == 0.6
        assert h.improved()

    def test_empty_history_raises(self):
        h = TrainingHistory()
        with pytest.raises(ValueError):
            _ = h.final_loss
        with pytest.raises(ValueError):
            _ = h.best_loss

    def test_improved_requires_two_epochs(self):
        h = TrainingHistory()
        h.record(1.0)
        assert not h.improved()


class TestSeeding:
    def test_stable_across_calls(self):
        assert derive_seed("p001", "mtgnn", 5) == derive_seed("p001", "mtgnn", 5)

    def test_distinct_for_distinct_inputs(self):
        seeds = {derive_seed("p001", m, s) for m in ["a", "b", "c"] for s in [1, 2, 5]}
        assert len(seeds) == 9

    def test_base_seed_shifts(self):
        assert derive_seed("x", base=0) != derive_seed("x", base=1)

    def test_in_valid_range(self):
        s = derive_seed("anything", 123, base=7)
        assert 0 <= s < 2 ** 31
