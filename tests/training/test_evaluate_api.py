"""Tests for the config-aware ``Trainer.evaluate`` instance methods."""

import numpy as np
import pytest

from repro.autodiff import get_default_dtype
from repro.data.windows import make_windows
from repro.evaluation.per_variable import per_variable_mse
from repro.models import create_model
from repro.training import Trainer, TrainerConfig
from repro.training.trainer import LOSSES


@pytest.fixture
def fitted():
    rng = np.random.default_rng(0)
    windows = make_windows(rng.standard_normal((50, 5)), 3)
    model = create_model("lstm", 5, 3, seed=1)
    trainer = Trainer(TrainerConfig(epochs=3))
    trainer.fit(model, windows)
    return trainer, model, windows


class TestHybridEvaluate:
    def test_default_loss_is_float64_mse(self, fitted):
        """``loss="mse"`` accumulates the squared error in float64."""
        trainer, model, windows = fitted
        diff = model.predict(windows.inputs) - windows.targets.astype(
            get_default_dtype())
        expected = float(np.mean(diff.astype(np.float64) ** 2))
        assert trainer.evaluate(model, windows) == expected

    def test_instance_honors_configured_loss(self, fitted):
        _, model, windows = fitted
        mae_trainer = Trainer(TrainerConfig(loss="mae"))
        mae_value = mae_trainer.evaluate(model, windows)
        mse_value = Trainer().evaluate(model, windows)
        assert mae_value != mse_value
        # cross-check against the registered loss on raw predictions.
        prediction = model.predict(windows.inputs)
        expected = float(np.mean(np.abs(prediction - windows.targets)))
        assert mae_value == pytest.approx(expected, rel=1e-5)

    def test_eval_mode_restored(self, fitted):
        trainer, model, windows = fitted
        model.train()
        trainer.evaluate(model, windows)
        assert model.training
        model.eval()
        trainer.evaluate(model, windows)
        assert not model.training

    def test_per_variable_matches_per_variable_mse(self, fitted):
        trainer, model, windows = fitted
        per_variable = trainer.evaluate_per_variable(model, windows)
        assert per_variable.shape == (5,)
        np.testing.assert_array_equal(
            per_variable,
            per_variable_mse(windows.targets, model.predict(windows.inputs)))

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError, match="loss"):
            TrainerConfig(loss="rmsle")

    def test_losses_registry_contents(self):
        assert set(LOSSES) == {"mse", "mae", "huber"}

    def test_huber_loss_trains_and_evaluates(self):
        rng = np.random.default_rng(2)
        windows = make_windows(rng.standard_normal((40, 4)), 2)
        model = create_model("lstm", 4, 2, seed=3)
        trainer = Trainer(TrainerConfig(epochs=3, loss="huber"))
        history = trainer.fit(model, windows)
        assert np.isfinite(history.losses).all()
        assert np.isfinite(trainer.evaluate(model, windows))
