"""Classical baselines: ridge-regularized VAR and the naive mean predictor.

The paper's related work (section II-A) grounds EMA forecasting in Vector
Autoregression — "most of the studies focus on applying linear statistical
models, like the VAR model" — and motivates GNNs by VAR's instability on
high-dimensional, interdependent EMA variables.  These closed-form
baselines make that comparison runnable:

* :class:`VARForecaster` — VAR(p) fit by ridge regression (one shot, no
  gradient training); ``p`` = the window length, so Seq1/Seq2/Seq5 map to
  VAR(1)/VAR(2)/VAR(5).
* :class:`NaiveMeanForecaster` — predicts each variable's training mean
  (≈ 0 after per-individual z-normalization), the MSE ≈ 1.0 anchor used
  throughout EXPERIMENTS.md.

Both satisfy the :class:`Forecaster` interface; ``fit`` is closed-form so
the gradient :class:`~repro.training.Trainer` is bypassed via
:meth:`fit_windows`.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor
from ..data.windows import WindowSet
from .base import Forecaster

__all__ = ["VARForecaster", "NaiveMeanForecaster"]


class VARForecaster(Forecaster):
    """VAR(p) via ridge regression on flattened lag windows.

    ``x_t = c + sum_k A_k x_{t-k} + e`` — estimated jointly as one linear
    map from the flattened window ``(L * V,)`` to ``(V,)`` with an L2
    penalty, the standard stabilization for EMA's short, collinear series.
    """

    requires_graph = False

    def __init__(self, num_variables: int, seq_len: int, ridge: float = 10.0,
                 rng: np.random.Generator | None = None):
        super().__init__(num_variables, seq_len)
        if ridge < 0:
            raise ValueError(f"ridge must be non-negative, got {ridge}")
        self.ridge = ridge
        features = num_variables * seq_len
        self._coefficients = np.zeros((features, num_variables))
        self._intercept = np.zeros(num_variables)
        self._fitted = False

    def fit_windows(self, windows: WindowSet) -> "VARForecaster":
        """Closed-form ridge fit on a window set."""
        # repro: noqa[REPRO005] — closed-form ridge solve is always float64
        x = windows.inputs.reshape(windows.num_samples, -1).astype(np.float64)  # repro: noqa[REPRO005]
        y = windows.targets.astype(np.float64)  # repro: noqa[REPRO005]
        x_mean = x.mean(axis=0)
        y_mean = y.mean(axis=0)
        xc, yc = x - x_mean, y - y_mean
        gram = xc.T @ xc + self.ridge * np.eye(x.shape[1])
        self._coefficients = np.linalg.solve(gram, xc.T @ yc)
        self._intercept = y_mean - x_mean @ self._coefficients
        self._fitted = True
        return self

    def coefficient_matrices(self) -> np.ndarray:
        """The fitted lag matrices, shaped ``(seq_len, V, V)``.

        ``result[k][i, j]`` is the effect of variable *j* at lag
        ``seq_len - k`` on variable *i* — the "network of co-occurring
        variables" interpretation EMA studies draw from VAR fits.
        """
        per_lag = self._coefficients.reshape(self.seq_len, self.num_variables,
                                             self.num_variables)
        return np.transpose(per_lag, (0, 2, 1))

    def get_extra_state(self) -> dict:
        """Fitted closed-form state, so checkpoints/the store cover VAR."""
        return {"coefficients": self._coefficients,
                "intercept": self._intercept,
                "fitted": np.asarray(1.0 if self._fitted else 0.0)}

    def set_extra_state(self, state: dict) -> None:
        self._coefficients = np.asarray(state["coefficients"],
                                        dtype=np.float64)  # repro: noqa[REPRO005] — matches the float64 fit
        self._intercept = np.asarray(state["intercept"],
                                     dtype=np.float64)  # repro: noqa[REPRO005] — matches the float64 fit
        self._fitted = bool(np.asarray(state["fitted"]))

    def forward(self, inputs: Tensor) -> Tensor:
        self._check_input(inputs)
        flat = inputs.data.reshape(inputs.shape[0], -1)
        prediction = flat @ self._coefficients + self._intercept
        return Tensor(prediction.astype(inputs.dtype))

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("VARForecaster.predict called before fit_windows")
        flat = np.asarray(inputs, dtype=np.float64).reshape(len(inputs), -1)  # repro: noqa[REPRO005] — matches the float64 fit
        return flat @ self._coefficients + self._intercept


class NaiveMeanForecaster(Forecaster):
    """Predicts each variable's training mean regardless of input."""

    requires_graph = False

    def __init__(self, num_variables: int, seq_len: int,
                 rng: np.random.Generator | None = None):
        super().__init__(num_variables, seq_len)
        self._mean = np.zeros(num_variables)

    def fit_windows(self, windows: WindowSet) -> "NaiveMeanForecaster":
        self._mean = windows.targets.astype(np.float64).mean(axis=0)  # repro: noqa[REPRO005] — exact mean
        return self

    def get_extra_state(self) -> dict:
        """Fitted training mean, so checkpoints/the store cover the baseline."""
        return {"mean": self._mean}

    def set_extra_state(self, state: dict) -> None:
        self._mean = np.asarray(state["mean"], dtype=np.float64)  # repro: noqa[REPRO005] — matches the float64 fit

    def forward(self, inputs: Tensor) -> Tensor:
        self._check_input(inputs)
        out = np.broadcast_to(self._mean, (inputs.shape[0], self.num_variables))
        return Tensor(out.astype(inputs.dtype).copy())

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self._mean,
                               (len(inputs), self.num_variables)).copy()
