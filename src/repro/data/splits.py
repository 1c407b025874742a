"""Sequential train/test splitting (paper section V-E).

"Since each X_i is time-series data, these are sequentially split into
training (first 70 % of each dataset) and test (the last 30 %)."  Windows
are assigned to a side by the *target* time index, and test windows may
reach back into the training region for their inputs (the standard
walk-forward convention — no target leakage).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .windows import WindowSet, make_windows

__all__ = ["TrainTestWindows", "require_finite", "split_boundary", "split_windows"]


@dataclass(frozen=True)
class TrainTestWindows:
    train: WindowSet
    test: WindowSet
    boundary: int  # first time index belonging to the test region


def split_boundary(num_time_points: int, train_fraction: float = 0.7) -> int:
    """First time index of the test region for a recording of given length.

    The single authority for the train/test cut: :func:`split_windows`
    assigns windows by it, and graph construction
    (:func:`repro.training.personalized.enumerate_cells`) truncates the
    recording at it, so the "graphs see training data only" invariant
    cannot drift between the two derivations.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if num_time_points < 1:
        raise ValueError(f"num_time_points must be >= 1, got {num_time_points}")
    return int(round(train_fraction * num_time_points))


def require_finite(values: np.ndarray, what: str, use: str) -> None:
    """Raise ``ValueError`` if the ``(rows, variables)`` ``values`` hold NaN/inf.

    The message names the count and the first offending row and points to
    the imputers: a missed beep must fail here, before ``use``, rather
    than surface later as a diverged fit or a NaN forecast.
    """
    finite = np.isfinite(values)
    if not finite.all():
        first_row = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise ValueError(
            f"{what} has {int(finite.size - finite.sum())} non-finite "
            f"value(s), first in row {first_row}; impute missed beeps "
            f"before {use} (repro.data.imputation: forward_fill, "
            f"mean_impute, linear_interpolate) or drop those rows")


def split_windows(values: np.ndarray, seq_len: int,
                  train_fraction: float = 0.7) -> TrainTestWindows:
    """Window a recording and split by target index at ``train_fraction``.

    Raises ``ValueError`` when the recording holds NaN/inf values (e.g.
    missed beeps loaded without imputation): training on them would only
    surface later as a diverged fit.
    """
    values = np.asarray(values, dtype=np.float64)
    windows = make_windows(values, seq_len)
    require_finite(values, "recording", "training")
    boundary = split_boundary(values.shape[0], train_fraction)
    train_mask = windows.target_indices < boundary
    test_mask = ~train_mask
    if train_mask.sum() == 0 or test_mask.sum() == 0:
        raise ValueError(
            f"split at {boundary}/{values.shape[0]} leaves an empty side "
            f"(seq_len={seq_len}); recording too short")
    train = WindowSet(inputs=windows.inputs[train_mask],
                      targets=windows.targets[train_mask],
                      target_indices=windows.target_indices[train_mask])
    test = WindowSet(inputs=windows.inputs[test_mask],
                     targets=windows.targets[test_mask],
                     target_indices=windows.target_indices[test_mask])
    return TrainTestWindows(train=train, test=test, boundary=boundary)
