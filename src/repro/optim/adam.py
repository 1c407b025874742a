"""Adam optimizer — the paper trains every model with Adam at lr 0.01."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..autodiff import no_grad
from ..nn.module import Parameter
from .optimizer import Optimizer

__all__ = ["Adam"]


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias-corrected moment estimates.

    Hyperparameters beyond ``lr`` are keyword-only (the unified optimizer
    signature shared with :class:`~repro.optim.sgd.SGD`).

    :meth:`step` is a flat-buffer update: the gradients of all parameters
    (grouped by dtype) are gathered into one contiguous buffer, the Adam
    arithmetic (:meth:`_update`) runs *once* over that buffer into
    preallocated scratch, and the per-parameter updates are views into the
    result.  The moment states ``_m``/``_v`` are views into the flat
    storage, so they stay inspectable per parameter, and the per-step
    ufunc count is ~3 times the parameter count plus a constant rather
    than ~13 times — the win the profiler points at for this codebase's
    many-small-parameter models.  Every ufunc applies one op of the
    textbook per-parameter update in the same order and association (only
    IEEE-commutative swaps such as ``grad * (1 - beta1)`` for
    ``(1 - beta1) * grad``), and elementwise arithmetic is shape-blind, so
    the step is bit-identical to that loop (asserted in ``tests/optim``
    against an inline copy of it).

    **Lanes.** ``step(active=mask)`` with a ``(K,)`` bool mask says that
    every parameter holds ``K`` independent lanes stacked on axis 0 — how
    the stacked cohort backend (:mod:`repro.training.stacked`) trains ``K``
    individuals at once.  Rows where ``mask`` is False are frozen: their
    weights *and* moments stay untouched, exactly as if that individual's
    solo fit had already returned.  The active rows are gathered, run
    through the same :meth:`_update` and scattered back, so each lane's row
    is bit-identical to a solo Adam over that lane's parameters.  The step
    count is global, which equals a per-lane count because every lane
    starts at step 0 and frozen lanes never resume.  (Gradients of frozen
    lanes may be garbage — NaN from a diverged forward — and never enter
    the arithmetic.)
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float = 0.01,
                 *, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        #: ((grad pattern, lane count), [group, ...]); built lazily at the
        #: first step and rebuilt if the set of parameters that actually
        #: carry gradients, or the lane count, changes.
        self._flat = None

    def step(self, active: np.ndarray | None = None) -> None:
        """Update every parameter, or only the lanes where ``active`` is True."""
        lanes = None
        if active is not None:
            active = np.asarray(active, dtype=bool)
            if active.ndim != 1:
                raise ValueError(f"active mask must have shape (K,), "
                                 f"got {active.shape}")
            lanes = active.shape[0]
        groups = self._ensure_flat(lanes)
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        rows = None if active is None or active.all() \
            else np.flatnonzero(active)
        with no_grad():
            for g in groups:
                slots = g["slots"]
                for p, grad_view, _, _, _ in slots:
                    np.copyto(grad_view, p.grad)
                if self.weight_decay:
                    for p, _, data_view, _, _ in slots:
                        np.copyto(data_view, p.data)
                if rows is None:
                    self._update(g["grad"], g["m"], g["v"], g["data"],
                                 g["a"], g["b"], bias1, bias2)
                    for p, _, _, update_view, _ in slots:
                        p.data -= update_view
                    continue
                # Gather the active rows, run the same update on them and
                # scatter moments and weights back; frozen rows are never
                # written.
                grad = g["grad"][rows]
                m, v = g["m"][rows], g["v"][rows]
                update = self._update(
                    grad, m, v, g["data"][rows] if self.weight_decay else None,
                    np.empty_like(grad), np.empty_like(grad), bias1, bias2)
                g["m"][rows] = m
                g["v"][rows] = v
                for p, _, _, _, cols in slots:
                    data = p.data
                    data[rows] -= update[:, cols].reshape(
                        (rows.size,) + data.shape[1:])
                    p.data = data  # reassign to bump the version counter

    def _update(self, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
                data: np.ndarray | None, a: np.ndarray, b: np.ndarray,
                bias1: float, bias2: float) -> np.ndarray:
        """Advance ``m``/``v`` in place; return the weight decrement.

        All arrays share one shape; ``a`` and ``b`` are scratch, and the
        decrement is returned in ``a``.  ``data`` (the current weights) is
        read only under weight decay.
        """
        if self.weight_decay:
            np.multiply(data, self.weight_decay, out=a)
            a += grad
            grad = a
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=b)
        m += b
        np.multiply(grad, 1.0 - self.beta2, out=b)
        b *= grad
        v *= self.beta2
        v += b
        np.divide(v, bias2, out=b)               # v_hat
        np.sqrt(b, out=b)
        b += self.eps
        np.divide(m, bias1, out=a)               # m_hat (grad dead)
        a *= self.lr
        a /= b
        return a

    def _ensure_flat(self, lanes: int | None) -> list:
        """(Re)build the flat update groups for the current grad pattern.

        One group per dtype among the parameters that carry a gradient.
        Every buffer is ``(rows, P)``: one row for a solo step, one per
        lane when ``lanes`` is given.  A parameter's view is the column
        block ``flat[:, a:b].reshape(shape)`` (a valid view: the block is
        contiguous within each row), so the hot loop never re-slices.  The
        per-parameter moment arrays in ``_m``/``_v`` are rebound to views
        into the group's storage (carrying their current values over), so
        state survives pattern changes.
        """
        key = (tuple(p.grad is not None for p in self.parameters), lanes)
        if self._flat is not None and self._flat[0] == key:
            return self._flat[1]
        if lanes is not None:
            for i, p in enumerate(self.parameters):
                if p.data.shape[:1] != (lanes,):
                    raise ValueError(
                        f"parameter {i} has shape {p.data.shape}, but the "
                        f"active mask of shape ({lanes},) asks for {lanes} "
                        f"lanes on axis 0")
        rows = 1 if lanes is None else lanes
        by_dtype: dict = {}
        for i, p in enumerate(self.parameters):
            if p.grad is not None:
                by_dtype.setdefault(p.data.dtype.str, []).append(i)
        groups = []
        for indices in by_dtype.values():
            params = [self.parameters[i] for i in indices]
            total = sum(p.data.size // rows for p in params)
            dtype = params[0].data.dtype
            flat = {name: np.empty((rows, total), dtype=dtype)
                    for name in ("m", "v", "grad", "data", "a", "b")}
            offset = 0
            slots = []
            for i, p in zip(indices, params):
                cols = slice(offset, offset + p.data.size // rows)
                shape = p.data.shape
                m_view = flat["m"][:, cols].reshape(shape)
                v_view = flat["v"][:, cols].reshape(shape)
                np.copyto(m_view, self._m[i])
                np.copyto(v_view, self._v[i])
                self._m[i] = m_view
                self._v[i] = v_view
                slots.append((p, flat["grad"][:, cols].reshape(shape),
                              flat["data"][:, cols].reshape(shape),
                              flat["a"][:, cols].reshape(shape), cols))
                offset = cols.stop
            groups.append({"slots": slots, **flat})
        self._flat = (key, groups)
        return groups
