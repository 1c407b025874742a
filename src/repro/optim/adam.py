"""Adam optimizer — the paper trains every model with Adam at lr 0.01."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..autodiff import no_grad
from ..nn.module import Parameter
from .optimizer import Optimizer

__all__ = ["Adam", "StackedAdam"]


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias-corrected moment estimates.

    Hyperparameters beyond ``lr`` are keyword-only (the unified optimizer
    signature shared with :class:`~repro.optim.sgd.SGD`).

    ``fused=True`` switches :meth:`step` to a flat-buffer update: the
    gradients of all parameters (grouped by dtype) are gathered into one
    contiguous buffer, the Adam arithmetic runs *once* over that buffer
    into preallocated scratch, and the per-parameter updates are views
    into the result.  The moment states ``_m``/``_v`` become views into
    the flat storage, so the per-step ufunc count drops from ~13 times
    the parameter count to ~3 times plus a constant — the win the
    profiler points at for this codebase's many-small-parameter models.
    Every elementwise op matches the reference loop's order/association
    (only IEEE-commutative swaps such as ``grad * (1 - beta1)`` for
    ``(1 - beta1) * grad`` are applied), and elementwise arithmetic is
    shape-blind, so the fused path is bit-identical to the reference
    loop (asserted in ``tests/optim``).
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float = 0.01,
                 *, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0,
                 fused: bool = False):
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.fused = bool(fused)
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        #: Fused-path state: (pattern key, [group, ...]); built lazily at
        #: the first fused step and rebuilt if the set of parameters that
        #: actually carry gradients changes.
        self._flat = None

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        if self.fused:
            self._fused_step(bias1, bias2)
            return
        with no_grad():
            for p, m, v in zip(self.parameters, self._m, self._v):
                if p.grad is None:
                    continue
                grad = p.grad
                if self.weight_decay:
                    grad = grad + self.weight_decay * p.data
                m *= self.beta1
                m += (1.0 - self.beta1) * grad
                v *= self.beta2
                v += (1.0 - self.beta2) * grad * grad
                m_hat = m / bias1
                v_hat = v / bias2
                p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def _ensure_flat(self) -> list:
        """(Re)build the flat update groups for the current grad pattern.

        One group per dtype among the parameters that carry a gradient.
        The per-parameter moment arrays in ``_m``/``_v`` are rebound to
        views into the group's contiguous storage (carrying their current
        values over), so state survives pattern changes and stays
        inspectable per parameter.
        """
        pattern = tuple(p.grad is not None for p in self.parameters)
        if self._flat is not None and self._flat[0] == pattern:
            return self._flat[1]
        by_dtype: dict = {}
        for i, p in enumerate(self.parameters):
            if p.grad is not None:
                by_dtype.setdefault(p.data.dtype.str, []).append(i)
        groups = []
        for indices in by_dtype.values():
            params = [self.parameters[i] for i in indices]
            sizes = [p.data.size for p in params]
            total = sum(sizes)
            dtype = params[0].data.dtype
            m_flat = np.empty(total, dtype=dtype)
            v_flat = np.empty(total, dtype=dtype)
            grad_flat = np.empty(total, dtype=dtype)
            data_flat = np.empty(total, dtype=dtype)
            a_flat = np.empty(total, dtype=dtype)
            offset = 0
            slots = []
            for i, p, size in zip(indices, params, sizes):
                view = slice(offset, offset + size)
                shape = p.data.shape
                np.copyto(m_flat[view].reshape(shape), self._m[i])
                np.copyto(v_flat[view].reshape(shape), self._v[i])
                self._m[i] = m_flat[view].reshape(shape)
                self._v[i] = v_flat[view].reshape(shape)
                # Persistent per-parameter views into the flat buffers, so
                # the hot loop never re-slices or re-shapes.
                slots.append((p, grad_flat[view].reshape(shape),
                              data_flat[view].reshape(shape),
                              a_flat[view].reshape(shape)))
                offset += size
            groups.append({"slots": slots, "m": m_flat, "v": v_flat,
                           "grad": grad_flat, "data": data_flat,
                           "a": a_flat, "b": np.empty(total, dtype=dtype)})
        self._flat = (pattern, groups)
        return groups

    def _fused_step(self, bias1: float, bias2: float) -> None:
        # Every ufunc line mirrors one op of the reference loop, applied
        # once to the concatenation of all parameters; elementwise
        # arithmetic is shape-blind and only bitwise-exact IEEE 754
        # commutations are applied, so the update is bit-identical.
        one_minus_beta1 = 1.0 - self.beta1
        one_minus_beta2 = 1.0 - self.beta2
        with no_grad():
            for g in self._ensure_flat():
                slots, m, v = g["slots"], g["m"], g["v"]
                grad, a, b = g["grad"], g["a"], g["b"]
                for p, grad_view, _, _ in slots:
                    np.copyto(grad_view, p.grad)
                if self.weight_decay:
                    for p, _, data_view, _ in slots:
                        np.copyto(data_view, p.data)
                    np.multiply(g["data"], self.weight_decay, out=a)
                    a += grad
                    grad = a
                m *= self.beta1
                np.multiply(grad, one_minus_beta1, out=b)
                m += b
                np.multiply(grad, one_minus_beta2, out=b)
                b *= grad
                v *= self.beta2
                v += b
                np.divide(v, bias2, out=b)               # v_hat
                np.sqrt(b, out=b)
                b += self.eps
                np.divide(m, bias1, out=a)               # m_hat (grad dead)
                a *= self.lr
                a /= b
                for p, _, _, update_view in slots:
                    p.data -= update_view


class StackedAdam(Optimizer):
    """Adam over ``K`` independent parameter lanes stacked on axis 0.

    The stacked cohort executor (:mod:`repro.training.stacked`) trains
    ``K`` individuals at once by stacking each model parameter into one
    ``(K, *shape)`` array.  This optimizer runs one Adam update over the
    whole stack: per dtype group, gradients are gathered into a ``(K, P)``
    flat buffer and the exact ufunc sequence of :class:`Adam`'s fused step
    runs once over it.  Elementwise arithmetic is shape-blind, so each
    lane's row is bit-identical to what a per-individual :class:`Adam`
    (reference loop or fused — they match) would have produced.

    ``step(active=mask)`` freezes lanes: rows where ``mask`` is False are
    excluded from the update entirely — their weights *and* their moment
    state stay untouched, exactly as if that individual's solo fit had
    already returned.  The step count is global, which is equivalent to a
    per-lane count because every lane starts at step 0 and frozen lanes
    never resume: an active lane's global ``t`` always equals the solo
    ``t``.  (Gradients of frozen lanes may be garbage — NaN from a
    diverged forward — and are never read.)
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float = 0.01,
                 *, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        lanes = {p.data.shape[0] for p in self.parameters}
        if len(lanes) != 1:
            raise ValueError(
                f"stacked parameters disagree on lane count: {sorted(lanes)}")
        self.lanes = lanes.pop()
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
        self._flat = None

    def step(self, active: np.ndarray | None = None) -> None:
        """Update all lanes, or only the rows where ``active`` is True."""
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        if active is not None:
            active = np.asarray(active, dtype=bool)
            if active.shape != (self.lanes,):
                raise ValueError(f"active mask must have shape "
                                 f"({self.lanes},), got {active.shape}")
            if active.all():
                active = None
        with no_grad():
            for group in self._ensure_flat():
                if active is None:
                    self._full_step(group, bias1, bias2)
                else:
                    self._masked_step(group, bias1, bias2, active)

    def _ensure_flat(self) -> list:
        """(Re)build ``(K, P)`` update groups for the current grad pattern.

        Same contract as :meth:`Adam._ensure_flat`, with a leading lane
        axis on every buffer: per-parameter views are column blocks
        ``flat[:, a:b].reshape((K,) + shape)`` (valid views — the split
        axis is contiguous within each row), so the hot loop never
        re-slices.  ``_m``/``_v`` are rebound to views carrying their
        current values over, so moment state survives pattern changes.
        """
        pattern = tuple(p.grad is not None for p in self.parameters)
        if self._flat is not None and self._flat[0] == pattern:
            return self._flat[1]
        by_dtype: dict = {}
        for i, p in enumerate(self.parameters):
            if p.grad is not None:
                by_dtype.setdefault(p.data.dtype.str, []).append(i)
        lanes = self.lanes
        groups = []
        for indices in by_dtype.values():
            params = [self.parameters[i] for i in indices]
            sizes = [p.data.size // lanes for p in params]
            total = sum(sizes)
            dtype = params[0].data.dtype
            m_flat = np.empty((lanes, total), dtype=dtype)
            v_flat = np.empty((lanes, total), dtype=dtype)
            grad_flat = np.empty((lanes, total), dtype=dtype)
            data_flat = np.empty((lanes, total), dtype=dtype)
            a_flat = np.empty((lanes, total), dtype=dtype)
            offset = 0
            slots = []
            for i, p, size in zip(indices, params, sizes):
                view = slice(offset, offset + size)
                shape = p.data.shape
                np.copyto(m_flat[:, view].reshape(shape), self._m[i])
                np.copyto(v_flat[:, view].reshape(shape), self._v[i])
                self._m[i] = m_flat[:, view].reshape(shape)
                self._v[i] = v_flat[:, view].reshape(shape)
                slots.append((p, grad_flat[:, view].reshape(shape),
                              data_flat[:, view].reshape(shape),
                              a_flat[:, view].reshape(shape), view))
                offset += size
            groups.append({"slots": slots, "m": m_flat, "v": v_flat,
                           "grad": grad_flat, "data": data_flat,
                           "a": a_flat, "b": np.empty((lanes, total),
                                                      dtype=dtype)})
        self._flat = (pattern, groups)
        return groups

    def _full_step(self, g: dict, bias1: float, bias2: float) -> None:
        # Identical ufunc sequence to Adam._fused_step, over (K, P) buffers.
        slots, m, v = g["slots"], g["m"], g["v"]
        grad, a, b = g["grad"], g["a"], g["b"]
        for p, grad_view, _, _, _ in slots:
            np.copyto(grad_view, p.grad)
        if self.weight_decay:
            for p, _, data_view, _, _ in slots:
                np.copyto(data_view, p.data)
            np.multiply(g["data"], self.weight_decay, out=a)
            a += grad
            grad = a
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=b)
        m += b
        np.multiply(grad, 1.0 - self.beta2, out=b)
        b *= grad
        v *= self.beta2
        v += b
        np.divide(v, bias2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        np.divide(m, bias1, out=a)
        a *= self.lr
        a /= b
        with no_grad():  # lexically, for the linter — step() already holds it
            for p, _, _, update_view, _ in slots:
                p.data -= update_view

    def _masked_step(self, g: dict, bias1: float, bias2: float,
                     active: np.ndarray) -> None:
        # Gather the active rows, run the same ufunc sequence on the
        # (A, P) block, scatter moments and weight updates back.  Frozen
        # rows are never read or written.
        idx = np.flatnonzero(active)
        if idx.size == 0:
            return
        slots, m, v = g["slots"], g["m"], g["v"]
        for p, grad_view, _, _, _ in slots:
            np.copyto(grad_view, p.grad)
        grad = g["grad"][idx]
        if self.weight_decay:
            for p, _, data_view, _, _ in slots:
                np.copyto(data_view, p.data)
            a = g["data"][idx]
            a *= self.weight_decay
            a += grad
            grad = a
        m_act = m[idx]
        v_act = v[idx]
        m_act *= self.beta1
        b = np.multiply(grad, 1.0 - self.beta1)
        m_act += b
        np.multiply(grad, 1.0 - self.beta2, out=b)
        b *= grad
        v_act *= self.beta2
        v_act += b
        m[idx] = m_act
        v[idx] = v_act
        np.divide(v_act, bias2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a = np.divide(m_act, bias1)
        a *= self.lr
        a /= b
        with no_grad():  # lexically, for the linter — step() already holds it
            for p, _, _, _, view in slots:
                lane_shape = p.data.shape[1:]
                update = a[:, view].reshape((idx.size,) + lane_shape)
                data = p.data
                data[idx] -= update
                p.data = data  # reassign to bump the version counter
