"""Full-batch training engine (paper section V-D).

"The Adam algorithm is used as the optimizer with a learning rate of 0.01.
Since our modeling is designed in a personalized approach, each
individual's data is processed in a single batch, and training is iterated
over 300 epochs."

The loop itself is an event-driven engine: :meth:`Trainer.fit` emits
``on_fit_start`` / ``on_epoch_start`` / ``on_after_backward`` /
``on_epoch_end`` / ``on_fit_end`` events to a list of
:class:`~repro.training.callbacks.Callback` instances, any of which may
request a stop.  With no callbacks configured (the default), the engine
reproduces the seed trainer's fixed-epoch loop bit-identically — grad
clipping, the only behavior the seed loop hardcoded, is installed as an
implicit :class:`~repro.training.callbacks.GradClipCallback` from
``TrainerConfig.grad_clip``.

The optimizer and training loss are configured by registry *name*
(``TrainerConfig.optimizer`` / ``TrainerConfig.loss``) so they stay
picklable inside cohort cells; the defaults (``"adam"``, ``"mse"``)
construct exactly what the seed loop hardcoded.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..autodiff import Tensor, get_default_dtype, huber, mae, mse, no_grad
from ..data.windows import WindowSet
from ..models.base import Forecaster
from ..optim import OPTIMIZER_REGISTRY, get_optimizer
from .callbacks import (Callback, CallbackSpec, GradClipCallback,
                        TrainingContext, build_callbacks)
from .history import TrainingHistory

__all__ = ["TrainerConfig", "Trainer", "LOSSES"]

#: Training/evaluation losses addressable by name from a picklable config.
LOSSES: dict[str, Callable] = {
    "mse": mse,
    "mae": mae,
    "huber": huber,
}


@dataclass(frozen=True)
class TrainerConfig:
    """Paper defaults: Adam, lr 0.01, 300 epochs, full batch.

    ``callbacks`` holds declarative
    :class:`~repro.training.callbacks.CallbackSpec` records (picklable, so
    they travel inside :class:`~repro.training.parallel.CohortCell` to
    worker processes); it is empty by default, keeping the paper-faithful
    fixed-epoch replication unchanged.

    ``optimizer`` / ``optimizer_kwargs`` select the optimizer from
    :data:`repro.optim.OPTIMIZER_REGISTRY` by name; ``loss`` selects the
    training objective from :data:`LOSSES`.  ``optimizer_kwargs`` accepts
    a mapping or sorted key/value pairs and is normalized to a tuple so
    the config stays hashable and picklable.

    ``weight_decay=None`` (the default) means "unset": the optimizer runs
    without decay, but model-specific defaults may fill it in —
    :func:`~repro.training.personalized.run_individual` applies MTGNN's
    canonical 1e-4 only when the field is ``None``.  An explicit ``0.0``
    is an affirmative "no decay" and is never overridden (the no-decay
    ablation).

    ``jit=True`` turns on trace-capture replay
    (:class:`repro.autodiff.trace.EpochJIT`): epochs 1–2 run eagerly and
    are recorded, and if they are structurally identical the remaining
    epochs replay a fused compiled plan — bit-identical to the eager loop,
    falling back to eager automatically whenever the graph is not
    replayable (data-dependent ``where`` masks, unsupported ops, graph
    changes between epochs).
    """

    epochs: int = 300
    learning_rate: float = 0.01
    grad_clip: float = 5.0
    weight_decay: float | None = None
    optimizer: str = "adam"
    optimizer_kwargs: tuple = ()
    loss: str = "mse"
    callbacks: tuple[CallbackSpec, ...] = ()
    jit: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive or None")
        if self.weight_decay is not None and self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0 or None (unset)")
        if self.optimizer not in OPTIMIZER_REGISTRY:
            raise ValueError(
                f"unknown optimizer {self.optimizer!r}; registered: "
                f"{sorted(OPTIMIZER_REGISTRY)}")
        kwargs = self.optimizer_kwargs
        if isinstance(kwargs, dict):
            kwargs = tuple(sorted(kwargs.items()))
        else:
            kwargs = tuple((str(key), value) for key, value in kwargs)
        object.__setattr__(self, "optimizer_kwargs", kwargs)
        if self.loss not in LOSSES:
            raise ValueError(
                f"unknown loss {self.loss!r}; registered: {sorted(LOSSES)}")
        object.__setattr__(self, "callbacks", tuple(self.callbacks))
        for spec in self.callbacks:
            if not isinstance(spec, CallbackSpec):
                raise TypeError(
                    "TrainerConfig.callbacks takes CallbackSpec records "
                    f"(picklable), got {type(spec).__name__}; pass live "
                    "Callback instances to Trainer.fit(callbacks=...) "
                    "instead")


@contextlib.contextmanager
def _span(prof, name: str):
    """Time the block as a ``trainer`` span of ``prof`` (None: no-op)."""
    if prof is None:
        yield
        return
    start = prof._begin()
    try:
        yield
    finally:
        prof._end("trainer", name, "trainer", start, 0)


class Trainer:
    """Trains one forecaster on one individual's window set."""

    def __init__(self, config: TrainerConfig | None = None):
        self.config = config if config is not None else TrainerConfig()
        #: The :class:`~repro.autodiff.trace.EpochJIT` of the most recent
        #: ``fit`` when ``config.jit`` is on (``None`` otherwise) — lets
        #: tests and the profile CLI inspect replay counts and fallbacks.
        self.last_jit = None

    def _assemble_callbacks(self, extra) -> list[Callback]:
        """Implicit grad clip, then config specs, then live extras."""
        stack: list[Callback] = []
        if self.config.grad_clip is not None:
            stack.append(GradClipCallback(self.config.grad_clip))
        stack.extend(build_callbacks(self.config.callbacks))
        stack.extend(extra or ())
        return stack

    @staticmethod
    def _hooks(stack: list[Callback], name: str) -> list:
        """Bound hook methods of the callbacks that actually override one.

        Dispatching to pre-filtered bound methods keeps the per-epoch cost
        of the event loop negligible (< 2 % — see ``bench_engine.py``)
        even though every epoch crosses five hook points.
        """
        base = getattr(Callback, name)
        return [getattr(cb, name) for cb in stack
                if getattr(type(cb), name) is not base]

    def _make_optimizer(self, model: Forecaster):
        """Build the configured optimizer through the registry.

        ``weight_decay=None`` (the "unset" sentinel) reaches the optimizer
        as a plain 0.0 — optimizers only know concrete decay strengths.
        """
        weight_decay = self.config.weight_decay
        return get_optimizer(self.config.optimizer, model.parameters(),
                             lr=self.config.learning_rate,
                             weight_decay=0.0 if weight_decay is None
                             else weight_decay,
                             **dict(self.config.optimizer_kwargs))

    def fit(self, model: Forecaster, windows: WindowSet,
            callbacks: list[Callback] | None = None) -> TrainingHistory:
        """Full-batch training; returns the per-epoch telemetry history.

        ``callbacks`` appends live instances after the ones built from
        ``config.callbacks`` — handy for in-process observers (progress
        bars, tests); cross-process configuration must use specs.
        """
        dtype = get_default_dtype()
        inputs = Tensor(windows.inputs.astype(dtype))
        targets = windows.targets.astype(dtype)
        optimizer = self._make_optimizer(model)
        loss_fn = LOSSES[self.config.loss]
        history = TrainingHistory()
        stack = self._assemble_callbacks(callbacks)
        ctx = TrainingContext(model=model, optimizer=optimizer,
                              config=self.config, history=history,
                              max_epochs=self.config.epochs)
        epoch_start = self._hooks(stack, "on_epoch_start")
        after_backward = self._hooks(stack, "on_after_backward")
        epoch_end = self._hooks(stack, "on_epoch_end")
        jit = None
        if self.config.jit:
            import weakref

            from ..autodiff.trace import EpochJIT

            # The replay tail mirrors the eager post-backward sequence:
            # publish the loss, run the after-backward hooks (grad clip
            # reads the plan-bound ``p.grad`` arrays), then step.  The
            # late-bound ``optimizer.step`` lambda keeps profiler patching
            # and lr-schedule changes effective during replay.  The tail
            # reaches the JIT through a weak reference: a cycle would keep
            # the plan's arena (a whole epoch graph) alive after the fit
            # until the cyclic garbage collector happened to run.
            def _after_backward() -> None:
                with _span(prof, "after_backward"):
                    ctx.loss = jit_ref().loss_value()
                    for hook in after_backward:
                        hook(ctx)

            jit = EpochJIT(tail=[_after_backward, lambda: optimizer.step()])
            jit_ref = weakref.ref(jit)
        self.last_jit = jit
        was_training = model.training
        model.train()
        prof = None
        try:
            for hook in self._hooks(stack, "on_fit_start"):
                hook(ctx)
            # A profiler entered by a fit-start hook also times the
            # epoch's bookkeeping between ops, in the spans below.
            from ..profiling.profiler import active_profiler

            prof = active_profiler()
            for epoch in range(self.config.epochs):
                ctx.epoch = epoch
                ctx.grad_norm = None
                for hook in epoch_start:
                    hook(ctx)
                if jit is not None and jit.replay():
                    # Forward+backward+hooks+step ran as the compiled plan.
                    with _span(prof, "record"):
                        history.record(ctx.loss, grad_norm=ctx.grad_norm,
                                       lr=optimizer.lr)
                    for hook in epoch_end:
                        hook(ctx)
                    if ctx.stop_requested:
                        break
                    continue
                optimizer.zero_grad()
                capturing = jit is not None and jit.wants_capture
                with jit.capture() if capturing else contextlib.nullcontext():
                    output = loss_fn(model(inputs), targets)
                    # Rebinding ``loss`` frees the previous epoch's graph,
                    # here as before (freeing it earlier was slower).
                    with _span(prof, "release_graph"):
                        loss = output
                    loss.backward()
                if capturing:
                    jit.seal(loss)
                with _span(prof, "after_backward"):
                    ctx.loss = loss.item()
                    for hook in after_backward:
                        hook(ctx)
                optimizer.step()
                with _span(prof, "record"):
                    history.record(ctx.loss, grad_norm=ctx.grad_norm,
                                   lr=optimizer.lr)
                for hook in epoch_end:
                    hook(ctx)
                if ctx.stop_requested:
                    break
        finally:
            # on_fit_end must run even when an epoch raised (e.g. the
            # sanitizer aborting on a non-finite gradient): callbacks use
            # it to release global state such as the anomaly-mode flag.
            try:
                for hook in self._hooks(stack, "on_fit_end"):
                    hook(ctx)
            finally:
                model.train(was_training)
        history.stop_reason = ctx.stop_reason
        return history

    def evaluate(self, model: Forecaster, windows: WindowSet) -> float:
        """Test error under this trainer's configured ``loss``.

        The default ``loss="mse"`` is the paper's test MSE over all
        variables and time points (eq. 1), accumulated in float64.
        """
        dtype = get_default_dtype()
        was_training = model.training
        model.eval()
        try:
            with no_grad():
                prediction = model(Tensor(windows.inputs.astype(dtype)))
                targets = windows.targets.astype(dtype)
                if self.config.loss == "mse":
                    diff = prediction.data - targets
                    return float(np.mean(diff.astype(np.float64) ** 2))
                return float(
                    LOSSES[self.config.loss](prediction, targets).item())
        finally:
            model.train(was_training)

    def evaluate_per_variable(self, model: Forecaster,
                              windows: WindowSet) -> np.ndarray:
        """Per-variable test MSE (paper section VII-C's open question)."""
        from ..evaluation.per_variable import per_variable_mse

        prediction = model.predict(windows.inputs)
        return per_variable_mse(windows.targets, prediction)
