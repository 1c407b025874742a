"""Fast-path eligibility verdicts for every registered model.

For each :data:`~repro.models.registry.MODEL_REGISTRY` entry this module
decides, on a throwaway probe model and without running a fit,

* **traceable**: would the trace-capture JIT replay this architecture?
  Decided by the JIT itself: two epochs of a probe model's forward+loss
  +backward run under :meth:`EpochJIT.capture` and are sealed, with a
  deterministic parameter perturbation in between standing in for an
  optimizer step.  The verdict is ``jit.ready``; a disabled JIT's
  ``disabled_reason`` is the (single) hazard, keyed through the
  :mod:`repro.analysis.hazards` catalogue.
* **stackable**: does the cross-individual stacked backend accept it?
  Decided by the runtime's own
  :func:`repro.training.stacked.stackable_reason` over a synthetic cell.

Both halves therefore come from the code that takes the fast path at
runtime, so the verdicts cannot drift from it.  ``ema-gnn check`` renders
them (text/JSON); CI compares the JSON against the committed
``fastpath_baseline.json`` so an eligibility regression (a model silently
falling off a fast path) fails the build; and
:func:`repro.training.parallel.run_cells` consults :func:`registry_verdict`
to pre-route cells — blocked models skip the wasted JIT capture epochs,
with the probe's reason attached to their results.

The probe runs outside :class:`~repro.training.trainer.Trainer` (no
optimizer, no :class:`~repro.training.history.TrainingHistory`), at a
small fixed geometry; two window lengths are swept because seq_len = 1
changes model structure (A3TGCN skips its period attention).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from ..autodiff.tensor import Tensor, get_default_dtype, no_grad
from ..autodiff.trace import EpochJIT
from ..models import MODEL_REGISTRY, ModelConfig, create_model
from ..training.personalized import resolve_trainer_config
from ..training.stacked import stackable_reason
from ..training.trainer import LOSSES
from . import hazards as _hazards

__all__ = ["HazardHit", "ModelVerdict", "PROBE_BATCH", "PROBE_SEQ_LENS",
           "PROBE_VARIABLES", "analyze_model", "check_registry",
           "probe_adjacency", "baseline_summary", "load_baseline",
           "diff_baseline", "write_baseline", "registry_verdict"]

#: Probe geometry for the JIT probe (values are arbitrary but fixed).
PROBE_BATCH = 7
PROBE_VARIABLES = 6
PROBE_SEQ_LENS = (1, 5)
#: Small hyperparameters keep the probe epochs cheap.
PROBE_CONFIG = ModelConfig(hidden_size=8, mtgnn_layers=1,
                           mtgnn_embedding_dim=4)


def probe_adjacency(num_variables: int = PROBE_VARIABLES) -> np.ndarray:
    """Deterministic probe graph: a ring plus one symmetry-breaking chord."""
    a = np.zeros((num_variables, num_variables))
    for i in range(num_variables):
        a[i, (i + 1) % num_variables] = a[(i + 1) % num_variables, i] = 1.0
    if num_variables > 3:
        a[0, num_variables // 2] = a[num_variables // 2, 0] = 1.0
    return a


@dataclass(frozen=True)
class HazardHit:
    """Why the trace JIT refused a model: a catalogued hazard."""

    key: str
    code: str
    message: str

    def to_dict(self) -> dict:
        return {"key": self.key, "code": self.code, "message": self.message}


@dataclass(frozen=True)
class ModelVerdict:
    """Fast-path verdict for one registered model."""

    model: str
    family: str
    traceable: bool
    stackable: bool
    hazards: tuple[HazardHit, ...] = ()
    stack_blockers: tuple[str, ...] = ()
    error: str | None = None

    @property
    def trace_reason(self) -> str | None:
        """Why the model is not traceable (``EpochJIT.disabled_reason``)."""
        if self.error is not None:
            return self.error
        return self.hazards[0].message if self.hazards else None

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "family": self.family,
            "traceable": self.traceable,
            "stackable": self.stackable,
            "hazards": [h.to_dict() for h in self.hazards],
            "stack_blockers": list(self.stack_blockers),
            "error": self.error,
        }


def _perturb_parameters(model, scale: float) -> None:
    """Deterministic stand-in for an optimizer step between epochs.

    Multiplicative, sign-alternating and ramped so near-ties in
    data-dependent selections (MTGNN's top-k rows) reorder; the pattern
    is phase-shifted per parameter so coupled parameters do not move in
    lockstep.  No RNG: the verdict must be reproducible.
    """
    with no_grad():
        for index, p in enumerate(model.parameters()):
            arr = p.data
            if arr.size == 0:
                continue
            ramp = np.linspace(1.0, 2.0, arr.size).reshape(arr.shape)
            pattern = np.array([1.0, -1.0, 1.0, -1.0, -1.0, 1.0, -1.0])
            sign = np.resize(np.roll(pattern, index),
                             arr.size).reshape(arr.shape)
            delta = scale * ramp * sign * (np.abs(arr) + 0.1)
            p.data = (arr + delta).astype(arr.dtype, copy=False)


def _probe_jit(name: str, seq_len: int, num_variables: int,
               config: ModelConfig, loss: str) -> EpochJIT:
    """Capture and seal two probe epochs; the JIT ends ready or disabled.

    Mirrors the capture epochs of ``Trainer.fit`` without its optimizer
    and history: epoch verification only compares the two tapes.
    """
    model = create_model(name, num_variables, seq_len,
                         adjacency=probe_adjacency(num_variables),
                         config=config, seed=0)
    model.train()
    rng = np.random.default_rng(0)
    dtype = get_default_dtype()
    inputs = Tensor(rng.normal(size=(PROBE_BATCH, seq_len, num_variables))
                    .astype(dtype))
    targets = rng.normal(size=(PROBE_BATCH, num_variables)).astype(dtype)
    loss_fn = LOSSES[loss]
    jit = EpochJIT()
    for epoch in range(2):
        if epoch:
            _perturb_parameters(model, 0.25)
        model.zero_grad()
        with jit.capture():
            out = loss_fn(model(inputs), targets)
            out.backward()
        jit.seal(out)
    return jit


def analyze_model(name: str, *, trainer_config=None,
                  seq_lens: tuple[int, ...] = PROBE_SEQ_LENS,
                  num_variables: int = PROBE_VARIABLES,
                  model_config: ModelConfig | None = None,
                  export_learned_graph: bool = False) -> ModelVerdict:
    """Fast-path verdict for one registry entry.

    ``trainer_config`` (a :class:`~repro.training.trainer.TrainerConfig`
    or None for the model's resolved defaults) supplies the loss for the
    probe epochs and the optimizer/loss/callbacks for the stacking check.
    """
    spec = MODEL_REGISTRY.get(name)
    if spec is None:
        raise ValueError(f"unknown model {name!r}; expected one of "
                         f"{tuple(MODEL_REGISTRY)}")
    resolved = resolve_trainer_config(name, trainer_config)
    cell = SimpleNamespace(model_name=name,
                           export_learned_graph=export_learned_graph,
                           trainer_config=trainer_config)
    blocker = stackable_reason(cell)
    stack_blockers = (blocker,) if blocker else ()

    if spec.family != "gradient":
        # Closed-form fits never run the epoch Trainer: there is no tape
        # to capture, which the catalogue keys as an empty tape.
        hit = HazardHit("empty-tape", _hazards.hazard_code("empty-tape"),
                        _hazards.reason("empty-tape")
                        + f" — {name!r} fits closed-form, no epoch loop")
        return ModelVerdict(name, spec.family, traceable=False,
                            stackable=not stack_blockers,
                            hazards=(hit,), stack_blockers=stack_blockers)

    config = model_config if model_config is not None else PROBE_CONFIG
    hazards: tuple[HazardHit, ...] = ()
    error: str | None = None
    for seq_len in seq_lens:
        jit = _probe_jit(name, seq_len, num_variables, config, resolved.loss)
        if jit.ready:
            continue
        if jit.disabled_reason is None:
            # Neither ready nor disabled: capture was skipped (anomaly
            # mode), so the probe decided nothing.
            error = (f"trace probe captured no epochs (seq_len={seq_len}); "
                     "is anomaly detection enabled?")
        else:
            key = _hazards.match_reason(jit.disabled_reason)
            hazards = (HazardHit(key, _hazards.hazard_code(key),
                                 jit.disabled_reason),)
        break
    return ModelVerdict(name, spec.family,
                        traceable=not hazards and error is None,
                        stackable=not stack_blockers,
                        hazards=hazards, stack_blockers=stack_blockers,
                        error=error)


def check_registry(*, trainer_config=None,
                   models: tuple[str, ...] | None = None
                   ) -> tuple[ModelVerdict, ...]:
    """Verdicts for every registry entry (or an explicit subset)."""
    names = tuple(models) if models is not None else tuple(MODEL_REGISTRY)
    return tuple(analyze_model(name, trainer_config=trainer_config)
                 for name in names)


# ---------------------------------------------------------------------------
# Cached verdicts for runtime pre-routing (training/parallel.py).
# ---------------------------------------------------------------------------
_VERDICT_CACHE: dict[tuple, ModelVerdict] = {}


def registry_verdict(name: str, trainer_config=None) -> ModelVerdict:
    """Memoized :func:`analyze_model` keyed by (model, resolved loss).

    The loss function is the only trainer knob that changes the traced
    op stream (``huber`` records a data-dependent ``where``), so one
    probe per (architecture, loss) serves every cell.  A verdict whose
    probe could not decide (``error`` set) is returned but not cached.
    """
    resolved = resolve_trainer_config(name, trainer_config)
    key = (name, resolved.loss)
    verdict = _VERDICT_CACHE.get(key)
    if verdict is None:
        verdict = analyze_model(name, trainer_config=trainer_config)
        if verdict.error is None:
            _VERDICT_CACHE[key] = verdict
    return verdict


# ---------------------------------------------------------------------------
# Baseline (CI drift gate).
# ---------------------------------------------------------------------------
#: The committed baseline ``ema-gnn check`` compares against in CI.
BASELINE_PATH = Path(__file__).with_name("fastpath_baseline.json")


def baseline_summary(verdicts) -> dict:
    """Stable comparison summary: eligibility + hazard keys, not prose.

    Message wording may evolve freely; a baseline diff means a *verdict*
    changed — a model gained or lost a fast path, or the hazard set moved.
    """
    models = {}
    for verdict in verdicts:
        blocker_keys = sorted(
            _hazards.match_reason(reason) or "unknown"
            for reason in verdict.stack_blockers)
        models[verdict.model] = {
            "family": verdict.family,
            "traceable": verdict.traceable,
            "stackable": verdict.stackable,
            "hazards": sorted(
                f"{h.code}:{h.key}" for h in verdict.hazards),
            "stack_blockers": blocker_keys,
        }
    return {"version": 1, "models": models}


def write_baseline(path, verdicts) -> None:
    Path(path).write_text(json.dumps(baseline_summary(verdicts), indent=2,
                                     sort_keys=True) + "\n")


def load_baseline(path) -> dict:
    return json.loads(Path(path).read_text())


def diff_baseline(verdicts, baseline: dict) -> list[str]:
    """Human-readable differences between fresh verdicts and a baseline."""
    current = baseline_summary(verdicts)["models"]
    recorded = baseline.get("models", {})
    diffs = []
    for name in sorted(set(current) | set(recorded)):
        if name not in recorded:
            diffs.append(f"{name}: not in baseline")
            continue
        if name not in current:
            diffs.append(f"{name}: in baseline but not analyzed")
            continue
        for field in ("family", "traceable", "stackable", "hazards",
                      "stack_blockers"):
            if current[name][field] != recorded[name][field]:
                diffs.append(f"{name}: {field} changed "
                             f"{recorded[name][field]!r} -> "
                             f"{current[name][field]!r}")
    return diffs
