"""Fast-path eligibility verdicts for every registered model.

For each :data:`~repro.models.registry.MODEL_REGISTRY` entry this module
decides, on throwaway probe models and without running a fit,

* **traceable**: would the trace-capture JIT replay this architecture?
  Decided by the JIT itself: two epochs of a probe model's forward+loss
  +backward run under :meth:`EpochJIT.capture` and are sealed, with a
  deterministic parameter perturbation in between standing in for an
  optimizer step.  The verdict is ``jit.ready``; a disabled JIT's
  ``disabled_reason`` is the (single) hazard, keyed through the
  :mod:`repro.analysis.hazards` catalogue.
* **batchable**: does the serving engine run it as one batched lane
  forward?  Decided by :func:`lane_blocker`: two probe models are cloned
  by :func:`repro.nn.stack_lanes`, and the clone's no-grad eval-mode
  forward must be bitwise the stack of the solo forwards.
* **stackable**: does the cross-individual stacked backend train it?
  Decided by the runtime's own
  :func:`repro.training.stacked.stackable_reason` over a synthetic cell,
  whose architecture check adds :func:`lane_step_mismatch` to
  :func:`lane_blocker`: a train-mode forward and backward of the clone
  must reproduce the solo outputs and every parameter gradient bitwise.

Every verdict therefore comes from the code that takes the fast path at
runtime, so the verdicts cannot drift from it.  ``ema-gnn check`` renders
them (text/JSON); CI compares the JSON against the committed
``fastpath_baseline.json`` so an eligibility regression (a model silently
falling off a fast path) fails the build; and
:func:`repro.training.parallel.run_cells` consults :func:`registry_verdict`
to pre-route cells — blocked models skip the wasted JIT capture epochs,
with the probe's reason attached to their results.

The probes run outside :class:`~repro.training.trainer.Trainer` (no
optimizer, no :class:`~repro.training.history.TrainingHistory`), at a
small fixed geometry; two window lengths are swept because seq_len = 1
changes model structure (A3TGCN skips its period attention).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from ..autodiff import tensor as _tensor_mod
from ..autodiff.tensor import Tensor, get_default_dtype, no_grad
from ..autodiff.trace import EpochJIT
from ..models import MODEL_REGISTRY, ModelConfig, create_model
from ..nn import stack_lanes
from ..training.personalized import resolve_trainer_config
from ..training.stacked import stackable_reason
from ..training.trainer import LOSSES
from . import hazards as _hazards

__all__ = ["HazardHit", "ModelVerdict", "PROBE_BATCH", "PROBE_SEQ_LENS",
           "PROBE_VARIABLES", "analyze_model", "check_registry",
           "probe_adjacency", "baseline_summary", "load_baseline",
           "diff_baseline", "write_baseline", "registry_verdict",
           "lane_blocker", "lane_step_mismatch"]

#: Probe geometry for the JIT and lane probes (arbitrary but fixed).
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
    message: str

    def to_dict(self) -> dict:
        return {"key": self.key, "message": self.message}


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
    #: Serving verdict: the engine batches this model's requests.
    batchable: bool = False
    batch_blockers: tuple[str, ...] = ()

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
            "batchable": self.batchable,
            "stackable": self.stackable,
            "hazards": [h.to_dict() for h in self.hazards],
            "batch_blockers": list(self.batch_blockers),
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
    stack_blockers = _stack_blockers(name, trainer_config,
                                     export_learned_graph)
    batch_blocker = lane_blocker(name)
    serving = {"batchable": batch_blocker is None,
               "batch_blockers": () if batch_blocker is None
               else (batch_blocker,)}

    if spec.family != "gradient":
        # Closed-form fits never run the epoch Trainer: there is no tape
        # to capture, which the catalogue keys as an empty tape.
        hit = HazardHit("empty-tape", _hazards.reason("empty-tape")
                        + f" — {name!r} fits closed-form, no epoch loop")
        return ModelVerdict(name, spec.family, traceable=False,
                            stackable=not stack_blockers,
                            hazards=(hit,), stack_blockers=stack_blockers,
                            **serving)

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
            hazards = (HazardHit(key, jit.disabled_reason),)
        break
    return ModelVerdict(name, spec.family,
                        traceable=not hazards and error is None,
                        stackable=not stack_blockers,
                        hazards=hazards, stack_blockers=stack_blockers,
                        error=error, **serving)


def _stack_blockers(name: str, trainer_config,
                    export_learned_graph: bool = False) -> tuple[str, ...]:
    """The runtime stacking check over a synthetic cell (no graphs)."""
    cell = SimpleNamespace(model_name=name,
                           export_learned_graph=export_learned_graph,
                           trainer_config=trainer_config)
    blocker = stackable_reason(cell)
    return (blocker,) if blocker else ()


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
    """:func:`analyze_model` with its trace half memoized.

    The loss function is the only trainer knob that changes the traced
    op stream (``huber`` records a data-dependent ``where``), so one JIT
    probe per (architecture, resolved loss) serves every cell.  The stack
    half also depends on the optimizer, its kwargs and the callbacks, so
    it is recomputed on every call (cheap: the lane probes are
    memoized).  A verdict whose probe could not decide (``error`` set)
    is returned but not cached.
    """
    resolved = resolve_trainer_config(name, trainer_config)
    key = (name, resolved.loss)
    verdict = _VERDICT_CACHE.get(key)
    if verdict is None:
        verdict = analyze_model(name, trainer_config=trainer_config)
        if verdict.error is None:
            _VERDICT_CACHE[key] = verdict
        return verdict
    blockers = _stack_blockers(name, trainer_config)
    if blockers != verdict.stack_blockers:
        verdict = replace(verdict, stackable=not blockers,
                          stack_blockers=blockers)
    return verdict


# ---------------------------------------------------------------------------
# Lane probes: the architecture checks for batched serving and stacking.
# ---------------------------------------------------------------------------
_LANE_BLOCKERS: dict[tuple[str, str], str | None] = {}
_LANE_STEP_MISMATCHES: dict[tuple[str, str], str | None] = {}


def lane_blocker(model_name: str) -> str | None:
    """Why ``model_name`` has no lane forward, or ``None`` if it batches.

    The serving verdict.  Two seeded probe models per
    :data:`PROBE_SEQ_LENS` entry are cloned by
    :func:`repro.nn.stack_lanes`, and the clone runs one no-grad eval-mode
    forward of a ``(2, B, L, V)`` input in the default dtype.  The model
    batches only if that output is bitwise ``np.stack`` of the two solo
    outputs; otherwise the ``stack-no-forward`` reason names the error or
    the mismatch.  Memoized per (model, dtype).
    """
    key = (model_name, np.dtype(get_default_dtype()).name)
    if key not in _LANE_BLOCKERS:
        detail = _probe(_lane_mismatch, model_name)
        _LANE_BLOCKERS[key] = None if detail is None else _hazards.reason(
            "stack-no-forward", model=model_name, detail=detail)
    return _LANE_BLOCKERS[key]


def lane_step_mismatch(model_name: str) -> str | None:
    """Why a lane clone of ``model_name`` cannot train, or ``None``.

    The training half of the stacking verdict, asked only of models
    :func:`lane_blocker` passes.  Two seeded probe lanes run one
    train-mode forward (dropout active, each lane drawing from its solo's
    generator) and a backward from a fixed output gradient; the outputs
    and every parameter gradient must equal the solos' bitwise.  Returns
    the error or the first mismatch; memoized per (model, dtype).
    :func:`repro.training.stacked.stackable_reason` turns it into the
    ``stack-no-backward`` blocker.
    """
    key = (model_name, np.dtype(get_default_dtype()).name)
    if key not in _LANE_STEP_MISMATCHES:
        _LANE_STEP_MISMATCHES[key] = _probe(_lane_step_mismatch, model_name)
    return _LANE_STEP_MISMATCHES[key]


def _probe(check, name: str) -> str | None:
    """Run one lane probe; any exception is the verdict."""
    if name not in MODEL_REGISTRY:
        return "not a registered model"
    try:
        return check(name)
    except Exception as error:  # noqa: BLE001 - any failure blocks
        return str(error) or type(error).__name__


def _probe_models(name: str, seq_len: int) -> list:
    return [create_model(name, PROBE_VARIABLES, seq_len,
                         adjacency=probe_adjacency(), config=PROBE_CONFIG,
                         seed=seed)
            for seed in (0, 1)]


def _same(actual: np.ndarray, expected: np.ndarray) -> bool:
    return (actual.dtype, actual.shape, actual.tobytes()) == \
        (expected.dtype, expected.shape, expected.tobytes())


def _lane_mismatch(name: str) -> str | None:
    """Eval-forward probe; ``None`` when every lane equals its solo."""
    rng = np.random.default_rng(0)
    dtype = get_default_dtype()
    for seq_len in PROBE_SEQ_LENS:
        solos = [model.eval() for model in _probe_models(name, seq_len)]
        inputs = rng.normal(size=(2, PROBE_BATCH, seq_len,
                                  PROBE_VARIABLES)).astype(dtype)
        lanes = stack_lanes(solos).eval()
        with no_grad():
            expected = np.stack([solo(Tensor(x)).data
                                 for solo, x in zip(solos, inputs)])
            actual = lanes(Tensor(inputs)).data
        if not _same(actual, expected):
            return "lane outputs differ from solo outputs"
    return None


def _lane_step_mismatch(name: str) -> str | None:
    """Train-step probe; ``None`` when outputs and grads equal the solos'.

    The lane clone consumes its own solos' dropout streams, so the
    reference runs on a second, identically seeded pair.  Graph recording
    is forced on and the trace hook parked, so the probe leaves no node
    behind for an outer capture.
    """
    rng = np.random.default_rng(0)
    dtype = get_default_dtype()
    saved_hook, saved_grad = _tensor_mod._TRACE_HOOK, \
        _tensor_mod._GRAD_ENABLED
    _tensor_mod.set_trace_hook(None)
    _tensor_mod._GRAD_ENABLED = True
    try:
        for seq_len in PROBE_SEQ_LENS:
            lanes = stack_lanes(_probe_models(name, seq_len)).train()
            solos = [model.train() for model in _probe_models(name, seq_len)]
            inputs = rng.normal(size=(2, PROBE_BATCH, seq_len,
                                      PROBE_VARIABLES)).astype(dtype)
            seed = rng.normal(size=(2, PROBE_BATCH,
                                    PROBE_VARIABLES)).astype(dtype)
            out = lanes(Tensor(inputs))
            out.backward(seed)
            lane_grads = dict(lanes.named_parameters())
            for k, solo in enumerate(solos):
                solo_out = solo(Tensor(inputs[k]))
                solo_out.backward(seed[k])
                if not _same(out.data[k], solo_out.data):
                    return "train-mode lane outputs differ from solo outputs"
                for param_name, param in solo.named_parameters():
                    lane_grad = lane_grads[param_name].grad
                    if (lane_grad is None) != (param.grad is None) or (
                            param.grad is not None
                            and not _same(lane_grad[k], param.grad)):
                        return (f"lane gradient of {param_name!r} differs "
                                f"from solo")
    finally:
        _tensor_mod._GRAD_ENABLED = saved_grad
        _tensor_mod.set_trace_hook(saved_hook)
    return None


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
        models[verdict.model] = {
            "family": verdict.family,
            "traceable": verdict.traceable,
            "batchable": verdict.batchable,
            "stackable": verdict.stackable,
            "hazards": sorted(h.key for h in verdict.hazards),
            "batch_blockers": _blocker_keys(verdict.batch_blockers),
            "stack_blockers": _blocker_keys(verdict.stack_blockers),
        }
    return {"version": 2, "models": models}


def _blocker_keys(reasons) -> list[str]:
    return sorted(_hazards.match_reason(reason) or "unknown"
                  for reason in reasons)


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
        for field in ("family", "traceable", "batchable", "stackable",
                      "hazards", "batch_blockers", "stack_blockers"):
            if current[name][field] != recorded[name].get(field):
                diffs.append(f"{name}: {field} changed "
                             f"{recorded[name].get(field)!r} -> "
                             f"{current[name][field]!r}")
    return diffs
