"""Cross-individual stacked cohort execution (``backend="stacked"``).

The cohort grid is thousands of *tiny* independent fits — full-batch
training of ~20k-parameter models on a few hundred windows each.  At that
size the per-individual loop is dominated by Python/graph overhead, not
GEMM time: every individual pays its own autodiff graph walk, optimizer
step and epoch loop.  This module trains ``K`` individuals *in one model*
instead: :func:`repro.nn.stack_lanes` clones the ``K`` solo models into a
lane model whose parameters carry a leading lane axis ``(K, *shape)`` and
whose graph layers propagate over the ``(K, V, V)`` stack of the
individuals' operators, and one forward/backward/step drives all lanes.

Lane exactness, not just equivalence
------------------------------------
Stacking is only usable if it is a pure scheduling choice, like the
process pool: the paper's tables must not depend on the backend.  The
lane model runs the solo models' own (lane-generic) forwards, so it
follows the solo path *operation by operation*:

* only the leaf layers with parameters or graph operators run lane
  twins (``Linear``, ``GCNConv``, ``Dropout`` for the models that stack;
  the ASTGCN/MTGNN layers' twins serve only, see below); their linear
  algebra comes from :mod:`repro.nn.stacked_ops`, which runs one
  solo-shaped GEMM per lane (same flatten, same association order) and
  re-creates the solo graph's per-use transpose nodes so gradient
  *accumulation order* — bitwise visible for parameters used three or
  more times per epoch — matches the solo graph, and lane ``k``'s
  dropout mask is drawn from solo ``k``'s generator;
* elementwise ops, reductions and losses are lane-rows of the exact solo
  expressions (a C-contiguous row reduction is bitwise the solo full
  reduction);
* the optimizer is the solo :class:`~repro.optim.adam.Adam`, built by
  the same registry call; ``step(active=mask)`` runs its flat-buffer
  update on the active lane rows and freezes early-stopped lanes;
* each lane runs fresh instances of the solo early-stopping /
  divergence-guard callbacks against its own
  :class:`~repro.training.callbacks.TrainingContext`, whose model is a
  view of that lane's parameter rows, so a lane stops (and restores) at
  exactly the epoch its solo fit would.

The bit-identity is asserted end-to-end in ``tests/training`` /
``test_stacked.py``; the documented escape hatch (DESIGN.md) is a small
float tolerance should a platform's multi-axis reduction order differ.

Eligibility and fallback
------------------------
Not every cell can stack: :func:`stackable_reason` names the blocker
(a model whose :func:`repro.nn.stack_lanes` clone does not reproduce its
solo forwards, per :func:`repro.analysis.fastpath.lane_blocker`, or its
solo training step, per :func:`repro.analysis.fastpath.lane_step_mismatch`
— ASTGCN's and MTGNN's learned ``(K, V, V)`` operators have no lane
backward; non-Adam optimizer, exotic callbacks, learned-graph
export).  :func:`run_stacked` trains the eligible
cells in stacks grouped by (model, seq_len, dtype, data shape, config)
and returns the rest — plus any stack that failed or diverged — as
*leftover* indices for the ordinary per-individual path, which keeps its
full retry/reseed/checkpoint semantics.  Divergent lanes are never
finished from the stack: the solo path re-runs them from scratch so their
failure handling is identical to the process backend.
"""

from __future__ import annotations

import contextlib
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..analysis.hazards import reason as _reason
from ..autodiff import (Tensor, get_default_dtype, no_grad,
                        set_default_dtype, where)
from ..autodiff.functional import LOSS_TERMS
from ..data.splits import split_windows
from ..models import create_model
from ..nn import stack_lanes
from .callbacks import TrainingContext, build_callbacks
from .faults import is_divergent
from .history import TrainingHistory
from .personalized import (IndividualResult, aggregate_repeats,
                           resolve_trainer_config)
from .trainer import Trainer, TrainerConfig

if TYPE_CHECKING:
    from .parallel import CohortCell, ParallelConfig

__all__ = ["stackable_reason", "run_stacked"]

#: Optimizers whose ``step`` takes a lane mask (SGD's does not).
_STACKED_OPTIMIZERS = ("adam",)

#: Losses whose per-element term :func:`_lane_losses` reduces per lane.
_STACKED_LOSSES = tuple(LOSS_TERMS)

#: Solo callbacks that run unchanged on a lane: they read only the epoch
#: loss and reach the model only through ``state_dict``/``load_state_dict``.
_STACKED_CALLBACKS = ("early-stopping", "divergence-guard")


def stackable_reason(cell: "CohortCell") -> str | None:
    """Why ``cell`` cannot join a stack, or ``None`` if it can.

    The returned string is a human-readable blocker used in diagnostics;
    callers treat ``None`` as "eligible".  Every blocker is a
    :mod:`repro.analysis.hazards` catalogue entry.  The architecture
    check is the pair of lane probes: the forward probe
    :func:`repro.analysis.fastpath.lane_blocker` (which alone gates
    batched serving) and the training-step probe
    :func:`repro.analysis.fastpath.lane_step_mismatch`.
    """
    from ..analysis.fastpath import (  # fastpath imports us
        lane_blocker, lane_step_mismatch)

    blocker = lane_blocker(cell.model_name)
    if blocker is not None:
        return blocker
    detail = lane_step_mismatch(cell.model_name)
    if detail is not None:
        return _reason("stack-no-backward", model=cell.model_name,
                       detail=detail)
    if cell.export_learned_graph:
        return _reason("stack-learned-graph")
    resolved = resolve_trainer_config(cell.model_name, cell.trainer_config)
    if resolved.optimizer not in _STACKED_OPTIMIZERS:
        return _reason("stack-optimizer", optimizer=resolved.optimizer)
    if resolved.loss not in _STACKED_LOSSES:
        return _reason("stack-loss", loss=resolved.loss)
    unsupported = sorted({spec.name for spec in resolved.callbacks}
                         - set(_STACKED_CALLBACKS))
    if unsupported:
        return _reason("stack-callbacks", unsupported=unsupported)
    return None


def _group_key(cell: "CohortCell") -> tuple:
    """Cells sharing this key train under one parameter stack.

    Everything that shapes the computation must match: architecture and
    window geometry (so lane shapes agree), dtype, and the resolved
    trainer/model configs (so one optimizer and one callback recipe drive
    the whole stack).
    """
    resolved = resolve_trainer_config(cell.model_name, cell.trainer_config)
    # repr() rather than the dataclasses themselves: the solo path never
    # hashes configs (cell keys digest their repr), so e.g. a CallbackSpec
    # built with dict params must not break grouping here either.
    return (cell.model_name, cell.seq_len, cell.dtype,
            cell.individual.num_variables, cell.individual.num_time_points,
            float(cell.train_fraction), repr(resolved), repr(cell.model_config))


@dataclass
class _Lane:
    """One training lane: a single repeat of a single cell."""

    index: int
    cell: "CohortCell"
    graph: np.ndarray | None
    seed: int


class _LaneView:
    """Lane ``k`` of a stacked model, as a solo callback sees its model.

    ``state_dict`` copies row ``k`` of every stacked parameter and
    ``load_state_dict`` writes it back, so the solo callbacks' snapshots
    and restores touch only this lane.
    """

    def __init__(self, params: "OrderedDict[str, Tensor]", lane: int):
        self._params = params
        self._lane = lane

    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict((name, param.data[self._lane].copy())
                           for name, param in self._params.items())

    def load_state_dict(self, state: dict) -> None:
        with no_grad():
            for name, param in self._params.items():
                data = param.data
                data[self._lane] = state[name]
                param.data = data  # reassign to bump the version counter


def _lane_losses(prediction: Tensor, targets: np.ndarray,
                 loss_name: str) -> Tensor:
    """Per-lane training losses ``(K,)`` of a ``(K, S, V)`` prediction.

    The solo loss is its per-element term's ``.mean()``: a full sum times
    ``1 / count`` (scalar division multiplies by the reciprocal).  Each
    lane applies the same term, sums its row (bitwise the solo full
    reduction over that lane's C-contiguous block) and scales by the same
    reciprocal, so ``lane_losses[k].item()`` equals the solo
    ``loss.item()``.
    """
    count = int(np.prod(prediction.shape[1:]))
    term = LOSS_TERMS[loss_name](prediction, targets)
    return term.reshape(prediction.shape[0], -1).sum(axis=1) * (1.0 / count)


def _clip_lane_grads(parameters: list, active: np.ndarray,
                     max_norm: float) -> np.ndarray:
    """Per-lane global grad-norm clip; returns the pre-clip norms ``(K,)``.

    Mirrors :func:`repro.optim.clip.clip_grad_norm` lane by lane: the
    squared norm accumulates per parameter in float64 (the solo ``sum``
    of Python floats), and the scale factor is cast to the gradient dtype
    before the multiply, matching how NEP-50 casts the solo Python-float
    scale.  Frozen lanes are never scaled.

    The per-lane reduction deliberately sums over the strided lane slice
    (``(grad[k] ** 2).sum()``) rather than a flattening ``reshape``: solo
    leaf
    gradients keep the memory layout of the transpose views they came
    from, and numpy's pairwise summation follows that layout.  A reshape
    of a non-contiguous slice would force a C-order copy and reduce in a
    different pairwise order, producing a norm a few ULPs away from the
    solo value — enough to flip the clip scale bitwise.
    """
    grads = [p.grad for p in parameters if p.grad is not None]
    lanes = active.shape[0]
    totals = np.zeros(lanes, dtype=np.float64)
    for grad in grads:
        for k in range(lanes):
            totals[k] += float((grad[k] ** 2).sum())
    norms = np.sqrt(totals)
    needs = active & (norms > max_norm) & (norms > 0)
    if needs.any():
        scale = max_norm / norms[needs]
        for grad in grads:
            rows = grad[needs]
            rows *= scale.astype(grad.dtype).reshape(
                (rows.shape[0],) + (1,) * (grad.ndim - 1))
            grad[needs] = rows
    return norms


def _execute_stack(lanes: list[_Lane],
                   resolved: TrainerConfig) -> list[tuple]:
    """Train one stack of lanes; returns ``(result, needs_solo_rerun)``.

    ``needs_solo_rerun`` is ``True`` for a lane frozen on a non-finite
    loss with no callbacks configured: the solo path would have kept
    NaN-training to the epoch budget and its (discarded, divergent)
    result feeds the scheduler's retry/reseed machinery — so such lanes
    are handed back for a from-scratch per-individual run instead of
    finishing from a state the solo path never produces.
    """
    cell0 = lanes[0].cell
    # Fresh solo callbacks per lane, built (and argument-checked) exactly
    # as a solo fit builds them.
    lane_callbacks = [build_callbacks(resolved.callbacks) for _ in lanes]
    set_default_dtype(cell0.dtype)
    dtype = get_default_dtype()
    seq_len = cell0.seq_len
    nodes = cell0.individual.num_variables
    model_name = cell0.model_name
    num_lanes = len(lanes)

    splits = [split_windows(lane.cell.individual.values, seq_len,
                            lane.cell.train_fraction) for lane in lanes]

    # Solo models are retained: they provide the per-lane initial
    # parameters, the per-lane dropout RNG streams, and the evaluation
    # vehicle once the trained rows are scattered back.
    models = [create_model(model_name, nodes, seq_len, adjacency=lane.graph,
                           config=lane.cell.model_config, seed=lane.seed)
              for lane in lanes]
    stacked = stack_lanes(models).train()
    params = OrderedDict(stacked.named_parameters())
    param_list = list(params.values())

    inputs = Tensor(np.stack([s.train.inputs.astype(dtype) for s in splits]))
    targets = np.stack([s.train.targets.astype(dtype) for s in splits])

    trainer = Trainer(resolved)
    optimizer = trainer._make_optimizer(stacked)
    contexts = [TrainingContext(model=_LaneView(params, k),
                                optimizer=optimizer, config=resolved,
                                history=TrainingHistory(),
                                max_epochs=resolved.epochs)
                for k in range(num_lanes)]
    active = np.ones(num_lanes, dtype=bool)
    needs_solo = [False] * num_lanes
    loss_name = resolved.loss
    grad_clip = resolved.grad_clip

    jit = None
    clip_holder: dict = {}
    if resolved.jit:
        from ..autodiff.trace import EpochJIT

        def _tail_clip() -> None:
            clip_holder["norms"] = (
                _clip_lane_grads(param_list, active, grad_clip)
                if grad_clip is not None else None)

        jit = EpochJIT(tail=[_tail_clip,
                             lambda: optimizer.step(active=active)])
    # ``where`` only replays a lane mask whose storage it saw during
    # capture, so the condition must be ONE array refreshed in place each
    # epoch — a fresh ``active.copy()`` per epoch would kill the trace.
    cond = active.copy()

    for epoch in range(resolved.epochs):
        np.copyto(cond, active)
        if jit is not None and jit.replay():
            lane_vals = jit.value("lane_loss")
            loss_values = [float(lane_vals[k]) for k in range(num_lanes)]
            norms = clip_holder["norms"]
        else:
            optimizer.zero_grad()
            capture = jit.capture() if jit is not None \
                else contextlib.nullcontext()
            with capture:
                lane_loss = _lane_losses(stacked(inputs), targets, loss_name)
                masked = where(cond, lane_loss,
                               Tensor(np.zeros(num_lanes,
                                               dtype=lane_loss.data.dtype)))
                total = masked.sum()
                total.backward()
            if jit is not None:
                jit.seal(total, watch={"lane_loss": lane_loss})
            loss_values = [float(lane_loss.data[k])
                           for k in range(num_lanes)]
            norms = None
            if grad_clip is not None:
                norms = _clip_lane_grads(param_list, active, grad_clip)
            optimizer.step(active=active)
        for k, ctx in enumerate(contexts):
            if not active[k]:
                continue
            ctx.epoch = epoch
            ctx.loss = loss_values[k]
            ctx.grad_norm = None if norms is None else float(norms[k])
            ctx.history.record(ctx.loss, grad_norm=ctx.grad_norm,
                               lr=optimizer.lr)
            for callback in lane_callbacks[k]:
                callback.on_epoch_end(ctx)
            if not ctx.stop_requested and not lane_callbacks[k] \
                    and not np.isfinite(ctx.loss):
                # No callbacks: the solo fit would NaN-train to the epoch
                # budget and its divergent result would be discarded by
                # the scheduler anyway.  Freeze the lane (NaN rows are
                # masked out of the optimizer, so siblings are untouched)
                # and hand it back for the canonical solo re-run.
                needs_solo[k] = True
                ctx.stop_requested = True
            if ctx.stop_requested:
                # The lane's fit ends here; later steps leave its rows be.
                active[k] = False
                for callback in lane_callbacks[k]:
                    callback.on_fit_end(ctx)
        if not active.any():
            break
    for k in np.flatnonzero(active):
        for callback in lane_callbacks[k]:
            callback.on_fit_end(contexts[k])

    outcomes = []
    for k, lane in enumerate(lanes):
        model = models[k]
        model.load_state_dict({name: param.data[k]
                               for name, param in params.items()})
        history = contexts[k].history
        history.stop_reason = contexts[k].stop_reason
        test_mse = trainer.evaluate(model, splits[k].test)
        train_mse = trainer.evaluate(model, splits[k].train)
        result = IndividualResult(
            identifier=lane.cell.individual.identifier,
            model_name=model_name,
            graph_method=lane.cell.graph_method,
            test_mse=test_mse,
            train_mse=train_mse,
            learned_graph=None,
            static_graph=lane.graph,
            history=history,
            # The scatter above already loaded this lane's trained rows
            # into the solo model, so its state_dict is the export.
            state=model.state_dict() if lane.cell.export_state else None,
        )
        outcomes.append((result, needs_solo[k]))
    return outcomes


def run_stacked(cells: list, pending: list[int], config: "ParallelConfig",
                finish: Callable[[int, IndividualResult], None]) -> list[int]:
    """Train every stackable pending cell; return the leftover indices.

    Eligible cells are grouped by :func:`_group_key`, expanded into lanes
    (one per repeat), chunked by ``config.stack_size`` and trained by
    :func:`_execute_stack`.  Completed cells are delivered through
    ``finish`` (which journals and reports exactly like the solo path).
    Everything else — ineligible cells, lanes from a failed chunk,
    divergent aggregates — comes back sorted for the per-individual
    scheduler, whose retry/reseed/on_error semantics then apply
    unchanged.  Fault injection is a per-attempt contract the stack
    cannot honor, so an injector bypasses stacking entirely.
    """
    if config.fault_injector is not None:
        return list(pending)
    leftover: list[int] = []
    groups: "OrderedDict[tuple, list[int]]" = OrderedDict()
    for index in pending:
        reason = stackable_reason(cells[index])
        if reason is not None:
            leftover.append(index)
            continue
        groups.setdefault(_group_key(cells[index]), []).append(index)
    for indices in groups.values():
        first = cells[indices[0]]
        resolved = resolve_trainer_config(first.model_name,
                                          first.trainer_config)
        lanes = [_Lane(index=index, cell=cells[index], graph=graph, seed=seed)
                 for index in indices
                 for graph, seed in zip(cells[index].graphs,
                                        cells[index].seeds)]
        repeat_results: dict[int, list[IndividualResult]] = {
            index: [] for index in indices}
        fallback: set[int] = set()
        for start in range(0, len(lanes), config.stack_size):
            chunk = lanes[start:start + config.stack_size]
            try:
                outcomes = _execute_stack(chunk, resolved)
            except Exception as error:
                touched = sorted({lane.index for lane in chunk})
                warnings.warn(
                    f"stacked execution failed for {len(chunk)} lane(s) of "
                    f"{len(touched)} cell(s) "
                    f"({', '.join(cells[i].label for i in touched)}): "
                    f"{type(error).__name__}: {error}; falling back to "
                    f"per-individual execution", RuntimeWarning,
                    stacklevel=2)
                fallback.update(lane.index for lane in chunk)
                continue
            for lane, (result, needs_solo) in zip(chunk, outcomes):
                if needs_solo:
                    fallback.add(lane.index)
                else:
                    repeat_results[lane.index].append(result)
        for index in indices:
            if index in fallback:
                leftover.append(index)
                continue
            aggregate = aggregate_repeats(repeat_results[index])
            if is_divergent(aggregate):
                # Identical policy to the solo schedulers: a divergent
                # aggregate is a retryable failure, never a result.  The
                # leftover re-run owns the retry/reseed budget.
                leftover.append(index)
            else:
                finish(index, aggregate)
    leftover.sort()
    return leftover
