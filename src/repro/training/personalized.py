"""Personalized (per-individual) experiment loop.

The paper's framework (Fig. 1): one model per individual, trained on the
first 70 % of that individual's recording, evaluated on the last 30 %, with
the individual's *own* variable graph.  Graphs are constructed from the
training segment only, so no test information leaks into the structure.

The cohort loop is expressed as independent :class:`CohortCell` work items
(one per individual per condition) executed by the scheduler in
:mod:`repro.training.parallel` — serially by default, or across worker
processes with identical results when ``parallel.jobs > 1``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from ..autodiff import get_default_dtype
from ..data.containers import EMADataset, Individual
from ..data.splits import split_boundary, split_windows
from ..graphs import build_adjacency
from ..graphs.adjacency import GraphMethod
from ..models import ModelConfig, create_model
from ..models.mtgnn import MTGNN
from .parallel import CohortCell, GraphCache, ParallelConfig, run_cells
from .seeding import derive_seed
from .trainer import Trainer, TrainerConfig

__all__ = ["IndividualResult", "run_individual", "run_cohort",
           "enumerate_cells", "aggregate_repeats", "resolve_trainer_config",
           "cell_config_digest"]


def cell_config_digest(train_fraction: float, graph_kwargs: dict | None,
                       trainer_config: TrainerConfig | None,
                       model_config: ModelConfig | None) -> str:
    """Digest of every cell-shaping input the legacy key fields miss.

    Covers train fraction, graph kwargs and trainer/model config
    identity, so a checkpoint journal written under different settings
    can never serve a stale result for a colliding key.  The serving
    store records the same digest per artifact, letting loaders reject
    version skew with one comparison.  Frozen-dataclass reprs are
    deterministic and cover every field, including nested CallbackSpecs.
    """
    kwargs_key = tuple(sorted((graph_kwargs or {}).items()))
    return hashlib.sha1(repr(
        (float(train_fraction), kwargs_key, trainer_config, model_config)
    ).encode()).hexdigest()[:12]


@dataclass
class IndividualResult:
    """Outcome of training one model on one individual."""

    identifier: str
    model_name: str
    graph_method: str
    test_mse: float
    train_mse: float
    learned_graph: np.ndarray | None = None
    static_graph: np.ndarray | None = None
    history: object = field(default=None, repr=False)
    #: Per-repeat test MSEs (one entry per random-graph repeat; a single
    #: entry otherwise), so cross-repeat spread stays recoverable after
    #: averaging.
    repeat_scores: tuple[float, ...] | None = None
    #: Why this cell did not take a fast path (``None`` when it did, or
    #: when no fast path was requested).  Populated from the JIT's runtime
    #: ``disabled_reason`` when ``trainer_config.jit`` is on, or from the
    #: static verdict when :func:`~repro.training.parallel.run_cells`
    #: pre-routed the cell around a doomed capture attempt.
    fallback_reason: str | None = None
    #: Trained model weights (``Module.state_dict``) when the run was
    #: enumerated with ``export_state=True`` — the payload the serving
    #: model store (:mod:`repro.serving`) persists.  ``None`` otherwise so
    #: ordinary experiment results stay lightweight.
    state: dict | None = field(default=None, repr=False)

    @property
    def diverged(self) -> bool:
        """True when any recorded score is non-finite (NaN/inf).

        The cohort scheduler treats a diverged result as a retryable
        failure (see :mod:`repro.training.faults`) rather than averaging
        NaN into a table.
        """
        from .faults import is_divergent

        return is_divergent(self)


def _build_graph(individual: Individual, method: str, keep_fraction: float,
                 boundary: int, seed: int, graph_kwargs: dict) -> np.ndarray:
    """Construct the individual's graph from the training segment only."""
    train_values = individual.values[:boundary]
    return build_adjacency(train_values, method, gdt=keep_fraction,
                           seed=seed, **graph_kwargs)


def run_individual(individual: Individual, model_name: str, seq_len: int,
                   graph: np.ndarray | None,
                   graph_method: str = GraphMethod.CORRELATION,
                   trainer_config: TrainerConfig | None = None,
                   model_config: ModelConfig | None = None,
                   train_fraction: float = 0.7,
                   seed: int = 0,
                   export_learned_graph: bool = False,
                   export_state: bool = False,
                   callbacks: list | None = None) -> IndividualResult:
    """Train and evaluate one (individual, model, graph) cell.

    Training behavior (early stopping, LR schedules, divergence guards)
    is configured via ``trainer_config.callbacks`` — declarative
    :class:`~repro.training.callbacks.CallbackSpec` records that survive
    pickling into worker processes.  ``callbacks`` additionally accepts
    *live* :class:`~repro.training.callbacks.Callback` instances for
    in-process observers; those cannot cross process boundaries and are
    therefore not part of :func:`enumerate_cells`'s cell payload.

    ``export_state`` attaches the fitted ``state_dict`` to the result so
    the serving store can persist the cohort.  Closed-form models (VAR,
    naive-mean) fit via ``fit_windows`` instead of the gradient trainer,
    which makes the whole registry reachable through one cohort loop.
    """
    from ..models.registry import MODEL_REGISTRY

    split = split_windows(individual.values, seq_len, train_fraction)
    model = create_model(model_name, individual.num_variables, seq_len,
                         adjacency=graph, config=model_config, seed=seed)
    trainer = Trainer(resolve_trainer_config(model_name, trainer_config))
    spec = MODEL_REGISTRY.get(model_name.lower())
    if spec is not None and spec.family == "closed-form":
        model.fit_windows(split.train)
        history = None
        fallback = None
    else:
        history = trainer.fit(model, split.train, callbacks=callbacks)
        fallback = trainer.last_jit.disabled_reason \
            if trainer.last_jit is not None else None
    test_mse = trainer.evaluate(model, split.test)
    train_mse = trainer.evaluate(model, split.train)
    learned = None
    if export_learned_graph and isinstance(model, MTGNN):
        learned = model.learned_graph()
    return IndividualResult(
        identifier=individual.identifier,
        model_name=model_name,
        graph_method=graph_method,
        test_mse=test_mse,
        train_mse=train_mse,
        learned_graph=learned,
        static_graph=graph,
        history=history,
        fallback_reason=fallback,
        state=model.state_dict() if export_state else None,
    )


def resolve_trainer_config(model_name: str,
                           trainer_config: TrainerConfig | None
                           ) -> TrainerConfig:
    """The effective trainer config for one model, with per-model defaults.

    MTGNN's canonical training recipe (official implementation) uses
    weight decay 1e-4; the other models' references train without it.
    The 1e-4 is applied only when ``weight_decay`` is the ``None``
    "unset" sentinel — an explicit ``0.0`` is an affirmative no-decay
    choice (the ablation) and is respected.
    """
    if trainer_config is None:
        trainer_config = TrainerConfig()
    if model_name == "mtgnn" and trainer_config.weight_decay is None:
        trainer_config = replace(trainer_config, weight_decay=1e-4)
    return trainer_config


def aggregate_repeats(repeats: list[IndividualResult]) -> IndividualResult:
    """Collapse one cell's repeats into one per-individual result.

    Single-repeat cells pass through (annotated with their score tuple);
    random-graph cells average the repeats into one score while keeping
    every repeat's test MSE on ``repeat_scores``.
    """
    if not repeats:
        raise ValueError("need at least one repeat to aggregate")
    scores = tuple(r.test_mse for r in repeats)
    if len(repeats) == 1:
        # A copy, not the caller's object: annotating repeats[0] in place
        # would make the raw repeat result grow a repeat_scores field
        # behind the caller's back.
        return replace(repeats[0], repeat_scores=scores)
    return IndividualResult(
        identifier=repeats[0].identifier,
        model_name=repeats[0].model_name,
        graph_method=repeats[0].graph_method,
        test_mse=float(np.mean(scores)),
        train_mse=float(np.mean([r.train_mse for r in repeats])),
        learned_graph=repeats[0].learned_graph,
        static_graph=repeats[0].static_graph,
        history=repeats[0].history,
        repeat_scores=scores,
        fallback_reason=next(
            (r.fallback_reason for r in repeats
             if r.fallback_reason is not None), None),
        state=repeats[0].state,
    )


def enumerate_cells(dataset: EMADataset, model_name: str, seq_len: int,
                    graph_method: str = GraphMethod.CORRELATION,
                    keep_fraction: float = 0.2,
                    graphs: dict[str, np.ndarray] | None = None,
                    trainer_config: TrainerConfig | None = None,
                    model_config: ModelConfig | None = None,
                    train_fraction: float = 0.7,
                    base_seed: int = 0,
                    num_random_repeats: int = 5,
                    graph_kwargs: dict | None = None,
                    export_learned_graphs: bool = False,
                    export_state: bool = False,
                    graph_cache: GraphCache | None = None) -> list[CohortCell]:
    """Expand one cohort condition into its independent work items.

    Graphs are built here, in the enumerating process, so a shared
    ``graph_cache`` deduplicates the expensive constructions (DTW
    especially) across the model conditions of an experiment; workers
    then receive ready-made adjacencies and do pure training.
    """
    graph_kwargs = dict(graph_kwargs or {})
    cache = graph_cache if graph_cache is not None else GraphCache()
    kwargs_key = tuple(sorted(graph_kwargs.items()))
    dtype = np.dtype(get_default_dtype()).name
    config_digest = cell_config_digest(train_fraction, graph_kwargs,
                                       trainer_config, model_config)
    cells: list[CohortCell] = []
    for individual in dataset:
        # Graph construction truncates the recording at the same boundary
        # split_windows cuts the train/test windows at — one derivation,
        # so "graphs see training data only" cannot drift off by one.
        boundary = split_boundary(individual.num_time_points, train_fraction)

        def cached_graph(seed: int) -> np.ndarray:
            key = (individual.identifier, graph_method, keep_fraction,
                   kwargs_key, seed)
            return cache.get(key, lambda: _build_graph(
                individual, graph_method, keep_fraction, boundary, seed,
                graph_kwargs))

        if graphs is not None:
            if individual.identifier not in graphs:
                # Pre-computed graph missing for this individual — e.g.
                # the stage that produced it failed under graceful
                # degradation.  The condition simply does not cover them.
                continue
            candidate_graphs = (graphs[individual.identifier],)
        elif model_name != "lstm" and graph_method == GraphMethod.RANDOM:
            candidate_graphs = tuple(
                cached_graph(derive_seed(individual.identifier, "randgraph",
                                         rep, base=base_seed))
                for rep in range(num_random_repeats))
        elif model_name == "lstm":
            candidate_graphs = (None,)
        else:
            candidate_graphs = (
                cached_graph(derive_seed(individual.identifier, "graph",
                                         base=base_seed)),
            )
        seeds = tuple(
            derive_seed(individual.identifier, model_name, graph_method,
                        seq_len, keep_fraction, rep, base=base_seed)
            for rep in range(len(candidate_graphs)))
        key = "|".join(str(part) for part in (
            individual.identifier, model_name, graph_method, seq_len,
            keep_fraction, base_seed, len(candidate_graphs),
            export_learned_graphs, config_digest))
        if export_state:
            # Appended (rather than a new positional slot) so checkpoints
            # journaled before the field existed keep their keys — but a
            # weight-exporting run can never be served a stateless result.
            key += "|state"
        cells.append(CohortCell(
            key=key,
            label=f"{model_name}:{graph_method} seq{seq_len} "
                  f"{individual.identifier}",
            individual=individual,
            model_name=model_name,
            seq_len=seq_len,
            graph_method=graph_method,
            graphs=candidate_graphs,
            seeds=seeds,
            trainer_config=trainer_config,
            model_config=model_config,
            train_fraction=train_fraction,
            export_learned_graph=export_learned_graphs,
            dtype=dtype,
            export_state=export_state,
        ))
    return cells


def run_cohort(dataset: EMADataset, model_name: str, seq_len: int,
               graph_method: str = GraphMethod.CORRELATION,
               keep_fraction: float = 0.2,
               graphs: dict[str, np.ndarray] | None = None,
               trainer_config: TrainerConfig | None = None,
               model_config: ModelConfig | None = None,
               train_fraction: float = 0.7,
               base_seed: int = 0,
               num_random_repeats: int = 5,
               graph_kwargs: dict | None = None,
               export_learned_graphs: bool = False,
               export_state: bool = False,
               parallel: ParallelConfig | None = None,
               graph_cache: GraphCache | None = None) -> list[IndividualResult]:
    """Run one table cell: a model/graph condition across the whole cohort.

    Parameters
    ----------
    graphs:
        Pre-computed per-individual adjacencies (keyed by identifier) —
        Experiment C's learned-graph condition.  When given,
        ``graph_method`` is only a label, and individuals without an
        entry are excluded from the condition (their producing stage may
        have failed under graceful degradation).
    num_random_repeats:
        For ``graph_method="random"`` the paper averages over 5 randomly
        generated graphs; each repeat draws a fresh graph and model seed.
    parallel:
        Scheduling knobs (worker count, checkpoint, progress callback,
        retry/timeout/on_error fault policy); ``None`` runs serially.
        Per-cell seeding makes results bit-identical across schedules.
        Under ``on_error="collect"`` the returned list holds a
        :class:`~repro.training.faults.CellFailure` in each failed slot
        (``"skip"`` drops the slot), and downstream aggregation
        (:func:`repro.evaluation.score_results`) averages the survivors
        while reporting ``n_failed``.
    graph_cache:
        Shared cache of constructed graphs; pass one cache across the
        conditions of an experiment to build each graph exactly once.
    """
    cells = enumerate_cells(
        dataset, model_name, seq_len, graph_method=graph_method,
        keep_fraction=keep_fraction, graphs=graphs,
        trainer_config=trainer_config, model_config=model_config,
        train_fraction=train_fraction, base_seed=base_seed,
        num_random_repeats=num_random_repeats, graph_kwargs=graph_kwargs,
        export_learned_graphs=export_learned_graphs,
        export_state=export_state, graph_cache=graph_cache)
    return run_cells(cells, parallel)
