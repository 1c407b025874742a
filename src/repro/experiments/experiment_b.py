"""Experiment B (Table III): graph construction and sparsity (GDT).

Reproduces the paper's Table III: the three GNNs x {EUC, DTW, kNN, CORR,
RAND} x GDT {20 %, 40 %, 100 %}, trained on 5-step input.  The random
condition averages ``num_random_repeats`` freshly drawn graphs per
individual, as in the paper ("the average score after using 5 randomly
generated in training").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..data import EMADataset
from ..evaluation import CohortScore, format_table, score_results
from ..graphs.adjacency import GraphMethod
from ..training import GraphCache, IndividualResult, ParallelConfig, run_cohort
from .config import ExperimentConfig

__all__ = ["ExperimentBResult", "run_experiment_b"]

#: Table III trains on multi-step (Seq5) input.
TABLE3_SEQ_LEN = 5


@dataclass
class ExperimentBResult:
    """Everything needed to render Table III."""

    rows: dict[str, dict[str, CohortScore]]
    columns: tuple[str, ...]
    raw: dict[tuple[str, str], list[IndividualResult]] = field(repr=False,
                                                               default_factory=dict)

    def render(self) -> str:
        return format_table(
            "Table III: average MSE for different graph sparsity levels "
            f"(GDT), {TABLE3_SEQ_LEN}-step input",
            self.rows, list(self.columns))


def run_experiment_b(dataset: EMADataset, config: ExperimentConfig,
                     progress=None,
                     parallel: ParallelConfig | None = None) -> ExperimentBResult:
    """Run the full Table III grid."""
    config.apply_dtype()
    trainer_config = config.trainer_config()
    graph_cache = GraphCache()
    seq_len = TABLE3_SEQ_LEN if TABLE3_SEQ_LEN in config.seq_lens \
        else max(config.seq_lens)
    columns = tuple(f"GDT={int(g * 100)}%" for g in config.gdts)
    methods = tuple(config.graph_methods) + (GraphMethod.RANDOM,)
    rows: dict[str, dict[str, CohortScore]] = {}
    raw: dict[tuple[str, str], list[IndividualResult]] = {}

    for method in methods:
        for model in config.gnn_models:
            label = f"{model.upper()}_{GraphMethod.LABELS[method]}"
            rows.setdefault(label, {})
            for gdt in config.gdts:
                column = f"GDT={int(gdt * 100)}%"
                if progress is not None:
                    progress(f"{label} {column}")
                results = run_cohort(
                    dataset, model, seq_len,
                    graph_method=method,
                    keep_fraction=gdt,
                    trainer_config=trainer_config,
                    model_config=config.model,
                    base_seed=config.seed,
                    num_random_repeats=config.num_random_repeats,
                    graph_kwargs=config.graph_kwargs(method),
                    parallel=parallel,
                    graph_cache=graph_cache,
                )
                rows[label][column] = score_results(results)
                raw[(label, column)] = results
    return ExperimentBResult(rows=rows, columns=columns, raw=raw)
