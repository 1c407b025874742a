"""Experiment A (Table II): GNN models vs the LSTM baseline.

Reproduces the paper's Table II: MSE ``mean(std)`` for the baseline LSTM
and each GNN x static-graph combination at GDT = 20 %, for single- and
multi-step inputs (Seq1 / Seq2 / Seq5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..data import EMADataset
from ..evaluation import CohortScore, format_table, score_results
from ..graphs.adjacency import GraphMethod
from ..training import GraphCache, IndividualResult, ParallelConfig, run_cohort
from .config import ExperimentConfig

__all__ = ["ExperimentAResult", "run_experiment_a"]

#: The sparsity Table II is reported at.
TABLE2_GDT = 0.2


def _row_label(model: str, method: str | None) -> str:
    if model == "lstm":
        return "Baseline LSTM"
    suffix = GraphMethod.LABELS.get(method, method)
    return f"{model.upper()}_{suffix}"


@dataclass
class ExperimentAResult:
    """Everything needed to render Table II."""

    rows: dict[str, dict[str, CohortScore]]
    columns: tuple[str, ...]
    raw: dict[tuple[str, str], list[IndividualResult]] = field(repr=False,
                                                               default_factory=dict)

    def render(self) -> str:
        return format_table(
            "Table II: GNN models vs LSTM, single- and multi-step input "
            f"(GDT={int(TABLE2_GDT * 100)}%)",
            self.rows, list(self.columns))


def run_experiment_a(dataset: EMADataset, config: ExperimentConfig,
                     progress=None,
                     parallel: ParallelConfig | None = None) -> ExperimentAResult:
    """Run the full Table II grid.

    ``progress`` is an optional callable ``(label: str) -> None`` invoked
    before each condition (used by the CLI for live output); ``parallel``
    configures the cohort scheduler (workers, checkpoint, per-cell
    progress, and the execution backend — ``backend="stacked"`` trains
    the grid's LSTM/A3TGCN conditions as cross-individual parameter
    stacks with bit-identical results; the remaining conditions fall
    back to per-individual execution automatically).
    """
    config.apply_dtype()
    trainer_config = config.trainer_config()
    graph_cache = GraphCache()
    columns = tuple(f"Seq{s}" for s in config.seq_lens)
    rows: dict[str, dict[str, CohortScore]] = {}
    raw: dict[tuple[str, str], list[IndividualResult]] = {}

    conditions: list[tuple[str, str | None]] = [("lstm", None)]
    conditions += [(model, method)
                   for method in config.graph_methods
                   for model in config.gnn_models]
    # Present rows grouped by graph metric, LSTM first (paper order).
    for model, method in conditions:
        label = _row_label(model, method)
        rows.setdefault(label, {})
        for seq_len in config.seq_lens:
            if progress is not None:
                progress(f"{label} Seq{seq_len}")
            results = run_cohort(
                dataset, model, seq_len,
                graph_method=method if method else GraphMethod.CORRELATION,
                keep_fraction=TABLE2_GDT,
                trainer_config=trainer_config,
                model_config=config.model,
                base_seed=config.seed,
                graph_kwargs=config.graph_kwargs(method) if method else {},
                parallel=parallel,
                graph_cache=graph_cache,
            )
            rows[label][f"Seq{seq_len}"] = score_results(results)
            raw[(label, f"Seq{seq_len}")] = results
    return ExperimentAResult(rows=rows, columns=columns, raw=raw)
