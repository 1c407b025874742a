"""Experiment C (Fig. 3): static vs MTGNN-learned graph structures.

The paper's pipeline:

1. For each static metric (EUC/DTW/kNN/CORR), train MTGNN per individual
   with its graph learner warm-started from that metric's graph; record
   MTGNN's test MSE and export the learned adjacency.
2. Feed each individual's learned graph (symmetrized, density-matched to
   the static one) back into A3TGCN and ASTGCN as a fixed graph.
3. Compare the per-individual MSE distributions (boxplots), the means, and
   the mean relative percentage change (Fig. 3's red numbers), plus the
   static-vs-learned graph correlation (the "88 % correlation" statistic).

Run at the sparse setting (GDT = 20 %) with 5-step input, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data import EMADataset
from ..evaluation import (BoxplotStats, boxplot_stats, percentage_change,
                          score_results)
from ..evaluation.metrics import CohortScore
from ..graphs import graph_correlation, prepare_learned_graph
from ..graphs.adjacency import GraphMethod
from ..training import (CellFailure, GraphCache, IndividualResult,
                        ParallelConfig, run_cohort)
from .config import ExperimentConfig

__all__ = ["ExperimentCResult", "ConditionDistribution", "run_experiment_c"]

FIG3_GDT = 0.2
FIG3_SEQ_LEN = 5


@dataclass
class ConditionDistribution:
    """One boxplot of Fig. 3: a model under one graph condition."""

    model: str
    condition: str          # e.g. "kNN" or "kNN_learned"
    score: CohortScore
    box: BoxplotStats
    per_individual: dict[str, float]


@dataclass
class ExperimentCResult:
    """Everything needed to render Fig. 3 (as text)."""

    distributions: list[ConditionDistribution]
    #: model -> metric -> mean relative % change static -> learned (red numbers).
    pct_change: dict[str, dict[str, float]]
    #: metric -> mean correlation between static and learned graphs.
    graph_similarity: dict[str, float]
    mtgnn_scores: dict[str, CohortScore]
    raw: dict = field(default_factory=dict, repr=False)

    def render(self) -> str:
        lines = ["Fig. 3: MSE distributions — static graphs vs MTGNN-learned "
                 f"refinements (GDT={int(FIG3_GDT * 100)}%, Seq{FIG3_SEQ_LEN})",
                 "=" * 76]
        for metric, score in self.mtgnn_scores.items():
            lines.append(f"MTGNN (learner warm-started from {metric}): {score}")
        lines.append("-" * 76)
        header = (f"{'model':8s} {'condition':16s} {'mean':>7s} {'median':>7s} "
                  f"{'q1':>7s} {'q3':>7s}")
        lines.append(header)
        for dist in self.distributions:
            box = dist.box
            lines.append(f"{dist.model:8s} {dist.condition:16s} "
                         f"{box.mean:7.3f} {box.median:7.3f} "
                         f"{box.q1:7.3f} {box.q3:7.3f}")
        lines.append("-" * 76)
        lines.append("Relative % change static -> learned (negative = improvement):")
        for model, per_metric in self.pct_change.items():
            cells = "  ".join(f"{m}: {v:+.1f}%" for m, v in per_metric.items())
            lines.append(f"  {model:8s} {cells}")
        lines.append("Static-vs-learned graph correlation:")
        for metric, corr in self.graph_similarity.items():
            lines.append(f"  {metric}: {corr * 100:.0f}%")
        return "\n".join(lines)


def _survivors(results: list) -> list[IndividualResult]:
    """Drop collected CellFailure records (fault-tolerant degraded runs)."""
    return [r for r in results if not isinstance(r, CellFailure)]


def _per_individual(results: list[IndividualResult]) -> dict[str, float]:
    return {r.identifier: r.test_mse for r in _survivors(results)}


def run_experiment_c(dataset: EMADataset, config: ExperimentConfig,
                     progress=None,
                     parallel: ParallelConfig | None = None) -> ExperimentCResult:
    """Run the full Fig. 3 pipeline."""
    config.apply_dtype()
    trainer_config = config.trainer_config()
    graph_cache = GraphCache()
    seq_len = FIG3_SEQ_LEN if FIG3_SEQ_LEN in config.seq_lens else max(config.seq_lens)
    distributions: list[ConditionDistribution] = []
    pct: dict[str, dict[str, float]] = {}
    similarity: dict[str, float] = {}
    mtgnn_scores: dict[str, CohortScore] = {}
    raw: dict = {}

    learned_graphs: dict[str, dict[str, np.ndarray]] = {}
    static_graphs: dict[str, dict[str, np.ndarray]] = {}

    # --- stage 1: MTGNN per metric, exporting learned graphs -------------
    for method in config.graph_methods:
        label = GraphMethod.LABELS[method]
        if progress is not None:
            progress(f"MTGNN warm-start {label}")
        results = run_cohort(
            dataset, "mtgnn", seq_len, graph_method=method,
            keep_fraction=FIG3_GDT, trainer_config=trainer_config,
            model_config=config.model, base_seed=config.seed,
            graph_kwargs=config.graph_kwargs(method),
            export_learned_graphs=True,
            parallel=parallel, graph_cache=graph_cache)
        mtgnn_scores[label] = score_results(results)
        raw[("mtgnn", label)] = results
        survivors = _survivors(results)
        static_graphs[method] = {r.identifier: r.static_graph
                                 for r in survivors}
        # Individuals whose MTGNN cell failed export no learned graph;
        # stage 2's learned condition simply does not cover them.
        learned_graphs[method] = {
            r.identifier: prepare_learned_graph(r.learned_graph,
                                                match_edges_of=r.static_graph)
            for r in survivors}
        sims = [graph_correlation(static_graphs[method][i], learned_graphs[method][i])
                for i in static_graphs[method]]
        similarity[label] = float(np.mean(sims)) if sims else float("nan")

    # --- stage 2: feed static + learned graphs into A3TGCN / ASTGCN ------
    for model in ("a3tgcn", "astgcn"):
        pct[model] = {}
        for method in config.graph_methods:
            label = GraphMethod.LABELS[method]
            if progress is not None:
                progress(f"{model} {label} static vs learned")
            static_results = run_cohort(
                dataset, model, seq_len, graph_method=method,
                keep_fraction=FIG3_GDT, trainer_config=trainer_config,
                model_config=config.model, base_seed=config.seed,
                graph_kwargs=config.graph_kwargs(method),
                parallel=parallel, graph_cache=graph_cache)
            learned_results = run_cohort(
                dataset, model, seq_len,
                graph_method=f"{method}_learned",
                graphs=learned_graphs[method],
                keep_fraction=FIG3_GDT, trainer_config=trainer_config,
                model_config=config.model, base_seed=config.seed,
                parallel=parallel, graph_cache=graph_cache)
            for name, results in ((label, static_results),
                                  (f"{label}_learned", learned_results)):
                scores = [r.test_mse for r in _survivors(results)]
                distributions.append(ConditionDistribution(
                    model=model, condition=name,
                    score=score_results(results),
                    box=boxplot_stats(scores),
                    per_individual=_per_individual(results)))
            before = _per_individual(static_results)
            after = _per_individual(learned_results)
            # Pair on the individuals both conditions actually scored —
            # a failed cell on either side drops out of the comparison.
            ids = sorted(set(before) & set(after))
            pct[model][label] = percentage_change(
                [before[i] for i in ids], [after[i] for i in ids]) \
                if ids else float("nan")
            raw[(model, label)] = static_results
            raw[(model, f"{label}_learned")] = learned_results

    return ExperimentCResult(distributions=distributions, pct_change=pct,
                             graph_similarity=similarity,
                             mtgnn_scores=mtgnn_scores, raw=raw)
