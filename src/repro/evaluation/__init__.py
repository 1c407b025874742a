"""Evaluation: MSE (paper eq. 1), cohort aggregation, boxplots, tables."""

from .boxplot import BoxplotStats, boxplot_stats
from .comparison import best_cells, format_table, score_results
from .metrics import CohortScore, cohort_score, mse_score, percentage_change
from .per_variable import (VariableScore, aggregate_variable_scores,
                           per_variable_mse)
from .stats import PairedComparison, compare_conditions
from .reports import (write_distributions_csv, write_per_individual_csv,
                      write_table_csv, write_table_markdown)

__all__ = ["BoxplotStats", "boxplot_stats", "best_cells", "format_table",
           "score_results", "CohortScore", "cohort_score", "mse_score",
           "percentage_change",
           "VariableScore", "aggregate_variable_scores", "per_variable_mse",
           "PairedComparison", "compare_conditions",
           "write_table_csv", "write_table_markdown",
           "write_per_individual_csv", "write_distributions_csv"]
