"""Paired significance tests for cohort comparisons.

The paper's discussion repeatedly qualifies its deltas ("the differences
were not significant", §VII-C) without printing the tests.  Because every
condition here is evaluated on the *same* individuals, the natural tests
are paired: Wilcoxon signed-rank (distribution-free, the standard choice
for per-individual MSEs) and the paired t-test, both via scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PairedComparison", "compare_conditions"]


@dataclass(frozen=True)
class PairedComparison:
    """Outcome of comparing two conditions on the same individuals."""

    mean_a: float
    mean_b: float
    mean_difference: float        # a - b; negative = condition a is better
    wilcoxon_statistic: float
    wilcoxon_p: float
    ttest_statistic: float
    ttest_p: float
    n: int

    def significant(self, alpha: float = 0.05) -> bool:
        """Wilcoxon verdict at the given level."""
        return self.wilcoxon_p < alpha

    def __str__(self) -> str:
        verdict = "significant" if self.significant() else "not significant"
        return (f"Δ={self.mean_difference:+.3f} "
                f"(Wilcoxon p={self.wilcoxon_p:.3f}, t-test p={self.ttest_p:.3f}; "
                f"{verdict} at α=0.05, n={self.n})")


def compare_conditions(scores_a, scores_b) -> PairedComparison:
    """Paired comparison of two conditions' per-individual MSEs.

    ``scores_a`` / ``scores_b`` are equal-length sequences aligned by
    individual (the i-th entries belong to the same person).
    """
    a = np.asarray(list(scores_a), dtype=np.float64)
    b = np.asarray(list(scores_b), dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two aligned 1-D score vectors with n >= 2")
    # Imported here, not at module level: scipy.stats costs ~1 s and ~70 MB
    # and this is its only caller (see DESIGN.md "Imports").
    from scipy import stats as scipy_stats

    differences = a - b
    if np.allclose(differences, 0.0):
        wilcoxon_stat, wilcoxon_p = 0.0, 1.0
    else:
        wilcoxon_stat, wilcoxon_p = scipy_stats.wilcoxon(a, b)
    ttest_stat, ttest_p = scipy_stats.ttest_rel(a, b)
    return PairedComparison(
        mean_a=float(a.mean()), mean_b=float(b.mean()),
        mean_difference=float(differences.mean()),
        wilcoxon_statistic=float(wilcoxon_stat), wilcoxon_p=float(wilcoxon_p),
        ttest_statistic=float(ttest_stat), ttest_p=float(ttest_p),
        n=int(a.size),
    )
