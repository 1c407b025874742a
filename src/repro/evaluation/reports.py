"""Result persistence: CSV and Markdown exports of experiment tables.

The experiment runners return in-memory row/score structures; downstream
users (and EXPERIMENTS.md) want them on disk.  These writers are
dependency-free (plain ``csv`` module) and lossless: per-individual scores
are preserved, not just the aggregated cells.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Mapping, Sequence

from .metrics import CohortScore

__all__ = ["write_table_csv", "write_table_markdown", "write_per_individual_csv",
           "write_distributions_csv"]


def write_table_csv(path, rows: Mapping[str, Mapping[str, CohortScore]],
                    columns: Sequence[str],
                    fallback_reasons: Mapping[tuple[str, str], str] | None
                    = None) -> Path:
    """Write a table of CohortScores as CSV (mean, std, n, failed per cell).

    ``{column}_failed`` counts individuals excluded from the cell's
    mean/std because their training cell failed for good under the
    fault-tolerant scheduler (0 for a fully healthy run).

    ``fallback_reasons`` is strictly opt-in: when given (a mapping from
    ``(row label, column)`` to a summary string, see
    ``ema-gnn table2 --explain-fallbacks``), each column gains a
    ``{column}_fallback_reason`` field.  When ``None`` (the default) the
    output is byte-identical to the pre-diagnostics format — CI's
    byte-comparison jobs depend on that.
    """
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        header = ["model"]
        for column in columns:
            header += [f"{column}_mean", f"{column}_std", f"{column}_n",
                       f"{column}_failed"]
            if fallback_reasons is not None:
                header += [f"{column}_fallback_reason"]
        writer.writerow(header)
        for label, cells in rows.items():
            record = [label]
            for column in columns:
                cell = cells.get(column)
                if cell is None:
                    record += ["", "", "", ""]
                else:
                    record += [f"{cell.mean:.6f}", f"{cell.std:.6f}",
                               cell.count, cell.n_failed]
                if fallback_reasons is not None:
                    record += [fallback_reasons.get((label, column), "")]
            writer.writerow(record)
    return path


def write_table_markdown(path, title: str,
                         rows: Mapping[str, Mapping[str, CohortScore]],
                         columns: Sequence[str]) -> Path:
    """Write a table of CohortScores as a Markdown table."""
    path = Path(path)
    lines = [f"### {title}", "",
             "| Model | " + " | ".join(columns) + " |",
             "|" + "---|" * (len(columns) + 1)]
    best = {c: min((cells[c].mean for cells in rows.values() if c in cells),
                   default=None) for c in columns}
    for label, cells in rows.items():
        rendered = []
        for column in columns:
            cell = cells.get(column)
            if cell is None:
                rendered.append("–")
                continue
            text = str(cell)
            if best[column] is not None and cell.mean == best[column]:
                text = f"**{text}**"
            rendered.append(text)
        lines.append(f"| {label} | " + " | ".join(rendered) + " |")
    lines.append("")
    path.write_text("\n".join(lines))
    return path


def write_per_individual_csv(path, rows: Mapping[str, Mapping[str, CohortScore]],
                             columns: Sequence[str]) -> Path:
    """Write the underlying per-individual MSEs (long format)."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["model", "condition", "individual_index", "test_mse"])
        for label, cells in rows.items():
            for column in columns:
                cell = cells.get(column)
                if cell is None:
                    continue
                for index, value in enumerate(cell.per_individual):
                    writer.writerow([label, column, index, f"{value:.6f}"])
    return path


def write_distributions_csv(path, distributions) -> Path:
    """Write Fig. 3's per-individual MSEs at full precision (long format).

    One row per (model, condition, identifier) of each distribution's
    ``per_individual`` mapping.  ``test_mse`` is ``repr(float(value))``,
    which round-trips a float64 exactly: equal text means equal bits.
    """
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["model", "condition", "identifier", "test_mse"])
        for dist in distributions:
            for identifier, value in dist.per_individual.items():
                writer.writerow([dist.model, dist.condition, identifier,
                                 repr(float(value))])
    return path
