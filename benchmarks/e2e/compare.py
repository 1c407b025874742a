"""Compare two sets of benchmark results under BENCHMARK.json's bounds.

Usage::

    python benchmarks/e2e/run.py --workload table2 --seed 1 --out A   # x N
    python benchmarks/e2e/run.py --workload table2 --seed 1 --out B   # x N
    python benchmarks/e2e/compare.py A B

Each directory holds the ``result-*.json`` files ``run.py`` wrote there.
For every (workload, end-to-end metric) the two sides' medians and
quartiles are printed with a verdict: ``within bound``, ``regressed``
(B's median worse than A's by more than the metric's bound), or
``unresolved`` when either side's quartile spread exceeds the bound, unless
every run of B reads better than every run of A (``improved``).  A rise
in a workload's failed/attempted ratio is flagged whatever the timings
say.  The exit code is 1 when anything regressed or failed more often.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(directory: Path):
    """Untraced results of a directory: metric values and op counts."""
    values: dict[tuple[str, str], list[float]] = {}
    ops: dict[str, list[int]] = {}
    for path in sorted(directory.glob("result-*.json")):
        result = json.loads(path.read_text())
        if result["trace"]:
            continue
        totals = ops.setdefault(result["workload"], [0, 0])
        totals[0] += result["attempted"]
        totals[1] += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault((result["workload"], name), []).append(
                metric["value"])
    return values, ops


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(before: list[float], after: list[float], bound: float,
            better: str) -> tuple[str, float]:
    """(verdict, relative change of B's median against A's)."""
    sign = 1.0 if better == "lower" else -1.0
    q1a, median_a, q3a = quartiles(before)
    q1b, median_b, q3b = quartiles(after)
    change = (median_b - median_a) / median_a
    spread = max((q3a - q1a) / median_a, (q3b - q1b) / median_b)
    if spread > bound:
        if all(sign * b < sign * a for a in before for b in after):
            return "improved", change
        return "unresolved", change
    if sign * change > bound:
        return "regressed", change
    return "within bound", change


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (values_a, ops_a), (values_b, ops_b) = (load(Path(d)) for d in argv)
    bad = False
    print(f"{'workload':12s} {'metric':12s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'change':>8s}  verdict")
    for workload in sorted({w for w, _ in values_a} & {w for w, _ in values_b}):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in values_a or key not in values_b:
                continue
            outcome, change = verdict(values_a[key], values_b[key],
                                      metric["bound"], metric["better"])
            bad |= outcome == "regressed"
            sides = []
            for values in (values_a[key], values_b[key]):
                q1, median, q3 = quartiles(values)
                sides.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
            print(f"{workload:12s} {metric['name']:12s} {sides[0]:>30s} "
                  f"{sides[1]:>30s} {change:+8.1%}  {outcome} "
                  f"(bound {metric['bound']:.0%})")
        attempted_a, failed_a = ops_a[workload]
        attempted_b, failed_b = ops_b[workload]
        if failed_b / attempted_b > failed_a / attempted_a:
            bad = True
            print(f"{workload:12s} error_rate rose: {failed_a}/{attempted_a} "
                  f"-> {failed_b}/{attempted_b}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
