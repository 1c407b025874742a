"""Self-test of the benchmark harness at smoke sizes.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_run.py``
(about two minutes: every workload runs once untraced and once traced).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")

sys.path.insert(0, str(HERE))
from compare import verdict  # noqa: E402
from tracing import EXPECTED_SPANS  # noqa: E402


def run_bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "e2e" / "run.py"),
         "--smoke", "--seconds", "2", *args],
        capture_output=True, text=True, timeout=600)


def git_status() -> str:
    return subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                          capture_output=True, text=True, check=True).stdout


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Every workload untraced with the default ``--out``, then traced
    with an ``--out`` that keeps the result file."""
    if not (ROOT / ".git").exists():
        pytest.skip("needs a git checkout to check the tree stays clean")
    before = git_status()
    runs = {}
    try:
        for workload in WORKLOADS:
            runs[workload, 0] = (run_bench("--workload", workload,
                                           "--trace", "0"), None)
            out = tmp_path_factory.mktemp(workload)
            proc = run_bench("--workload", workload, "--trace", "1",
                             "--out", str(out))
            results = list(out.glob("result-*.json"))
            assert len(results) == 1, proc.stdout + proc.stderr
            runs[workload, 1] = (proc, json.loads(results[0].read_text()))
    finally:
        after = git_status()
    return runs, before, after


def test_declared_names_are_valid_and_unique():
    names = [w["name"] for w in SPEC["workloads"]] \
        + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names)
    assert set(EXPECTED_SPANS) == set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_printed_with_its_unit(smoke, trace):
    runs, _, _ = smoke
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for workload in WORKLOADS:
        proc, _ = runs[workload, trace]
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        final = json.loads(lines[-1])
        assert final["correct"] and final["failed"] == 0
        assert final["attempted"] >= 1
        assert set(final["metrics"]) == {m["name"] for m in declared}
        for metric in declared:
            assert final["metrics"][metric["name"]]["unit"] == metric["unit"]
            assert any(re.match(rf"\s+{re.escape(metric['name'])}\s+\S+\s+"
                                rf"{re.escape(metric['unit'])}\b", line)
                       for line in lines), (workload, metric["name"])


def test_traced_runs_cover_the_window_and_fire_every_wrapper(smoke):
    runs, _, _ = smoke
    for workload in WORKLOADS:
        _, result = runs[workload, 1]
        assert result["metrics"]["run.coverage"]["value"] >= 0.95, workload
        spans = result["details"]["layers"]["spans"]
        silent = [name for name in EXPECTED_SPANS[workload]
                  if spans[name]["calls"] == 0]
        assert not silent, (workload, silent)


def test_result_records_the_environment(smoke):
    runs, _, _ = smoke
    _, result = runs[WORKLOADS[0], 1]
    environment = result["environment"]
    assert len(environment["git_sha"]) == 40
    assert environment["nproc"] >= 1
    assert set(environment["blas_threads"].values()) == {"1"}
    assert environment["python"] and environment["numpy"] \
        and environment["scipy"]


def test_smoke_runs_leave_the_tree_clean(smoke):
    """The default ``--out`` lives in the checkout and is removed."""
    _, before, after = smoke
    assert after == before
    assert not list(HERE.glob(".run-*"))


def _copy_benchmark(root: Path) -> None:
    (root / "benchmarks").mkdir()
    shutil.copytree(HERE, root / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")


def test_flipped_committed_digest_fails_the_run(tmp_path):
    _copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    digests_path = tmp_path / "benchmarks" / "e2e" / "digests.json"
    digests = json.loads(digests_path.read_text())
    committed = digests["smoke"]["table2"]
    digests["smoke"]["table2"] = ("0" if committed[0] != "0" else "1") \
        + committed[1:]
    digests_path.write_text(json.dumps(digests))
    proc = run_bench("--workload", "table2", "--seed", str(digests["seed"]),
                     root=tmp_path)
    assert proc.returncode != 0
    assert "digest" in proc.stdout
    assert not json.loads(proc.stdout.splitlines()[-1])["correct"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    _copy_benchmark(tmp_path)
    proc = run_bench("--workload", "table2", root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert verdict(base, [v * 1.01 for v in base], 0.05, "lower")[0] \
        == "within bound"
    assert verdict(base, [v * 1.20 for v in base], 0.05, "lower")[0] \
        == "regressed"
    assert verdict(base, [v * 1.20 for v in base], 0.05, "higher")[0] \
        == "within bound"
    noisy = [0.5, 1.5, 1.0, 0.7, 1.3]
    assert verdict(base, noisy, 0.05, "lower")[0] == "unresolved"
    assert verdict(noisy, [0.1, 0.2, 0.15, 0.12, 0.18], 0.05,
                   "lower")[0] == "improved"
