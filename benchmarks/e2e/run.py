"""End-to-end benchmark of the paper pipeline and the forecast server.

Usage (from anywhere; the repository root is found from this file)::

    python benchmarks/e2e/run.py                         # all workloads
    python benchmarks/e2e/run.py --trace                 # plus a traced run
    python benchmarks/e2e/run.py --workload table2 --seed 7 --seconds 30 --trace 0

Each workload runs in fresh child processes with BLAS/OpenMP pinned to one
thread.  The untraced run reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` instead runs the workload twice for half
the time each, untraced and then with layer wrappers, and reports the
per-layer metrics.  Every line names its metric and unit; the last line
is one JSON object.  Outputs are checked (digests, bitwise parity with the
eager path and with solo ``predict``) and the exit code is non-zero when
a check fails.  Result JSON and spans go to ``--out``; without it they go
to a fresh temporary directory beside this file, which is removed when the
run ends, so only the printed lines remain.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("table2", "table2-fast", "serve-mixed")
#: Every child must finish before this many seconds after the run starts.
DEADLINE_SECONDS = 170
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS")


class ChildFailed(RuntimeError):
    """A workload child process crashed or overran the deadline."""


def environment() -> dict:
    """Where a result was measured: commit, CPUs, pinning, versions."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            module = __import__(package)
            versions[package] = module.__version__
        except ImportError:
            versions[package] = None
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": {name: "1" for name in PINNED_THREADS},
            "python": platform.python_version(), **versions}


class Runner:
    """Starts the workload children of one invocation."""

    def __init__(self, out: Path, sizing: str, deadline: float):
        self.out = out
        self.sizing = sizing
        self.deadline = deadline
        self.children = 0

    def child(self, scratch: Path, workload: str, seed: int, mode: str,
              seconds: float = 0.0) -> dict:
        self.children += 1
        result_path = scratch / f"child-{self.children}.json"
        spec = {"workload": workload, "sizing": self.sizing, "seed": seed,
                "mode": mode, "seconds": seconds, "scratch": str(scratch),
                "result_path": str(result_path),
                "spans_path": str(self.out / f"spans-{workload}-s{seed}-"
                                  f"{os.getpid()}-{self.children}.json"),
                "spawned_at": 0.0}
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
               "PYTHONHASHSEED": "0", "TMPDIR": str(scratch),
               **{name: "1" for name in PINNED_THREADS}}
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise ChildFailed(f"{workload}: no time left for a {mode} child")
        spec["spawned_at"] = time.monotonic()
        try:
            code = subprocess.run(
                [sys.executable, str(HERE / "workloads.py"), json.dumps(spec)],
                env=env, stdout=sys.stderr.fileno(), timeout=timeout,
            ).returncode
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{workload}: {mode} child overran the "
                              f"{DEADLINE_SECONDS} s deadline") from None
        if code != 0 or not result_path.exists():
            raise ChildFailed(f"{workload}: {mode} child exited with {code}")
        return json.loads(result_path.read_text())


def committed_digest(sizing: str, workload: str, seed: int) -> str | None:
    digests = json.loads((HERE / "digests.json").read_text())
    if seed != digests["seed"]:
        return None
    return digests[sizing].get(workload)


def run_workload(runner: Runner, spec: dict, workload: str, seed: int,
                 seconds: float, trace: bool) -> dict:
    """One workload: children, then metrics, checks and a result record."""
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=runner.out))
    try:
        if trace:
            untraced = runner.child(scratch, workload, seed, "measure",
                                    seconds / 2)
            main = runner.child(scratch, workload, seed, "trace", seconds / 2)
            values = dict(main["layers"])
            values["run.overhead"] = main["wall_s"] / untraced["wall_s"]
            declared = spec["per_layer"]
            children = [untraced, main]
        else:
            # Set-up is sampled twice before the measurement (a set-up
            # child, then the measuring child itself) and twice after it.
            # A shared host holds one speed for 10-25 s, so the pairs often
            # see two speeds; the median of four then averages them rather
            # than picking the speed of whichever moment had two samples.
            before = runner.child(scratch, workload, seed, "setup")
            main = runner.child(scratch, workload, seed, "measure", seconds)
            after = [runner.child(scratch, workload, seed, "setup")
                     for _ in range(2)]
            setups = [child["setup_s"] for child in (before, main, *after)]
            values = {"setup_s": statistics.median(setups),
                      "wall_s": main["wall_s"], "p50_ms": main["p50_ms"],
                      "p99_ms": main["p99_ms"],
                      "peak_rss_mb": main["peak_rss_mb"]}
            declared = spec["end_to_end"]
            children = [main]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    problems = [problem for child in children for problem in child["problems"]]
    expected = committed_digest(runner.sizing, workload, seed)
    for child in children:
        if expected is not None and child["digest"] not in (None, expected):
            problems.append(f"digest {child['digest']} != committed "
                            f"{expected} for seed {seed}")
        if child["digest"] != children[0]["digest"]:
            problems.append("the traced run's digest differs from the "
                            "untraced run's")
    if trace:
        from tracing import EXPECTED_SPANS

        silent = [name for name in EXPECTED_SPANS[workload]
                  if main["layer_details"]["spans"][name]["calls"] == 0]
        if silent:
            problems.append(f"wrappers never fired: {silent} (a call site "
                            f"moved or was renamed)")
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise ChildFailed(f"{workload}: no value for declared metric(s) "
                          f"{missing}")
    attempted = sum(child["attempted"] for child in children)
    failed = attempted if problems else \
        sum(child["failed"] for child in children)
    details = {key: main[key] for key in
               ("latency_samples", "rounds", "prep_s", "check_s", "details")}
    if trace:
        details["layers"] = main["layer_details"]
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "sizing": runner.sizing,
        "correct": not problems, "attempted": attempted, "failed": failed,
        "problems": problems, "digest": main["digest"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
        "details": details,
    }


def print_result(result: dict) -> None:
    details = result["details"]
    digest = (result["digest"] or "")[:16] or "n/a"
    print(f"[{result['workload']}] seed {result['seed']}, "
          f"{result['seconds']:g} s, {'traced' if result['trace'] else 'untraced'}"
          f", digest {digest}")
    notes = {"setup_s": "median of 4 set-ups: 2 before, 2 after"}
    if result["workload"] != "serve-mixed":
        notes["wall_s"] = (f"fastest pieces over {details['rounds']} rounds, "
                           f"{details['details']['pieces_per_round']} "
                           f"pieces each")
        notes["p50_ms"] = notes["p99_ms"] = \
            f"n={details['latency_samples']} cells per round"
    else:
        notes["wall_s"] = (f"a pass of "
                           f"{details['details']['forecasts_per_pass']} "
                           f"forecasts, fastest waves over "
                           f"{details['details']['closed_loop_passes']} "
                           f"passes")
        notes["p50_ms"] = notes["p99_ms"] = \
            (f"median of {len(details['details']['window_p99_ms'])} "
             f"windows, n>={details['latency_samples']} requests each")
    for name, metric in result["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:30s} {metric['value']:14.6g} {metric['unit']}{note}")
    print(f"  {'bench.prep_s':30s} {details['prep_s']:14.6g} s")
    print(f"  {'bench.check_s':30s} {details['check_s']:14.6g} s")
    for key, value in details["details"].items():
        if isinstance(value, (int, float)):
            print(f"  {'bench.' + key:30s} {value:14.6g}")
        elif isinstance(value, dict) and value:
            print(f"  {'bench.' + key:30s} {json.dumps(value)}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"{'correct' if result['correct'] else 'INCORRECT'}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: report per-layer metrics from a traced run "
                             "(with --workload all: in addition to the "
                             "untraced run)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to keep result JSON and spans in "
                             "(default: a temporary one, removed at the end)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        return run(args, args.out.resolve())
    # Inside the checkout: the benchmark writes nowhere else.
    out = Path(tempfile.mkdtemp(prefix=".run-", dir=HERE))
    try:
        return run(args, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def run(args, out: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    sizing = "smoke" if args.smoke else "default"
    single = args.workload != "all"
    workloads = (args.workload,) if single else WORKLOADS
    passes = [bool(args.trace)] if single else [False] + [True] * args.trace
    runner = Runner(out, sizing, time.monotonic() + DEADLINE_SECONDS
                    * (1 if single else len(workloads) * len(passes)))
    env = environment()
    results = []
    try:
        for workload in workloads:
            for trace in passes:
                result = run_workload(runner, spec, workload, args.seed,
                                      seconds, trace)
                result["environment"] = env
                name = f"result-{workload}-s{args.seed}-t{int(trace)}-" \
                       f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
                (out / name).write_text(json.dumps(result, indent=1) + "\n")
                print_result(result)
                results.append(result)
    except ChildFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    digests = {r["workload"]: r["digest"] for r in results if not r["trace"]}
    problems = []
    if "table2" in digests and "table2-fast" in digests \
            and digests["table2"] != digests["table2-fast"]:
        problems.append("table2 and table2-fast digests differ")
        print("problem: table2 and table2-fast digests differ")
    if args.out is not None:
        print(f"results in {out}")
    correct = not problems and all(r["correct"] for r in results)
    if single:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": metric for r in results
                   for name, metric in r["metrics"].items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
