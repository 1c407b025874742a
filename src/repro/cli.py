"""Command-line interface: regenerate any table or figure of the paper.

Examples
--------
::

    ema-gnn cohort  --profile tiny            # cohort anatomy after preprocessing
    ema-gnn table2  --profile tiny            # Experiment A  (Table II)
    ema-gnn table3  --profile tiny            # Experiment B  (Table III)
    ema-gnn fig3    --profile tiny            # Experiment C  (Fig. 3)
    ema-gnn scenarios                         # Table I factor grid
    ema-gnn table2  --profile paper \\
            --jobs 8 --checkpoint t2.ckpt     # full-scale run: 8 workers,
                                              # resumable via the checkpoint
    ema-gnn table2  --profile paper --jobs 8 \\
            --retries 2 --cell-timeout 900 \\
            --on-error collect                # fault-tolerant full run:
                                              # retry flaky cells, kill hung
                                              # ones, aggregate over the
                                              # survivors (report n_failed)
    ema-gnn table2  --profile paper \\
            --backend stacked --stack-size 32 # train whole cohorts as one
                                              # parameter stack per cell
                                              # (bit-identical, much faster)
    ema-gnn table2  --profile paper --jit     # trace-capture JIT: record
                                              # epoch 1, verify epoch 2,
                                              # replay a fused plan for the
                                              # rest (bit-identical)
    ema-gnn table2  --profile paper \\
            --early-stop 20 --lr-schedule plateau
                                              # sweep mode: per-fit early
                                              # stopping + LR scheduling
                                              # (off by default)
    ema-gnn table2  --profile tiny --sanitize # debug: abort on the first
                                              # non-finite gradient, naming
                                              # the op that produced it
    ema-gnn table2  --profile tiny --profiler \\
            --profile-out prof/               # attach the op-level profiler
                                              # to every fit; print the
                                              # hot-op table and write a
                                              # Chrome trace + JSON report
    ema-gnn table2  --profile tiny --jit \\
            --explain-fallbacks               # per-cell summary of why
                                              # individuals fell off the
                                              # JIT/stacked fast paths
    ema-gnn export  --store runs/store        # fit a cohort and persist it
                                              # to a versioned model store
    ema-gnn serve   --store runs/store --demo # serve batched forecasts over
                                              # JSONL (bit-identical to
                                              # in-process predict)
    ema-gnn profile --target table2           # dedicated profiling run
    ema-gnn lint src/ tests/                  # repo-specific static analysis
    ema-gnn check                             # fast-path verdicts
                                              # for every registered model
    ema-gnn check --format json               # machine-readable verdicts
                                              # (CI diffs them against the
                                              # committed baseline)

(``--profile`` selects the experiment *scale*; the op-level wall-clock
profiler is ``--profiler`` / the ``profile`` subcommand.)
"""

from __future__ import annotations

import argparse
import sys
import time

from .experiments import (PROFILES, make_dataset, run_experiment_a,
                          run_experiment_b, run_experiment_c, scenario_grid,
                          TABLE1)
from .training import ExecutionPolicy, FaultPolicy, ParallelConfig

__all__ = ["main", "build_parser"]


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return number


def _nonnegative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return number


def _positive_float(value: str) -> float:
    number = float(value)
    if number <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return number


def _optimizer_names() -> tuple[str, ...]:
    from .optim import OPTIMIZER_REGISTRY

    return tuple(sorted(OPTIMIZER_REGISTRY))


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``ema-gnn`` argument parser (one subcommand per artifact)."""
    parser = argparse.ArgumentParser(
        prog="ema-gnn",
        description="Reproduction of 'Exploiting Individual Graph Structures "
                    "to Enhance EMA Forecasting' (ICDE 2024)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("cohort", "generate + preprocess the synthetic cohort and summarize it"),
        ("table2", "Experiment A: GNNs vs LSTM (Table II)"),
        ("table3", "Experiment B: graph structure and sparsity (Table III)"),
        ("fig3", "Experiment C: static vs MTGNN-learned graphs (Fig. 3)"),
        ("scenarios", "print the Table I scenario grid"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        if name != "scenarios":
            cmd.add_argument("--profile", choices=sorted(PROFILES), default="tiny",
                             help="experiment scale (default: tiny)")
            cmd.add_argument("--seed", type=int, default=None,
                             help="override the profile's seed")
            cmd.add_argument("--quiet", action="store_true",
                             help="suppress progress lines")
        if name in ("table2", "table3"):
            cmd.add_argument("--out", default=None, metavar="DIR",
                             help="also write CSV + Markdown results here")
        if name in ("table2", "table3", "fig3"):
            cmd.add_argument("--jobs", type=_positive_int, default=1,
                             metavar="N",
                             help="worker processes for the cohort loop "
                                  "(1 = serial; results are identical)")
            cmd.add_argument("--backend", choices=("process", "stacked"),
                             default="process",
                             help="cohort execution backend: per-individual "
                                  "fits in worker processes (process, "
                                  "default) or cross-individual parameter "
                                  "stacks trained in one pass (stacked; "
                                  "bit-identical results, ineligible cells "
                                  "fall back to the process path)")
            cmd.add_argument("--stack-size", type=_positive_int, default=32,
                             metavar="K",
                             help="with --backend stacked: max individuals "
                                  "trained per parameter stack (default: 32)")
            cmd.add_argument("--checkpoint", default=None, metavar="FILE",
                             help="journal completed cells here and resume "
                                  "an interrupted run from it (failed "
                                  "cells are retried on resume)")
            cmd.add_argument("--retries", type=_nonnegative_int, default=0,
                             metavar="N",
                             help="retry each failed cell up to N times "
                                  "with exponential backoff (default: 0)")
            cmd.add_argument("--cell-timeout", type=_positive_float,
                             default=None, metavar="SECONDS",
                             help="kill any cell running longer than this "
                                  "and count the attempt as failed "
                                  "(default: no timeout)")
            cmd.add_argument("--on-error", choices=("raise", "skip",
                                                    "collect"),
                             default="raise",
                             help="what to do with a cell that exhausts "
                                  "its retries: abort the run (raise, "
                                  "default), drop it (skip), or keep a "
                                  "structured failure record and report "
                                  "n_failed in the aggregate (collect)")
            cmd.add_argument("--inject-faults", default=None,
                             metavar="KIND[:EVERY[:TIMES]]",
                             help="deterministic fault injection for "
                                  "smoke-testing the fault-tolerance "
                                  "layer: KIND is exception|hang|nan|"
                                  "crash, EVERY selects every k-th cell "
                                  "(default 2), TIMES fails only the "
                                  "first t attempts (default: all)")
            cmd.add_argument("--early-stop", type=_positive_int,
                             default=None, metavar="PATIENCE",
                             help="stop each individual fit after PATIENCE "
                                  "epochs without improvement and restore "
                                  "the best weights (default: off — the "
                                  "paper's fixed epoch budget)")
            cmd.add_argument("--lr-schedule", choices=("step", "plateau"),
                             default=None,
                             help="per-fit learning-rate schedule "
                                  "(default: off — the paper's constant "
                                  "lr=0.01)")
            cmd.add_argument("--sanitize", action="store_true",
                             help="run every fit under detect_anomaly(): "
                                  "abort on the first non-finite gradient, "
                                  "naming the op that produced it "
                                  "(default: off — debugging aid)")
            cmd.add_argument("--optimizer", choices=_optimizer_names(),
                             default=None,
                             help="optimizer registry name for every fit "
                                  "(default: adam, the paper's choice)")
            cmd.add_argument("--jit", action="store_true",
                             help="trace-capture JIT: record each fit's "
                                  "first epoch, verify the second, replay "
                                  "a fused plan for the rest (bit-"
                                  "identical; unstable graphs fall back "
                                  "to the eager loop automatically)")
            cmd.add_argument("--sparse", choices=("auto", "always", "never"),
                             default="auto",
                             help="dense/sparse graph-kernel routing: "
                                  "engage the CSR path past the measured "
                                  "density crossover (auto, default), "
                                  "force it everywhere (always), or "
                                  "disable it (never); dense and sparse "
                                  "agree to rounding, not bitwise")
            cmd.add_argument("--profiler", action="store_true",
                             help="attach the op-level profiler to every "
                                  "fit and print the aggregated hot-op "
                                  "table (not to be confused with "
                                  "--profile, the experiment scale)")
            cmd.add_argument("--profile-out", default=None, metavar="DIR",
                             help="with --profiler: also write trace.json "
                                  "(chrome://tracing) and profile.json here")
            cmd.add_argument("--explain-fallbacks", action="store_true",
                             help="after the table, print a per-cell "
                                  "summary of why individuals fell back "
                                  "off the JIT / stacked fast paths; with "
                                  "--out, adds {column}_fallback_reason "
                                  "columns to the CSV (off by default — "
                                  "the CSV format is unchanged without it)")
    prof = sub.add_parser(
        "profile", help="profile one experiment's hot ops and write a "
                        "Chrome trace")
    prof.add_argument("--target", choices=("table2", "table3", "fig3"),
                      default="table2",
                      help="experiment to profile (default: table2)")
    prof.add_argument("--profile", choices=sorted(PROFILES), default="tiny",
                      help="experiment scale (default: tiny)")
    prof.add_argument("--seed", type=int, default=None,
                      help="override the profile's seed")
    prof.add_argument("--quiet", action="store_true",
                      help="suppress progress lines")
    prof.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                      help="worker processes for the cohort loop")
    prof.add_argument("--jit", action="store_true",
                      help="profile the trace-replay epoch loop instead of "
                           "the eager one")
    prof.add_argument("--out", default="profile", metavar="DIR",
                      help="directory for trace.json + profile.json "
                           "(default: ./profile)")
    export = sub.add_parser(
        "export", help="fit a cohort and persist it to a versioned model "
                       "store for serving")
    export.add_argument("--store", required=True, metavar="DIR",
                        help="model store directory (created if missing)")
    export.add_argument("--model", default="a3tgcn", metavar="NAME",
                        help="registry model to fit (default: a3tgcn)")
    export.add_argument("--seq-len", type=_positive_int, default=4,
                        metavar="L", help="input window length (default: 4)")
    export.add_argument("--graph-method", default="correlation",
                        help="graph construction method (default: "
                             "correlation)")
    export.add_argument("--gdt", type=_positive_float, default=0.2,
                        metavar="FRACTION",
                        help="graph density threshold (default: 0.2)")
    export.add_argument("--epochs", type=_positive_int, default=None,
                        metavar="N",
                        help="override the trainer's epoch budget")
    export.add_argument("--version", default=None, metavar="ID",
                        help="version id to save under (default: content-"
                             "derived)")
    export.add_argument("--profile", choices=sorted(PROFILES),
                        default="tiny",
                        help="synthetic cohort scale (default: tiny)")
    export.add_argument("--seed", type=int, default=None,
                        help="override the profile's seed")
    export.add_argument("--jobs", type=_positive_int, default=1,
                        metavar="N", help="worker processes for the fit")
    export.add_argument("--quiet", action="store_true",
                        help="suppress progress lines")
    serve = sub.add_parser(
        "serve", help="serve forecasts from a model store over JSONL "
                      "(stdin/file in, stdout out)")
    serve.add_argument("--store", required=True, metavar="DIR",
                       help="model store directory to serve from")
    serve.add_argument("--version", default=None, metavar="ID",
                       help="store version to serve (default: latest)")
    serve.add_argument("--requests", default=None, metavar="FILE",
                       help="JSONL request file ('-' for stdin)")
    serve.add_argument("--demo", action="store_true",
                       help="serve one stored-tail request per individual "
                            "instead of reading --requests (smoke test)")
    serve.add_argument("--out", default=None, metavar="FILE",
                       help="write JSONL responses here (default: stdout)")
    serve.add_argument("--max-batch-size", type=_positive_int, default=32,
                       metavar="K",
                       help="micro-batch flush threshold (default: 32)")
    serve.add_argument("--max-linger", type=float, default=0.05,
                       metavar="SECONDS",
                       help="max time a request may wait for batchmates "
                            "(default: 0.05)")
    serve.add_argument("--timeout", type=_positive_float, default=None,
                       metavar="SECONDS",
                       help="per-request deadline (default: none)")
    serve.add_argument("--no-stacked", action="store_true",
                       help="disable the batched stacked path (eager "
                            "per-request inference only)")
    serve.add_argument("--strict", action="store_true",
                       help="fail on corrupt store entries instead of "
                            "degrading to the loadable subset")
    lint = sub.add_parser(
        "lint", help="repo-specific static analysis (REPROxxx rules)")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to lint "
                           "(default: the repro package)")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="output format (default: text)")
    check = sub.add_parser(
        "check", help="fast-path verdicts: run two probe epochs of every "
                      "registered model through the real trace-capture JIT "
                      "and report whether it replays them and whether the "
                      "stacked backend accepts the model")
    check.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default: text); json emits the "
                            "full verdict records")
    check.add_argument("--baseline", default=None, metavar="FILE",
                       help="compare verdicts against this baseline JSON "
                            "and exit non-zero on any drift (default: the "
                            "committed fastpath_baseline.json)")
    check.add_argument("--no-baseline", action="store_true",
                       help="skip the baseline comparison")
    check.add_argument("--write-baseline", action="store_true",
                       help="regenerate the baseline file from the current "
                            "verdicts instead of comparing")
    return parser


def _export_table(result, command: str, out_dir: str,
                  fallback_reasons: dict | None = None) -> None:
    from pathlib import Path

    from .evaluation import (write_per_individual_csv, write_table_csv,
                             write_table_markdown)

    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    columns = list(result.columns)
    title = {"table2": "Table II (Experiment A)",
             "table3": "Table III (Experiment B)"}[command]
    written = [
        write_table_csv(directory / f"{command}.csv", result.rows, columns,
                        fallback_reasons=fallback_reasons),
        write_table_markdown(directory / f"{command}.md", title,
                             result.rows, columns),
        write_per_individual_csv(directory / f"{command}_per_individual.csv",
                                 result.rows, columns),
    ]
    for path in written:
        print(f"wrote {path}")


def _fallback_summaries(result) -> dict:
    """Per-cell summaries of why individuals fell off a fast path.

    Keys are the runner's raw ``(row label, column)`` pairs; values
    aggregate the distinct :attr:`IndividualResult.fallback_reason`
    strings in the cell with their frequency, e.g.
    ``"a constant input changed value between epochs [8/8]"``.  Cells
    where everyone took the fast path (or none was requested) are absent.
    """
    from collections import Counter

    summaries: dict = {}
    for key, individual_results in getattr(result, "raw", {}).items():
        reasons = Counter(getattr(item, "fallback_reason", None)
                          for item in individual_results)
        reasons.pop(None, None)
        if not reasons:
            continue
        total = len(individual_results)
        summaries[key] = "; ".join(
            f"{reason} [{count}/{total}]"
            for reason, count in sorted(reasons.items()))
    return summaries


def _report_fallbacks(result) -> None:
    """Print the per-cell fast-path fallback summary (opt-in)."""
    summaries = _fallback_summaries(result)
    print()
    if not summaries:
        print("fast-path fallbacks: none — every cell took the fast "
              "path(s) it requested (or none was enabled)")
        return
    print("fast-path fallbacks:")
    for (row, column), summary in summaries.items():
        print(f"  {row} / {column}: {summary}")


def _run_check(args) -> int:
    """``ema-gnn check``: fast-path verdicts + optional baseline gate."""
    import json

    from .analysis import fastpath

    verdicts = fastpath.check_registry()
    baseline_path = args.baseline if args.baseline is not None \
        else fastpath.BASELINE_PATH
    if args.write_baseline:
        fastpath.write_baseline(baseline_path, verdicts)
        print(f"wrote {baseline_path}")
        return 0
    if args.format == "json":
        print(json.dumps({"verdicts": [v.to_dict() for v in verdicts],
                          "summary": fastpath.baseline_summary(verdicts)},
                         indent=2))
    else:
        print(f"fast-path verdicts ({len(verdicts)} registered models):")
        for v in verdicts:
            trace = "traceable" if v.traceable else "no-jit"
            stack = "stackable" if v.stackable else "no-stack"
            print(f"  {v.model:<12} {v.family:<12} {trace:<10} {stack}")
            for hit in v.hazards:
                print(f"      [{hit.code}] {hit.message}")
            if v.error is not None:
                print(f"      [error] {v.error}")
            for blocker in v.stack_blockers:
                print(f"      [stack] {blocker}")
    if args.no_baseline:
        return 0
    from pathlib import Path

    if not Path(baseline_path).exists():
        print(f"error: baseline {baseline_path} not found (create it with "
              "--write-baseline, or skip the drift check with "
              "--no-baseline)", file=sys.stderr)
        return 2
    diffs = fastpath.diff_baseline(verdicts,
                                   fastpath.load_baseline(baseline_path))
    if diffs:
        print(f"\nverdicts drifted from baseline {baseline_path}:",
              file=sys.stderr)
        for diff in diffs:
            print(f"  {diff}", file=sys.stderr)
        print("(intentional? regenerate with: ema-gnn check "
              "--write-baseline)", file=sys.stderr)
        return 1
    return 0


def _config(args):
    from dataclasses import replace

    config = PROFILES[args.profile]
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if getattr(args, "early_stop", None) is not None:
        config = replace(config, early_stop_patience=args.early_stop)
    if getattr(args, "lr_schedule", None) is not None:
        config = replace(config, lr_schedule=args.lr_schedule)
    if getattr(args, "sanitize", False):
        config = replace(config, sanitize=True)
    if getattr(args, "optimizer", None) is not None:
        config = replace(config, optimizer=args.optimizer)
    if getattr(args, "profiler", False) or args.command == "profile":
        config = replace(config, profile=True)
    if getattr(args, "jit", False):
        config = replace(config, jit=True)
    if getattr(args, "sparse", "auto") != "auto":
        config = replace(config, sparse=args.sparse)
    return config


def _collect_profile_reports(result) -> list:
    """Pull every per-fit ProfileReport off a runner result's raw cells."""
    reports = []
    for key, individual_results in getattr(result, "raw", {}).items():
        condition = "/".join(str(part) for part in key)
        for item in individual_results:
            history = getattr(item, "history", None)
            report = getattr(history, "profile", None)
            if report is not None:
                report.label = f"{condition}/{item.identifier}"
                reports.append(report)
    return reports


def _emit_profile(result, out_dir: str | None) -> int:
    """Print the merged hot-op table; optionally write trace + JSON files."""
    import json
    from pathlib import Path

    from .profiling import ProfileReport, write_chrome_trace

    reports = _collect_profile_reports(result)
    if not reports:
        print("no profile reports collected (profiler produced no data)",
              file=sys.stderr)
        return 1
    merged = ProfileReport.merge(reports, label="all fits")
    print()
    print(merged.render())
    if out_dir:
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        trace = write_chrome_trace(directory / "trace.json", reports)
        summary = directory / "profile.json"
        summary.write_text(json.dumps(merged.to_json(), indent=2))
        print(f"wrote {trace}")
        print(f"wrote {summary}")
    return 0


def _progress(args):
    if args.quiet:
        return None

    def report(label: str) -> None:
        print(f"  [{time.strftime('%H:%M:%S')}] {label}", file=sys.stderr)

    return report


def _injector(spec: str | None):
    """Parse ``--inject-faults KIND[:EVERY[:TIMES]]`` into a FaultInjector."""
    if spec is None:
        return None
    from .training import inject_faults

    parts = spec.split(":")
    if len(parts) > 3:
        raise SystemExit(f"error: bad --inject-faults spec {spec!r} "
                         "(expected KIND[:EVERY[:TIMES]])")
    try:
        kind = parts[0]
        every = int(parts[1]) if len(parts) > 1 else 2
        times = int(parts[2]) if len(parts) > 2 else None
        return inject_faults(kind, every=every, times=times)
    except ValueError as error:
        raise SystemExit(f"error: bad --inject-faults spec {spec!r}: {error}")


def _parallel(args):
    """Build the cohort scheduler config from the ``--jobs``/``--checkpoint``
    and fault-tolerance (``--retries``/``--cell-timeout``/``--on-error``)
    flags."""
    if not hasattr(args, "jobs"):
        return None
    cell_progress = None
    if not args.quiet:
        def cell_progress(done: int, total: int, label: str,
                          eta: float | None) -> None:
            eta_text = "" if eta is None \
                else f", eta {int(eta) // 60:02d}:{int(eta) % 60:02d}"
            print(f"    cell {done}/{total}{eta_text} — {label}",
                  file=sys.stderr)
    return ParallelConfig(
        checkpoint=getattr(args, "checkpoint", None),
        progress=cell_progress,
        execution=ExecutionPolicy(
            jobs=args.jobs,
            backend=getattr(args, "backend", "process"),
            stack_size=getattr(args, "stack_size", 32)),
        faults=FaultPolicy(
            retries=getattr(args, "retries", 0),
            timeout=getattr(args, "cell_timeout", None),
            on_error=getattr(args, "on_error", "raise"),
            fault_injector=_injector(
                getattr(args, "inject_faults", None))))


def _collect_failures(result) -> list:
    """Pull every collected CellFailure off a runner result's raw cells."""
    from .training import CellFailure

    failures = []
    for individual_results in getattr(result, "raw", {}).values():
        failures.extend(item for item in individual_results
                        if isinstance(item, CellFailure))
    return failures


def _report_failures(result) -> None:
    """Summarize collected failures on stderr (collect mode only)."""
    failures = _collect_failures(result)
    if not failures:
        return
    print(f"\n{len(failures)} cell(s) failed and were excluded from the "
          f"aggregates above (n_failed):", file=sys.stderr)
    for failure in failures:
        print(f"  {failure}", file=sys.stderr)


def _run_export(args) -> int:
    """``ema-gnn export``: fit the synthetic cohort, persist for serving."""
    from . import api
    from .training import TrainerConfig

    config = PROFILES[args.profile]
    if args.seed is not None:
        from dataclasses import replace

        config = replace(config, seed=args.seed)
    dataset = make_dataset(config)
    trainer_config = None
    if args.epochs is not None:
        trainer_config = TrainerConfig(epochs=args.epochs)
    parallel = None
    if args.jobs > 1:
        parallel = ParallelConfig(execution=ExecutionPolicy(jobs=args.jobs))
    if not args.quiet:
        print(f"fitting {args.model} on {len(dataset)} individuals "
              f"(profile={args.profile}, seq_len={args.seq_len})...",
              file=sys.stderr)
    handle = api.fit_cohort(dataset, args.model, args.seq_len,
                            graph_method=args.graph_method, gdt=args.gdt,
                            trainer_config=trainer_config,
                            seed=config.seed, parallel=parallel)
    version = handle.save(args.store, version=args.version,
                          metadata={"profile": args.profile,
                                    "model": args.model})
    print(f"exported {len(handle.individuals)} individuals to "
          f"{args.store} as version {version}")
    return 0


def _run_serve(args) -> int:
    """``ema-gnn serve``: JSONL forecasts out of a model store."""
    import json
    from pathlib import Path

    from .serving import ForecastService, StoreError

    try:
        service = ForecastService(args.store, args.version,
                                  max_batch_size=args.max_batch_size,
                                  max_linger=args.max_linger,
                                  use_stacked=not args.no_stacked,
                                  default_timeout=args.timeout,
                                  strict=args.strict)
    except StoreError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.demo:
        lines = [json.dumps(request)
                 for request in service.demo_requests()]
    elif args.requests is None:
        print("error: pass --requests FILE ('-' for stdin) or --demo",
              file=sys.stderr)
        return 2
    elif args.requests == "-":
        lines = sys.stdin
    else:
        lines = Path(args.requests).read_text().splitlines()
    results = service.run(lines)
    rendered = "\n".join(json.dumps(result) for result in results)
    if args.out:
        Path(args.out).write_text(rendered + "\n" if rendered else "")
        print(f"wrote {args.out}", file=sys.stderr)
    elif rendered:
        print(rendered)
    ok = sum(1 for result in results if result.get("ok"))
    batched = sum(1 for result in results
                  if result.get("ok") and result.get("batched"))
    print(f"served {ok}/{len(results)} requests "
          f"(version {service.version}, {batched} batched)",
          file=sys.stderr)
    return 0 if ok == len(results) else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "export":
        return _run_export(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "lint":
        from .analysis.cli import run as lint_run

        return lint_run(args.paths, args.format)

    if args.command == "check":
        return _run_check(args)

    if args.command == "scenarios":
        print("Table I: examined scenarios")
        for factor, levels in TABLE1.items():
            print(f"  {factor}: {', '.join(levels)}")
        print()
        scenarios = list(scenario_grid())
        print(f"{len(scenarios)} concrete (model, graph, GDT, seq) conditions, e.g.:")
        for scenario in scenarios[:8]:
            print(f"  {scenario.label()}")
        return 0

    config = _config(args)
    dataset = make_dataset(config)

    if args.command == "cohort":
        summary = dataset.summary()
        print("Synthetic EMA cohort after preprocessing "
              f"(profile={args.profile}, seed={config.seed}):")
        for key, value in summary.items():
            print(f"  {key}: {value}")
        print(f"  variables: {', '.join(dataset.variable_names)}")
        return 0

    runners = {"table2": run_experiment_a,
               "table3": run_experiment_b,
               "fig3": run_experiment_c}

    from .training import CohortExecutionError

    if args.command == "profile":
        runner = runners[args.target]
        result = runner(dataset, config, progress=_progress(args),
                        parallel=_parallel(args))
        return _emit_profile(result, args.out)

    runner = runners[args.command]
    try:
        result = runner(dataset, config, progress=_progress(args),
                        parallel=_parallel(args))
    except CohortExecutionError as error:
        # on_error=raise (the default): a cell exhausted its retry budget
        # and the run aborted.  --on-error skip/collect degrades instead.
        print(f"error: {error}", file=sys.stderr)
        if error.failure.traceback:
            print(error.failure.traceback, file=sys.stderr)
        return 1
    print(result.render())
    _report_failures(result)
    explain = getattr(args, "explain_fallbacks", False)
    if explain:
        _report_fallbacks(result)
    if getattr(args, "out", None) and args.command in ("table2", "table3"):
        _export_table(result, args.command, args.out,
                      fallback_reasons=_fallback_summaries(result)
                      if explain else None)
    if getattr(args, "profiler", False):
        status = _emit_profile(result, getattr(args, "profile_out", None))
        if status:
            return status
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
