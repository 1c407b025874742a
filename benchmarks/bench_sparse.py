"""Benchmark of the CSR sparse graph kernels vs the dense matmul path.

Sweeps V in {26, 100, 500, 2000} x structural density in
{0.1, 0.2, 0.4, 1.0} for float32 and float64, timing the propagation
``A_hat @ X`` (X is ``(V, H)`` with H = 32, the repo's graph-model hidden
scale) through :func:`repro.nn.sparse.spmm` against numpy's dense matmul.
Every swept cell asserts the dense/sparse agreement contract: the CSR
backends accumulate each output element sequentially in CSR row order and
are bitwise identical to each other, while dense BLAS uses blocked
summation — so dense vs sparse is a *documented tolerance* contract
(see DESIGN.md), asserted here at rtol 1e-5 (float32) / 1e-12 (float64).

The ISSUE target is >= 3x over the dense path at V = 500 with density
<= 0.2.  That holds for the compiled AVX kernel at float64 (measured
3-4x); it is always *reported* and enforced under ``REPRO_BENCH_STRICT=1``
(skipped with a loud message if only the scipy fallback backend is
available, which cannot reach it).

A second section reports graphical-lasso structure discovery vs GDT
thresholding on the synthetic EMA cohort: at matched GDT settings the
glasso graph is sparser, because its zeros are structural (conditional
independence) rather than a magnitude cut.

Run standalone for the CI smoke: ``python benchmarks/bench_sparse.py
--quick``.  Both entry points write ``BENCH_sparse.json`` at the repo
root.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

SPEEDUP_TARGET = 3.0          # f64, V=500, density <= 0.2 headline cell
HIDDEN = 32                   # graph-model hidden scale for X
REPEATS = 15                  # best-of timing, absorbs scheduler noise
TOLERANCE = {"float32": 1e-5, "float64": 1e-12}   # dense vs sparse rtol

FULL_SIZES = (26, 100, 500, 2000)
FULL_DENSITIES = (0.1, 0.2, 0.4, 1.0)
QUICK_SIZES = (26, 100)
QUICK_DENSITIES = (0.2, 1.0)

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sparse.json"


def _random_operator(v: int, target_density: float, dtype,
                     rng: np.random.Generator) -> np.ndarray:
    """Symmetric row-normalized operator with ~target structural density."""
    dense = rng.random((v, v))
    dense = (dense + dense.T) / 2.0
    keep = dense < np.quantile(dense, target_density)
    weights = rng.random((v, v))
    weights = (weights + weights.T) / 2.0
    operator = np.where(keep, weights, 0.0)
    np.fill_diagonal(operator, 1.0)
    operator /= operator.sum(axis=1, keepdims=True)
    return np.ascontiguousarray(operator, dtype=dtype)


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_cell(v: int, target_density: float, dtype,
               rng: np.random.Generator) -> dict:
    from repro.nn.sparse import CSRMatrix, sparse_backend, spmm

    dtype = np.dtype(dtype)
    operator = _random_operator(v, target_density, dtype, rng)
    x = np.ascontiguousarray(rng.standard_normal((v, HIDDEN)), dtype=dtype)
    csr = CSRMatrix.from_dense(operator)

    dense_out = operator @ x
    sparse_out = spmm(csr, x)
    rtol = TOLERANCE[dtype.name]
    scale = max(np.abs(dense_out).max(), 1.0)
    err = np.abs(sparse_out - dense_out).max() / scale
    assert err <= rtol, (
        f"V={v} density={target_density} {dtype.name}: dense/sparse "
        f"relative error {err:.3e} exceeds documented tolerance {rtol:.0e}")

    dense_seconds = _best_of(lambda: operator @ x)
    sparse_seconds = _best_of(lambda: spmm(csr, x))
    return {"num_nodes": v, "target_density": target_density,
            "structural_density": csr.structural_density,
            "dtype": dtype.name, "backend": sparse_backend(),
            "dense_seconds": dense_seconds,
            "sparse_seconds": sparse_seconds,
            "speedup": dense_seconds / sparse_seconds,
            "max_relative_error": float(err)}


def bench_glasso(seed: int = 42) -> dict:
    """Structure discovery vs thresholding on the synthetic EMA cohort."""
    from repro.data import SynthesisConfig, generate_cohort
    from repro.graphs import density, get_graph_builder

    cohort = generate_cohort(SynthesisConfig(num_individuals=3,
                                             num_days=18, seed=seed))
    glasso = get_graph_builder("graphical_lasso")
    threshold = get_graph_builder("partial_correlation")
    rows = []
    for individual in cohort.individuals:
        series = np.asarray(individual.values, dtype=np.float64)
        for gdt in (0.2, 0.4, 1.0):
            d_glasso = density(glasso(series, gdt=gdt))
            d_threshold = density(threshold(series, gdt=gdt))
            assert d_glasso < d_threshold, (
                f"{individual.identifier} gdt={gdt}: glasso density "
                f"{d_glasso:.3f} not sparser than thresholding "
                f"{d_threshold:.3f}")
            rows.append({"identifier": individual.identifier, "gdt": gdt,
                         "glasso_density": d_glasso,
                         "threshold_density": d_threshold})
    return {"individuals": len(cohort.individuals), "rows": rows}


def run_bench(sizes, densities, strict: bool | None = None) -> dict:
    from repro.nn.sparse import sparse_backend

    if strict is None:
        strict = os.environ.get("REPRO_BENCH_STRICT") == "1"
    rng = np.random.default_rng(0)
    cells = []
    print(f"\nCSR sparse kernels vs dense matmul "
          f"(backend: {sparse_backend()}, H={HIDDEN}, best of {REPEATS})")
    print(f"  {'V':>5} {'density':>8} {'dtype':>8} {'dense':>10} "
          f"{'sparse':>10} {'speedup':>8}")
    for v in sizes:
        for target_density in densities:
            for dtype in (np.float32, np.float64):
                cell = bench_cell(v, target_density, dtype, rng)
                cells.append(cell)
                print(f"  {cell['num_nodes']:>5} "
                      f"{cell['structural_density']:>8.3f} "
                      f"{cell['dtype']:>8} "
                      f"{cell['dense_seconds'] * 1e6:>8.1f}us "
                      f"{cell['sparse_seconds'] * 1e6:>8.1f}us "
                      f"x{cell['speedup']:>6.2f}")

    headline = [c for c in cells
                if c["num_nodes"] == 500 and c["dtype"] == "float64"
                and c["target_density"] <= 0.2]
    best = max((c["speedup"] for c in headline), default=None)
    if best is not None:
        met = "met" if best >= SPEEDUP_TARGET else "NOT met on this host"
        print(f"  target >= {SPEEDUP_TARGET:.0f}x at V=500, density <= 0.2, "
              f"float64: x{best:.2f} ({met})")
        if strict:
            if sparse_backend() != "compiled":
                print("  strict target SKIPPED: no C compiler, "
                      f"{sparse_backend()} fallback backend cannot reach it")
            else:
                assert best >= SPEEDUP_TARGET, (
                    f"strict mode: x{best:.2f} < x{SPEEDUP_TARGET:.0f}")

    glasso = bench_glasso()
    sample = glasso["rows"][0]
    print(f"  glasso vs thresholding (gdt={sample['gdt']}): "
          f"density {sample['glasso_density']:.3f} vs "
          f"{sample['threshold_density']:.3f} (discovered zeros win)")
    return {"benchmark": "CSR sparse graph kernels vs dense matmul",
            "hidden": HIDDEN, "repeats": REPEATS,
            "target_speedup": SPEEDUP_TARGET,
            "tolerance": TOLERANCE,
            "backend": sparse_backend(),
            "headline_speedup": best,
            "cells": cells,
            "graphical_lasso": glasso}


def _write_report(payload: dict) -> None:
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {RESULT_PATH}")


def test_sparse_kernels_quick():
    # Tier-2 entry point: parity at every cell, floor-free timing report.
    payload = run_bench(QUICK_SIZES, QUICK_DENSITIES, strict=False)
    _write_report(payload)
    assert all(c["max_relative_error"] <= TOLERANCE[c["dtype"]]
               for c in payload["cells"])


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: small sizes, parity + timing only "
                             "(no strict target)")
    args = parser.parse_args(argv)
    if args.quick:
        payload = run_bench(QUICK_SIZES, QUICK_DENSITIES, strict=False)
    else:
        payload = run_bench(FULL_SIZES, FULL_DENSITIES)
    _write_report(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
