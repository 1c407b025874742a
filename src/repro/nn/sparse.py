"""CSR sparse graph kernels with a density-based dense/sparse autoswitch.

The paper's best configurations keep only 20-40 % of edges (GDT), yet the
dense graph convolutions multiply full ``(V, V)`` operators.  This module
provides the sparse path:

* :class:`CSRMatrix` — a minimal immutable CSR container for graph
  operators (``indptr`` int64, ``indices`` int32, ``data`` float32/64).
* :func:`spmm` — CSR @ dense, backed by a lazily compiled C kernel
  (AVX-512 intrinsics with a portable fallback, see ``_spmm.c``) when it
  builds and passes its bitwise self-check, else ``scipy.sparse``.
* :func:`csr_matmul` — the autodiff op.  Forward and backward both run
  through :func:`spmm`; the operator is a constant (graph structure is
  not differentiated through this path — learned graphs stay dense).
* :func:`should_use_sparse` — the autoswitch: sparse wins only past a
  measured node count and below a measured density crossover, both of
  which depend on the active backend.  Overridable per process with
  :func:`set_sparse_mode` (``auto`` / ``always`` / ``never``), which the
  config / CLI layer threads through experiments and cohort cells.

Numerical contract: both spmm backends accumulate each output element
sequentially over the row's nonzeros in CSR order, so backends are
mutually bitwise identical (probed at load time; a compiled kernel
that disagrees with the pure-python reference is discarded).  The dense
BLAS path uses blocked summation, so dense vs sparse agree only to
rounding (~1e-7 rel for float32, ~1e-15 for float64); the benchmark and
parity tests assert that documented tolerance at every cell.
"""

from __future__ import annotations

import atexit
import ctypes
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from ..autodiff import Tensor
from ..autodiff.tensor import get_default_dtype

__all__ = [
    "CSRMatrix",
    "csr_matmul",
    "spmm",
    "sparse_backend",
    "set_sparse_mode",
    "get_sparse_mode",
    "should_use_sparse",
    "gcn_routes_sparse",
    "SPARSE_MODES",
    "SPARSE_MIN_NODES",
    "SPARSE_DENSITY_CROSSOVER",
]

SPARSE_MODES = ("auto", "always", "never")

#: Below this node count the dense BLAS call is so cheap that CSR
#: bookkeeping dominates regardless of density (measured: at V = 100 the
#: compiled kernel only ties dense at density 0.1).
SPARSE_MIN_NODES = 128

#: Structural-density crossover per backend per dtype: the autoswitch
#: routes sparse when density <= crossover.  Measured on an AVX-512 dev
#: container against single-threaded OpenBLAS GEMM at V = 500 (see
#: benchmarks/bench_sparse.py and DESIGN.md for methodology); values are
#: set conservatively below the raw break-even point to absorb op
#: overhead.  scipy's csr_matmat is an order of magnitude slower than
#: the compiled kernel, so its crossover is correspondingly tiny.
SPARSE_DENSITY_CROSSOVER = {
    "compiled": {"float32": 0.20, "float64": 0.30},
    "scipy": {"float32": 0.02, "float64": 0.05},
}

_SPARSE_MODE = "auto"


def set_sparse_mode(mode: str) -> None:
    """Set the process-wide sparse routing mode (``auto``/``always``/``never``)."""

    global _SPARSE_MODE
    if mode not in SPARSE_MODES:
        raise ValueError(
            f"sparse mode must be one of {SPARSE_MODES}, got {mode!r}"
        )
    _SPARSE_MODE = mode


def get_sparse_mode() -> str:
    """Return the process-wide sparse routing mode."""

    return _SPARSE_MODE


class CSRMatrix:
    """Immutable CSR matrix used as a constant graph operator.

    ``indptr`` is int64, ``indices`` int32, ``data`` float32 or float64.
    The component arrays are marked read-only; the transpose is built
    lazily and cached (and is ``self`` for numerically symmetric
    matrices, which covers the normalized-adjacency operators).
    """

    __slots__ = ("indptr", "indices", "data", "shape", "_transpose", "_scipy")

    def __init__(self, indptr, indices, data, shape):
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int32)
        data = np.ascontiguousarray(data)
        if data.dtype not in (np.float32, np.float64):  # repro: noqa[REPRO005] — CSR kernel supports exactly these two dtypes
            raise TypeError(
                f"CSRMatrix data must be float32 or float64, got {data.dtype}"
            )
        rows, cols = int(shape[0]), int(shape[1])
        if indptr.shape != (rows + 1,):
            raise ValueError(
                f"indptr must have shape ({rows + 1},), got {indptr.shape}"
            )
        if indices.shape != data.shape or indices.ndim != 1:
            raise ValueError("indices and data must be 1-D and equal length")
        if indptr[0] != 0 or indptr[-1] != indices.shape[0]:
            raise ValueError("indptr must start at 0 and end at nnz")
        for array in (indptr, indices, data):
            array.setflags(write=False)
        self.indptr = indptr
        self.indices = indices
        self.data = data  # repro: noqa[REPRO003] — CSR component array, not a Tensor payload
        self.shape = (rows, cols)
        self._transpose = None
        self._scipy = None

    @classmethod
    def from_dense(cls, matrix: np.ndarray, dtype=None) -> "CSRMatrix":
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
        if dtype is None:
            dtype = (matrix.dtype  # repro: noqa[REPRO005] — preserve an already-float dense dtype
                     if matrix.dtype in (np.float32, np.float64)  # repro: noqa[REPRO005]
                     else np.dtype(get_default_dtype()))
        matrix = matrix.astype(dtype, copy=False)
        mask = matrix != 0
        indptr = np.zeros(matrix.shape[0] + 1, dtype=np.int64)
        np.cumsum(mask.sum(axis=1), out=indptr[1:])
        rows, cols = np.nonzero(mask)
        return cls(indptr, cols.astype(np.int32), matrix[rows, cols], matrix.shape)

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def structural_density(self) -> float:
        """Fraction of stored entries, diagonal included: nnz / (rows * cols)."""

        rows, cols = self.shape
        return self.nnz / float(rows * cols) if rows and cols else 0.0

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        rows = np.repeat(
            np.arange(self.shape[0]), np.diff(self.indptr).astype(np.intp)
        )
        out[rows, self.indices] = self.data
        return out

    @property
    def T(self) -> "CSRMatrix":
        if self._transpose is None:
            rows, cols = self.shape
            order = np.argsort(self.indices, kind="stable")
            counts = np.bincount(self.indices, minlength=cols)
            tindptr = np.zeros(cols + 1, dtype=np.int64)
            np.cumsum(counts, out=tindptr[1:])
            row_of = np.repeat(
                np.arange(rows, dtype=np.int32),
                np.diff(self.indptr).astype(np.intp),
            )
            transpose = CSRMatrix(
                tindptr, row_of[order], self.data[order], (cols, rows)
            )
            if self.same_values(transpose):
                transpose = self
            else:
                transpose._transpose = self
            self._transpose = transpose
        return self._transpose

    def same_values(self, other: "CSRMatrix") -> bool:
        """Exact structural + numerical equality (used by the trace verifier)."""

        return (
            self is other
            or (
                self.shape == other.shape
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.data, other.data)
            )
        )

    def __matmul__(self, x):
        if isinstance(x, np.ndarray):
            return spmm(self, x)
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"dtype={self.data.dtype}, density={self.structural_density:.3f})"
        )


# --------------------------------------------------------------------------
# spmm backends: compiled C kernel -> scipy.sparse.


def _reference_spmm(operator: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """Strictly sequential two-loop reference; the bitwise ground truth."""

    out = np.zeros((operator.shape[0], x.shape[1]), dtype=x.dtype)
    indptr, indices, data = operator.indptr, operator.indices, operator.data
    for i in range(operator.shape[0]):
        for p in range(indptr[i], indptr[i + 1]):
            out[i] += data[p] * x[indices[p]]
    return out


def _load_compiled():
    """Compile _spmm.c with the host compiler and load it via ctypes.

    Returns the loaded library or ``None`` if no compiler is available,
    compilation fails, or the kernel fails the bitwise self-check.  The
    build directory is a temp dir removed at interpreter exit.
    """

    source = Path(__file__).with_name("_spmm.c")
    if not source.is_file():
        return None
    compiler = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if compiler is None:
        return None
    build_dir = tempfile.mkdtemp(prefix="repro-spmm-")
    atexit.register(shutil.rmtree, build_dir, ignore_errors=True)
    lib_path = os.path.join(build_dir, "_spmm.so")
    # -ffp-contract=off: a contracted a*b+c (FMA) rounds once where the
    # other backends round twice, breaking the bitwise backend contract.
    cmd = [compiler, "-O3", "-march=native", "-ffp-contract=off", "-fPIC",
           "-shared", "-o", lib_path, str(source)]
    try:
        subprocess.run(cmd, check=True, capture_output=True, timeout=120)
        lib = ctypes.CDLL(lib_path)
    except (OSError, subprocess.SubprocessError):
        return None
    for name, float_t in (("csr_spmm_f32", ctypes.c_float),
                          ("csr_spmm_f64", ctypes.c_double)):
        fn = getattr(lib, name, None)
        if fn is None:
            return None
        fn.restype = None
        fn.argtypes = [
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.POINTER(ctypes.c_int64),
            ctypes.POINTER(ctypes.c_int32),
            ctypes.POINTER(float_t),
            ctypes.POINTER(float_t),
            ctypes.POINTER(float_t),
        ]
    return lib


def _compiled_spmm(lib, operator: CSRMatrix, x: np.ndarray, out: np.ndarray) -> None:
    if x.dtype == np.float32:  # repro: noqa[REPRO005] — dispatch to the matching C entry point
        fn, float_t = lib.csr_spmm_f32, ctypes.c_float
    else:
        fn, float_t = lib.csr_spmm_f64, ctypes.c_double
    float_p = ctypes.POINTER(float_t)
    fn(
        operator.shape[0],
        x.shape[1],
        operator.indptr.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
        operator.indices.ctypes.data_as(ctypes.POINTER(ctypes.c_int32)),
        operator.data.ctypes.data_as(float_p),
        x.ctypes.data_as(float_p),
        out.ctypes.data_as(float_p),
    )


def _scipy_matrix(operator: CSRMatrix):
    if operator._scipy is None:
        from scipy import sparse as sp

        operator._scipy = sp.csr_matrix(
            (operator.data, operator.indices, operator.indptr),
            shape=operator.shape,
        )
    return operator._scipy


_BACKEND = None  # lazily resolved ("name", lib-or-None) pair


def _self_check(lib) -> bool:
    """Bitwise-compare the compiled kernel against the python reference."""

    rng = np.random.default_rng(0)
    for dtype in (np.float32, np.float64):  # repro: noqa[REPRO005] — self-check covers both kernel dtypes
        for m in (1, 7, 16, 33, 64, 100):
            dense = rng.standard_normal((13, 13)).astype(dtype)
            dense[rng.random((13, 13)) < 0.6] = 0.0
            operator = CSRMatrix.from_dense(dense, dtype)
            x = np.ascontiguousarray(rng.standard_normal((13, m)).astype(dtype))
            out = np.empty((13, m), dtype=dtype)
            _compiled_spmm(lib, operator, x, out)
            if not np.array_equal(out, _reference_spmm(operator, x)):
                return False
    return True


def _resolve_backend():
    global _BACKEND
    if _BACKEND is None:
        lib = _load_compiled()
        if lib is not None and _self_check(lib):
            _BACKEND = ("compiled", lib)
        else:
            _BACKEND = ("scipy", None)
    return _BACKEND


def sparse_backend() -> str:
    """Resolve (compiling on first use) and name the active spmm backend."""

    return _resolve_backend()[0]


def spmm(operator: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """CSR @ dense: ``(rows, cols) @ (cols, m) -> (rows, m)``.

    ``x`` must match the operator dtype; the result accumulates each
    output element sequentially in CSR row order on every backend.
    """

    if x.ndim != 2 or x.shape[0] != operator.shape[1]:
        raise ValueError(
            f"operand shape {x.shape} does not match operator {operator.shape}"
        )
    if x.dtype != operator.data.dtype:
        raise TypeError(
            f"operand dtype {x.dtype} does not match operator {operator.data.dtype}"
        )
    x = np.ascontiguousarray(x)
    name, lib = _resolve_backend()
    if name == "compiled":
        out = np.empty((operator.shape[0], x.shape[1]), dtype=x.dtype)
        _compiled_spmm(lib, operator, x, out)
        return out
    return np.ascontiguousarray(_scipy_matrix(operator) @ x)


# --------------------------------------------------------------------------
# Autoswitch.


def should_use_sparse(num_nodes, structural_density, dtype=None, mode=None) -> bool:
    """Decide whether a graph operator should route through the CSR path.

    ``never`` and ``always`` short-circuit; ``auto`` requires at least
    :data:`SPARSE_MIN_NODES` nodes and a structural density at or below
    the measured crossover for the active backend and dtype.  Non-float
    dtypes always stay dense.
    """

    dtype_name = np.dtype(dtype if dtype is not None else get_default_dtype()).name
    if dtype_name not in ("float32", "float64"):
        return False
    mode = mode if mode is not None else get_sparse_mode()
    if mode == "never":
        return False
    if mode == "always":
        return True
    if mode != "auto":
        raise ValueError(
            f"sparse mode must be one of {SPARSE_MODES}, got {mode!r}"
        )
    if num_nodes < SPARSE_MIN_NODES:
        return False
    crossover = SPARSE_DENSITY_CROSSOVER[sparse_backend()][dtype_name]
    return structural_density <= crossover


def gcn_routes_sparse(adjacency, dtype=None, mode=None) -> bool:
    """Whether a GCN layer over ``adjacency`` propagates through CSR.

    The one routing decision for the normalized GCN operator
    ``D^{-1/2}(A + I)D^{-1/2}``, whose zero pattern is the graph's
    nonzeros plus the self-loop diagonal.  :class:`~repro.nn.graph.GCNConv`
    routes its forward by it, and the stacked trainer and the serving
    engine keep sparse-routed graphs off their dense-only lane path by
    the same call, so the guards cannot disagree with the layer.
    """

    graph = np.asarray(adjacency)
    nodes = graph.shape[0]
    nonzeros = np.count_nonzero((graph != 0) | np.eye(nodes, dtype=bool))
    return should_use_sparse(nodes, nonzeros / (nodes * nodes), dtype, mode)


def sparse_operator(dense_operator: np.ndarray, mode=None):
    """Return a :class:`CSRMatrix` for ``dense_operator`` if the autoswitch
    routes it sparse, else ``None``."""

    dense_operator = np.asarray(dense_operator)
    if dense_operator.ndim != 2 or dense_operator.dtype not in (np.float32, np.float64):  # repro: noqa[REPRO005] — CSR kernel dtypes
        return None
    density = np.count_nonzero(dense_operator) / dense_operator.size
    if should_use_sparse(dense_operator.shape[0], density, dense_operator.dtype, mode):
        return CSRMatrix.from_dense(dense_operator)
    return None


# --------------------------------------------------------------------------
# Autodiff op.


def csr_matmul(operator: CSRMatrix, x):
    """Sparse graph propagation ``operator @ x`` as an autodiff op.

    ``x`` has shape ``(..., cols, channels)``; the operator contracts the
    node axis exactly like the dense ``propagation @ x`` path.  The
    operator is a constant: gradients flow only to ``x``, via
    ``operator.T @ grad``.  Non-:class:`~repro.autodiff.Tensor` operands
    (e.g. the shape checker's abstract tensors) fall back to a dense
    matmul so static analysis sees the same graph contraction.
    """

    if not isinstance(operator, CSRMatrix):
        raise TypeError(f"expected a CSRMatrix operator, got {type(operator).__name__}")
    if not isinstance(x, Tensor):
        return Tensor(operator.to_dense()) @ x
    if x.data.ndim < 2 or x.data.shape[-2] != operator.shape[1]:
        raise ValueError(
            f"operand shape {x.data.shape} does not match operator {operator.shape}"
        )

    def _spread(matrix: CSRMatrix, operand: np.ndarray) -> np.ndarray:
        if operand.dtype != matrix.data.dtype:
            # Mirror dense matmul promotion (e.g. MTGNN's float64 static
            # operators times float32 activations compute in float64).
            promoted = np.result_type(matrix.data, operand)
            if promoted != matrix.data.dtype:
                raise TypeError(
                    f"cannot promote {matrix.data.dtype} operator to {promoted}"
                )
            operand = operand.astype(promoted)
        moved = np.moveaxis(operand, -2, 0)
        flat = np.ascontiguousarray(moved.reshape(moved.shape[0], -1))
        mixed = spmm(matrix, flat)
        mixed = mixed.reshape((matrix.shape[0],) + moved.shape[1:])
        return np.ascontiguousarray(np.moveaxis(mixed, 0, -2))

    out = _spread(operator, x.data)

    def csr_matmul_backward(grad: np.ndarray) -> None:
        x._accumulate(_spread(operator.T, grad))

    return Tensor._make(out, (x,), csr_matmul_backward)
