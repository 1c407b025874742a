"""Process-wide caches for graph-derived constants.

Profiling (:mod:`repro.profiling`) shows that the per-fit setup cost of the
graph models is dominated by recomputing *constants of the adjacency*: the
symmetric normalization for :class:`~repro.nn.graph.GCNConv`, the
eigendecomposition + Chebyshev polynomial basis for
:class:`~repro.nn.graph.ChebConv`, and the row normalization MTGNN's
static propagation re-derived on every forward.  An experiment evaluates
the *same* individual graph across 3 models × 3 sequence lengths (and the
static MTGNN path re-normalized it every epoch), so these constants are
memoized here, keyed by the adjacency's content hash, the construction
parameters, and the current default dtype.

The cached build runs exactly the code it replaced, so hits are
bit-identical to cold construction (asserted in ``tests/nn``).  Returned
arrays are marked read-only — they are shared across model instances.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

from ..autodiff import get_default_dtype, normalize_adjacency

__all__ = ["cached_normalized_adjacency", "cached_chebyshev_basis",
           "cached_row_normalized", "clear_graph_caches", "cache_info"]

#: Per-cache entry cap.  Entries are ~V×V floats (V = 26 in the paper), so
#: even the Chebyshev cache stays far below a megabyte; the cap only guards
#: pathological cohorts with thousands of distinct graphs.
_MAX_ENTRIES = 256

_NORMALIZED: OrderedDict = OrderedDict()
_CHEB_BASIS: OrderedDict = OrderedDict()
_ROW_NORMALIZED: OrderedDict = OrderedDict()
_COUNTS = {"hits": 0, "misses": 0}


def _fingerprint(adjacency: np.ndarray) -> tuple:
    """Content key of an adjacency: shape, dtype, and payload hash."""
    a = np.ascontiguousarray(adjacency)
    return (a.shape, a.dtype.str, hashlib.sha1(a.tobytes()).hexdigest())


def _lookup(store: OrderedDict, key, build):
    value = store.get(key)
    if value is not None:
        store.move_to_end(key)
        _COUNTS["hits"] += 1
        return value
    value = build()
    _COUNTS["misses"] += 1
    store[key] = value
    if len(store) > _MAX_ENTRIES:
        store.popitem(last=False)
    return value


def cached_normalized_adjacency(adjacency: np.ndarray,
                                add_self_loops: bool = True) -> np.ndarray:
    """Memoized :func:`repro.autodiff.normalize_adjacency` (read-only)."""
    dtype = np.dtype(get_default_dtype()).str
    key = (_fingerprint(adjacency), bool(add_self_loops), dtype)

    def build():
        out = normalize_adjacency(adjacency, add_self_loops=add_self_loops)
        out.setflags(write=False)
        return out

    return _lookup(_NORMALIZED, key, build)


def cached_chebyshev_basis(adjacency: np.ndarray, order: int,
                           dtype=None) -> tuple[np.ndarray, ...]:
    """Memoized Chebyshev basis ``(T_0(L~), ..., T_{order-1}(L~))``.

    Runs the same construction :class:`~repro.nn.graph.ChebConv` used
    inline — rescaled Laplacian (one eigendecomposition) in float64, the
    Chebyshev recursion, then a cast to ``dtype`` (default: the default
    dtype) — so a hit is bit-identical to a cold build.
    """
    dtype = np.dtype(dtype if dtype is not None else get_default_dtype())
    key = (_fingerprint(adjacency), int(order), dtype.str)

    def build():
        from .graph import scaled_laplacian  # local: graph.py imports us

        lap = scaled_laplacian(adjacency)
        n = lap.shape[0]
        basis = [np.eye(n), lap]
        for _ in range(2, order):
            basis.append(2.0 * lap @ basis[-1] - basis[-2])
        out = tuple(t.astype(dtype) for t in basis[:order])
        for t in out:
            t.setflags(write=False)
        return out

    return _lookup(_CHEB_BASIS, key, build)


def cached_row_normalized(adjacency: np.ndarray) -> np.ndarray:
    """Memoized row normalization ``(A + I) / rowsum`` (read-only).

    Mirrors, op for op, what
    :meth:`repro.nn.graph.MixHopPropagation._row_normalize` computes
    inside the autodiff graph, so precomputing it for a constant static
    adjacency is bit-identical to normalizing per forward pass.  The
    input's dtype is preserved (callers control any cast), matching the
    Tensor path, which normalizes in the adjacency's own dtype.
    """
    a = np.asarray(adjacency)
    key = (_fingerprint(a),)

    def build():
        with_loops = a + np.eye(a.shape[0], dtype=a.dtype)
        degree = with_loops.sum(axis=1, keepdims=True) + 1e-10
        out = with_loops / degree
        out.setflags(write=False)
        return out

    return _lookup(_ROW_NORMALIZED, key, build)


def clear_graph_caches() -> None:
    """Drop every cached graph constant (tests; dtype-churn workloads)."""
    _NORMALIZED.clear()
    _CHEB_BASIS.clear()
    _ROW_NORMALIZED.clear()
    _COUNTS["hits"] = 0
    _COUNTS["misses"] = 0


def cache_info() -> dict:
    """Hit/miss counters and per-cache sizes (diagnostics)."""
    return {"hits": _COUNTS["hits"], "misses": _COUNTS["misses"],
            "normalized": len(_NORMALIZED), "chebyshev": len(_CHEB_BASIS),
            "row_normalized": len(_ROW_NORMALIZED)}
