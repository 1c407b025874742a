"""Graph convolution layers and MTGNN's graph-learning module.

* :class:`GCNConv` — first-order graph convolution ``Â X W`` with a fixed,
  symmetrically normalized adjacency (used inside A3TGCN's T-GCN cell).
* :class:`ChebConv` — Chebyshev-polynomial spectral convolution of order K
  with optional per-sample spatial-attention modulation (ASTGCN).
* :class:`MixHopPropagation` — MTGNN's information-selecting graph
  propagation layer.
* :class:`GraphLearner` — MTGNN's adaptive adjacency: learned node
  embeddings produce a directed graph that is re-sparsified (top-k per row)
  on every forward pass, so the structure itself is trained end-to-end.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..autodiff import Tensor, normalize_adjacency
from ..autodiff.functional import volatile_constant
from . import init
from .container import ModuleList
from .graphcache import cached_chebyshev_basis, cached_normalized_adjacency
from .linear import Linear
from .module import Module, Parameter

__all__ = ["GCNConv", "ChebConv", "MixHopPropagation", "GraphLearner",
           "scaled_laplacian"]


def scaled_laplacian(adjacency: np.ndarray) -> np.ndarray:
    """Rescaled graph Laplacian ``2 L / lambda_max - I`` for ChebConv.

    ``L`` is the symmetric normalized Laplacian of the (symmetrized)
    adjacency.  The rescaling maps the spectrum into [-1, 1], the domain of
    the Chebyshev basis.
    """
    a = np.asarray(adjacency, dtype=np.float64)  # repro: noqa[REPRO005] — eigendecomposition needs full precision
    a = (a + a.T) / 2.0
    norm = normalize_adjacency(a, add_self_loops=False)
    laplacian = np.eye(a.shape[0]) - norm
    eigvals = np.linalg.eigvalsh(laplacian)
    lam_max = float(eigvals.max())
    if lam_max < 1e-8:
        # Empty graph: Laplacian is 0 (isolated, no self loops) -> use -I.
        return -np.eye(a.shape[0])
    return 2.0 * laplacian / lam_max - np.eye(a.shape[0])


class GCNConv(Module):
    """First-order GCN layer over a fixed adjacency.

    Input ``(..., N, F_in)`` -> output ``(..., N, F_out)`` via
    ``Â X W + b`` where ``Â = D^{-1/2}(A+I)D^{-1/2}``.
    """

    def __init__(self, in_features: int, out_features: int, adjacency: np.ndarray,
                 bias: bool = True, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.linear = Linear(in_features, out_features, bias=bias, rng=rng)
        self.set_adjacency(adjacency)

    def set_adjacency(self, adjacency: np.ndarray) -> None:
        """Swap in a new fixed graph (used when feeding learned graphs back).

        The normalized propagation matrix is fetched from the process-wide
        graph cache: within an experiment the same individual graph is
        reused across models and sequence lengths, so the normalization
        runs once per distinct adjacency instead of once per model.
        """
        dense = cached_normalized_adjacency(adjacency)
        self._propagation = Tensor(dense)
        self.num_nodes = dense.shape[0]

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-2] != self.num_nodes or x.shape[-1] != self.in_features:
            raise ValueError(
                f"GCNConv expects (..., {self.num_nodes}, {self.in_features}), got {x.shape}")
        return self.linear(self._propagation @ x)


class ChebConv(Module):
    """Chebyshev spectral graph convolution of order K (ASTGCN's operator).

    ``out = sum_k T_k(L~) X W_k`` where ``T_k`` are Chebyshev polynomials of
    the rescaled Laplacian.  When a per-sample spatial attention matrix
    ``S`` (shape ``(B, N, N)``) is supplied, each ``T_k`` is modulated
    elementwise as in ASTGCN: ``T_k ⊙ S``.
    """

    def __init__(self, in_features: int, out_features: int, adjacency: np.ndarray,
                 order: int = 3, rng: np.random.Generator | None = None):
        super().__init__()
        if order < 1:
            raise ValueError("Chebyshev order must be >= 1")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.order = order
        self.weights = ModuleList(
            Linear(in_features, out_features, bias=(k == 0), rng=rng)
            for k in range(order))
        self.set_adjacency(adjacency)

    def set_adjacency(self, adjacency: np.ndarray) -> None:
        """Fetch the Chebyshev basis from the process-wide graph cache.

        The basis construction (one eigendecomposition + the polynomial
        recursion) is a pure function of ``(adjacency, order, dtype)`` and
        an experiment reuses one graph across models and sequence lengths,
        so the eigendecomposition runs once per distinct graph.
        """
        basis = cached_chebyshev_basis(adjacency, self.order)
        self._basis = [Tensor(t) for t in basis]
        self.num_nodes = basis[0].shape[0]

    def forward(self, x: Tensor, spatial_attention: Tensor | None = None) -> Tensor:
        """Apply the convolution; supports window-batched inputs.

        ``x`` may carry extra leading axes beyond the attention matrix's
        ``(B, N, N)`` — e.g. ``(B, steps, N, F)`` with one attention matrix
        per sample.  The modulated operator is then broadcast over the
        extra axes so all steps run through a single batched matmul per
        Chebyshev order instead of a Python loop over steps (and ``T_k ⊙
        S`` is computed once rather than once per step).
        """
        if x.shape[-2] != self.num_nodes or x.shape[-1] != self.in_features:
            raise ValueError(
                f"ChebConv expects (..., {self.num_nodes}, {self.in_features}), got {x.shape}")
        attention = spatial_attention
        if attention is not None and 2 < attention.ndim < x.ndim:
            # Insert singleton axes between the sample axes and (N, N) so
            # the operator broadcasts over x's extra axes (e.g. steps).
            n = attention.shape[-1]
            extra = x.ndim - attention.ndim
            attention = attention.reshape(*attention.shape[:-2],
                                          *([1] * extra), n, n)
        out = None
        for order, linear in enumerate(self.weights):
            term = linear(self._propagate(order, x, attention))
            out = term if out is None else out + term
        return out

    def _propagate(self, order: int, x: Tensor,
                   attention: Tensor | None) -> Tensor:
        """``T_order(L~) X``, modulated by ``attention`` when given."""
        t_k = self._basis[order]
        operator = t_k if attention is None else t_k * attention
        return operator @ x


class MixHopPropagation(Module):
    """MTGNN's mix-hop graph propagation.

    ``H^(0) = X``; ``H^(k) = beta X + (1 - beta) Â H^(k-1)``;
    ``out = sum_k H^(k) W_k``.  ``Â`` is row-normalized (MTGNN uses a
    directed learned graph, so row rather than symmetric normalization) and
    may be a constant numpy array or a Tensor inside the autodiff graph
    (the learned-adjacency path, through which gradients flow back to the
    graph learner's node embeddings).
    """

    def __init__(self, in_features: int, out_features: int, depth: int = 2,
                 beta: float = 0.05, rng: np.random.Generator | None = None):
        super().__init__()
        if depth < 1:
            raise ValueError("propagation depth must be >= 1")
        if not 0.0 <= beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.depth = depth
        self.beta = beta
        self.weights = ModuleList(
            Linear(in_features, out_features, bias=(k == 0), rng=rng)
            for k in range(depth + 1))

    @staticmethod
    def _row_normalize(adjacency: Tensor) -> Tensor:
        """Row-normalize ``A + I`` inside the autodiff graph."""
        n = adjacency.shape[-1]
        a = adjacency + volatile_constant(np.eye, n, dtype=adjacency.dtype)
        degree = a.sum(axis=-1, keepdims=True) + 1e-10
        return a / degree

    def forward(self, x: Tensor, adjacency: Tensor | np.ndarray | None = None,
                *, propagation: Tensor | None = None) -> Tensor:
        """Propagate ``x`` over ``adjacency`` (normalized here) or over a
        precomputed ``propagation`` operator.

        ``propagation`` skips the in-graph row normalization — callers with
        a *constant* graph (MTGNN's static mode) precompute
        ``(A + I) / rowsum`` once via
        :func:`repro.nn.graphcache.cached_row_normalized`, which performs
        the identical arithmetic, instead of re-deriving it every forward
        pass of every epoch.  The learned-graph path keeps passing
        ``adjacency`` so gradients flow through the normalization.
        """
        if propagation is None:
            if adjacency is None:
                raise ValueError(
                    "MixHopPropagation needs adjacency= or propagation=")
            if not isinstance(adjacency, Tensor):
                from ..autodiff.tensor import get_default_dtype

                # Static input graph: the rebuilt value is stable
                # across epochs, so trace capture accepts it.
                adjacency = Tensor(
                    np.asarray(adjacency, dtype=get_default_dtype()))
            propagation = self._row_normalize(adjacency)
        hidden = x
        out = self.weights[0](x)
        for k in range(1, self.depth + 1):
            hop = self._hop(propagation, hidden)
            hidden = x * self.beta + hop * (1.0 - self.beta)
            out = out + self.weights[k](hidden)
        return out

    @staticmethod
    def _hop(propagation: Tensor, hidden: Tensor) -> Tensor:
        """One propagation step ``Â H`` over the node axis."""
        return propagation @ hidden


class GraphLearner(Module):
    """MTGNN's graph-learning layer.

    Two sets of node embeddings are trained; the adjacency is

    ``A = ReLU(tanh(alpha * (M1 M2^T - M2 M1^T)))`` with
    ``M_i = tanh(alpha * E_i Theta_i)``,

    re-sparsified on every forward by keeping the top-k entries per row
    (the mask is a constant of the current values; gradients flow through
    the kept entries, exactly like MTGNN's implementation).

    ``initial_adjacency`` warm-starts the embeddings from the leading
    eigenvectors of a static graph, implementing the paper's Experiment C
    setting "starting from an initial graph structure or a random one".
    """

    def __init__(self, num_nodes: int, embedding_dim: int = 8, top_k: int | None = None,
                 alpha: float = 3.0, initial_adjacency: np.ndarray | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        if top_k is not None and not 1 <= top_k <= num_nodes:
            raise ValueError(f"top_k must be in [1, {num_nodes}]")
        rng = rng if rng is not None else np.random.default_rng()
        self.num_nodes = num_nodes
        self.embedding_dim = embedding_dim
        self.top_k = top_k
        self.alpha = alpha
        if initial_adjacency is not None:
            e1, e2 = self._spectral_warm_start(initial_adjacency, embedding_dim, rng)
        else:
            e1 = rng.standard_normal((num_nodes, embedding_dim))
            e2 = rng.standard_normal((num_nodes, embedding_dim))
        self.emb1 = Parameter(e1)
        self.emb2 = Parameter(e2)
        self.theta1 = Parameter(init.xavier_uniform((embedding_dim, embedding_dim), rng))
        self.theta2 = Parameter(init.xavier_uniform((embedding_dim, embedding_dim), rng))

    @staticmethod
    def _spectral_warm_start(adjacency: np.ndarray, dim: int,
                             rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Embed a static graph via its top eigenvectors (plus slight noise)."""
        a = np.asarray(adjacency, dtype=np.float64)  # repro: noqa[REPRO005] — eigh stability
        sym = (a + a.T) / 2.0
        eigvals, eigvecs = np.linalg.eigh(sym)
        order = np.argsort(np.abs(eigvals))[::-1][:dim]
        base = eigvecs[:, order] * np.sqrt(np.abs(eigvals[order]) + 1e-8)
        if base.shape[1] < dim:
            pad = rng.standard_normal((a.shape[0], dim - base.shape[1])) * 0.01
            base = np.concatenate([base, pad], axis=1)
        noise = 0.05 * rng.standard_normal(base.shape)
        return base + noise, base - noise

    def forward(self) -> Tensor:
        m1 = ((self.emb1 @ self.theta1) * self.alpha).tanh()
        m2 = ((self.emb2 @ self.theta2) * self.alpha).tanh()
        raw = ((m1 @ m2.swapaxes(-1, -2) - m2 @ m1.swapaxes(-1, -2))
               * self.alpha).tanh().relu()
        if self.top_k is None or self.top_k >= self.num_nodes:
            return raw
        mask = Tensor(self._top_k_mask(raw.data, self.top_k))
        # The mask is structure derived from ``raw``, not data: trace
        # replay recomputes it from raw's buffer every epoch.
        mask._trace_src = ("derived", raw,
                           partial(self._top_k_mask, k=self.top_k))
        return raw * mask

    @staticmethod
    def _top_k_mask(matrix: np.ndarray, k: int) -> np.ndarray:
        """Binary mask keeping the k largest entries of each row."""
        mask = np.zeros_like(matrix)
        idx = np.argpartition(-matrix, kth=k - 1, axis=-1)[..., :k]
        np.put_along_axis(mask, idx, 1.0, axis=-1)
        return mask

    def learned_adjacency(self) -> np.ndarray:
        """Export the current learned graph as a plain array (Experiment C)."""
        from ..autodiff import no_grad

        with no_grad():
            return self.forward().data.copy()
