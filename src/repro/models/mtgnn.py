"""MTGNN — Multivariate Time Series GNN (Wu et al., KDD 2020), scaled to the
EMA paper's setting.

The distinguishing feature is the **graph-learning module**: node embeddings
are trained jointly with the forecaster, so the adjacency itself is
optimized against the training loss.  Per the EMA paper's Experiment C, the
learner can start from a static similarity graph ("starting from an initial
graph structure or a random one") and the refined graph can be exported for
other models.

Architecture (per the source paper, at the depth the EMA windows warrant):

* 1x1 start convolution into residual channels;
* ``num_layers`` blocks of gated dilated-inception temporal convolution
  (tanh filter x sigmoid gate), each followed by mix-hop graph propagation
  run in both edge directions (A and A^T) and a residual connection;
* per-block skip connections into a skip accumulator;
* output head reading the skip state at the final time position.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, no_grad
from ..nn import (DilatedInception, Dropout, GraphLearner, LayerNorm, Linear,
                  MixHopPropagation, TemporalConv2d)
from ..nn.container import ModuleList
from .base import Forecaster, permute_trailing

__all__ = ["MTGNN"]


class MTGNN(Forecaster):
    """MTGNN forecaster with optional graph learning.

    Parameters
    ----------
    initial_adjacency:
        Static graph.  With ``use_graph_learning=True`` it warm-starts the
        learner's node embeddings; with ``False`` it is used as a fixed
        propagation graph.  ``None`` (learning mode only) starts from random
        embeddings — the paper's MTGNN-with-random-graph condition.
    top_k:
        Learned-graph sparsity (edges kept per node); defaults to V // 3,
        mirroring MTGNN's sparse learned graphs.
    """

    requires_graph = False  # can operate purely on its learned graph

    def __init__(self, num_variables: int, seq_len: int,
                 initial_adjacency: np.ndarray | None = None,
                 use_graph_learning: bool = True,
                 hidden_size: int = 32, num_layers: int = 2,
                 embedding_dim: int = 8, top_k: int | None = None,
                 mixhop_depth: int = 2, dropout: float = 0.3,
                 rng: np.random.Generator | None = None):
        super().__init__(num_variables, seq_len)
        rng = rng if rng is not None else np.random.default_rng()
        if not use_graph_learning and initial_adjacency is None:
            raise ValueError("static mode needs initial_adjacency")
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        if use_graph_learning:
            self.use_graph_learning = True
            if top_k is None:
                top_k = max(2, num_variables // 3)
            self.graph_learner = GraphLearner(
                num_variables, embedding_dim=embedding_dim, top_k=top_k,
                initial_adjacency=initial_adjacency, rng=rng)
            self._static_adjacency = None
        else:
            self.use_graph_learning = False
            self.graph_learner = None
            self._static_adjacency = np.asarray(initial_adjacency, dtype=np.float64)  # repro: noqa[REPRO005] — graph matrices are float64 constants
        #: Static mode: memoized row-normalized (A, A^T) propagation pair,
        #: rebuilt lazily after set_adjacency().  Learned mode never uses it.
        self._static_props = None

        c = hidden_size
        self.start_conv = TemporalConv2d(1, c, 1, rng=rng)
        self.filter_convs = ModuleList()
        self.gate_convs = ModuleList()
        self.skip_convs = ModuleList()
        self.graph_convs_fwd = ModuleList()
        self.graph_convs_bwd = ModuleList()
        self.norms = ModuleList()
        for layer in range(num_layers):
            dilation = 2 ** layer
            self.filter_convs.append(
                DilatedInception(c, c, kernel_sizes=(2, 3), dilation=dilation, rng=rng))
            self.gate_convs.append(
                DilatedInception(c, c, kernel_sizes=(2, 3), dilation=dilation, rng=rng))
            self.skip_convs.append(TemporalConv2d(c, c, 1, rng=rng))
            self.graph_convs_fwd.append(
                MixHopPropagation(c, c, depth=mixhop_depth, rng=rng))
            self.graph_convs_bwd.append(
                MixHopPropagation(c, c, depth=mixhop_depth, rng=rng))
            self.norms.append(LayerNorm(c))
        self.skip_start = TemporalConv2d(1, c, 1, rng=rng)
        self.skip_end = TemporalConv2d(c, c, 1, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)
        self.head_hidden = Linear(c, c, rng=rng)
        self.head_out = Linear(c, 1, rng=rng)

    # ------------------------------------------------------------------
    # Graph access
    # ------------------------------------------------------------------
    def current_adjacency(self) -> Tensor:
        """Adjacency used this forward pass (inside the graph when learned)."""
        if self.use_graph_learning:
            return self.graph_learner()
        return Tensor(self._static_adjacency)

    def learned_graph(self) -> np.ndarray:
        """Export the (learned or static) adjacency as numpy (Experiment C)."""
        if self.use_graph_learning:
            return self.graph_learner.learned_adjacency()
        return self._static_adjacency.copy()

    def set_adjacency(self, adjacency: np.ndarray) -> None:
        """Replace the static graph / re-warm-start the learner."""
        adjacency = np.asarray(adjacency, dtype=np.float64)  # repro: noqa[REPRO005] — spectral warm start needs full precision
        if self.use_graph_learning:
            rng = np.random.default_rng(0)
            e1, e2 = GraphLearner._spectral_warm_start(
                adjacency, self.graph_learner.embedding_dim, rng)
            with no_grad():
                self.graph_learner.emb1.copy_(e1)
                self.graph_learner.emb2.copy_(e2)
        else:
            self._static_adjacency = adjacency
            self._static_props = None

    def _static_propagations(self) -> tuple:
        """Row-normalized ``(Â, Â^T)`` operators for the constant graph.

        Computed once per graph through
        :func:`repro.nn.graphcache.cached_row_normalized` — the same
        arithmetic :meth:`MixHopPropagation._row_normalize` ran inside the
        autodiff graph on every forward pass — and reused across epochs.
        """
        if self._static_props is None:
            from ..nn.graphcache import cached_row_normalized

            base = self._static_adjacency
            self._static_props = (
                Tensor(cached_row_normalized(base)),
                Tensor(cached_row_normalized(base.T)),
            )
        return self._static_props

    # ------------------------------------------------------------------
    def _graph_mix(self, x: Tensor, layer: int,
                   adjacency: Tensor | None = None,
                   propagations: tuple | None = None) -> Tensor:
        """Mix-hop propagation in both edge directions on (S, C, V, L)."""
        # (S, C, V, L) -> (S, L, V, C): propagate over V for every position.
        per_node = permute_trailing(x, 2, 1, 0)
        if propagations is not None:
            prop_fwd, prop_bwd = propagations
            fwd = self.graph_convs_fwd[layer](per_node,
                                              propagation=prop_fwd)
            bwd = self.graph_convs_bwd[layer](per_node,
                                              propagation=prop_bwd)
        else:
            fwd = self.graph_convs_fwd[layer](per_node, adjacency)
            bwd = self.graph_convs_bwd[layer](per_node,
                                              adjacency.swapaxes(-1, -2))
        mixed = fwd + bwd
        return permute_trailing(mixed, 2, 1, 0)

    def forward(self, inputs: Tensor) -> Tensor:
        self._check_input(inputs)
        # Leading axes (samples,), or (lanes, samples) on a stack_lanes clone.
        lead = inputs.shape[:-2]
        if self.use_graph_learning:
            adjacency, propagations = self.current_adjacency(), None
        else:
            adjacency, propagations = None, self._static_propagations()
        # (S, L, V) -> (S, 1, V, L)
        x = inputs.swapaxes(-1, -2).reshape(*lead, 1, self.num_variables,
                                             self.seq_len)
        skip = self.skip_start(x)
        x = self.start_conv(x)
        for layer in range(self.num_layers):
            residual = x
            filt = self.filter_convs[layer](x).tanh()
            gate = self.gate_convs[layer](x).sigmoid()
            x = self.dropout(filt * gate)
            skip = skip + self.skip_convs[layer](x)
            x = self._graph_mix(x, layer, adjacency=adjacency,
                                propagations=propagations)
            x = x + residual
            # Per-layer normalization over channels (canonical MTGNN).
            x = permute_trailing(
                self.norms[layer](permute_trailing(x, 1, 2, 0)), 2, 0, 1)
        # Final skip (canonical skipE): without it the last layer's graph
        # convolution would never reach the output head.
        skip = skip + self.skip_end(x)
        # Read the final time position of the skip accumulator.
        final = skip[..., -1].swapaxes(-1, -2)   # (S, V, C)
        hidden = self.head_hidden(final.relu()).relu()
        return self.head_out(hidden).reshape(*lead, self.num_variables)
