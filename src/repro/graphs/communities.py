"""Community structure of variable graphs (networkx-based).

EMA items cluster into affect/stress/context communities, and the
synthetic generator plants exactly such a block structure.  This module
asks whether a constructed (or learned) graph *recovers* it: greedy
modularity communities, the partition's modularity, and agreement with a
reference labelling (adjusted Rand index via its closed form).

A library-level interpretability probe, exported from ``repro.graphs``
for MTGNN-learned graphs (the paper's §VII-B "interpreted for their
inter-variables connections" direction); no pipeline or example calls it,
and ``tests/graphs/test_communities.py`` pins its behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CommunityReport", "detect_communities", "adjusted_rand_index"]


@dataclass(frozen=True)
class CommunityReport:
    """Partition of a variable graph into communities."""

    labels: tuple[int, ...]      # community id per node
    modularity: float
    num_communities: int


def detect_communities(adjacency: np.ndarray) -> CommunityReport:
    """Greedy-modularity communities of a weighted undirected graph."""
    # Imported here, not at module level: this is networkx's only caller
    # (see DESIGN.md "Imports").
    import networkx as nx

    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got {a.shape}")
    sym = (a + a.T) / 2.0
    graph = nx.Graph()
    graph.add_nodes_from(range(sym.shape[0]))
    rows, cols = np.nonzero(np.triu(sym, k=1))
    graph.add_weighted_edges_from(
        (int(i), int(j), float(sym[i, j])) for i, j in zip(rows, cols))
    if graph.number_of_edges() == 0:
        labels = tuple(range(sym.shape[0]))
        return CommunityReport(labels=labels, modularity=0.0,
                               num_communities=sym.shape[0])
    communities = nx.community.greedy_modularity_communities(graph, weight="weight")
    labels = np.zeros(sym.shape[0], dtype=int)
    for community_id, members in enumerate(communities):
        for node in members:
            labels[node] = community_id
    modularity = nx.community.modularity(graph, communities, weight="weight")
    return CommunityReport(labels=tuple(int(x) for x in labels),
                           modularity=float(modularity),
                           num_communities=len(communities))


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Adjusted Rand index between two partitions (closed-form, no sklearn)."""
    a = np.asarray(list(labels_a))
    b = np.asarray(list(labels_b))
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("need two equal-length non-empty label vectors")
    n = a.size
    classes_a, a_idx = np.unique(a, return_inverse=True)
    classes_b, b_idx = np.unique(b, return_inverse=True)
    contingency = np.zeros((classes_a.size, classes_b.size))
    np.add.at(contingency, (a_idx, b_idx), 1.0)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(contingency).sum()
    sum_rows = comb2(contingency.sum(axis=1)).sum()
    sum_cols = comb2(contingency.sum(axis=0)).sum()
    total = comb2(n)
    expected = sum_rows * sum_cols / total if total else 0.0
    maximum = (sum_rows + sum_cols) / 2.0
    if maximum == expected:
        return 1.0 if sum_cells == expected else 0.0
    return float((sum_cells - expected) / (maximum - expected))
