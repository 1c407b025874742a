"""Model factory + hyperparameter bundle (paper section V-D).

``ModelConfig`` captures the paper's tuned hyperparameters (32 hidden units
everywhere, kernel size 3, dropout 0.3); ``create_model`` builds any
registered forecaster by name with a deterministic seed.

``MODEL_REGISTRY`` is the authoritative name → :class:`ModelSpec` table:
the paper's Table-I grid (``MODEL_NAMES``), the T-GCN ablation point, and
the closed-form baselines.  The static fast-path analyzer
(:mod:`repro.analysis.fastpath`, ``ema-gnn check``) sweeps this registry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .a3tgcn import A3TGCN
from .astgcn import ASTGCN
from .base import Forecaster
from .lstm import LSTMForecaster
from .mtgnn import MTGNN
from .tgcn import TGCNForecaster
from .var import NaiveMeanForecaster, VARForecaster

__all__ = ["ModelConfig", "ModelSpec", "MODEL_NAMES", "MODEL_REGISTRY",
           "create_model"]

#: The paper's Table-I gradient-trained grid (kept separate from the full
#: registry so experiment defaults do not silently widen).
MODEL_NAMES = ("lstm", "a3tgcn", "astgcn", "mtgnn")


@dataclass(frozen=True)
class ModelSpec:
    """Registry entry describing how a model trains and what it needs."""

    name: str
    #: "gradient" models run the epoch Trainer (and may JIT/stack);
    #: "closed-form" models fit in one shot via ``fit_windows``.
    family: str
    #: Whether construction needs a variable adjacency.
    requires_graph: bool
    description: str


MODEL_REGISTRY: dict[str, ModelSpec] = {spec.name: spec for spec in (
    ModelSpec("lstm", "gradient", False,
              "LSTM baseline (no graph): stacked-LSTM over the window"),
    ModelSpec("tgcn", "gradient", True,
              "T-GCN: graph-convolutional GRU, last hidden state as "
              "context (A3TGCN minus attention)"),
    ModelSpec("a3tgcn", "gradient", True,
              "A3T-GCN: T-GCN + learned temporal attention over periods"),
    ModelSpec("astgcn", "gradient", True,
              "ASTGCN: spatial/temporal attention + Chebyshev graph conv "
              "+ temporal convolution"),
    ModelSpec("mtgnn", "gradient", True,
              "MTGNN: learned graph + dilated temporal inception + "
              "mix-hop propagation"),
    ModelSpec("var", "closed-form", False,
              "VAR(p) via ridge regression (closed-form, no epochs)"),
    ModelSpec("naive-mean", "closed-form", False,
              "Training-mean predictor (the MSE ~ 1.0 anchor)"),
)}


@dataclass(frozen=True)
class ModelConfig:
    """Shared hyperparameters (defaults = the paper's section V-D)."""

    hidden_size: int = 32
    dropout: float = 0.3
    kernel_size: int = 3
    cheb_order: int = 3
    mtgnn_layers: int = 2
    mtgnn_embedding_dim: int = 8
    mtgnn_top_k: int | None = None
    mtgnn_use_graph_learning: bool = True

    def __post_init__(self):
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


def create_model(name: str, num_variables: int, seq_len: int,
                 adjacency: np.ndarray | None = None,
                 config: ModelConfig | None = None,
                 seed: int = 0) -> Forecaster:
    """Build a forecaster by name.

    ``adjacency`` is required for the graph models (for MTGNN it seeds the
    graph learner unless ``config.mtgnn_use_graph_learning`` is False, in
    which case it is used as a fixed graph).
    """
    config = config if config is not None else ModelConfig()
    rng = np.random.default_rng(seed)
    name = name.lower()
    if name == "lstm":
        return LSTMForecaster(num_variables, seq_len,
                              hidden_size=config.hidden_size,
                              dropout=config.dropout, rng=rng)
    if name in ("tgcn", "a3tgcn", "astgcn") and adjacency is None:
        raise ValueError(f"{name} requires an adjacency matrix")
    if name == "tgcn":
        return TGCNForecaster(num_variables, seq_len, adjacency,
                              hidden_size=config.hidden_size,
                              dropout=config.dropout, rng=rng)
    if name == "a3tgcn":
        return A3TGCN(num_variables, seq_len, adjacency,
                      hidden_size=config.hidden_size,
                      dropout=config.dropout, rng=rng)
    if name == "astgcn":
        return ASTGCN(num_variables, seq_len, adjacency,
                      hidden_size=config.hidden_size,
                      cheb_order=config.cheb_order,
                      kernel_size=config.kernel_size,
                      dropout=config.dropout, rng=rng)
    if name == "mtgnn":
        return MTGNN(num_variables, seq_len,
                     initial_adjacency=adjacency,
                     use_graph_learning=config.mtgnn_use_graph_learning,
                     hidden_size=config.hidden_size,
                     num_layers=config.mtgnn_layers,
                     embedding_dim=config.mtgnn_embedding_dim,
                     top_k=config.mtgnn_top_k,
                     dropout=config.dropout, rng=rng)
    if name == "var":
        return VARForecaster(num_variables, seq_len, rng=rng)
    if name == "naive-mean":
        return NaiveMeanForecaster(num_variables, seq_len, rng=rng)
    raise ValueError(f"unknown model {name!r}; expected one of "
                     f"{tuple(MODEL_REGISTRY)}")

