"""Neural-network layer library built on :mod:`repro.autodiff`.

Provides every block the paper's four forecasters need: affine layers,
recurrent cells, dilated temporal convolutions, spatial/temporal attention,
graph convolutions, and MTGNN's graph learner.
"""

from .module import Module, Parameter
from .linear import Linear
from .activations import ELU, LeakyReLU, ReLU, Sigmoid, Tanh
from .dropout import Dropout
from .normalization import LayerNorm
from .container import ModuleList, Sequential
from .recurrent import GRUCell, LSTM, LSTMCell
from .conv import DilatedInception, TemporalConv2d
from .attention import SpatialAttention, TemporalAttention, TemporalAttentionPool
from .graph import (ChebConv, GCNConv, GraphLearner, MixHopPropagation,
                    scaled_laplacian)
from .stacked_ops import (lane_affine, lane_bias_add, lane_matmul,
                          lane_propagate, stack_lanes)
from .loss import HuberLoss, MAELoss, MSELoss
from . import init

__all__ = [
    "Module", "Parameter", "Linear",
    "ReLU", "Tanh", "Sigmoid", "LeakyReLU", "ELU",
    "Dropout", "LayerNorm", "Sequential", "ModuleList",
    "GRUCell", "LSTMCell", "LSTM",
    "TemporalConv2d", "DilatedInception",
    "TemporalAttentionPool", "SpatialAttention", "TemporalAttention",
    "GCNConv", "ChebConv", "MixHopPropagation", "GraphLearner",
    "scaled_laplacian",
    "lane_matmul", "lane_bias_add", "lane_affine", "lane_propagate",
    "stack_lanes",
    "MSELoss", "MAELoss", "HuberLoss",
    "init",
]
