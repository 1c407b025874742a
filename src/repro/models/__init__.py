"""The paper's four forecasters: LSTM baseline + three spatio-temporal GNNs."""

from .base import Forecaster
from .lstm import LSTMForecaster
from .tgcn import TGCNCell, TGCNForecaster
from .a3tgcn import A3TGCN
from .astgcn import ASTGCN
from .mtgnn import MTGNN
from .var import NaiveMeanForecaster, VARForecaster
from .registry import (MODEL_NAMES, MODEL_REGISTRY, ModelConfig, ModelSpec,
                       create_model)

__all__ = ["Forecaster", "LSTMForecaster", "TGCNCell", "TGCNForecaster",
           "A3TGCN", "ASTGCN", "MTGNN", "VARForecaster",
           "NaiveMeanForecaster", "ModelConfig", "ModelSpec", "MODEL_NAMES",
           "MODEL_REGISTRY", "create_model"]
