"""Call forms removed from the public API fail loudly instead of warning.

Each row is a spelling that used to work behind a ``DeprecationWarning``
shim (or a second entry point); the supported replacement is listed in
DESIGN.md's removal table.
"""

import importlib

import numpy as np
import pytest

from repro.data.windows import make_windows
from repro.experiments import ExperimentConfig
from repro.graphs import build_adjacency
from repro.graphs.extended import (mutual_information_adjacency,
                                   partial_correlation_adjacency)
from repro.models import create_model
from repro.models.mtgnn import MTGNN
from repro.nn import GraphLearner, Parameter
from repro.optim import SGD, Adam
from repro.training import ParallelConfig, Trainer

SERIES = np.cumsum(np.random.default_rng(3).standard_normal((40, 5)), axis=0)


def _params():
    return [Parameter(np.zeros((2, 2)))]


def _class_level_evaluate():
    model = create_model("lstm", 5, 2, seed=0)
    Trainer.evaluate(model, make_windows(SERIES, 2))


REMOVED = {
    "flat ParallelConfig keyword": lambda: ParallelConfig(jobs=2),
    "positional Adam hyperparameters":
        lambda: Adam(_params(), 0.01, (0.9, 0.999)),
    "positional SGD hyperparameters": lambda: SGD(_params(), 0.01, 0.9),
    "positional build_adjacency gdt":
        lambda: build_adjacency(SERIES, "correlation", 0.3),
    "build_adjacency keep_fraction=":
        lambda: build_adjacency(SERIES, "correlation", keep_fraction=0.3),
    "build_adjacency rng=":
        lambda: build_adjacency(SERIES, "random", gdt=0.3,
                                rng=np.random.default_rng(0)),
    "positional shrinkage": lambda: partial_correlation_adjacency(SERIES, 0.2),
    "positional bins": lambda: mutual_information_adjacency(SERIES, 4),
    "MTGNN custom_graph_learner=":
        lambda: MTGNN(5, 2, custom_graph_learner=GraphLearner(5)),
    "class-level Trainer.evaluate": _class_level_evaluate,
    "ExperimentConfig sparse=": lambda: ExperimentConfig(sparse="never"),
}


@pytest.mark.parametrize("form", sorted(REMOVED))
def test_removed_form_raises_type_error(form):
    with pytest.raises(TypeError):
        REMOVED[form]()


@pytest.mark.parametrize("module", ["repro.nn.sparse"])
def test_removed_module_does_not_import(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)
