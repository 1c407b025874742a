"""Finite-difference gradcheck sweep over every layer ``repro.nn`` exports.

Each exported layer class gets at least one case: a builder returns a
scalar-valued function plus the tensors (inputs and parameters) to verify
with :func:`repro.autodiff.gradcheck.check_gradients`.  A final test
asserts the sweep is complete, so a new export without a case fails loudly.

Inputs are chosen to keep the comparison meaningful in finite precision:
everything runs in float64, piecewise ops (ReLU/LeakyReLU/ELU, MAE, Huber)
get inputs bounded away from their kinks, Dropout runs in eval mode, and
GraphLearner uses ``top_k=None`` so an epsilon perturbation cannot flip the
top-k mask between the two difference evaluations.
"""

import numpy as np
import pytest

import repro.nn as nn
from repro.autodiff import Tensor, set_default_dtype
from repro.autodiff.gradcheck import check_gradients

CASES = {}


def case(name):
    def register(builder):
        CASES[name] = builder
        return builder

    return register


@pytest.fixture(autouse=True)
def _float64():
    set_default_dtype(np.float64)   # conftest restores the session dtype


def _rng():
    return np.random.default_rng(7)


def _params(module):
    return list(module.parameters())


def _away_from_zero(rng, shape, low=0.2, high=1.0):
    """Values in ±[low, high]: no entry within epsilon of a ReLU-style kink."""
    magnitude = rng.uniform(low, high, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return magnitude * sign


@case("Linear")
def _linear():
    rng = _rng()
    module = nn.Linear(4, 3, rng=rng)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    return lambda *ts: module(ts[0]).sum(), [x, *_params(module)]


@case("ReLU")
def _relu():
    rng = _rng()
    module = nn.ReLU()
    x = Tensor(_away_from_zero(rng, (3, 4)), requires_grad=True)
    return lambda *ts: module(ts[0]).sum(), [x]


@case("LeakyReLU")
def _leaky_relu():
    rng = _rng()
    module = nn.LeakyReLU(0.1)
    x = Tensor(_away_from_zero(rng, (3, 4)), requires_grad=True)
    return lambda *ts: module(ts[0]).sum(), [x]


@case("ELU")
def _elu():
    rng = _rng()
    module = nn.ELU()
    x = Tensor(_away_from_zero(rng, (3, 4)), requires_grad=True)
    return lambda *ts: module(ts[0]).sum(), [x]


@case("Tanh")
def _tanh():
    rng = _rng()
    module = nn.Tanh()
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    return lambda *ts: module(ts[0]).sum(), [x]


@case("Sigmoid")
def _sigmoid():
    rng = _rng()
    module = nn.Sigmoid()
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    return lambda *ts: module(ts[0]).sum(), [x]


@case("Dropout")
def _dropout():
    rng = _rng()
    module = nn.Dropout(0.5, rng=rng)
    module.eval()   # deterministic identity; training mode is stochastic
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    return lambda *ts: module(ts[0]).sum(), [x]


@case("LayerNorm")
def _layer_norm():
    rng = _rng()
    module = nn.LayerNorm(5)
    x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    return lambda *ts: module(ts[0]).sum(), [x, *_params(module)]


@case("Sequential")
def _sequential():
    rng = _rng()
    module = nn.Sequential(nn.Linear(4, 6, rng=rng), nn.Tanh(),
                           nn.Linear(6, 2, rng=rng))
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    return lambda *ts: module(ts[0]).sum(), [x, *_params(module)]


@case("ModuleList")
def _module_list():
    rng = _rng()
    module = nn.ModuleList([nn.Linear(4, 4, rng=rng), nn.Linear(4, 2, rng=rng)])
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)

    def func(*ts):
        out = ts[0]
        for layer in module:
            out = layer(out).tanh()
        return out.sum()

    return func, [x, *_params(module)]


@case("GRUCell")
def _gru_cell():
    rng = _rng()
    module = nn.GRUCell(3, 5, rng=rng)
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    h = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
    return lambda *ts: module(ts[0], ts[1]).sum(), [x, h, *_params(module)]


@case("LSTMCell")
def _lstm_cell():
    rng = _rng()
    module = nn.LSTMCell(3, 5, rng=rng)
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    h = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
    c = Tensor(rng.standard_normal((2, 5)), requires_grad=True)

    def func(*ts):
        new_h, new_c = module(ts[0], (ts[1], ts[2]))
        return new_h.sum() + new_c.sum()

    return func, [x, h, c, *_params(module)]


@case("LSTM")
def _lstm():
    rng = _rng()
    module = nn.LSTM(3, 4, num_layers=2, rng=rng)
    x = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
    return lambda *ts: module(ts[0])[0].sum(), [x, *_params(module)]


@case("TemporalConv2d")
def _temporal_conv():
    rng = _rng()
    module = nn.TemporalConv2d(2, 3, kernel_size=2, dilation=1, rng=rng)
    x = Tensor(rng.standard_normal((2, 2, 3, 4)), requires_grad=True)
    return lambda *ts: module(ts[0]).sum(), [x, *_params(module)]


@case("DilatedInception")
def _dilated_inception():
    rng = _rng()
    module = nn.DilatedInception(2, 4, kernel_sizes=(2, 3), rng=rng)
    x = Tensor(rng.standard_normal((2, 2, 3, 5)), requires_grad=True)
    return lambda *ts: module(ts[0]).sum(), [x, *_params(module)]


@case("TemporalAttentionPool")
def _attention_pool():
    rng = _rng()
    module = nn.TemporalAttentionPool(4, rng=rng)
    x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    return lambda *ts: module(ts[0]).sum(), [x, *_params(module)]


@case("SpatialAttention")
def _spatial_attention():
    rng = _rng()
    module = nn.SpatialAttention(num_nodes=3, in_channels=2, num_steps=4, rng=rng)
    x = Tensor(rng.standard_normal((2, 3, 2, 4)), requires_grad=True)
    return lambda *ts: module(ts[0]).sum(), [x, *_params(module)]


@case("TemporalAttention")
def _temporal_attention():
    rng = _rng()
    module = nn.TemporalAttention(num_nodes=3, in_channels=2, num_steps=4, rng=rng)
    x = Tensor(rng.standard_normal((2, 3, 2, 4)), requires_grad=True)
    return lambda *ts: module(ts[0]).sum(), [x, *_params(module)]


def _test_adjacency(rng, n=4):
    adjacency = (rng.random((n, n)) < 0.6).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    return adjacency


@case("GCNConv")
def _gcn():
    rng = _rng()
    module = nn.GCNConv(3, 2, adjacency=_test_adjacency(rng), rng=rng)
    x = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
    return lambda *ts: module(ts[0]).sum(), [x, *_params(module)]


@case("ChebConv")
def _cheb():
    rng = _rng()
    module = nn.ChebConv(3, 2, adjacency=_test_adjacency(rng), order=2, rng=rng)
    x = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
    return lambda *ts: module(ts[0]).sum(), [x, *_params(module)]


@case("MixHopPropagation")
def _mixhop():
    rng = _rng()
    module = nn.MixHopPropagation(3, 2, depth=2, rng=rng)
    adjacency = Tensor(_test_adjacency(rng), requires_grad=True)
    x = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
    return (lambda *ts: module(ts[0], ts[1]).sum(),
            [x, adjacency, *_params(module)])


@case("GraphLearner")
def _graph_learner():
    rng = _rng()
    # top_k=None: a finite-difference step must not flip the top-k mask.
    module = nn.GraphLearner(num_nodes=4, embedding_dim=3, top_k=None, rng=rng)
    return lambda *ts: module().sum(), _params(module)


@case("MSELoss")
def _mse_loss():
    rng = _rng()
    module = nn.MSELoss()
    pred = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    target = rng.standard_normal((3, 4))
    return lambda *ts: module(ts[0], target), [pred]


@case("MAELoss")
def _mae_loss():
    rng = _rng()
    module = nn.MAELoss()
    target = rng.standard_normal((3, 4))
    # |pred - target| >= 0.2: finite differences never straddle the kink.
    pred = Tensor(target + _away_from_zero(rng, (3, 4)), requires_grad=True)
    return lambda *ts: module(ts[0], target), [pred]


@case("HuberLoss")
def _huber_loss():
    rng = _rng()
    module = nn.HuberLoss(delta=1.0)
    target = rng.standard_normal((3, 4))
    # Residuals in ±[0.2, 0.8] stay strictly inside the quadratic branch.
    pred = Tensor(target + _away_from_zero(rng, (3, 4), high=0.8),
                  requires_grad=True)
    return lambda *ts: module(ts[0], target), [pred]


def _lane_operator(rng, lanes, nodes):
    """A well-conditioned constant (K, V, V) propagation stack."""
    ops = rng.standard_normal((lanes, nodes, nodes)) / nodes
    return ops + np.eye(nodes)


@case("lane_matmul")
def _lane_matmul():
    rng = _rng()
    x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    wt = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
    return lambda *ts: nn.lane_matmul(ts[0], ts[1]).sum(), [x, wt]


@case("lane_bias_add")
def _lane_bias_add():
    rng = _rng()
    x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    bias = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    return lambda *ts: nn.lane_bias_add(ts[0], ts[1]).sum(), [x, bias]


@case("lane_affine")
def _lane_affine():
    rng = _rng()
    x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    weight = Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True)
    bias = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
    return (lambda *ts: nn.lane_affine(ts[0], ts[1], ts[2]).sum(),
            [x, weight, bias])


@case("lane_propagate")
def _lane_propagate():
    rng = _rng()
    operator = _lane_operator(rng, 2, 4)
    x = Tensor(rng.standard_normal((2, 3, 4, 2)), requires_grad=True)
    return lambda *ts: nn.lane_propagate(operator, ts[0]).sum(), [x]


@case("stack_lanes")
def _stack_lanes():
    rng = _rng()
    adjacency = _test_adjacency(rng)
    convs = [nn.GCNConv(2, 5, adjacency=adjacency, rng=rng) for _ in range(2)]
    module = nn.stack_lanes(convs)
    x = Tensor(rng.standard_normal((2, 3, 4, 2)), requires_grad=True)
    return lambda *ts: module(ts[0]).sum(), [x, *_params(module)]


#: Exports that are not layers (helpers, base classes, the init module).
NON_LAYER_EXPORTS = {"Module", "Parameter", "init", "scaled_laplacian",
                     "BATCHED_LANES"}


# Parametrized only here, after every @case above has registered: the ids
# are fixed when the decorator runs.
@pytest.mark.parametrize("name", sorted(CASES))
def test_layer_gradients(name):
    func, tensors = CASES[name]()
    check_gradients(func, tensors, atol=1e-6, rtol=1e-5)


def test_sweep_covers_every_export():
    (mark,) = [mark for mark in test_layer_gradients.pytestmark
               if mark.name == "parametrize"]
    running = set(mark.args[1])
    assert running == set(CASES), (
        f"registered cases that never run: {sorted(set(CASES) - running)}")
    layers = set(nn.__all__) - NON_LAYER_EXPORTS
    missing = layers - running
    assert not missing, (
        f"repro.nn exports without a gradcheck case: {sorted(missing)}")
