"""Tests for the optimizer registry, keyword-only hyperparameters, and Adam's
flat-buffer step."""

import warnings

import numpy as np
import pytest

from repro.autodiff import Tensor, mse, no_grad
from repro.data.windows import make_windows
from repro.models import create_model
from repro.nn import Parameter
from repro.optim import (SGD, Adam, OPTIMIZER_REGISTRY, get_optimizer,
                         register_optimizer)
from repro.training import Trainer, TrainerConfig


def params(seed=0, n=3):
    rng = np.random.default_rng(seed)
    return [Parameter(rng.standard_normal((4, 4))) for _ in range(n)]


def put_grads(parameters, seed=1):
    rng = np.random.default_rng(seed)
    for p in parameters:
        p.grad = rng.standard_normal(p.data.shape) * 0.1


class TestOptimizerRegistry:
    def test_names_map_to_classes(self):
        assert OPTIMIZER_REGISTRY["adam"] is Adam
        assert OPTIMIZER_REGISTRY["sgd"] is SGD

    @pytest.mark.parametrize("name", sorted(OPTIMIZER_REGISTRY))
    def test_registry_step_equals_direct(self, name):
        """get_optimizer(name) steps exactly like direct construction."""
        by_name, direct = params(0), params(0)
        put_grads(by_name), put_grads(direct)
        opt_a = get_optimizer(name, by_name, lr=0.05)
        opt_b = OPTIMIZER_REGISTRY[name](direct, lr=0.05)
        for _ in range(3):
            opt_a.step()
            opt_b.step()
        for p_a, p_b in zip(by_name, direct):
            np.testing.assert_array_equal(p_a.data, p_b.data)

    def test_kwargs_forwarded(self):
        opt = get_optimizer("sgd", params(), lr=0.1, momentum=0.9)
        assert opt.momentum == 0.9
        opt = get_optimizer("adam", params(), lr=0.1, betas=(0.8, 0.99))
        assert (opt.beta1, opt.beta2) == (0.8, 0.99)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="registered"):
            get_optimizer("lbfgs", params())

    def test_register_guard_and_overwrite(self):
        class Custom(SGD):
            pass

        with pytest.raises(ValueError, match="already registered"):
            register_optimizer("sgd", Custom)
        register_optimizer("custom-sgd", Custom)
        try:
            assert get_optimizer("custom-sgd", params(), lr=0.1).lr == 0.1
            with pytest.raises(ValueError, match="already registered"):
                register_optimizer("custom-sgd", Custom)
            register_optimizer("custom-sgd", Custom, overwrite=True)
        finally:
            del OPTIMIZER_REGISTRY["custom-sgd"]


class TestKeywordOnlyShims:
    """Hyperparameters beyond ``lr`` are keyword-only."""

    def test_too_many_positionals(self):
        with pytest.raises(TypeError):
            Adam(params(), 0.01, (0.9, 0.999), 1e-8, 0.0, True)
        with pytest.raises(TypeError):
            SGD(params(), 0.1, 0.9, 0.0, "extra")

    def test_keyword_form_is_warning_free(self):
        with warnings.catch_warnings(record=True) as recorded:
            warnings.simplefilter("always")
            Adam(params(), lr=0.01, betas=(0.9, 0.999))
            SGD(params(), lr=0.1, momentum=0.9)
        assert not [w for w in recorded
                    if issubclass(w.category, DeprecationWarning)]


def reference_adam_step(parameters, state, lr, beta1=0.9, beta2=0.999,
                        eps=1e-8, weight_decay=0.0):
    """The textbook per-parameter Adam loop, the oracle for ``Adam.step``.

    ``state`` holds ``t`` and the per-parameter moments ``m``/``v``.
    """
    state["t"] += 1
    bias1 = 1.0 - beta1 ** state["t"]
    bias2 = 1.0 - beta2 ** state["t"]
    for p, m, v in zip(parameters, state["m"], state["v"]):
        if p.grad is None:
            continue
        grad = p.grad
        if weight_decay:
            grad = grad + weight_decay * p.data
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        with no_grad():
            p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


class TestFusedAdam:
    """``Adam.step`` runs one flat-buffer update over all parameters."""

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    def test_fused_bit_identical_over_training(self, weight_decay):
        """Adam and the reference loop produce identical fits, bit for bit."""
        rng = np.random.default_rng(5)
        windows = make_windows(rng.standard_normal((50, 6)), 3)
        adjacency = rng.random((6, 6))
        adjacency = (adjacency + adjacency.T) / 2
        np.fill_diagonal(adjacency, 0.0)
        runs = {}
        for flat in (False, True):
            model = create_model("a3tgcn", 6, 3, adjacency=adjacency, seed=7)
            parameters = list(model.parameters())
            if flat:
                step = Adam(parameters, lr=0.01,
                            weight_decay=weight_decay).step
            else:
                state = {"t": 0, "m": [np.zeros_like(p.data)
                                       for p in parameters],
                         "v": [np.zeros_like(p.data) for p in parameters]}

                def step():
                    reference_adam_step(parameters, state, lr=0.01,
                                        weight_decay=weight_decay)
            model.train()
            losses = []
            for _ in range(12):
                for p in parameters:
                    p.zero_grad()
                loss = mse(model(Tensor(windows.inputs.astype(np.float32))),
                           windows.targets.astype(np.float32))
                loss.backward()
                step()
                losses.append(loss.item())
            runs[flat] = (losses, [p.data.copy() for p in parameters])
        assert runs[False][0] == runs[True][0]
        for ref, opt in zip(runs[False][1], runs[True][1]):
            np.testing.assert_array_equal(ref, opt)

    def test_fused_moments_stay_inspectable(self):
        """_m/_v stay per-parameter (views into flat storage)."""
        flat_p, ref_p = params(8), params(8)
        put_grads(flat_p), put_grads(ref_p)
        flat = Adam(flat_p, lr=0.01)
        state = {"t": 0, "m": [np.zeros_like(p.data) for p in ref_p],
                 "v": [np.zeros_like(p.data) for p in ref_p]}
        for _ in range(2):
            flat.step()
            reference_adam_step(ref_p, state, lr=0.01)
        for m_flat, m_ref, p in zip(flat._m, state["m"], flat_p):
            assert m_flat.shape == p.data.shape
            np.testing.assert_array_equal(m_flat, m_ref)

    def test_fused_handles_gradless_parameters(self):
        parameters = params(9)
        put_grads(parameters)
        parameters[1].grad = None
        frozen = parameters[1].data.copy()
        opt = Adam(parameters, lr=0.1)
        opt.step()
        np.testing.assert_array_equal(parameters[1].data, frozen)
        # pattern change: the frozen parameter thaws mid-training.
        put_grads(parameters, seed=4)
        opt.step()
        assert not np.array_equal(parameters[1].data, frozen)

    def test_mask_of_wrong_shape_is_named(self):
        opt = Adam(params(), lr=0.1)
        with pytest.raises(ValueError, match=r"shape \(K,\), got \(2, 2\)"):
            opt.step(active=np.ones((2, 2), dtype=bool))

    def test_parameter_without_mask_lanes_is_named(self):
        parameters = params(n=2) + [Parameter(np.zeros((3, 4)))]
        put_grads(parameters)
        opt = Adam(parameters, lr=0.1)
        with pytest.raises(ValueError,
                           match=r"parameter 2 has shape \(3, 4\).*"
                                 r"mask of shape \(4,\)"):
            opt.step(active=np.ones(4, dtype=bool))
        assert opt._step_count == 0

    def test_fused_knob_is_gone(self):
        with pytest.raises(TypeError):
            Adam(params(), lr=0.01, **{"fused": True})


class TestTrainerConfigOptimizer:
    def test_defaults_to_adam(self):
        assert TrainerConfig().optimizer == "adam"

    def test_sgd_by_name_fits(self):
        rng = np.random.default_rng(6)
        windows = make_windows(rng.standard_normal((40, 4)), 2)
        model = create_model("lstm", 4, 2, seed=1)
        config = TrainerConfig(epochs=20, optimizer="sgd",
                               optimizer_kwargs={"momentum": 0.9})
        history = Trainer(config).fit(model, windows)
        assert len(history.losses) == 20
        assert min(history.losses) < history.losses[0]
        assert all(np.isfinite(history.losses))

    def test_config_matches_manual_loop(self):
        """Registry-configured fit == hand-built optimizer loop."""
        rng = np.random.default_rng(7)
        windows = make_windows(rng.standard_normal((40, 4)), 2)
        config = TrainerConfig(epochs=4, grad_clip=None, optimizer="sgd")
        engine = Trainer(config).fit(
            create_model("lstm", 4, 2, seed=2), windows)
        from repro.autodiff import get_default_dtype

        dtype = get_default_dtype()
        model = create_model("lstm", 4, 2, seed=2)
        optimizer = SGD(model.parameters(), lr=config.learning_rate)
        model.train()
        manual = []
        for _ in range(4):
            optimizer.zero_grad()
            loss = mse(model(Tensor(windows.inputs.astype(dtype))),
                       windows.targets.astype(dtype))
            loss.backward()
            optimizer.step()
            manual.append(loss.item())
        assert engine.losses == manual

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(ValueError, match="optimizer"):
            TrainerConfig(optimizer="adamw")

    def test_optimizer_kwargs_normalized_picklable(self):
        import pickle

        config = TrainerConfig(optimizer_kwargs={"betas": (0.8, 0.99)})
        assert config.optimizer_kwargs == (("betas", (0.8, 0.99)),)
        assert pickle.loads(pickle.dumps(config)) == config
