"""Tests for cached graph constants and the vectorized conv kernels."""

import numpy as np
import pytest

from repro.autodiff import (Tensor, get_default_dtype, normalize_adjacency,
                            set_default_dtype, stack)
from repro.autodiff.gradcheck import check_gradients
from repro.graphs import GRAPH_REGISTRY, get_graph_builder
from repro.nn import ChebConv, GCNConv, MixHopPropagation
from repro.nn.graph import scaled_laplacian
from repro.nn.graphcache import (cache_info, cached_chebyshev_basis,
                                 cached_normalized_adjacency,
                                 cached_row_normalized, clear_graph_caches)


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_graph_caches()
    yield
    clear_graph_caches()


def _adjacency(v=7, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.random((v, v))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    return a


class TestGraphConstantCaches:
    def test_normalized_matches_direct(self):
        adj = _adjacency()
        np.testing.assert_array_equal(cached_normalized_adjacency(adj),
                                      normalize_adjacency(adj))

    def test_chebyshev_matches_inline_recursion(self):
        adj = _adjacency()
        basis = cached_chebyshev_basis(adj, 3)
        lap = scaled_laplacian(adj)
        reference = [np.eye(lap.shape[0]), lap,
                     2.0 * lap @ lap - np.eye(lap.shape[0])]
        from repro.autodiff import get_default_dtype

        for cached, ref in zip(basis, reference):
            np.testing.assert_array_equal(
                cached, ref.astype(get_default_dtype()))

    def test_row_normalized_matches_tensor_path(self):
        """Numpy replica == MixHop's in-graph normalization, bitwise."""
        adj = _adjacency().astype(np.float64)
        in_graph = MixHopPropagation._row_normalize(Tensor(adj)).data
        np.testing.assert_array_equal(cached_row_normalized(adj), in_graph)
        transposed = MixHopPropagation._row_normalize(Tensor(adj).T).data
        np.testing.assert_array_equal(cached_row_normalized(adj.T),
                                      transposed)

    def test_hit_returns_same_object(self):
        adj = _adjacency()
        first = cached_normalized_adjacency(adj)
        assert cached_normalized_adjacency(adj) is first
        assert cache_info()["hits"] == 1

    def test_results_are_read_only(self):
        adj = _adjacency()
        with pytest.raises(ValueError):
            cached_normalized_adjacency(adj)[0, 0] = 5.0
        for term in cached_chebyshev_basis(adj, 3):
            assert not term.flags.writeable
        assert not cached_row_normalized(adj).flags.writeable

    def test_distinct_keys_distinct_entries(self):
        cached_normalized_adjacency(_adjacency(seed=1))
        cached_normalized_adjacency(_adjacency(seed=2))
        cached_normalized_adjacency(_adjacency(seed=1),
                                    add_self_loops=False)
        assert cache_info()["normalized"] == 3

    def test_clear_resets(self):
        cached_normalized_adjacency(_adjacency())
        clear_graph_caches()
        info = cache_info()
        assert info["normalized"] == 0 and info["hits"] == 0

    def test_layers_share_cached_constants(self):
        adj = _adjacency()
        a = GCNConv(4, 4, adj, rng=np.random.default_rng(0))
        b = GCNConv(4, 4, adj, rng=np.random.default_rng(1))
        assert a._propagation.data is b._propagation.data
        c1 = ChebConv(4, 4, adj, order=3, rng=np.random.default_rng(0))
        c2 = ChebConv(4, 4, adj, order=3, rng=np.random.default_rng(1))
        assert all(x.data is y.data for x, y in zip(c1._basis, c2._basis))


class TestVectorizedChebConv:
    def test_batched_equals_per_step_loop_exactly(self):
        rng = np.random.default_rng(3)
        conv = ChebConv(1, 5, _adjacency(), order=3,
                        rng=np.random.default_rng(4))
        x = rng.standard_normal((4, 7, 1, 5)).astype(np.float32)
        s_att = rng.standard_normal((4, 7, 7)).astype(np.float32)
        steps = [conv(Tensor(x[:, :, :, t]),
                      spatial_attention=Tensor(s_att))
                 for t in range(5)]
        looped = stack(steps, axis=3)
        batched = conv(Tensor(np.ascontiguousarray(x.transpose(0, 3, 1, 2))),
                       spatial_attention=Tensor(s_att)).transpose(0, 2, 3, 1)
        np.testing.assert_array_equal(looped.data, batched.data)

    def test_batched_backward_matches_loop(self):
        conv = ChebConv(1, 4, _adjacency(), order=2,
                        rng=np.random.default_rng(5))
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 7, 1, 4))
        s_att = rng.standard_normal((3, 7, 7))

        def grads(builder):
            for p in conv.parameters():
                p.grad = None
            (builder() ** 2).sum().backward()
            return [p.grad.copy() for p in conv.parameters()]

        def looped():
            return stack([conv(Tensor(x[:, :, :, t]),
                               spatial_attention=Tensor(s_att))
                          for t in range(4)], axis=3)

        def batched():
            out = conv(Tensor(np.ascontiguousarray(x.transpose(0, 3, 1, 2))),
                       spatial_attention=Tensor(s_att))
            return out.transpose(0, 2, 3, 1)

        for ref, vec in zip(grads(looped), grads(batched)):
            np.testing.assert_allclose(ref, vec, rtol=1e-10, atol=1e-12)

    def test_3d_attention_path_unchanged(self):
        """The original (S, V, F) call form with 3-D attention still works."""
        conv = ChebConv(1, 4, _adjacency(), order=3,
                        rng=np.random.default_rng(7))
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((3, 7, 1)))
        s_att = Tensor(rng.standard_normal((3, 7, 7)))
        assert conv(x, spatial_attention=s_att).shape == (3, 7, 4)
        assert conv(x).shape == (3, 7, 4)


class TestMixHopPropagationOperator:
    def test_propagation_equals_adjacency_path(self):
        mix = MixHopPropagation(3, 3, depth=2, rng=np.random.default_rng(9))
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((4, 5, 7, 3)))
        adj = _adjacency().astype(np.float64)
        via_adjacency = mix(x, Tensor(adj))
        via_operator = mix(x, propagation=Tensor(cached_row_normalized(adj)))
        np.testing.assert_array_equal(via_adjacency.data, via_operator.data)

    def test_requires_adjacency_or_propagation(self):
        mix = MixHopPropagation(3, 3, rng=np.random.default_rng(11))
        with pytest.raises(ValueError, match="adjacency= or propagation="):
            mix(Tensor(np.ones((2, 7, 3))))

    def test_learned_graph_still_receives_gradients(self):
        mix = MixHopPropagation(2, 2, rng=np.random.default_rng(12))
        adjacency = Tensor(_adjacency(), requires_grad=True)
        out = mix(Tensor(np.ones((2, 7, 2))), adjacency)
        (out ** 2).sum().backward()
        assert adjacency.grad is not None
        assert np.any(adjacency.grad != 0)


class TestMTGNNStaticOperators:
    def test_static_forward_unchanged_and_cached(self):
        from repro.models.mtgnn import MTGNN

        adj = _adjacency(6, seed=13)
        rng = np.random.default_rng(14)
        inputs = Tensor(rng.standard_normal((4, 3, 6)).astype(np.float32))
        model = MTGNN(6, 3, initial_adjacency=adj, use_graph_learning=False,
                      rng=np.random.default_rng(15))
        model.eval()
        first = model(inputs).data.copy()
        info_after_first = cache_info()
        second = model(inputs).data
        np.testing.assert_array_equal(first, second)
        # The propagation pair is memoized on the model after one forward.
        assert cache_info()["misses"] == info_after_first["misses"]

    def test_set_adjacency_invalidates_operators(self):
        from repro.models.mtgnn import MTGNN

        rng = np.random.default_rng(16)
        inputs = Tensor(rng.standard_normal((4, 3, 6)).astype(np.float32))
        model = MTGNN(6, 3, initial_adjacency=_adjacency(6, seed=17),
                      use_graph_learning=False,
                      rng=np.random.default_rng(18))
        model.eval()
        before = model(inputs).data.copy()
        model.set_adjacency(_adjacency(6, seed=19))
        after = model(inputs).data
        assert not np.array_equal(before, after)


BUILDER_KWARGS = {"knn": {"k": 3}, "dtw": {"window": 5}}


def _builder_graph(name, series):
    kwargs = dict(BUILDER_KWARGS.get(name, {}))
    return get_graph_builder(name)(series, gdt=0.4, seed=11, **kwargs)


def _graph_layer(name, adjacency, rng):
    """``(call, layer)``: a graph layer over ``adjacency`` and its forward."""
    if name == "gcn":
        layer = GCNConv(3, 3, adjacency, rng=rng)
        return layer, layer
    if name == "cheb":
        layer = ChebConv(3, 3, adjacency, order=3, rng=rng)
        return layer, layer
    layer = MixHopPropagation(3, 3, depth=2, rng=rng)
    operator = Tensor(cached_row_normalized(
        adjacency.astype(get_default_dtype())))
    return (lambda x: layer(x, propagation=operator)), layer


class TestRegistryGraphsThroughLayers:
    """Every registered graph builder's graph, ``graphical_lasso``
    included, drives GCN, Chebyshev and mix-hop propagation forward and
    backward."""

    @pytest.mark.parametrize("builder", sorted(GRAPH_REGISTRY))
    @pytest.mark.parametrize("layer", ("gcn", "cheb", "mixhop"))
    def test_gradients_match_finite_differences(self, builder, layer):
        set_default_dtype(np.float64)   # conftest restores the session dtype
        rng = np.random.default_rng(8)
        adjacency = _builder_graph(builder, rng.standard_normal((40, 7)))
        call, module = _graph_layer(layer, adjacency,
                                    np.random.default_rng(42))
        x = Tensor(rng.standard_normal((2, 7, 3)), requires_grad=True)
        check_gradients(lambda t, *params: (call(t) ** 2).sum(),
                        [x, *module.parameters()])

    @pytest.mark.parametrize("builder", sorted(GRAPH_REGISTRY))
    @pytest.mark.parametrize("layer", ("gcn", "cheb", "mixhop"))
    def test_float32_tracks_float64(self, builder, layer):
        rng = np.random.default_rng(8)
        adjacency = _builder_graph(builder, rng.standard_normal((40, 7)))
        x_data = rng.standard_normal((2, 7, 3))
        runs = {}
        for dtype in (np.float64, np.float32):
            clear_graph_caches()
            set_default_dtype(dtype)
            call, module = _graph_layer(layer, adjacency,
                                        np.random.default_rng(42))
            x = Tensor(x_data.astype(dtype), requires_grad=True)
            out = call(x)
            (out ** 2).sum().backward()
            assert out.data.dtype == dtype
            runs[dtype] = [out.data, x.grad] + [p.grad for p in
                                                module.parameters()]
        for single, double in zip(runs[np.float32], runs[np.float64]):
            assert np.all(np.isfinite(single))
            scale = max(np.abs(double).max(), 1.0)
            assert np.abs(single - double).max() / scale <= 1e-4, \
                f"{builder}/{layer}: float32 drifted from float64"
