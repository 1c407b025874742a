"""Tests for the unified graph-builder registry."""

import warnings

import numpy as np
import pytest

from repro.graphs import (GRAPH_REGISTRY, build_adjacency, get_graph_builder,
                          register_graph_method)
from repro.graphs.adjacency import (EXTENDED_METHODS, GraphMethod,
                                    STATIC_METHODS)
from repro.graphs.random_graph import random_adjacency
from repro.graphs.sparsify import sparsify

ALL_METRICS = {**STATIC_METHODS, **EXTENDED_METHODS}


@pytest.fixture
def series():
    rng = np.random.default_rng(11)
    return np.cumsum(rng.standard_normal((50, 6)), axis=0)


class TestRegistryDispatch:
    @pytest.mark.parametrize("method", sorted(ALL_METRICS))
    def test_registry_matches_direct_metric(self, series, method):
        """Registry builder == sparsify(metric(data)) for every metric."""
        via_registry = get_graph_builder(method)(series, gdt=0.4, seed=0)
        direct = sparsify(ALL_METRICS[method](series.astype(np.float64)), 0.4)
        np.testing.assert_array_equal(via_registry, direct)

    @pytest.mark.parametrize("method", sorted(ALL_METRICS))
    def test_build_adjacency_front_end(self, series, method):
        """build_adjacency routes through the same registry builder."""
        front = build_adjacency(series, method, gdt=0.4)
        via_registry = get_graph_builder(method)(series, gdt=0.4)
        np.testing.assert_array_equal(front, via_registry)

    def test_random_matches_direct_construction(self, series):
        via_registry = get_graph_builder("random")(series, gdt=0.5, seed=9)
        v = series.shape[1]
        edges = max(1, int(round(0.5 * (v * (v - 1) // 2))))
        direct = random_adjacency(v, edges, np.random.default_rng(9))
        np.testing.assert_array_equal(via_registry, direct)

    def test_random_requires_seed(self, series):
        with pytest.raises(ValueError, match="seed"):
            build_adjacency(series, "random", gdt=0.5)

    def test_unknown_method(self, series):
        with pytest.raises(ValueError, match="registered"):
            build_adjacency(series, "laplacian-of-doom")
        with pytest.raises(ValueError, match="registered"):
            get_graph_builder("nope")

    def test_method_kwargs_forwarded(self, series):
        sparse_k = build_adjacency(series, "knn", gdt=1.0, k=2)
        dense_k = build_adjacency(series, "knn", gdt=1.0, k=4)
        assert sparse_k.sum() < dense_k.sum()

    def test_every_graphmethod_name_registered(self):
        """Every data-driven GraphMethod constant resolves by name."""
        for name in (GraphMethod.EUCLIDEAN, GraphMethod.KNN, GraphMethod.DTW,
                     GraphMethod.CORRELATION, GraphMethod.RANDOM,
                     GraphMethod.COSINE, GraphMethod.PARTIAL_CORRELATION,
                     GraphMethod.MUTUAL_INFORMATION):
            assert callable(get_graph_builder(name))


class TestRegisterGuard:
    def test_duplicate_registration_refused(self):
        def build(data, *, gdt=1.0, seed=None):
            raise NotImplementedError

        with pytest.raises(ValueError, match="already registered"):
            register_graph_method("correlation", build)

    def test_overwrite_roundtrip(self):
        original = GRAPH_REGISTRY["correlation"]

        def build(data, *, gdt=1.0, seed=None):
            return np.zeros((2, 2))

        try:
            register_graph_method("correlation", build, overwrite=True)
            assert get_graph_builder("correlation") is build
        finally:
            register_graph_method("correlation", original, overwrite=True)


class TestDeprecationShims:
    """Only the uniform keyword signature is accepted."""

    def test_too_many_positionals(self, series):
        with pytest.raises(TypeError, match="positional"):
            build_adjacency(series, "random", 0.3,
                            np.random.default_rng(0), "extra")

    def test_new_form_is_warning_free(self, series):
        with warnings.catch_warnings(record=True) as recorded:
            warnings.simplefilter("always")
            build_adjacency(series, "correlation", gdt=0.3, seed=1)
        assert not [w for w in recorded
                    if issubclass(w.category, DeprecationWarning)]
