"""Tests for the CSR sparse graph kernels and the density autoswitch.

Three contracts are under test:

* **backend bitwise** — both spmm backends (compiled kernel, scipy)
  accumulate each output element sequentially in CSR row order, so the
  backends are mutually bitwise identical and equal to the pure-python
  two-loop reference.
* **dense/sparse tolerance** — dense BLAS uses blocked summation, so the
  CSR path agrees with the dense path only to documented rounding
  (rtol 1e-5 float32 / 1e-12 float64): the parity sweep asserts that for
  every registry graph builder x conv layer x dtype, forward and
  gradient.
* **routing** — the autoswitch engages only past the node floor and
  below the measured crossover for the active backend, respecting the
  ``auto``/``always``/``never`` mode everywhere it is threaded (layers,
  cohort cells, stacked eligibility, trace JIT).
"""

import contextlib

import numpy as np
import pytest

from repro.autodiff import EpochJIT, Tensor, mse, set_default_dtype
from repro.autodiff.gradcheck import check_gradients
from repro.nn import ChebConv, GCNConv, MixHopPropagation
from repro.nn.graphcache import cached_row_normalized, clear_graph_caches
from repro.nn.sparse import (CSRMatrix, SPARSE_DENSITY_CROSSOVER,
                             SPARSE_MIN_NODES, csr_matmul, get_sparse_mode,
                             set_sparse_mode, should_use_sparse, spmm,
                             sparse_backend, sparse_operator)
from repro.nn.sparse import _reference_spmm

RTOL = {"float32": 1e-5, "float64": 1e-12}


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_graph_caches()
    yield
    clear_graph_caches()


def _random_csr(v=13, cols=None, density=0.4, dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((v, cols or v)).astype(dtype)
    dense[rng.random(dense.shape) >= density] = 0.0
    return CSRMatrix.from_dense(dense), dense


class TestCSRMatrix:
    def test_from_dense_to_dense_roundtrip(self):
        for dtype in (np.float32, np.float64):
            csr, dense = _random_csr(dtype=dtype)
            assert csr.dtype == dtype
            np.testing.assert_array_equal(csr.to_dense(), dense)

    def test_components_are_read_only(self):
        csr, _ = _random_csr()
        for array in (csr.indptr, csr.indices, csr.data):
            assert not array.flags.writeable

    def test_rejects_integer_data(self):
        with pytest.raises(TypeError, match="float32 or float64"):
            CSRMatrix.from_dense(np.eye(3), dtype=np.int64)

    def test_rejects_malformed_indptr(self):
        with pytest.raises(ValueError, match="indptr"):
            CSRMatrix(np.array([0, 1]), np.array([0]), np.array([1.0]),
                      (2, 2))

    def test_structural_density_counts_stored_entries(self):
        csr = CSRMatrix.from_dense(np.diag([1.0, 2.0, 3.0, 4.0]))
        assert csr.nnz == 4
        assert csr.structural_density == pytest.approx(4 / 16)

    def test_transpose_matches_dense_transpose(self):
        csr, dense = _random_csr(v=9, cols=5, seed=3)
        np.testing.assert_array_equal(csr.T.to_dense(), dense.T)
        assert csr.T.T is csr

    def test_symmetric_transpose_is_self(self):
        rng = np.random.default_rng(4)
        dense = rng.standard_normal((8, 8))
        dense = (dense + dense.T) / 2.0
        dense[np.abs(dense) < 0.3] = 0.0
        dense = (dense + dense.T) / 2.0
        csr = CSRMatrix.from_dense(dense)
        assert csr.T is csr

    def test_same_values(self):
        csr, dense = _random_csr(seed=5)
        assert csr.same_values(CSRMatrix.from_dense(dense))
        other = dense.copy()
        other[0, 0] = 17.5
        assert not csr.same_values(CSRMatrix.from_dense(other))

    def test_matmul_operator(self):
        csr, dense = _random_csr(seed=6)
        x = np.random.default_rng(7).standard_normal((13, 4))
        np.testing.assert_array_equal(csr @ x, spmm(csr, x))


class TestBackendBitwise:
    def test_active_backend_matches_reference(self):
        for dtype in (np.float32, np.float64):
            for m in (1, 5, 16, 33):
                csr, _ = _random_csr(dtype=dtype, seed=m)
                x = np.ascontiguousarray(np.random.default_rng(m)
                                         .standard_normal((13, m))
                                         .astype(dtype))
                np.testing.assert_array_equal(spmm(csr, x),
                                              _reference_spmm(csr, x))

    def test_scipy_matches_reference(self):
        sp = pytest.importorskip("scipy.sparse")
        for dtype in (np.float32, np.float64):
            csr, _ = _random_csr(dtype=dtype, seed=12)
            x = np.ascontiguousarray(np.random.default_rng(12)
                                     .standard_normal((13, 8)).astype(dtype))
            matrix = sp.csr_matrix((csr.data, csr.indices, csr.indptr),
                                   shape=csr.shape)
            np.testing.assert_array_equal(np.ascontiguousarray(matrix @ x),
                                          _reference_spmm(csr, x))

    def test_spmm_validates_shape_and_dtype(self):
        csr, _ = _random_csr()
        with pytest.raises(ValueError, match="does not match operator"):
            spmm(csr, np.ones((5, 2)))
        with pytest.raises(TypeError, match="dtype"):
            spmm(csr, np.ones((13, 2), dtype=np.float32))


class TestCsrMatmulOp:
    def test_gradcheck_through_csr_matmul(self):
        set_default_dtype(np.float64)
        csr, _ = _random_csr(v=7, seed=20)
        x = Tensor(np.random.default_rng(21).standard_normal((3, 7, 4)),
                   requires_grad=True)
        check_gradients(lambda t: (csr_matmul(csr, t) ** 2).sum(), [x])

    def test_backward_matches_dense_operator(self):
        for dtype in (np.float32, np.float64):
            set_default_dtype(dtype)
            csr, dense = _random_csr(v=7, dtype=dtype, seed=22)
            data = np.random.default_rng(23).standard_normal((2, 7, 3)) \
                .astype(dtype)

            xs = Tensor(data.copy(), requires_grad=True)
            (csr_matmul(csr, xs) ** 2).sum().backward()
            xd = Tensor(data.copy(), requires_grad=True)
            ((Tensor(dense) @ xd) ** 2).sum().backward()

            scale = max(np.abs(xd.grad).max(), 1.0)
            assert np.abs(xs.grad - xd.grad).max() / scale \
                <= RTOL[np.dtype(dtype).name]

    def test_dtype_promotion_mirrors_dense_matmul(self):
        # MTGNN's static operators are float64 under a float32 default;
        # the op promotes the operand exactly like dense ``@`` would.
        set_default_dtype(np.float32)
        csr, dense = _random_csr(v=5, dtype=np.float64, seed=24)
        x = Tensor(np.random.default_rng(25)
                   .standard_normal((5, 3)).astype(np.float32))
        out = csr_matmul(csr, x)
        assert out.data.dtype == np.float64
        assert (Tensor(dense) @ x).data.dtype == np.float64

    def test_rejects_non_tensor_free_shape_mismatch(self):
        csr, _ = _random_csr(v=7)
        with pytest.raises(ValueError, match="does not match operator"):
            csr_matmul(csr, Tensor(np.ones((3, 5, 2))))


class TestAutoswitch:
    def test_mode_set_get_and_validation(self):
        set_sparse_mode("always")
        assert get_sparse_mode() == "always"
        with pytest.raises(ValueError, match="sparse mode"):
            set_sparse_mode("sometimes")
        assert get_sparse_mode() == "always"

    def test_never_and_always_short_circuit(self):
        assert not should_use_sparse(10_000, 0.01, np.float64, mode="never")
        assert should_use_sparse(4, 1.0, np.float32, mode="always")

    def test_non_float_dtype_stays_dense(self):
        assert not should_use_sparse(10_000, 0.01, np.int64, mode="always")

    def test_auto_requires_node_floor(self):
        assert not should_use_sparse(SPARSE_MIN_NODES - 1, 0.0, np.float64,
                                     mode="auto")

    def test_auto_density_crossover(self):
        crossover = SPARSE_DENSITY_CROSSOVER[sparse_backend()]["float64"]
        if crossover == 0.0:
            pytest.skip("fallback backend never routes sparse in auto mode")
        v = SPARSE_MIN_NODES * 4
        assert should_use_sparse(v, crossover - 0.01, np.float64,
                                 mode="auto")
        assert not should_use_sparse(v, crossover + 0.01, np.float64,
                                     mode="auto")

    def test_sparse_operator_helper(self):
        dense = np.eye(8)
        assert isinstance(sparse_operator(dense, mode="always"), CSRMatrix)
        assert sparse_operator(dense, mode="never") is None
        assert sparse_operator(np.eye(8, dtype=np.int64),
                               mode="always") is None


def _adjacency(v=7, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.random((v, v))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    a[a < 0.4] = 0.0
    return a


class TestLayerRouting:
    def test_gcn_routes_by_mode(self):
        adj = _adjacency()
        set_sparse_mode("always")
        sparse_conv = GCNConv(3, 3, adj, rng=np.random.default_rng(0))
        assert sparse_conv._sparse is not None
        set_sparse_mode("never")
        dense_conv = GCNConv(3, 3, adj, rng=np.random.default_rng(0))
        assert dense_conv._sparse is None

    def test_cheb_routes_per_term(self):
        adj = _adjacency()
        set_sparse_mode("always")
        conv = ChebConv(3, 3, adj, order=3, rng=np.random.default_rng(0))
        assert any(term is not None for term in conv._sparse_basis)
        set_sparse_mode("never")
        conv = ChebConv(3, 3, adj, order=3, rng=np.random.default_rng(0))
        assert all(term is None for term in conv._sparse_basis)

    def test_cheb_attention_path_stays_dense_and_works(self):
        set_sparse_mode("always")
        conv = ChebConv(1, 4, _adjacency(), order=2,
                        rng=np.random.default_rng(1))
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((3, 7, 1)))
        s_att = Tensor(rng.standard_normal((3, 7, 7)))
        assert conv(x, spatial_attention=s_att).shape == (3, 7, 4)

    def test_set_adjacency_invalidates_sparse_operator(self):
        set_sparse_mode("always")
        conv = GCNConv(3, 3, _adjacency(seed=1),
                       rng=np.random.default_rng(0))
        first = conv._sparse
        conv.set_adjacency(_adjacency(seed=2))
        assert conv._sparse is not first


BUILDER_KWARGS = {"knn": {"k": 3}, "dtw": {"window": 5}}


def _builder_graph(name, series):
    from repro.graphs import get_graph_builder

    kwargs = dict(BUILDER_KWARGS.get(name, {}))
    return get_graph_builder(name)(series, gdt=0.4, seed=11, **kwargs)


def _parity_case(layer_name, adjacency, dtype, x_data):
    """Build (dense_out, sparse_out, dense_grads, sparse_grads)."""
    results = {}
    for mode in ("never", "always"):
        clear_graph_caches()
        set_sparse_mode(mode)
        rng = np.random.default_rng(42)
        if layer_name == "gcn":
            layer = GCNConv(3, 3, adjacency, rng=rng)
            call = lambda t: layer(t)
        elif layer_name == "cheb":
            layer = ChebConv(3, 3, adjacency, order=3, rng=rng)
            call = lambda t: layer(t)
        else:
            layer = MixHopPropagation(3, 3, depth=2, rng=rng)
            operator = cached_row_normalized(
                adjacency.astype(np.dtype(dtype)))
            prop = (CSRMatrix.from_dense(operator) if mode == "always"
                    else Tensor(np.asarray(operator)))
            call = lambda t: layer(t, propagation=prop)
        if mode == "always" and layer_name == "gcn":
            assert layer._sparse is not None
        x = Tensor(x_data.copy(), requires_grad=True)
        out = call(x)
        (out ** 2).sum().backward()
        grads = [x.grad.copy()] + [p.grad.copy()
                                   for p in layer.parameters()]
        results[mode] = (out.data.copy(), grads)
    return results


ALL_BUILDERS = ("euclidean", "knn", "dtw", "correlation", "cosine",
                "partial_correlation", "graphical_lasso",
                "mutual_information", "random")


class TestDenseSparseParity:
    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    @pytest.mark.parametrize("layer", ("gcn", "cheb", "mixhop"))
    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_forward_and_grad_parity(self, builder, layer, dtype):
        set_default_dtype(dtype)
        rng = np.random.default_rng(8)
        series = rng.standard_normal((40, 7))
        adjacency = _builder_graph(builder, series)
        x_data = rng.standard_normal((2, 7, 3)).astype(dtype)
        results = _parity_case(layer, adjacency, dtype, x_data)
        rtol = RTOL[np.dtype(dtype).name]

        dense_out, dense_grads = results["never"]
        sparse_out, sparse_grads = results["always"]
        scale = max(np.abs(dense_out).max(), 1.0)
        assert np.abs(sparse_out - dense_out).max() / scale <= rtol, \
            f"{builder}/{layer}/{np.dtype(dtype).name}: forward diverged"
        for dense_g, sparse_g in zip(dense_grads, sparse_grads):
            scale = max(np.abs(dense_g).max(), 1.0)
            assert np.abs(sparse_g - dense_g).max() / scale <= rtol, \
                f"{builder}/{layer}/{np.dtype(dtype).name}: grad diverged"


def _sgd(params, lr=0.1):
    def step():
        for p in params:
            p.data -= lr * p.grad
    return step


def _jit_loop(epochs, use_jit, loss_fn, params, before_epoch=None):
    jit = EpochJIT(tail=(_sgd(params),)) if use_jit else None
    losses = []
    for epoch in range(epochs):
        if before_epoch is not None:
            before_epoch(epoch)
        if jit is not None and jit.replay():
            losses.append(jit.loss_value())
            continue
        for p in params:
            p.grad = None
        ctx = jit.capture() if jit is not None else contextlib.nullcontext()
        with ctx:
            loss = loss_fn()
            loss.backward()
        if jit is not None:
            jit.seal(loss)
        losses.append(loss.item())
        _sgd(params)()
    return losses, jit


class TestTraceJITInteraction:
    def test_sparse_epochs_replay_bit_identically(self):
        set_default_dtype(np.float64)
        set_sparse_mode("always")
        results = []
        for use_jit in (False, True):
            rng = np.random.default_rng(30)
            conv = GCNConv(3, 3, _adjacency(seed=31), rng=rng)
            assert conv._sparse is not None
            x = rng.standard_normal((4, 7, 3))
            y = rng.standard_normal((4, 7, 3))

            def loss_fn():
                return mse(conv(Tensor(x)), y)

            params = list(conv.parameters())
            losses, jit = _jit_loop(8, use_jit, loss_fn, params)
            results.append((losses, [p.data.copy() for p in params]))
            if use_jit:
                assert jit.total_replays == 6
                assert jit.disabled_reason is None
        (eager_losses, eager_params), (jit_losses, jit_params) = results
        assert eager_losses == jit_losses
        for eager_p, jit_p in zip(eager_params, jit_params):
            np.testing.assert_array_equal(eager_p, jit_p)

    def test_operator_change_disables_with_catalogued_reason(self):
        set_default_dtype(np.float64)
        rng = np.random.default_rng(32)
        w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        x = rng.standard_normal((7, 3))
        y = rng.standard_normal((7, 3))
        box = {"op": CSRMatrix.from_dense(_adjacency(seed=33) + np.eye(7))}

        def before(epoch):
            if epoch >= 1:
                box["op"] = CSRMatrix.from_dense(
                    _adjacency(seed=34) + np.eye(7))

        def loss_fn():
            return mse(csr_matmul(box["op"], Tensor(x) @ w), y)

        losses, jit = _jit_loop(4, True, loss_fn, [w], before_epoch=before)
        assert jit.off
        assert "csr" in jit.disabled_reason
        # Fallback stays correct: eager losses match a never-jitted run.
        box["op"] = CSRMatrix.from_dense(_adjacency(seed=33) + np.eye(7))
        w2 = Tensor(np.random.default_rng(32).standard_normal((3, 3)),
                    requires_grad=True)

        def before2(epoch):
            if epoch >= 1:
                box["op"] = CSRMatrix.from_dense(
                    _adjacency(seed=34) + np.eye(7))

        def loss_fn2():
            return mse(csr_matmul(box["op"], Tensor(x) @ w2), y)

        eager_losses, _ = _jit_loop(4, False, loss_fn2, [w2],
                                    before_epoch=before2)
        assert losses == eager_losses


class TestStackedInteraction:
    def _cells(self, sparse_mode, model="a3tgcn"):
        from repro.data import (PreprocessingPipeline, SynthesisConfig,
                                generate_cohort)
        from repro.models import ModelConfig
        from repro.training import TrainerConfig, enumerate_cells

        raw = generate_cohort(SynthesisConfig(num_individuals=6,
                                              num_days=14, beeps_per_day=4,
                                              seed=5))
        cohort, _ = PreprocessingPipeline(min_compliance=0.5,
                                          max_individuals=2,
                                          min_time_points=25).run(raw)
        set_sparse_mode(sparse_mode)
        return enumerate_cells(
            cohort, model, 2, graph_method="correlation", keep_fraction=0.4,
            trainer_config=TrainerConfig(epochs=2),
            model_config=ModelConfig(hidden_size=8, mtgnn_layers=1,
                                     mtgnn_embedding_dim=4), base_seed=3)

    def test_sparse_cells_blocked_with_catalogued_reason(self):
        from repro.training.stacked import stackable_reason

        for cell in self._cells("always"):
            reason = stackable_reason(cell)
            assert reason is not None and "sparse" in reason

    def test_auto_cells_at_ema_scale_still_stack(self):
        # V = 26-ish EMA graphs are far below the node floor: auto mode
        # keeps them dense, so stacking eligibility is unchanged.
        from repro.training.stacked import stackable_reason

        for cell in self._cells("auto"):
            assert stackable_reason(cell) is None

    def test_lstm_cells_unaffected_by_sparse_mode(self):
        from repro.training.stacked import stackable_reason

        for cell in self._cells("always", model="lstm"):
            assert stackable_reason(cell) is None

    def test_cell_key_folds_non_default_mode(self):
        always = self._cells("always")
        auto = self._cells("auto")
        assert all("|sparse=always" in c.key for c in always)
        assert all("sparse=" not in c.key for c in auto)
        assert all(c.sparse == "always" for c in always)

    def test_execute_cell_applies_mode(self):
        from repro.training.parallel import execute_cell

        cell = self._cells("always")[0]
        set_sparse_mode("auto")
        result = execute_cell(cell)
        assert get_sparse_mode() == "always"
        assert np.isfinite(result.test_mse)
