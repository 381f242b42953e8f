"""Tape engine: op values, gradients vs central finite differences, Adam, determinism."""
from __future__ import annotations

import tracemalloc
import weakref

import numpy as np
import pytest

from dense_oracle import concat_cols, dense_chain
from tailkit import autodiff as ad
from tailkit.generators import generate_scale_free
from tailkit.graph import build_graph, normalize_adjacency


def fd_grads(f, params, h=1e-5):
    """Central finite differences of scalar ``f()`` w.r.t. each param tensor."""
    out = []
    for p in params:
        g = np.zeros_like(p.value)
        flat, gflat = p.value.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        out.append(g)
    return out


def check_grads(build, params, tol=1e-6):
    """Analytic grads from one taped run vs finite differences of the same fn."""
    for p in params:
        p.zero_grad()
    with ad.Tape() as tape:
        loss = build()
    tape.backward(loss)
    numeric = fd_grads(lambda: float(build().value), params)
    for p, n in zip(params, numeric):
        analytic = p.grad if p.grad is not None else np.zeros_like(p.value)
        denom = np.maximum(np.abs(analytic) + np.abs(n), 1.0)
        assert (np.abs(analytic - n) / denom).max() < tol


def gather_rows_vjp_add_at(shape, idx, upstream):
    """Reference oracle: the ``np.add.at`` vjp that ``ad.gather_rows`` replaced."""
    g = np.zeros(shape)
    np.add.at(g, idx, upstream)
    return g


def row_max_pool_per_node(x, graph, upstream):
    """Reference oracle: the per-node loop that ``ad.row_max_pool`` replaced.

    Returns the forward value for ``x`` and the vjp of ``upstream``.
    """
    n, d = x.shape
    off, tgt = graph.csr_offsets, graph.csr_targets
    value = np.zeros((n, d))
    argmax = np.zeros((n, d), dtype=np.int64)
    nonempty = np.zeros(n, dtype=bool)
    for i in range(n):
        a, b = off[i], off[i + 1]
        if b > a:
            seg = x[tgt[a:b]]
            am = seg.argmax(axis=0)  # first occurrence = lowest node id (targets sorted)
            value[i] = seg[am, np.arange(d)]
            argmax[i] = tgt[a:b][am]
            nonempty[i] = True
    grad = np.zeros_like(x)
    cols = np.arange(d)
    for i in np.flatnonzero(nonempty):
        np.add.at(grad, (argmax[i], cols), upstream[i])
    return value, grad


def row_max_pool_copyto_sweep(x, graph, upstream):
    """Reference oracle: the degree-rank sweep with masked copies that
    ``ad.row_max_pool``'s fmax sweep replaced.

    Unlike the per-node loop it also fixes NaN: a NaN never wins, and a NaN
    first neighbor is never beaten. Returns the forward value for ``x`` and
    the vjp of ``upstream``.
    """
    n, d = x.shape
    off, tgt = graph.csr_offsets, graph.csr_targets
    deg = np.diff(off)
    order = np.argsort(-deg, kind="stable")
    max_degree = int(deg.max(initial=0))
    active = np.searchsorted(-deg[order], -np.arange(max_degree))
    rows = order[:np.count_nonzero(deg)]
    starts = off[rows]
    value = np.zeros((n, d))
    pos = np.zeros((rows.size, d), dtype=np.min_scalar_type(max_degree))
    best = x[tgt[starts]]
    win = np.empty(best.shape, dtype=bool)
    for j in range(1, max_degree):
        k = active[j]
        cand = x[tgt[starts[:k] + j]]
        np.greater(cand, best[:k], out=win[:k])
        np.copyto(best[:k], cand, where=win[:k])
        np.copyto(pos[:k], j, where=win[:k], casting="unsafe")
    value[rows] = best

    nodes = np.flatnonzero(deg)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    flat = tgt[off[nodes, None] + pos[rank[nodes]]] * d + np.arange(d)
    grad = np.bincount(flat.ravel(), weights=upstream[nodes].ravel(), minlength=n * d)
    return value, grad.reshape(n, d)


class TestOpValues:
    def test_relu(self):
        x = ad.Tensor([[-1.0, 0.0, 2.0]])
        np.testing.assert_array_equal(ad.relu(x).value, [[0.0, 0.0, 2.0]])

    def test_softplus_at_zero_is_ln2(self):
        x = ad.Tensor([[0.0]])
        np.testing.assert_allclose(ad.softplus(x).value, np.log(2.0), atol=1e-15)

    def test_log_softmax_rows_normalize(self):
        x = ad.Tensor(np.random.default_rng(0).normal(size=(5, 4)))
        out = ad.log_softmax(x).value
        np.testing.assert_allclose(np.exp(out).sum(axis=1), 1.0, atol=1e-12)

    def test_log_softmax_extreme_inputs_finite(self):
        x = ad.Tensor([[1000.0, 0.0, -1000.0]])
        out = ad.log_softmax(x).value
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[0, 0], 0.0, atol=1e-12)

    def test_concat_and_hadamard(self):
        a = ad.Tensor([[1.0, 2.0]])
        b = ad.Tensor([[3.0, 4.0]])
        np.testing.assert_array_equal(concat_cols(a, b).value, [[1, 2, 3, 4]])
        np.testing.assert_array_equal(ad.hadamard(a, b).value, [[3, 8]])

    def test_pick(self):
        x = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ad.pick(x, [1, 0]).value, [[2.0], [3.0]])

    def test_rank_limit(self):
        with pytest.raises(ad.AutodiffError, match="rank"):
            ad.Tensor(np.zeros((2, 2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ad.AutodiffError):
            ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 3))))

    def test_spmm_matches_dense(self):
        g = build_graph([(0, 1), (1, 2), (0, 3)], 4)
        adj = normalize_adjacency(g, "renormalized")
        dense = np.zeros((4, 4))
        for i in range(4):
            for k in range(adj.offsets[i], adj.offsets[i + 1]):
                dense[i, adj.targets[k]] += adj.weights[k]
        x = ad.Tensor(np.random.default_rng(1).normal(size=(4, 3)))
        np.testing.assert_allclose(ad.spmm(adj, x).value, dense @ x.value, atol=1e-12)

    def test_segment_softmax_sums_to_one(self):
        # rows of 3, 2, 1 and 2 entries: node 2 holds only its self-entry
        adj = normalize_adjacency(build_graph([(0, 1), (0, 3)], 4), "renormalized")
        np.testing.assert_array_equal(adj.offsets, [0, 3, 5, 6, 8])
        logits = ad.Tensor(np.random.default_rng(2).normal(size=(8, 1)))
        p = ad.segment_softmax(logits, adj).value[:, 0]
        np.testing.assert_allclose(
            [p[0:3].sum(), p[3:5].sum(), p[5:6].sum(), p[6:8].sum()], 1.0, atol=1e-12
        )

    def test_row_max_pool_values_and_empty_rows(self):
        g = build_graph([(0, 1), (0, 2)], 4)  # node 3 isolated
        x = ad.Tensor([[9.0, 0.0], [1.0, 5.0], [2.0, 3.0], [7.0, 7.0]])
        out = ad.row_max_pool(x, g).value
        np.testing.assert_array_equal(out[0], [2.0, 5.0])  # max over nodes 1, 2
        np.testing.assert_array_equal(out[1], [9.0, 0.0])
        np.testing.assert_array_equal(out[3], [0.0, 0.0])  # no neighbors -> zeros


class TestGradients:
    def test_matmul_chain(self):
        rng = np.random.default_rng(0)
        a = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        check_grads(lambda: ad.mean_all(ad.relu(ad.matmul(a, b))), [a, b])

    def test_bias_and_activations(self):
        rng = np.random.default_rng(1)
        x = ad.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=4), requires_grad=True)

        def build():
            h = ad.add_bias(x, b)
            return ad.mean_all(ad.add(ad.leaky_relu(h), ad.softplus(h)))

        check_grads(build, [x, b])

    def test_dense(self):
        rng = np.random.default_rng(8)
        a = ad.Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        c = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=4), requires_grad=True)
        for relu in (False, True):
            check_grads(lambda: ad.mean_all(ad.softplus(ad.dense([a, c], w, b, relu=relu))),
                        [a, c, w, b])

    def test_log_softmax_pick_loss(self):
        rng = np.random.default_rng(2)
        x = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        labels = np.array([0, 2, 1, 1, 0])
        check_grads(
            lambda: ad.scale(ad.mean_all(ad.pick(ad.log_softmax(x), labels)), -1.0),
            [x],
        )

    def test_spmm_gradient_row_mean(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)], 5)
        adj = normalize_adjacency(g, "row-mean")  # asymmetric operator
        rng = np.random.default_rng(3)
        x = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        check_grads(lambda: ad.mean_all(ad.relu(ad.spmm(adj, x))), [x])

    def test_edge_spmm_and_segment_softmax(self):
        g = build_graph([(0, 1), (1, 2), (0, 2)], 3)
        adj = normalize_adjacency(g, "renormalized")
        rng = np.random.default_rng(4)
        logits = ad.Tensor(rng.normal(size=(adj.nnz, 1)), requires_grad=True)
        x = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)

        def build():
            coeff = ad.segment_softmax(logits, adj)
            return ad.mean_all(ad.edge_spmm(coeff, x, adj))

        check_grads(build, [logits, x])

    def test_row_max_pool_gradient(self):
        g = build_graph([(0, 1), (0, 2), (1, 2), (2, 3)], 5)
        rng = np.random.default_rng(5)
        x = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        check_grads(lambda: ad.mean_all(ad.row_max_pool(x, g)), [x])

    def test_row_max_pool_tie_goes_to_lowest_id(self):
        g = build_graph([(0, 1), (0, 2)], 3)
        x = ad.Tensor([[0.0, 0.0], [4.0, 1.0], [4.0, 2.0]], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.row_max_pool(x, g))
        tape.backward(loss)
        # column 0 ties between nodes 1 and 2 at 4.0: node 1 (lower id) gets it
        assert x.grad[1, 0] > 0 and x.grad[2, 0] == 0.0

    def test_gather_rows_repeated_indices(self):
        rng = np.random.default_rng(6)
        x = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        idx = np.array([0, 2, 0, 0])
        check_grads(lambda: ad.mean_all(ad.hadamard(ad.gather_rows(x, idx), ad.gather_rows(x, idx))), [x])

    def test_row_sum_concat_sub(self):
        rng = np.random.default_rng(7)
        a = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)

        def build():
            h = concat_cols(a, ad.sub(a, b))
            return ad.mean_all(ad.row_sum(ad.leaky_relu(h, 0.2)))

        check_grads(build, [a, b])

    def test_random_composites(self):
        """Fifty random (shape, seed) cases through a mixed op pipeline."""
        for case in range(50):
            rng = np.random.default_rng(100 + case)
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, 5))
            k = int(rng.integers(1, 5))
            x = ad.Tensor(rng.normal(size=(n, d)), requires_grad=True)
            w = ad.Tensor(rng.normal(size=(d, k)), requires_grad=True)
            b = ad.Tensor(rng.normal(size=k), requires_grad=True)

            def build():
                h = ad.add_bias(ad.matmul(x, w), b)
                h = ad.leaky_relu(h) if case % 2 else ad.relu(h)
                return ad.mean_all(ad.hadamard(h, h))

            check_grads(build, [x, w, b], tol=1e-5)


def transpose_product_oracle(adj, u, weights):
    """Reference oracle: the transpose product that ``adj.mirror`` replaced.

    Entries are reordered by (target, row) and summed over the transpose's
    own offsets, as the ``t_perm``/``t_offsets`` vjp of spmm and edge_spmm did.
    """
    t_perm = np.lexsort((adj.rows, adj.targets))
    t_offsets = np.zeros(adj.num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(adj.targets, minlength=adj.num_nodes), out=t_offsets[1:])
    contrib = u[adj.rows] * weights[:, None]
    return ad._segment_sum(contrib[t_perm], t_offsets, adj.num_nodes)


def _scale_free_with_isolated(seed, n=300, isolated=20):
    edges = generate_scale_free(n, 2, seed=seed)[0].edges
    return build_graph(edges, n + isolated)


def _hub(n=200, seed=0):
    rng = np.random.default_rng(seed)
    spokes = [(0, i) for i in range(1, n)]
    extra = rng.integers(1, n, size=(n, 2))
    return build_graph(spokes + [tuple(e) for e in extra if e[0] != e[1]], n + 3)


def _normal(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


def _relu(shape, seed):
    return np.maximum(_normal(shape, seed), 0.0)


def _signed_zeros(shape, seed):
    return np.where(np.random.default_rng(seed).random(shape) < 0.5, 0.0, -0.0)


class TestRowMaxPoolAgainstPerNodeLoop:
    """The degree-rank sweep must reproduce the per-node loop bit for bit."""

    @pytest.mark.parametrize(
        "make_graph, make_x, d",
        [
            pytest.param(lambda: _scale_free_with_isolated(0), _normal, 8, id="scale-free-0"),
            pytest.param(lambda: _scale_free_with_isolated(1), _normal, 8, id="scale-free-1"),
            pytest.param(lambda: _scale_free_with_isolated(2), _relu, 16, id="scale-free-relu"),
            pytest.param(_hub, _normal, 8, id="hub"),
            pytest.param(_hub, _relu, 8, id="hub-relu"),
            pytest.param(lambda: _scale_free_with_isolated(3), _signed_zeros, 4,
                         id="signed-zero-ties"),
            pytest.param(lambda: build_graph(np.empty((0, 2)), 6), _normal, 3, id="edgeless"),
            pytest.param(lambda: _scale_free_with_isolated(4), _normal, 1, id="d=1"),
            pytest.param(lambda: _scale_free_with_isolated(5), _relu, 1, id="d=1-relu"),
        ],
    )
    def test_value_and_vjp_bitwise_equal(self, make_graph, make_x, d):
        graph = make_graph()
        xv = make_x((graph.num_nodes, d), 7)
        upstream = _normal(xv.shape, 8)
        want_value, want_grad = row_max_pool_per_node(xv, graph, upstream)
        value, grad = taped_row_max_pool(xv, graph, upstream)

        assert value.shape == want_value.shape
        # bytes rather than np.array_equal, so the sign of a zero must match too
        assert value.tobytes() == want_value.tobytes()
        assert grad.tobytes() == want_grad.tobytes()


def taped_row_max_pool(xv, graph, upstream):
    """``ad.row_max_pool``'s value for ``xv`` and its vjp of ``upstream``,
    through a tape."""
    x = ad.Tensor(xv.copy(), requires_grad=True)
    with ad.Tape() as tape:
        out = ad.row_max_pool(x, graph)
        with np.errstate(invalid="ignore"):  # inf - inf in the loss only
            loss = ad.sum_all(ad.hadamard(out, ad.Tensor(upstream)))
    tape.backward(loss)
    return out.value, x.grad


def _integer_ties(shape, seed):
    """Integers in [-2, 2], so most maxima tie, with each zero's sign random."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, size=shape).astype(np.float64)
    return np.where((x == 0) & (rng.random(shape) < 0.5), -0.0, x)


def _nans(shape, seed):
    """Normals with a tenth of the entries NaN, half of them with the sign bit set."""
    rng = np.random.default_rng(seed)
    nan = np.where(rng.random(shape) < 0.5, np.nan, -np.nan)
    return np.where(rng.random(shape) < 0.1, nan, rng.normal(size=shape))


def _infinities(shape, seed):
    rng = np.random.default_rng(seed)
    u = rng.random(shape)
    return np.where(u < 0.1, np.inf, np.where(u > 0.9, -np.inf, rng.normal(size=shape)))


@pytest.fixture(scope="module")
def large_max_graph():
    """The benchmark's ``large-max`` graph for seed 0."""
    graph, _ = generate_scale_free(20000, 2, feat_dim=16, num_classes=2, seed=0,
                                   separation=1.5, feature_noise=1.0, community_bias=4.0)
    return graph


class TestRowMaxPoolAgainstCopytoSweep:
    """The fmax sweep must reproduce the masked-copy sweep bit for bit,
    NaN and signed zeros included."""

    @pytest.mark.parametrize(
        "make_graph, make_x, d",
        [
            pytest.param(lambda: _scale_free_with_isolated(0), _normal, 8, id="normal"),
            pytest.param(lambda: _scale_free_with_isolated(1), _relu, 16, id="relu"),
            pytest.param(lambda: _scale_free_with_isolated(2), _integer_ties, 8,
                         id="integer-ties-signed-zeros"),
            pytest.param(lambda: _scale_free_with_isolated(3), _signed_zeros, 4,
                         id="signed-zeros-only"),
            pytest.param(lambda: _scale_free_with_isolated(4), _nans, 8, id="nan"),
            pytest.param(_hub, _nans, 8, id="hub-nan"),
            pytest.param(lambda: _scale_free_with_isolated(5), _infinities, 8, id="inf"),
            pytest.param(lambda: build_graph(np.empty((0, 2)), 6), _nans, 3, id="edgeless"),
        ],
    )
    def test_value_and_vjp_bitwise_equal(self, make_graph, make_x, d):
        self._check(make_graph(), make_x, d)

    @pytest.mark.parametrize("make_x, d", [
        pytest.param(None, 16, id="features"),
        pytest.param(_relu, 32, id="relu-hidden"),
        pytest.param(_integer_ties, 4, id="integer-ties-signed-zeros"),
    ])
    def test_large_max_graph(self, large_max_graph, make_x, d):
        self._check(large_max_graph, make_x, d)

    def test_nan_inputs_reach_first_and_later_neighbors(self):
        graph = _scale_free_with_isolated(4)
        nan = np.isnan(_nans((graph.num_nodes, 8), 7))
        first = graph.csr_targets[graph.csr_offsets[:-1][graph.degrees() > 0]]
        assert nan[first].any()
        later = np.ones(graph.csr_targets.size, dtype=bool)
        later[graph.csr_offsets[:-1][graph.degrees() > 0]] = False
        assert nan[graph.csr_targets[later]].any()

    @staticmethod
    def _check(graph, make_x, d):
        xv = graph.features if make_x is None else make_x((graph.num_nodes, d), 7)
        upstream = _normal(xv.shape, 8)
        want_value, want_grad = row_max_pool_copyto_sweep(xv, graph, upstream)
        value, grad = taped_row_max_pool(xv, graph, upstream)

        assert value.tobytes() == want_value.tobytes()
        assert grad.tobytes() == want_grad.tobytes()


_AGGREGATION_GRAPHS = [
    pytest.param(lambda: _scale_free_with_isolated(0), id="scale-free-0"),
    pytest.param(lambda: _scale_free_with_isolated(1), id="scale-free-1"),
    pytest.param(_hub, id="hub"),
    pytest.param(lambda: build_graph(np.empty((0, 2)), 6), id="edgeless"),
    pytest.param(lambda: build_graph(np.empty((0, 2)), 1), id="n=1"),
]


def _mixed_signs(shape, seed):
    """Normals with a third of the entries replaced by +0.0 or -0.0."""
    rng = np.random.default_rng(seed)
    zeros = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    return np.where(rng.random(shape) < 1 / 3, zeros, rng.normal(size=shape))


class TestGatherRowsVjpAgainstAddAt:
    """The bincount vjp must reproduce ``np.add.at`` bit for bit."""

    @pytest.mark.parametrize(
        "n, idx, make_u",
        [
            pytest.param(7, [0, 3, 3, 6, 0, 0, 2], _normal, id="repeated"),
            pytest.param(5, [4] * 9, _normal, id="one-row-many-times"),
            pytest.param(6, [], _normal, id="empty"),
            pytest.param(6, [1, 1, 5, 1], _signed_zeros, id="signed-zeros"),
            pytest.param(9, np.random.default_rng(3).integers(0, 9, 200), _mixed_signs,
                         id="random-mixed-signs"),
            pytest.param(4, [3, 0, 3], lambda shape, seed: _normal(shape, seed) * 1e300,
                         id="huge"),
        ],
    )
    @pytest.mark.parametrize("d", [1, 5])
    def test_gradient_bitwise_equal(self, n, idx, make_u, d):
        idx = np.asarray(idx, dtype=np.int64)
        upstream = make_u((idx.size, d), 9)
        x = ad.Tensor(_normal((n, d), 8), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.gather_rows(x, idx)
            loss = ad.sum_all(ad.hadamard(out, ad.Tensor(upstream)))
        tape.backward(loss)
        want = gather_rows_vjp_add_at((n, d), idx, upstream)
        assert x.grad.tobytes() == want.tobytes()


class TestAggregationAgainstTransposeOracle:
    """spmm and edge_spmm gradients must equal the old transpose vjp bit for bit."""

    @pytest.mark.parametrize("mode", ["renormalized", "row-mean", "none"])
    @pytest.mark.parametrize("make_graph", _AGGREGATION_GRAPHS)
    def test_spmm_vjp_bitwise_equal(self, make_graph, mode):
        adj = normalize_adjacency(make_graph(), mode)
        upstream = _normal((adj.num_nodes, 8), 8)
        x = ad.Tensor(_normal((adj.num_nodes, 8), 7), requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.hadamard(ad.spmm(adj, x), ad.Tensor(upstream)))
        tape.backward(loss)
        want = transpose_product_oracle(adj, upstream, adj.weights)
        assert x.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("make_graph", _AGGREGATION_GRAPHS)
    def test_edge_spmm_vjp_bitwise_equal(self, make_graph):
        # GAT coefficients: a softmax per row, so (i, j) and (j, i) differ
        adj = normalize_adjacency(make_graph(), "renormalized")
        logits = ad.Tensor(_normal((adj.nnz, 1), 9), requires_grad=True)
        coeff = ad.segment_softmax(logits, adj)
        upstream = _normal((adj.num_nodes, 8), 8)
        x = ad.Tensor(_normal((adj.num_nodes, 8), 7), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.edge_spmm(coeff, x, adj)
            loss = ad.sum_all(ad.hadamard(out, ad.Tensor(upstream)))
        tape.backward(loss)
        want = transpose_product_oracle(adj, upstream, coeff.value[:, 0])
        assert x.grad.tobytes() == want.tobytes()


class TestAggregationMemory:
    def test_one_gathered_copy_per_call(self):
        # on the criterion-6 operator at width 32, one call peaked at 5,061 KiB
        # when it scaled the gathered rows into a second nnz x d array, and
        # peaks at 3,519 KiB scaling them in place
        graph, _ = generate_scale_free(2000, 2, feat_dim=16, seed=3)
        adj = normalize_adjacency(graph, "renormalized")
        x = _normal((adj.num_nodes, 32), 3)
        assert adj.nnz == 9992
        tracemalloc.start()
        try:
            ad._aggregate(adj, x, adj.weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4500 * 1024


def _specials(shape, seed):
    """Normals with a fifth of the entries NaN, +-0.0 or +-inf."""
    rng = np.random.default_rng(seed)
    special = rng.choice([np.nan, 0.0, -0.0, np.inf, -np.inf], size=shape)
    return np.where(rng.random(shape) < 0.2, special, rng.normal(size=shape))


def taped_dense(op, parts, wv, bv, upstream, relu):
    """``op``'s value for the ``parts`` arrays, and the gradients of each part,
    ``w`` and ``b`` for ``upstream``, through a tape."""
    parts = [ad.Tensor(p.copy(), requires_grad=True) for p in parts]
    w, b = ad.Tensor(wv.copy(), requires_grad=True), ad.Tensor(bv.copy(), requires_grad=True)
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf in the products
        with ad.Tape() as tape:
            out = op(parts, w, b, relu=relu)
            loss = ad.sum_all(ad.hadamard(out, ad.Tensor(upstream)))
        tape.backward(loss)
    return [out.value] + [p.grad for p in parts] + [w.grad, b.grad]


class TestDenseAgainstConcatChain:
    """One dense record must reproduce the concatenate, matmul, add_bias and
    relu chain bit for bit: its value and every gradient. The shapes run
    from BLAS's small-matrix sizes to its blocked ones, and include some at
    which products over a part's own columns differ in bits."""

    @pytest.mark.parametrize("n, widths, out", [
        pytest.param(3, [2], 1, id="3x2-to-1"),
        pytest.param(3, [1, 1], 3, id="3x1+1-to-3"),
        pytest.param(3, [2, 2], 32, id="3x2+2-to-32"),
        pytest.param(7, [3, 4], 5, id="7x3+4-to-5"),
        pytest.param(64, [16, 16], 32, id="64x16+16-to-32"),
        pytest.param(120, [8, 8], 8, id="120x8+8-to-8"),
        pytest.param(257, [3, 3], 64, id="257x3+3-to-64"),
        pytest.param(1000, [32], 1, id="1000x32-to-1"),
        pytest.param(2000, [8, 8], 32, id="2000x8+8-to-32"),
        pytest.param(2000, [2, 2], 1, id="2000x2+2-to-1"),
        pytest.param(2000, [32], 32, id="2000x32-to-32"),
        pytest.param(20000, [2, 2], 16, id="20000x2+2-to-16"),
        pytest.param(20000, [16, 16], 32, id="20000x16+16-to-32"),
        pytest.param(20000, [32, 32], 32, id="20000x32+32-to-32"),
    ])
    @pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
    @pytest.mark.parametrize("make_x", [_normal, _specials], ids=["normal", "specials"])
    def test_value_and_gradients_bitwise_equal(self, n, widths, out, relu, make_x):
        parts = [make_x((n, k), 10 + i) for i, k in enumerate(widths)]
        wv = _normal((sum(widths), out), 20)
        bv = _mixed_signs((out,), 21)
        upstream = _mixed_signs((n, out), 22)
        want = taped_dense(dense_chain, parts, wv, bv, upstream, relu)
        got = taped_dense(ad.dense, parts, wv, bv, upstream, relu)
        assert len(got) == len(want) == len(widths) + 3
        for g, expected in zip(got, want):
            assert g.shape == expected.shape
            assert g.tobytes() == expected.tobytes()

    def test_keeps_only_its_output(self):
        rng = np.random.default_rng(9)
        a = ad.Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        c = ad.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=4), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.dense([a, c], w, b, relu=True)
        assert [rec for rec, _ in tape._records] == [out]
        assert out.value.base is None

    @pytest.mark.parametrize("parts, w, b", [
        pytest.param([], (2, 3), (3,), id="no-parts"),
        pytest.param([(4, 2), (3, 2)], (4, 3), (3,), id="rows-differ"),
        pytest.param([(4, 2), (4,)], (4, 3), (3,), id="vector-part"),
        pytest.param([(4, 2), (4, 2)], (3, 3), (3,), id="w-rows"),
        pytest.param([(4, 2)], (2, 3), (2,), id="bias-width"),
        pytest.param([(4, 2)], (2, 3), (1, 3), id="bias-rank"),
    ])
    def test_shape_mismatch_rejected(self, parts, w, b):
        with pytest.raises(ad.AutodiffError, match="dense shapes"):
            ad.dense([ad.Tensor(np.ones(s)) for s in parts], ad.Tensor(np.ones(w)),
                     ad.Tensor(np.ones(b)))


class TestTape:
    def test_backward_before_forward(self):
        tape = ad.Tape()
        with pytest.raises(ad.AutodiffError, match="before"):
            tape.backward(ad.Tensor(0.0, requires_grad=True))

    def test_loss_from_other_tape_rejected(self):
        x = ad.Tensor([[1.0]], requires_grad=True)
        with ad.Tape():
            loss = ad.mean_all(x)
        with ad.Tape() as t2:
            ad.mean_all(x)
            with pytest.raises(ad.AutodiffError, match="not produced"):
                t2.backward(loss)

    def test_no_tape_means_no_recording(self):
        x = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        out = ad.relu(x)
        assert out.requires_grad
        tape = ad.Tape()
        with pytest.raises(ad.AutodiffError):
            tape.backward(out)

    def test_non_scalar_loss_rejected(self):
        x = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        with ad.Tape() as tape:
            out = ad.relu(x)
            with pytest.raises(ad.AutodiffError, match="scalar"):
                tape.backward(out)

    def test_second_backward_rejected(self):
        x = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.mean_all(ad.relu(x))
        tape.backward(loss)
        grad = x.grad.copy()
        with pytest.raises(ad.AutodiffError, match="backward already ran"):
            tape.backward(loss)
        assert x.grad.tobytes() == grad.tobytes()

    def test_each_record_is_freed_before_earlier_vjps_run(self):
        x = ad.Tensor(np.random.default_rng(4).normal(size=(50, 4)), requires_grad=True)
        with ad.Tape() as tape:
            h = ad.relu(x)
            loss = ad.mean_all(ad.relu(ad.scale(h, 2.0)))
        # the outputs of every op after the first, but the loss the caller holds
        later = [weakref.ref(out.value) for out, _ in tape._records[1:-1]]
        first, [(inp, vjp)] = tape._records[0]
        alive = []

        def watched(u):
            alive.extend(r() is not None for r in later)
            return vjp(u)

        tape._records[0] = (first, [(inp, watched)])
        del h, first
        tape.backward(loss)
        assert len(alive) == len(later) == 2 and not any(alive)
        assert loss.grad is None and x.grad is not None

    def test_grad_accumulates_across_backwards(self):
        x = ad.Tensor([[2.0]], requires_grad=True)
        for _ in range(2):
            with ad.Tape() as tape:
                loss = ad.mean_all(x)
            tape.backward(loss)
        np.testing.assert_allclose(x.grad, [[2.0]])

    def test_determinism_bitwise(self):
        def run():
            rng = np.random.default_rng(11)
            x = ad.Tensor(rng.normal(size=(8, 5)), requires_grad=True)
            w = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
            with ad.Tape() as tape:
                loss = ad.mean_all(ad.relu(ad.matmul(x, w)))
            tape.backward(loss)
            return loss.value.copy(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1.tobytes() == l2.tobytes()
        assert gx1.tobytes() == gx2.tobytes()
        assert gw1.tobytes() == gw2.tobytes()


class TestAdam:
    def test_first_step_magnitude(self):
        # with bias correction the first step is ~lr * sign(g)
        p = ad.Tensor(np.array([[1.0]]), requires_grad=True)
        p.grad = np.array([[0.5]])
        state = ad.AdamState([p])
        ad.adam_step([p], state, lr=0.1)
        np.testing.assert_allclose(p.value, [[0.9]], atol=1e-6)

    def test_two_steps_match_hand_recurrence(self):
        """Independent oracle: the Adam recurrence written out longhand."""
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        w = 1.5
        m = v = 0.0
        updates = []
        for t in (1, 2):
            g = 2.0 * w  # d/dw of w^2
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            updates.append(w)

        p = ad.Tensor(np.array([[1.5]]), requires_grad=True)
        state = ad.AdamState([p])
        for t in range(2):
            p.zero_grad()
            with ad.Tape() as tape:
                loss = ad.mean_all(ad.hadamard(p, p))
            tape.backward(loss)
            ad.adam_step([p], state, lr=lr, beta1=b1, beta2=b2, eps=eps)
            np.testing.assert_allclose(p.value[0, 0], updates[t], atol=1e-12)

    def test_missing_grad_treated_as_zero(self):
        p = ad.Tensor(np.array([[3.0]]), requires_grad=True)
        state = ad.AdamState([p])
        ad.adam_step([p], state, lr=0.1)
        np.testing.assert_allclose(p.value, [[3.0]], atol=1e-12)
