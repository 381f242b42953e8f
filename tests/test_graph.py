"""Graph container, DropEdge, and adjacency normalization against independent oracles."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailkit.graph import (
    MAX_NODES,
    GraphError,
    LabelSet,
    build_graph,
    drop_edges,
    normalize_adjacency,
)


def densify(adj) -> np.ndarray:
    """Materialize a NormalizedAdjacency into a dense matrix."""
    out = np.zeros((adj.num_nodes, adj.num_nodes))
    for i in range(adj.num_nodes):
        for k in range(adj.offsets[i], adj.offsets[i + 1]):
            out[i, adj.targets[k]] += adj.weights[k]
    return out


def dense_renormalized(edges, n) -> np.ndarray:
    """Independent oracle: D̃^{-1/2} (A + I) D̃^{-1/2} built densely."""
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    a_tilde = a + np.eye(n)
    d_inv = np.diag(1.0 / np.sqrt(a_tilde.sum(axis=1)))
    return d_inv @ a_tilde @ d_inv


def random_graph(rng, max_nodes=200):
    n = int(rng.integers(2, max_nodes + 1))
    max_edges = n * (n - 1) // 2
    m = int(rng.integers(0, min(max_edges, 3 * n) + 1))
    pairs = set()
    while len(pairs) < m:
        u, v = rng.integers(n, size=2)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return build_graph(sorted(pairs), n), sorted(pairs), n


class TestBuildGraph:
    def test_triangle(self):
        g = build_graph([(0, 1), (1, 2), (2, 0)], 3)
        assert g.num_edges == 3
        assert g.degrees().tolist() == [2, 2, 2]
        np.testing.assert_array_equal(g.neighbors(1), [0, 2])

    def test_duplicate_and_reversed_edges_collapse(self):
        g = build_graph([(0, 1), (1, 0), (0, 1)], 2)
        assert g.num_edges == 1
        np.testing.assert_array_equal(g.edges, [[0, 1]])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            build_graph([(1, 1)], 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="outside"):
            build_graph([(0, 5)], 3)

    def test_bipartite_violation_rejected(self):
        with pytest.raises(GraphError, match="partition"):
            build_graph([(0, 1)], 4, bipartite=(2, 2))

    def test_bipartite_ok(self):
        g = build_graph([(0, 2), (1, 3)], 4, bipartite=(2, 2))
        assert g.bipartite == (2, 2)

    def test_feature_shape_checked(self):
        with pytest.raises(GraphError, match="features"):
            build_graph([(0, 1)], 3, features=np.zeros((2, 4)))

    def test_empty_graph(self):
        g = build_graph([], 5)
        assert g.num_edges == 0
        assert g.degrees().sum() == 0

    @given(
        st.lists(
            st.tuples(st.integers(0, 14), st.integers(0, 14)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=40,
        )
    )
    @settings(deadline=None, max_examples=60)
    def test_canonical_form_is_orientation_invariant(self, edges):
        g1 = build_graph(edges, 15)
        g2 = build_graph([(v, u) for u, v in edges], 15)
        np.testing.assert_array_equal(g1.edges, g2.edges)
        np.testing.assert_array_equal(g1.csr_offsets, g2.csr_offsets)
        np.testing.assert_array_equal(g1.csr_targets, g2.csr_targets)
        # every stored edge satisfies u < v and both CSR directions exist
        assert (g1.edges[:, 0] < g1.edges[:, 1]).all()
        for u, v in g1.edges:
            assert v in g1.neighbors(u) and u in g1.neighbors(v)


class TestDropEdges:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.graph, _, _ = random_graph(rng, max_nodes=40)

    def test_exact_retained_count(self):
        e = self.graph.num_edges
        for alpha in (0.0, 0.25, 0.33, 0.5, 0.75, 1.0):
            got = drop_edges(self.graph, alpha, seed=3)
            assert got.num_edges == e - int(np.floor(alpha * e))

    def test_deterministic_per_seed(self):
        a = drop_edges(self.graph, 0.5, seed=11)
        b = drop_edges(self.graph, 0.5, seed=11)
        np.testing.assert_array_equal(a.edges, b.edges)

    def test_seeds_differ(self):
        outcomes = {drop_edges(self.graph, 0.5, seed=s).edges.tobytes() for s in range(20)}
        assert len(outcomes) > 1

    def test_result_is_subgraph(self):
        before = {tuple(e) for e in self.graph.edges}
        after = {tuple(e) for e in drop_edges(self.graph, 0.6, seed=0).edges}
        assert after <= before

    def test_features_and_partition_preserved(self):
        g = build_graph([(0, 2), (0, 3), (1, 2)], 4, bipartite=(2, 2))
        got = drop_edges(g, 0.5, seed=1)
        assert got.bipartite == (2, 2)
        assert got.num_nodes == 4

    def test_alpha_one_gives_edgeless(self):
        got = drop_edges(self.graph, 1.0, seed=5)
        assert got.num_edges == 0
        assert got.csr_targets.size == 0

    def test_invalid_alpha(self):
        with pytest.raises(GraphError):
            drop_edges(self.graph, 1.5, seed=0)

    def test_per_edge_retention_rate(self):
        # 10-edge star-free graph, alpha = 0.3: each edge kept w.p. 0.7
        edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 5), (0, 5), (2, 5)]
        g = build_graph(edges, 6)
        kept = np.zeros(10)
        trials = 2000
        for s in range(trials):
            got = {tuple(e) for e in drop_edges(g, 0.3, seed=s).edges}
            for j, e in enumerate(g.edges):
                kept[j] += tuple(e) in got
        np.testing.assert_allclose(kept / trials, 0.7, atol=0.03)

    @given(st.floats(0.0, 1.0), st.integers(0, 10_000))
    @settings(deadline=None, max_examples=80)
    def test_contract_holds_for_any_alpha_and_seed(self, alpha, seed):
        got = drop_edges(self.graph, alpha, seed)
        assert got.num_edges == self.graph.num_edges - int(
            np.floor(alpha * self.graph.num_edges)
        )
        before = {tuple(e) for e in self.graph.edges}
        assert {tuple(e) for e in got.edges} <= before


# ---------------------------------------------------------------------------
# the row-sort kernels that the scalar-key sorts replaced, kept as oracles
# ---------------------------------------------------------------------------

def csr_by_lexsort(num_nodes, edges):
    if edges.size == 0:
        return np.zeros(num_nodes + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((dst, src))
    counts = np.bincount(src, minlength=num_nodes)
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, dst[order]


def edges_by_unique_rows(edge_list):
    edges = np.asarray(edge_list, dtype=np.int64).reshape(-1, 2)
    if not edges.size:
        return np.empty((0, 2), dtype=np.int64)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return np.unique(np.stack([lo, hi], axis=1), axis=0)


def drop_edges_by_lexsort(graph, alpha, seed):
    num_drop = int(np.floor(alpha * graph.num_edges))
    if num_drop == 0:
        return graph.edges, graph.csr_offsets, graph.csr_targets
    rng = np.random.default_rng(seed)
    dropped = rng.choice(graph.num_edges, size=num_drop, replace=False)
    keep = np.ones(graph.num_edges, dtype=bool)
    keep[dropped] = False
    kept = graph.edges[keep]
    return (kept, *csr_by_lexsort(graph.num_nodes, kept))


def self_looped_by_argsort(graph, mode):
    """Reference oracle: the argsort and re-index block that inserted
    ``normalize_adjacency``'s diagonal entries before its CSR came from
    ``graph._csr``; returns its ``(offsets, targets, rows)``."""
    n, deg = graph.num_nodes, graph.degrees()
    offsets, targets = graph.csr_offsets, graph.csr_targets
    rows = np.repeat(np.arange(n, dtype=np.int64), deg)
    diag = np.arange(n, dtype=np.int64) if mode == "renormalized" else np.flatnonzero(deg == 0)
    if diag.size:
        rows = np.concatenate([rows, diag])
        targets = np.concatenate([targets, diag])
        order = np.argsort(rows * n + targets)
        rows, targets = rows[order], targets[order]
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
    return offsets, targets, rows


def same_bytes(arrays, expected):
    assert len(arrays) == len(expected)
    for got, want in zip(arrays, expected):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def random_edge_list(rng):
    """Up to 3n random pairs over n nodes: repeats, both orientations, and
    nodes above every endpoint (isolated); sometimes no edge at all."""
    n = int(rng.integers(1, 60))
    m = int(rng.integers(0, 3 * n + 1)) if n > 1 and rng.random() > 0.1 else 0
    u = rng.integers(n, size=m)
    v = (u + rng.integers(1, max(n, 2), size=m)) % n
    pairs = np.stack([u, v], axis=1)
    repeats = pairs[rng.integers(m, size=m // 3)] if m else pairs
    pairs = np.concatenate([pairs, repeats[:, ::-1], repeats])
    return pairs[rng.permutation(len(pairs))], n + int(rng.integers(0, 4))


class TestScalarKeySortsAgainstRowSortOracles:
    @pytest.mark.parametrize("seed", range(40))
    def test_build_graph(self, seed):
        pairs, n = random_edge_list(np.random.default_rng(seed))
        g = build_graph(pairs, n)
        expected = edges_by_unique_rows(pairs)
        same_bytes([g.edges, g.csr_offsets, g.csr_targets],
                   [expected, *csr_by_lexsort(n, expected)])
        same_bytes([g.edges], [build_graph(pairs[:, ::-1].tolist(), n).edges])

    @pytest.mark.parametrize("seed", range(40))
    def test_drop_edges(self, seed):
        rng = np.random.default_rng(seed)
        g = build_graph(*random_edge_list(rng))
        for alpha in (0.0, 0.3, 0.5, 1.0):
            got = drop_edges(g, alpha, seed)
            same_bytes([got.edges, got.csr_offsets, got.csr_targets],
                       drop_edges_by_lexsort(g, alpha, seed))

    def test_no_edges(self):
        for edge_list in ([], np.empty((0, 2), dtype=np.int64)):
            g = build_graph(edge_list, 4)
            same_bytes([g.edges, g.csr_offsets, g.csr_targets],
                       [edges_by_unique_rows(edge_list), *csr_by_lexsort(4, g.edges)])

    @pytest.mark.parametrize("seed", range(20))
    def test_normalize_adjacency_self_loops(self, seed):
        g = build_graph(*random_edge_list(np.random.default_rng(seed)))
        for mode in ("renormalized", "row-mean"):
            adj = normalize_adjacency(g, mode)
            same_bytes([adj.offsets, adj.targets, adj.rows], self_looped_by_argsort(g, mode))

    def test_node_count_whose_keys_overflow_is_refused(self):
        int64_max = np.iinfo(np.int64).max
        # the largest key, (n - 1) * n + (n - 1), fits at MAX_NODES and not above
        assert MAX_NODES * MAX_NODES - 1 <= int64_max < (MAX_NODES + 1) ** 2 - 1
        # refused before anything of size num_nodes is allocated
        with pytest.raises(GraphError, match=f"num_nodes {MAX_NODES + 1} exceeds"):
            build_graph([(0, 1), (1, 2)], MAX_NODES + 1)


class TestHasEdges:
    """Pair membership against a Python set of the edges in both orientations."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_set_of_pairs(self, seed):
        rng = np.random.default_rng(seed)
        g = build_graph(*random_edge_list(rng))
        n = g.num_nodes
        pairs = {(int(u), int(v)) for u, v in g.edges} | {(int(v), int(u)) for u, v in g.edges}
        u, v = rng.integers(n, size=200), rng.integers(n, size=200)
        if g.num_edges:  # every edge, both ways, beside the random (mostly absent) pairs
            u = np.concatenate([u, g.edges[:, 0], g.edges[:, 1]])
            v = np.concatenate([v, g.edges[:, 1], g.edges[:, 0]])
        got = g.has_edges(u, v)
        assert got.dtype == bool and got.shape == u.shape
        assert got.tolist() == [(int(a), int(b)) in pairs for a, b in zip(u, v)]
        assert (~got).any() or n == 1

    def test_pair_keys_are_built_once(self):
        g = build_graph([(0, 1), (1, 2)], 4)
        assert g.has_edges([2, 0, 3], [1, 2, 3]).tolist() == [True, False, False]
        keys = g.operators["pair_keys"]
        g.has_edges([0], [1])
        assert g.operators["pair_keys"] is keys

    def test_edgeless_graph(self):
        g = build_graph([], 3)
        assert g.has_edges([0, 1, 2], [1, 2, 0]).tolist() == [False, False, False]

    @pytest.mark.parametrize("u,v,bad", [([0, 4], [1, 1], 4), ([0, 1], [-1, 2], -1)])
    def test_out_of_range_id_raises(self, u, v, bad):
        g = build_graph([(0, 1), (1, 2)], 4)
        with pytest.raises(GraphError, match=f"node {bad} out of range"):
            g.has_edges(u, v)


class TestNormalizeAdjacency:
    def test_single_edge_hand_value(self):
        # two nodes, one edge: d̃ = [2, 2], every entry of the dense operator is 0.5
        g = build_graph([(0, 1)], 2)
        dense = densify(normalize_adjacency(g, "renormalized"))
        np.testing.assert_allclose(dense, np.full((2, 2), 0.5), atol=1e-12)

    def test_path_hand_value(self):
        # path 0-1-2: d̃ = [2, 3, 2]; entry (0, 1) = 1/sqrt(2*3)
        g = build_graph([(0, 1), (1, 2)], 3)
        dense = densify(normalize_adjacency(g, "renormalized"))
        np.testing.assert_allclose(dense[0, 1], 1.0 / np.sqrt(6.0), atol=1e-12)
        np.testing.assert_allclose(dense[0, 0], 0.5, atol=1e-12)

    def test_matches_dense_oracle_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            g, pairs, n = random_graph(rng, max_nodes=60)
            dense = densify(normalize_adjacency(g, "renormalized"))
            np.testing.assert_allclose(dense, dense_renormalized(pairs, n), atol=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        g, _, _ = random_graph(rng, max_nodes=50)
        dense = densify(normalize_adjacency(g, "renormalized"))
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)

    def test_edgeless_is_identity(self):
        g = build_graph([], 4)
        dense = densify(normalize_adjacency(g, "renormalized"))
        np.testing.assert_allclose(dense, np.eye(4), atol=1e-12)

    def test_row_mean_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        g, _, _ = random_graph(rng, max_nodes=50)
        dense = densify(normalize_adjacency(g, "row-mean"))
        np.testing.assert_allclose(dense.sum(axis=1), 1.0, atol=1e-9)

    def test_row_mean_isolated_self_row(self):
        g = build_graph([(0, 1)], 3)  # node 2 isolated
        dense = densify(normalize_adjacency(g, "row-mean"))
        np.testing.assert_allclose(dense[2], [0.0, 0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(dense[0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_none_is_raw_adjacency(self):
        g = build_graph([(0, 1), (1, 2)], 3)
        dense = densify(normalize_adjacency(g, "none"))
        expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        np.testing.assert_allclose(dense, expected, atol=1e-12)
        assert np.trace(dense) == 0.0  # no self-loops in raw mode

    def test_unknown_mode(self):
        g = build_graph([(0, 1)], 2)
        with pytest.raises(GraphError, match="normalization"):
            normalize_adjacency(g, "rownorm")

    def test_transpose_structures_consistent(self):
        rng = np.random.default_rng(17)
        g, _, _ = random_graph(rng, max_nodes=40)
        for mode in ("renormalized", "row-mean", "none"):
            adj = normalize_adjacency(g, mode)
            # mirror maps each entry (i, j) to the entry (j, i), so the same
            # CSR with weights[mirror] must densify to the dense transpose
            np.testing.assert_array_equal(adj.rows[adj.mirror], adj.targets)
            np.testing.assert_array_equal(adj.targets[adj.mirror], adj.rows)
            dense = densify(adj)
            mirrored = replace(adj, weights=adj.weights[adj.mirror])
            np.testing.assert_allclose(densify(mirrored), dense.T, atol=1e-12)


class TestLabelSet:
    def test_basic(self):
        ls = LabelSet(np.array([0, 1, 1, 0]), 2)
        assert ls.num_nodes == 4

    def test_label_out_of_range(self):
        with pytest.raises(GraphError):
            LabelSet(np.array([0, 3]), 2)

    def test_with_splits(self):
        ls = LabelSet(np.array([0, 1, 1, 0]), 2)
        got = ls.with_splits([0], [1], [2])
        np.testing.assert_array_equal(got.train_labeled, [0])
        np.testing.assert_array_equal(got.unlabeled, [2])
