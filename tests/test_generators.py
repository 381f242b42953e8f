"""Synthetic graph generators: structural contracts and planted-signal checks."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tailkit import generators
from tailkit.generators import generate_bipartite, generate_scale_free
from tailkit.graph import GraphError


def attach_choice_loop(rng, communities, m_attach, community_bias):
    """The attachment loop ``generators._attach`` replaced, kept as its oracle:
    every node rebuilds its weights from the degrees and draws each target
    with ``Generator.choice``."""
    n = communities.shape[0]
    deg = np.zeros(n, dtype=np.int64)
    edges = np.empty((m_attach * (n - m_attach), 2), dtype=np.int64)
    k = 0
    for i in range(m_attach, n):
        weights = (deg[:i] + 1.0) * np.where(
            communities[:i] == communities[i], community_bias, 1.0
        )
        chosen: list[int] = []
        for _ in range(m_attach):
            w = weights.copy()
            if chosen:
                w[chosen] = 0.0
            p = w / w.sum()
            chosen.append(int(rng.choice(i, p=p)))
        for t in chosen:
            edges[k] = (t, i)
            k += 1
            deg[t] += 1
            deg[i] += 1
    return edges


def attach_cumsum_loop(rng, communities, m_attach, community_bias):
    """The attachment loop ``generators._attach`` replaced, kept as its oracle:
    per-community weight tables, and every draw a full sequential ``cumsum``
    of ``w / total`` over every existing node."""
    n = communities.shape[0]
    factors = np.where(communities == np.arange(communities.max() + 1)[:, None],
                       community_bias, 1.0)
    tables = factors.copy()
    deg = np.zeros(n, dtype=np.int64)
    edges = np.empty((n - m_attach, m_attach, 2), dtype=np.int64)
    edges[:, :, 1] = np.arange(m_attach, n)[:, None]
    for i in range(m_attach, n):
        w = tables[communities[i], :i]
        chosen = edges[i - m_attach, :, 0]
        for j in range(m_attach):
            total = w.sum()
            if not 0.0 < total < np.inf:
                raise GraphError(f"node {i}'s attachment weights sum to {total}")
            cdf = (w / total).cumsum()
            cdf /= cdf[-1]
            chosen[j] = cdf.searchsorted(rng.random(), side="right")
            w[chosen[j]] = 0.0
        deg[chosen] += 1
        deg[i] += m_attach
        touched = np.append(chosen, i)
        tables[:, touched] = (deg[touched] + 1.0) * factors[:, touched]
    return edges.reshape(-1, 2)


ORACLE_GRID = [(m_attach, num_classes, bias) for m_attach in (1, 2, 3, 4)
               for num_classes in (2, 3, 5) for bias in (0.5, 1.0, 4.0)]


def assert_same_attachment(seed, communities, m_attach, bias, oracle=attach_cumsum_loop):
    """``_attach`` and ``oracle`` draw the same edges and leave their
    generators in the same state."""
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    edges = generators._attach(rng, communities, m_attach, bias)
    expected = oracle(oracle_rng, communities, m_attach, bias)
    assert edges.dtype == expected.dtype
    assert edges.tobytes() == expected.tobytes()
    assert rng.random() == oracle_rng.random()


def counted(monkeypatch, name):
    """Count the calls of ``generators.<name>``."""
    calls = []
    fn = getattr(generators, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(generators, name, wrapper)
    return calls


class TestAttachmentAgainstChoiceOracle:
    """``_attach`` draws bit for bit what ``Generator.choice`` drew."""

    @pytest.mark.parametrize("m_attach,num_classes,bias", ORACLE_GRID)
    def test_same_edges_and_next_draw(self, m_attach, num_classes, bias):
        seed = 10 * m_attach + num_classes
        communities = np.random.default_rng(seed).integers(num_classes, size=300)
        assert_same_attachment(seed, communities, m_attach, bias, attach_choice_loop)

    @pytest.mark.parametrize("n", [2, 3, 6, 40])
    def test_one_attaching_node(self, n):
        """``n = m_attach + 1``: the one attaching node draws every earlier node."""
        communities = np.random.default_rng(n).integers(2, size=n)
        assert_same_attachment(n, communities, n - 1, 4.0, attach_choice_loop)

    @pytest.mark.parametrize("community", [0, 1])
    def test_one_community_present(self, community):
        communities = np.full(300, community)
        assert_same_attachment(community, communities, 2, 4.0, attach_choice_loop)

    @pytest.mark.parametrize("bias", [2.0 ** -399, 2.0 ** 399, 1e-100])
    def test_bias_near_the_ends_of_its_range(self, bias):
        communities = np.random.default_rng(9).integers(3, size=300)
        assert_same_attachment(9, communities, 2, bias, attach_choice_loop)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(1, 60),
           st.integers(2, 5), st.floats(0.05, 20.0))
    @settings(derandomize=True, deadline=None, max_examples=60)
    def test_any_small_graph(self, seed, m_attach, extra, num_classes, bias):
        communities = np.random.default_rng(seed).integers(num_classes,
                                                           size=m_attach + extra)
        assert_same_attachment(seed, communities, m_attach, bias, attach_choice_loop)

    @pytest.mark.parametrize("n,m_attach,num_classes,bias,label_noise,seed", [
        *((150, m, c, b, 0.1, m + c) for m, c, b in ORACLE_GRID),
        (2000, 2, 2, 4.0, 0.0, 0),
        (2000, 3, 3, 2.5, 0.1, 4),
    ])
    def test_generator_output_identical(self, monkeypatch, n, m_attach, num_classes,
                                        bias, label_noise, seed):
        def generate():
            return generate_scale_free(n, m_attach, feat_dim=6, num_classes=num_classes,
                                       label_noise=label_noise, seed=seed,
                                       community_bias=bias)

        graph, labels = generate()
        monkeypatch.setattr(generators, "_attach", attach_choice_loop)
        oracle_graph, oracle_labels = generate()
        assert graph.edges.tobytes() == oracle_graph.edges.tobytes()
        assert graph.features.tobytes() == oracle_graph.features.tobytes()
        assert labels.labels.tobytes() == oracle_labels.labels.tobytes()

    @pytest.mark.parametrize("bias", [0.0, -1.0, float("nan"), float("inf")])
    def test_bias_must_be_positive_and_finite(self, bias):
        with pytest.raises(GraphError, match="community_bias"):
            generate_scale_free(60, 2, community_bias=bias)

    def test_weights_that_overflow_are_refused(self):
        # (deg + 1) * 1e308 is inf once a target has an edge
        with pytest.raises(GraphError, match="weights sum to inf"):
            generate_scale_free(60, 2, community_bias=1e308)


class TestTreeDrawsAgainstCumsumOracle:
    """Draws located from the Fenwick trees equal the full ``cumsum``'s bit for bit."""

    @pytest.mark.parametrize("m_attach,num_classes,bias", ORACLE_GRID)
    def test_every_draw_from_trees(self, m_attach, num_classes, bias):
        seed = 10 * m_attach + num_classes
        communities = np.random.default_rng(seed).integers(num_classes, size=300)
        assert_same_attachment(seed, communities, m_attach, bias)

    @pytest.mark.parametrize("m_attach", [1, 2, 3])
    @pytest.mark.parametrize("bias", [0.5, 1.0, 2.5, 4.0])
    def test_large_graphs(self, m_attach, bias):
        communities = np.random.default_rng(m_attach).integers(3, size=5000)
        assert_same_attachment(m_attach, communities, m_attach, bias)

    def test_large_max_dataset(self, monkeypatch):
        """The benchmark's ``large-max`` graph (n=20,000, seed 0)."""
        def generate():
            return generate_scale_free(20000, 2, feat_dim=16, num_classes=2, seed=0,
                                       separation=1.5, feature_noise=1.0,
                                       community_bias=4.0)

        graph, labels = generate()
        monkeypatch.setattr(generators, "_attach", attach_cumsum_loop)
        oracle_graph, oracle_labels = generate()
        assert graph.edges.tobytes() == oracle_graph.edges.tobytes()
        assert graph.features.tobytes() == oracle_graph.features.tobytes()
        assert labels.labels.tobytes() == oracle_labels.labels.tobytes()

    def test_large_max_draws_rarely_fall_back(self, monkeypatch):
        """Under 1 draw in 10,000 of the ``large-max`` graph runs ``_draw``."""
        exact = counted(monkeypatch, "_draw")
        generate_scale_free(20000, 2, feat_dim=16, num_classes=2, seed=0,
                            separation=1.5, feature_noise=1.0, community_bias=4.0)
        assert len(exact) < 2 * (20000 - 2) / 10_000


class TestTreeDrawFallback:
    """``_Weights.draw`` runs the exact draw wherever rounding could matter."""

    @pytest.fixture(params=[0, 1])
    def weights(self, request):
        """The weights of 1,000 targets as node 1,000 of community ``c`` sees
        them, and their exact CDF."""
        c = request.param
        rng = np.random.default_rng(3)
        communities = rng.integers(2, size=1001)
        weights = generators._Weights(communities, 4.0)
        for t, x in enumerate(rng.integers(0, 40, size=1000).tolist()):
            if t not in (5, 64, 700):  # targets already drawn
                weights.add(t, x + 1)
        w = np.where(communities[:1000] == c, 4.0, 1.0) * weights.weight[:1000]
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        return lambda u: weights.draw(c, 1000, u), cdf

    def test_uniform_on_a_boundary(self, monkeypatch, weights):
        draw, cdf = weights
        exact = counted(monkeypatch, "_draw")
        for k in (0, 4, 5, 63, 64, 127, 500, 998):
            for u in (np.nextafter(cdf[k], 0.0), cdf[k], np.nextafter(cdf[k], 1.0)):
                exact.clear()
                assert draw(float(u)) == cdf.searchsorted(u, "right")
                assert len(exact) == 1

    def test_uniform_inside_an_interval(self, monkeypatch, weights):
        draw, cdf = weights
        exact = counted(monkeypatch, "_draw")
        for u in np.random.default_rng(0).random(500).tolist():
            assert draw(u) == cdf.searchsorted(u, "right")
        assert exact == []

    def test_huge_margin_makes_every_draw_exact(self, monkeypatch):
        monkeypatch.setattr(generators, "_EPS", 1.0)
        exact = counted(monkeypatch, "_draw")
        communities = np.random.default_rng(7).integers(3, size=300)
        assert_same_attachment(7, communities, 2, 4.0)
        assert len(exact) == 2 * (300 - 2)

    @pytest.mark.parametrize("bias", [1e-200, 1e200])
    def test_extreme_bias_keeps_the_exact_path(self, monkeypatch, bias):
        exact = counted(monkeypatch, "_draw")
        communities = np.random.default_rng(5).integers(2, size=300)
        assert_same_attachment(5, communities, 2, bias)
        assert len(exact) == 2 * (300 - 2)


class TestScaleFree:
    def test_exact_edge_count(self):
        g, _ = generate_scale_free(100, 2, seed=0)
        assert g.num_edges == 2 * (100 - 2) == 196

    def test_edge_count_other_params(self):
        g, _ = generate_scale_free(57, 3, seed=4)
        assert g.num_edges == 3 * (57 - 3)

    def test_deterministic(self):
        g1, l1 = generate_scale_free(80, 2, seed=5)
        g2, l2 = generate_scale_free(80, 2, seed=5)
        np.testing.assert_array_equal(g1.edges, g2.edges)
        np.testing.assert_array_equal(l1.labels, l2.labels)
        np.testing.assert_array_equal(g1.features, g2.features)

    def test_heavier_tail_than_erdos_renyi(self):
        """Degree kurtosis exceeds a same-size G(n, m) graph's across 10 seeds."""

        def excess_kurtosis(x):
            x = x - x.mean()
            return (x ** 4).mean() / (x ** 2).mean() ** 2 - 3.0

        wins = 0
        for seed in range(10):
            g, _ = generate_scale_free(400, 2, seed=seed)
            rng = np.random.default_rng(seed + 1000)
            # Erdős–Rényi with the same edge count
            deg_er = np.zeros(400)
            pairs = set()
            while len(pairs) < g.num_edges:
                u, v = rng.integers(400, size=2)
                if u != v:
                    pairs.add((min(u, v), max(u, v)))
            for u, v in pairs:
                deg_er[u] += 1
                deg_er[v] += 1
            wins += excess_kurtosis(g.degrees().astype(float)) > excess_kurtosis(deg_er)
        assert wins >= 9

    def test_features_near_own_community_mean(self):
        """With no label noise and wide separation, >=95% of degree-1-or-more nodes
        sit nearer their own community mean than the other one."""
        g, labels = generate_scale_free(
            500, 2, feat_dim=8, num_classes=2, label_noise=0.0, seed=3, separation=6.0
        )
        means = np.zeros((2, 8))
        means[0, 0] = 6.0
        means[1, 1] = 6.0
        d_own = np.linalg.norm(g.features - means[labels.labels], axis=1)
        d_other = np.linalg.norm(g.features - means[1 - labels.labels], axis=1)
        assert (d_own < d_other).mean() >= 0.95

    def test_label_noise_flips_exact_count(self):
        _, clean = generate_scale_free(200, 2, label_noise=0.0, seed=8)
        _, noisy = generate_scale_free(200, 2, label_noise=0.1, seed=8)
        assert (clean.labels != noisy.labels).sum() == 20

    def test_homophily_above_chance(self):
        g, labels = generate_scale_free(500, 2, seed=1)
        same = labels.labels[g.edges[:, 0]] == labels.labels[g.edges[:, 1]]
        assert same.mean() > 0.6  # chance would be ~0.5 for two communities


class TestBipartite:
    def test_structure(self):
        g = generate_bipartite(50, 80, seed=0)
        assert g.bipartite == (50, 80)
        assert g.num_nodes == 130
        assert (g.edges[:, 0] < 50).all() and (g.edges[:, 1] >= 50).all()
        assert g.features is None

    def test_deterministic(self):
        g1 = generate_bipartite(30, 40, seed=9)
        g2 = generate_bipartite(30, 40, seed=9)
        np.testing.assert_array_equal(g1.edges, g2.edges)

    def test_user_degrees_heavy_tailed(self):
        g = generate_bipartite(300, 200, min_interactions=2, exponent=1.6, seed=2)
        user_deg = g.degrees()[:300]
        assert user_deg.min() >= 2
        # power law: the minimum degree is the modal value, with a heavy tail above
        values, freq = np.unique(user_deg, return_counts=True)
        assert values[freq.argmax()] == 2
        assert user_deg.max() >= 4 * user_deg.min()
