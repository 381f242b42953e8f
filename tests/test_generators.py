"""Synthetic graph generators: structural contracts and planted-signal checks."""
from __future__ import annotations

import numpy as np

from tailkit.generators import generate_bipartite, generate_scale_free


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
