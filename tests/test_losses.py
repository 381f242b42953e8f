"""Losses against frozen hand values and sampling against uniformity oracles."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from tailkit import autodiff as ad
from tailkit.generators import generate_bipartite, generate_scale_free
from tailkit.graph import build_graph
from tailkit.losses import (
    LossError,
    SupervisionSet,
    bpr_loss,
    cross_entropy,
    l2_regularize,
    sample_negatives,
)

LN2 = 0.6931471805599453


class TestCrossEntropy:
    def test_hand_value(self):
        # -(ln 0.7 + ln 0.8) / 2, frozen from independent arithmetic
        log_probs = ad.Tensor(np.log([[0.7, 0.3], [0.2, 0.8]]))
        sup = SupervisionSet.classification([0, 1], [0, 1], num_classes=2, num_nodes=2)
        got = cross_entropy(log_probs, sup)
        np.testing.assert_allclose(float(got.value), 0.28990924762647107, atol=1e-12)

    def test_uniform_prediction_gives_ln_c(self):
        for c in (2, 3, 7, 10):
            log_probs = ad.Tensor(np.full((4, c), -np.log(c)))
            sup = SupervisionSet.classification(
                [0, 1, 2, 3], [0, 1 % c, 2 % c, 3 % c], num_classes=c, num_nodes=4
            )
            np.testing.assert_allclose(
                float(cross_entropy(log_probs, sup).value), np.log(c), atol=1e-12
            )

    def test_subset_of_nodes_only(self):
        log_probs = ad.Tensor(np.log(np.array([[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]])))
        sup = SupervisionSet.classification([2], [1], num_classes=2, num_nodes=3)
        np.testing.assert_allclose(float(cross_entropy(log_probs, sup).value), -np.log(0.9), atol=1e-12)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(0)
        x = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        sup = SupervisionSet.classification([0, 2, 4], [1, 0, 2], num_classes=3, num_nodes=5)

        def forward():
            return cross_entropy(ad.log_softmax(x), sup)

        with ad.Tape() as tape:
            loss = forward()
        tape.backward(loss)
        h = 1e-6
        flat, gflat = x.value.ravel(), x.grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(forward().value)
            flat[i] = orig - h
            fm = float(forward().value)
            flat[i] = orig
            np.testing.assert_allclose(gflat[i], (fp - fm) / (2 * h), atol=1e-7)

    def test_class_out_of_range(self):
        log_probs = ad.Tensor(np.log(np.full((2, 2), 0.5)))
        with pytest.raises(LossError):
            SupervisionSet.classification([0], [5], num_classes=2, num_nodes=2)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(LossError, match="duplicate"):
            SupervisionSet.classification([0, 0], [1, 1], num_classes=2, num_nodes=2)

    @pytest.mark.parametrize("nodes,bad", [([0, 7], 7), ([0, 3], 3), ([-1, 1], -1)])
    def test_node_ids_outside_the_graph_rejected(self, nodes, bad):
        with pytest.raises(LossError, match=rf"node id {bad} outside \[0, 3\)"):
            SupervisionSet.classification(nodes, [0, 1], num_classes=2, num_nodes=3)


class TestBPR:
    def test_zero_margin_is_ln2(self):
        pos = ad.Tensor(np.zeros((5, 1)))
        neg = ad.Tensor(np.zeros((5, 1)))
        np.testing.assert_allclose(float(bpr_loss(pos, neg).value), LN2, atol=1e-12)

    def test_hand_value_margin_two(self):
        # softplus(-2) = ln(1 + e^-2), frozen
        pos = ad.Tensor([[2.0]])
        neg = ad.Tensor([[0.0]])
        np.testing.assert_allclose(float(bpr_loss(pos, neg).value), 0.12692801104297263, atol=1e-12)

    def test_monotone_in_margin(self):
        margins = np.linspace(-3, 3, 13)
        vals = [
            float(bpr_loss(ad.Tensor([[m]]), ad.Tensor([[0.0]])).value) for m in margins
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_extreme_margins_stable(self):
        for m in (-1000.0, 1000.0):
            v = float(bpr_loss(ad.Tensor([[m]]), ad.Tensor([[0.0]])).value)
            assert np.isfinite(v)
        np.testing.assert_allclose(
            float(bpr_loss(ad.Tensor([[1000.0]]), ad.Tensor([[0.0]])).value), 0.0, atol=1e-12
        )

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(1)
        pos = ad.Tensor(rng.normal(size=(4, 1)), requires_grad=True)
        neg = ad.Tensor(rng.normal(size=(4, 1)), requires_grad=True)
        with ad.Tape() as tape:
            loss = bpr_loss(pos, neg)
        tape.backward(loss)
        h = 1e-6
        for t in (pos, neg):
            flat, gflat = t.value.ravel(), t.grad.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = float(bpr_loss(pos, neg).value)
                flat[i] = orig - h
                fm = float(bpr_loss(pos, neg).value)
                flat[i] = orig
                np.testing.assert_allclose(gflat[i], (fp - fm) / (2 * h), atol=1e-7)


class TestL2:
    def test_mean_squared_norm(self):
        z = ad.Tensor([[3.0, 4.0], [0.0, 0.0]])
        # mean of {25, 0} = 12.5, weight 0.1 -> 1.25
        np.testing.assert_allclose(float(l2_regularize(z, 0.1).value), 1.25, atol=1e-12)

    def test_zero_weight(self):
        z = ad.Tensor([[1.0, 2.0]])
        assert float(l2_regularize(z, 0.0).value) == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(LossError):
            l2_regularize(ad.Tensor([[1.0]]), -0.5)


class TestSupervisionRanking:
    def test_every_graph_edge_is_accepted_either_way(self):
        graph, _ = generate_scale_free(300, 3, seed=2)
        sup = SupervisionSet.ranking("link", graph)
        assert sup.size == 2 * graph.num_edges
        assert sup.graph is graph
        pairs = {(int(u), int(v)) for u, v in sup.positive_pairs}
        for node in range(graph.num_nodes):
            want = sorted(v for u, v in pairs if u == node)
            np.testing.assert_array_equal(sup.graph.neighbors(node), want)

    def test_link_orients_both_ways(self):
        g = build_graph([(0, 1), (1, 2)], 3)
        sup = SupervisionSet.ranking("link", g)
        assert sup.size == 4
        np.testing.assert_array_equal(sup.graph.neighbors(1), [0, 2])

    def test_recsys_orients_user_to_item(self):
        g = build_graph([(0, 2), (1, 3), (1, 2)], 4, bipartite=(2, 2))
        sup = SupervisionSet.ranking("recsys", g)
        assert sup.size == 3
        assert (sup.positive_pairs[:, 0] < 2).all()
        np.testing.assert_array_equal(sup.pool, [2, 3])


class TestSampleNegatives:
    def test_never_returns_a_positive(self):
        g = build_graph([(0, 1), (0, 2), (1, 3), (2, 3)], 6)
        sup = SupervisionSet.ranking("link", g)
        sources = sup.positive_pairs[:, 0]
        for seed in range(200):
            negs = sample_negatives(sup, sources, seed)
            for s, t in zip(sources, negs):
                assert t not in set(sup.graph.neighbors(s).tolist())

    def test_deterministic(self):
        g = build_graph([(0, 1), (1, 2), (2, 3)], 6)
        sup = SupervisionSet.ranking("link", g)
        s = sup.positive_pairs[:, 0]
        np.testing.assert_array_equal(
            sample_negatives(sup, s, 7), sample_negatives(sup, s, 7)
        )

    def test_uniform_over_candidates(self):
        """Node 0 links to 1 of 5 nodes: each remaining candidate (including
        node 0 itself, which is not linked to itself) appears ~1/4 of the time."""
        g = build_graph([(0, 1)], 5)
        sup = SupervisionSet.ranking("link", g)
        counts = np.zeros(5)
        trials = 10_000
        draws = [sample_negatives(sup, [0], seed)[0] for seed in range(trials)]
        for d in draws:
            counts[d] += 1
        assert counts[1] == 0
        np.testing.assert_allclose(counts[[0, 2, 3, 4]] / trials, 0.25, atol=0.03)

    def test_forced_complement_path(self):
        """A source linked to all but one candidate must always get that one."""
        n = 40
        edges = [(0, j) for j in range(1, n - 1)]  # 0 linked to everything but n-1
        g = build_graph(edges, n)
        sup = SupervisionSet.ranking("link", g)
        # overwhelm rejection: all positives for source 0 except node 0 and n-1
        got = sample_negatives(sup, [0] * 8, seed=123)
        assert set(got.tolist()) <= {0, n - 1}

    def test_fully_linked_source_raises(self):
        g = build_graph([(0, 2), (0, 3), (1, 2)], 4, bipartite=(2, 2))
        sup = SupervisionSet.ranking("recsys", g)
        with pytest.raises(LossError, match="every candidate"):
            sample_negatives(sup, [0], seed=0)
        # several offenders, given out of order: the lowest id is named
        g = build_graph([(0, 3), (0, 4), (1, 4), (2, 3), (2, 4)], 5, bipartite=(3, 2))
        sup = SupervisionSet.ranking("recsys", g)
        with pytest.raises(LossError, match="source 0 is linked"):
            sample_negatives(sup, [2, 1, 2, 0], seed=0)

    # sha256[:16] of the int64 bytes of each draw over every positive pair's
    # source, computed before negatives were drawn through ``Graph.has_edges``
    PINNED = {
        "link": ["f18ae92046700747", "f48f1023e0ea46e9", "e691b3e60bf82854", "a9960978ab9bbbaf"],
        "recsys": ["dd0368ae0f1c0da7", "71acd10f27bbd79e", "646c1658fc2bfb35", "be895af78a08bba5"],
    }

    @pytest.mark.parametrize("task", ["link", "recsys"])
    def test_draws_are_pinned(self, task):
        graph = (generate_scale_free(80, 3, seed=4)[0] if task == "link"
                 else generate_bipartite(30, 25, seed=4))
        sup = SupervisionSet.ranking(task, graph)
        for seed, want in enumerate(self.PINNED[task]):
            got = sample_negatives(sup, sup.positive_pairs[:, 0], seed)
            assert hashlib.sha256(got.tobytes()).hexdigest()[:16] == want, seed

    @pytest.mark.parametrize("task,seed,want", [
        ("link", 123, [0, 0, 0, 299, 0, 299, 76, 55, 100]),
        ("link", 7, [0, 299, 0, 299, 299, 299, 250, 67, 16]),
        ("recsys", 3, [202, 202, 202, 202, 202, 202, 176, 119]),
        ("recsys", 4, [202, 202, 202, 202, 202, 202, 197, 19]),
    ])
    def test_forced_complement_draws_are_pinned(self, task, seed, want, monkeypatch):
        """Source 0 is linked to all but one or two candidates, so rejection
        stalls and the complement path draws (counted through ``setdiff1d``)."""
        if task == "link":
            edges = [(0, j) for j in range(1, 299)] + [(1, 2), (5, 9)]
            sup = SupervisionSet.ranking("link", build_graph(edges, 300))
            sources = [0] * 6 + [1, 2, 5]
        else:
            edges = [(0, j) for j in range(3, 202)] + [(1, 4), (2, 6)]
            sup = SupervisionSet.ranking("recsys", build_graph(edges, 203, bipartite=(3, 200)))
            sources = [0] * 6 + [1, 2]
        calls = []
        setdiff1d = np.setdiff1d
        monkeypatch.setattr(np, "setdiff1d",
                            lambda *a, **kw: calls.append(1) or setdiff1d(*a, **kw))
        assert sample_negatives(sup, sources, seed).tolist() == want
        assert calls

    def test_recsys_negatives_are_items(self):
        g = build_graph([(0, 3), (1, 4), (2, 5), (0, 4)], 7, bipartite=(3, 4))
        sup = SupervisionSet.ranking("recsys", g)
        negs = sample_negatives(sup, sup.positive_pairs[:, 0], seed=5)
        assert (negs >= 3).all()
