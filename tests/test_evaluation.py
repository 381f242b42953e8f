"""Metrics against brute-force oracles, bucket tables, and the eval harness."""
import dataclasses

import numpy as np
import pytest

from tailkit.data import make_classification_bundle, make_link_bundle, make_recsys_bundle
from tailkit.evaluation import (
    BUCKET_LABELS,
    EvalError,
    MetricReport,
    bucket_index,
    degree_buckets,
    evaluate_setting,
    parse_setting,
    ranking_score_fn,
    recall_per_source,
    scored_nodes,
    validation_metric,
)
from tailkit.generators import generate_bipartite, generate_scale_free
from tailkit.graph import build_graph
from tailkit.models import EncoderConfig, encode, init_model, score_pairs


def brute_force_recall(score_fn, sources, positives, pool, k, exclude=None):
    """Independent oracle: python sort by (-score, id), count hits."""
    total = 0.0
    for s in sources:
        s = int(s)
        banned = set() if exclude is None else {int(x) for x in exclude[s]}
        cand = [int(c) for c in pool if int(c) not in banned]
        scores = score_fn(s, np.array(cand, dtype=np.int64))
        ranked = sorted(zip(cand, scores), key=lambda t: (-t[1], t[0]))
        top = {c for c, _ in ranked[:k]}
        pos = {int(p) for p in positives[s]}
        total += len(top & pos) / len(pos)
    return total / len(sources)


def recall_per_source_set_algebra(score_fn, sources, positives, pool, k=50, exclude=None):
    """Reference oracle: the isin/lexsort/intersect1d loop that
    ``recall_per_source`` replaced, kept verbatim."""
    pool = np.asarray(pool, dtype=np.int64)
    out = np.empty(len(sources), dtype=np.float64)
    for i, source in enumerate(sources):
        source = int(source)
        pos = np.asarray(positives[source], dtype=np.int64)
        if pos.size == 0:
            raise EvalError(f"source {source} has no positives")
        candidates = pool
        if exclude is not None:
            dropped = np.asarray(exclude[source], dtype=np.int64)
            if dropped.size:
                candidates = candidates[~np.isin(candidates, dropped)]
        if candidates.size == 0:
            raise EvalError(f"source {source} has an empty candidate pool")
        scores = np.asarray(score_fn(source, candidates), dtype=np.float64).ravel()
        order = np.lexsort((candidates, -scores))
        top = candidates[order[:k]]
        out[i] = np.intersect1d(top, pos, assume_unique=False).size / pos.size
    return out


def fresh_ranking_score_fn(model, embeddings):
    """Reference oracle: the scorer's arithmetic with every operand and
    intermediate allocated per call (link: the head over every embedding
    row, with ``b1`` folded into the product, then the candidates' entries)."""
    if model.task == "link":
        w1 = model.params["head.w1"].value
        b1 = model.params["head.b1"].value
        w2 = model.params["head.w2"].value
        b2 = model.params["head.b2"].value

        def score(source, candidates):
            rows = np.hstack([embeddings, np.ones((embeddings.shape[0], 1))])
            folded = np.vstack([embeddings[source][:, None] * w1, b1[None, :]])
            h = np.maximum(rows @ folded, 0.0)
            return (h @ w2)[candidates, 0] + b2

        return score
    return lambda source, candidates: (
        embeddings[source] * embeddings[candidates]).sum(axis=1)


def gathered_link_score_fn(model, embeddings):
    """Reference oracle: the link scorer of ``NUMERICS`` 0, kept verbatim,
    which ran the head on the gathered candidate rows only (the training-side
    ``score_pairs`` arithmetic)."""
    w1 = model.params["head.w1"].value
    b1 = model.params["head.b1"].value
    w2 = model.params["head.w2"].value
    b2 = model.params["head.b2"].value

    def score(source, candidates):
        had = embeddings[source] * embeddings[candidates]
        h = np.maximum(had @ w1 + b1, 0.0)
        return (h @ w2 + b2).ravel()

    return score


def positives_from_edges_loop(edges, both_directions=True):
    """Reference oracle: a per-edge loop building each source's sorted targets."""
    table = {}
    for u, v in np.asarray(edges, dtype=np.int64).reshape(-1, 2):
        table.setdefault(int(u), []).append(int(v))
        if both_directions:
            table.setdefault(int(v), []).append(int(u))
    return {s: np.unique(t) for s, t in table.items()}


def table_score_fn(table):
    return lambda s, cand: np.array([table[(s, int(c))] for c in cand], dtype=np.float64)


class TestRecall:
    def test_all_positives_in_top_k(self):
        table = {(0, c): 10.0 - c for c in range(6)}
        fn = table_score_fn(table)
        val = recall_per_source(fn, [0], {0: np.array([1, 2])}, np.arange(6), k=3).mean()
        assert val == 1.0

    def test_half_of_four_positives(self):
        # positives 1,2 score high; 8,9 score low; k=4 captures exactly 2
        scores = {(0, c): float(-c) for c in range(10)}
        fn = table_score_fn(scores)
        val = recall_per_source(fn, [0], {0: np.array([1, 2, 8, 9])}, np.arange(10), k=4).mean()
        assert val == 0.5

    def test_six_node_hand_instance(self):
        table = {(0, c): s for c, s in enumerate([0.1, 0.9, 0.9, 0.3, 0.8, 0.2])}
        fn = table_score_fn(table)
        pos = {0: np.array([2, 5])}
        pool = np.arange(6)
        got = recall_per_source(fn, [0], pos, pool, k=3).mean()
        assert got == brute_force_recall(fn, [0], pos, pool, 3)
        # top-3 by (-score, id): 1 (0.9), 2 (0.9), 4 (0.8) -> hits {2} of {2,5}
        assert got == 0.5

    def test_ties_break_to_lower_id(self):
        fn = table_score_fn({(0, c): 1.0 for c in range(5)})
        # all tied: top-2 must be ids 0 and 1
        assert recall_per_source(fn, [0], {0: np.array([0, 1])}, np.arange(5), k=2).mean() == 1.0
        assert recall_per_source(fn, [0], {0: np.array([3, 4])}, np.arange(5), k=2).mean() == 0.0

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(5, 30))
            pool = np.arange(n)
            # coarse scores force plenty of ties
            table = {(0, c): float(rng.integers(0, 4)) for c in range(n)}
            fn = table_score_fn(table)
            pos = {0: rng.choice(n, size=int(rng.integers(1, min(5, n))), replace=False)}
            k = int(rng.integers(1, n + 1))
            banned = rng.choice(
                np.setdiff1d(pool, pos[0]), size=int(rng.integers(0, 3)), replace=False
            )
            exclude = {0: banned}
            got = recall_per_source(fn, [0], pos, pool, k, exclude).mean()
            want = brute_force_recall(fn, [0], pos, pool, k, exclude)
            assert got == want

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(2)
        table = {(0, c): float(rng.standard_normal()) for c in range(20)}
        fn = table_score_fn(table)
        warped = lambda s, cand: np.tanh(fn(s, cand)) * 3.0 + 7.0
        pos = {0: np.array([4, 11, 17])}
        a = recall_per_source(fn, [0], pos, np.arange(20), k=5).mean()
        b = recall_per_source(warped, [0], pos, np.arange(20), k=5).mean()
        assert a == b

    def test_excluded_never_ranked(self):
        # neighbor 3 has the best score but is excluded
        table = {(0, c): float(c == 3) for c in range(6)}
        fn = table_score_fn(table)
        per = recall_per_source(
            fn, [0], {0: np.array([3])}, np.arange(6), k=6, exclude={0: np.array([3])}
        )
        assert per[0] == 0.0

    def test_mean_over_sources(self):
        table = {(s, c): float(-c) for s in (0, 1) for c in range(6)}
        fn = table_score_fn(table)
        pos = {0: np.array([0]), 1: np.array([5])}
        assert recall_per_source(fn, [0, 1], pos, np.arange(6), k=1).mean() == 0.5

    def test_errors(self):
        fn = table_score_fn({(0, 0): 1.0})
        with pytest.raises(EvalError):
            recall_per_source(fn, [0], {0: np.array([], dtype=int)}, np.arange(1))
        with pytest.raises(EvalError):
            recall_per_source(
                fn, [0], {0: np.array([0])}, np.array([0]), exclude={0: np.array([0])}
            )


class TestDegreeBuckets:
    def test_bucket_index_edges(self):
        degs = [0, 1, 5, 6, 10, 11, 20, 21, 50, 51, 400]
        expect = [0, 1, 5, 6, 6, 7, 7, 8, 8, 9, 9]
        assert bucket_index(degs).tolist() == expect

    def test_all_isolated_single_bucket(self):
        g = build_graph([], 4)
        rows = degree_buckets(g, [0, 1, 2, 3], [1.0, 0.0, 1.0, 1.0])
        assert rows[0]["count"] == 4
        assert rows[0]["mean"] == pytest.approx(0.75)
        assert all(r["count"] == 0 and r["mean"] is None for r in rows[1:])

    def test_counts_sum_to_population(self):
        graph, _ = generate_scale_free(60, 2, seed=3)
        nodes = np.arange(60)
        rows = degree_buckets(graph, nodes, np.ones(60))
        assert sum(r["count"] for r in rows) == 60

    def test_hand_averages_on_eight_nodes(self):
        # star center 0 with 7 leaves: center degree 7 -> bucket 6-10, leaves degree 1
        g = build_graph([(0, i) for i in range(1, 8)], 8)
        metric = np.array([0.2, 1, 0, 1, 0, 1, 0, 1], dtype=float)
        rows = {r["bucket"]: r for r in degree_buckets(g, np.arange(8), metric)}
        assert rows["6-10"]["count"] == 1
        assert rows["6-10"]["mean"] == pytest.approx(0.2)
        assert rows["1"]["count"] == 7
        assert rows["1"]["mean"] == pytest.approx(4 / 7)

    def test_shape_mismatch(self):
        g = build_graph([(0, 1)], 2)
        with pytest.raises(EvalError):
            degree_buckets(g, [0, 1], [1.0])


class TestMetricReport:
    def make(self, value=0.5, counts=(2, 1)):
        buckets = [
            {"bucket": lbl, "mean": 0.5 if i < len(counts) else None,
             "count": counts[i] if i < len(counts) else 0}
            for i, lbl in enumerate(BUCKET_LABELS)
        ]
        return MetricReport("transductive", "accuracy", value, buckets, "abc", sum(counts))

    def test_round_trip_dict(self):
        rep = self.make()
        d = rep.to_dict()
        assert d["value"] == 0.5 and d["population"] == 3
        assert d["buckets"][0] == {"bucket": "0", "mean": 0.5, "count": 2}

    def test_invariants_enforced(self):
        with pytest.raises(EvalError):
            self.make(value=1.5)
        buckets = [{"bucket": lbl, "mean": None, "count": 0} for lbl in BUCKET_LABELS]
        with pytest.raises(EvalError):
            MetricReport("transductive", "accuracy", 0.5, buckets, "abc", population=5)


class TestParseSetting:
    def test_tags(self):
        assert parse_setting("transductive") == ("transductive", None)
        assert parse_setting("inductive") == ("inductive", None)
        assert parse_setting("inductive-cold(0.9)") == ("inductive-cold", 0.9)
        for bad in ("cold", "inductive-cold()", "inductive-cold(x)"):
            with pytest.raises(EvalError):
                parse_setting(bad)


def classification_fixture(seed=0):
    graph, labels = generate_scale_free(150, 3, seed=seed)
    bundle = make_classification_bundle(graph, labels, seed=seed)
    config = EncoderConfig("gcn", graph.features.shape[1], 8, 8)
    model = init_model(config, "classification", num_classes=2, seed=seed)
    return bundle, model


class TestEvaluateSetting:
    def test_transductive_population_is_unlabeled(self):
        bundle, model = classification_fixture()
        rep = evaluate_setting(model, bundle, "transductive")
        assert rep.metric_name == "accuracy"
        assert rep.population == bundle.label_set.unlabeled.size
        assert rep.graph_hash == bundle.train_graph.edge_hash()
        assert 0.0 <= rep.value <= 1.0

    def test_inductive_population_is_new_nodes(self):
        bundle, model = classification_fixture()
        rep = evaluate_setting(model, bundle, "inductive")
        assert rep.population == bundle.v_new.size
        assert rep.graph_hash == bundle.inference_graph("inductive").edge_hash()

    def test_cold_uses_reduced_graph(self):
        bundle, model = classification_fixture()
        rep = evaluate_setting(model, bundle, "inductive-cold(0.9)")
        cold_graph = bundle.inference_graph("inductive-cold", 0.9)
        assert rep.graph_hash == cold_graph.edge_hash()
        assert cold_graph.num_edges <= bundle.inference_graph("inductive").num_edges

    def test_parameters_untouched(self):
        bundle, model = classification_fixture()
        before = model.copy_values()
        evaluate_setting(model, bundle, "transductive")
        evaluate_setting(model, bundle, "inductive")
        for name, value in model.copy_values().items():
            assert value.tobytes() == before[name].tobytes(), name

    def test_deterministic(self):
        bundle, model = classification_fixture()
        a = evaluate_setting(model, bundle, "transductive")
        b = evaluate_setting(model, bundle, "transductive")
        assert a.to_dict() == b.to_dict()

    def test_link_settings(self):
        rng = np.random.default_rng(7)
        upper = np.triu(rng.random((80, 80)) < 0.12, k=1)
        graph = build_graph(np.argwhere(upper), 80, features=rng.standard_normal((80, 4)))
        bundle = make_link_bundle(graph, seed=1)
        model = init_model(EncoderConfig("sage-mean", 4, 8, 8), "link", seed=1)
        rep = evaluate_setting(model, bundle, "transductive", k=10)
        assert rep.metric_name == "recall@10"
        assert 0.0 <= rep.value <= 1.0
        assert sum(r["count"] for r in rep.buckets) == rep.population
        rep_ind = evaluate_setting(model, bundle, "inductive", k=10)
        assert rep_ind.graph_hash == bundle.inference_graph("inductive").edge_hash()

    def test_recsys_transductive_only(self):
        graph = generate_bipartite(25, 30, seed=4)
        bundle = make_recsys_bundle(graph, seed=2)
        model = init_model(
            EncoderConfig("gcn", 8, 8, 8), "recsys", num_nodes=55, featureless=True, seed=0
        )
        rep = evaluate_setting(model, bundle, "transductive", k=10)
        assert 0.0 <= rep.value <= 1.0
        with pytest.raises(EvalError):
            evaluate_setting(model, bundle, "inductive")

    def test_unknown_tag(self):
        bundle, model = classification_fixture()
        with pytest.raises(EvalError):
            evaluate_setting(model, bundle, "extrapolative")


class TestScoreFnMatchesTrainingScorer:
    def test_link_head_bitwise(self):
        model = init_model(EncoderConfig("gcn", 4, 6, 6), "link", seed=3)
        rng = np.random.default_rng(3)
        emb_values = rng.standard_normal((12, 6))
        from tailkit.autodiff import Tensor

        candidates = np.array([5, 7, 2, 0])
        pairs = np.stack([np.zeros(4, dtype=np.int64), candidates], axis=1)
        slow = score_pairs(model, Tensor(emb_values.copy()), pairs).value.ravel()
        fast = ranking_score_fn(model, emb_values)(0, candidates)
        assert np.array_equal(fast, slow)

    def test_recsys_inner_product_bitwise(self):
        model = init_model(
            EncoderConfig("gcn", 4, 6, 6), "recsys", num_nodes=10, featureless=True, seed=4
        )
        rng = np.random.default_rng(4)
        emb_values = rng.standard_normal((10, 6))
        from tailkit.autodiff import Tensor

        candidates = np.array([7, 9, 8])
        pairs = np.stack([np.full(3, 2, dtype=np.int64), candidates], axis=1)
        slow = score_pairs(model, Tensor(emb_values.copy()), pairs).value.ravel()
        fast = ranking_score_fn(model, emb_values)(2, candidates)
        assert np.array_equal(fast, slow)


class TestValidationMetric:
    def test_classification_matches_accuracy(self):
        bundle, model = classification_fixture()
        val = validation_metric(model, bundle)
        from tailkit.evaluation import predict_classes

        preds = predict_classes(model, bundle.train_graph)
        nodes = bundle.label_set.validation.tolist()
        correct = sum(int(preds[n] == bundle.label_set.labels[n]) for n in nodes)
        assert val == correct / len(nodes)

    def test_ranking_validation_in_range(self):
        rng = np.random.default_rng(9)
        upper = np.triu(rng.random((60, 60)) < 0.15, k=1)
        graph = build_graph(np.argwhere(upper), 60, features=rng.standard_normal((60, 4)))
        bundle = make_link_bundle(graph, seed=5)
        model = init_model(EncoderConfig("gcn", 4, 8, 8), "link", seed=5)
        val = validation_metric(model, bundle, k=10)
        assert 0.0 <= val <= 1.0


class RecordingScores:
    """A score table lookup that records every candidate array it is given."""

    def __init__(self, table):
        self.table = table
        self.calls = []

    def __call__(self, source, candidates):
        self.calls.append((source, candidates.copy()))
        return self.table[source, candidates]


def _ranking_case(seed, *, levels=None, k=7, cover_top=False, outside=False,
                  duplicates=False, shuffled=False, special=False):
    """Sources 0..8 over a pool of 61 of the ids 0..96 (so ids outside it exist)."""
    rng = np.random.default_rng(seed)
    num_ids, num_sources = 97, 9
    pool = np.sort(rng.choice(num_ids, size=61, replace=False))
    if shuffled:
        pool = rng.permutation(pool)
    if levels is None:
        table = rng.standard_normal((num_sources, num_ids))
    else:
        table = rng.integers(0, levels, size=(num_sources, num_ids)).astype(np.float64)
    if special:
        cells = rng.choice(table.size, size=200, replace=False)
        table.ravel()[cells] = rng.choice([np.nan, 0.0, -0.0, np.inf, -np.inf], size=200)
    outsiders = np.concatenate([np.setdiff1d(np.arange(num_ids), pool), [-3, 500]])
    positives, exclude = {}, {}
    for s in range(num_sources):
        pos = rng.choice(pool, size=int(rng.integers(1, 6)), replace=False)
        dropped = rng.choice(pool, size=int(rng.integers(0, 8)), replace=False)
        if cover_top:
            ranked = pool[np.lexsort((pool, -table[s, pool]))]
            dropped = np.concatenate([dropped, ranked[:k]])
        if outside:
            pos = np.concatenate([pos, rng.choice(outsiders, size=2, replace=False)])
            dropped = np.concatenate([dropped, rng.choice(outsiders, size=3, replace=False)])
        if duplicates:
            pos = np.concatenate([pos, pos[:2]])
            dropped = np.concatenate([dropped, dropped[:2]])
        positives[s], exclude[s] = pos, dropped
    return table, np.arange(num_sources), positives, pool, k, exclude


_RANKING_CASES = [
    pytest.param(dict(), id="plain"),
    pytest.param(dict(levels=3), id="tie-heavy"),
    pytest.param(dict(levels=2, k=20), id="tie-heavy-k20"),
    pytest.param(dict(cover_top=True), id="exclusions-cover-top-k"),
    pytest.param(dict(levels=3, cover_top=True, k=12), id="ties-and-covered-top-k"),
    pytest.param(dict(k=61), id="k-equals-pool"),
    pytest.param(dict(k=500), id="k-above-pool"),
    pytest.param(dict(k=1, levels=2), id="k=1-ties"),
    pytest.param(dict(outside=True), id="ids-outside-pool"),
    pytest.param(dict(duplicates=True, levels=3), id="duplicate-ids"),
    pytest.param(dict(shuffled=True, levels=3), id="unsorted-pool"),
    pytest.param(dict(shuffled=True, outside=True, duplicates=True, cover_top=True),
                 id="all-at-once"),
    pytest.param(dict(special=True, k=15), id="nan-inf-signed-zero"),
    pytest.param(dict(special=True, levels=2, shuffled=True, k=30), id="special-ties-unsorted"),
]


class TestRecallAgainstSetAlgebraOracle:
    """The mask-and-partition loop against the isin/lexsort/intersect1d loop
    it replaced: per-source recall byte for byte, and the exact candidate
    arrays handed to the score function."""

    @pytest.mark.parametrize("case", _RANKING_CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_per_source_bytes_and_candidates(self, case, seed):
        table, sources, positives, pool, k, exclude = _ranking_case(seed, **case)
        for excl in (exclude, None):
            new, old = RecordingScores(table), RecordingScores(table)
            got = recall_per_source(new, sources, positives, pool, k, excl)
            want = recall_per_source_set_algebra(old, sources, positives, pool, k, excl)
            assert got.tobytes() == want.tobytes()
            assert len(new.calls) == len(old.calls)
            for (s_new, c_new), (s_old, c_old) in zip(new.calls, old.calls):
                assert s_new == s_old
                assert c_new.dtype == c_old.dtype and np.array_equal(c_new, c_old)

    def test_random_instances(self):
        rng = np.random.default_rng(11)
        for trial in range(40):
            case = dict(levels=int(rng.integers(1, 5)), k=int(rng.integers(1, 70)),
                        cover_top=bool(rng.integers(2)), outside=bool(rng.integers(2)),
                        duplicates=bool(rng.integers(2)), shuffled=bool(rng.integers(2)),
                        special=bool(rng.integers(2)))
            table, sources, positives, pool, k, exclude = _ranking_case(trial, **case)
            fn = RecordingScores(table)
            try:
                want = recall_per_source_set_algebra(fn, sources, positives, pool, k, exclude)
            except EvalError as exc:  # the top k covered the whole pool
                with pytest.raises(EvalError, match=str(exc)):
                    recall_per_source(fn, sources, positives, pool, k, exclude)
                continue
            got = recall_per_source(fn, sources, positives, pool, k, exclude)
            assert got.tobytes() == want.tobytes(), case

    def test_invalid_requests_rejected(self):
        fn = table_score_fn({(0, c): 1.0 for c in range(4)})
        with pytest.raises(EvalError, match="duplicate"):
            recall_per_source(fn, [0], {0: np.array([1])}, np.array([0, 1, 1, 2]))
        with pytest.raises(EvalError, match="k must be"):
            recall_per_source(fn, [0], {0: np.array([1])}, np.arange(4), k=0)


def _edge_endpoints(edges, both_directions=True):
    """The sources of ``edges`` as a Python set."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2).tolist()
    return {u for u, _ in edges} | ({v for _, v in edges} if both_directions else set())


def _scored_bundles():
    graph, _ = generate_scale_free(160, 2, feat_dim=4, seed=8)
    link = make_link_bundle(graph, new_fraction=0.1, seed=8)
    recsys = make_recsys_bundle(generate_bipartite(40, 35, seed=8), ratios=(0.5, 0.2, 0.3), seed=8)
    return {"link": link, "recsys": recsys}


class TestScoredNodesAgainstSetRule:
    """``scored_nodes`` against the rule it replaced, computed with Python
    sets, and the positives against the per-edge loop oracle."""

    @pytest.mark.parametrize("task,kind", [
        ("link", "validation"), ("link", "transductive"), ("link", "inductive"),
        ("link", "inductive-cold"), ("recsys", "validation"), ("recsys", "transductive")])
    def test_sources_positives_and_pool(self, task, kind):
        bundle = _scored_bundles()[task]
        edge_kind = "inductive" if kind == "inductive-cold" else kind
        edges = {"validation": bundle.trans_val_edges, "transductive": bundle.trans_test_edges,
                 "inductive": bundle.new_test_edges}[edge_kind]
        link = task == "link"
        if not link:
            eligible = set(range(bundle.train_graph.bipartite[0]))
            pool = np.arange(bundle.train_graph.bipartite[0], bundle.num_nodes)
        elif edge_kind == "inductive":
            eligible, pool = set(bundle.v_new.tolist()), np.arange(bundle.num_nodes)
        else:
            eligible = _edge_endpoints(bundle.trans_val_edges)
            pool = bundle.v_train
        want_sources = sorted(_edge_endpoints(edges, link) & eligible)
        want = positives_from_edges_loop(edges, both_directions=link)

        sources, positives, got_pool = scored_nodes(bundle, kind)
        assert len(want_sources) > 0
        assert sources.dtype == np.int64 and sources.tolist() == want_sources
        assert sorted(positives) == want_sources
        for s in want_sources:
            assert positives[s].dtype == want[s].dtype
            assert np.array_equal(positives[s], want[s])
        assert got_pool.dtype == np.int64 and np.array_equal(got_pool, pool)

    @pytest.mark.parametrize("task", ["link", "recsys"])
    def test_no_validation_edge_scores_nothing(self, task):
        """Without validation edges nothing is validated, nor (link only,
        whose test sources must be validation sources) tested."""
        bundle = dataclasses.replace(_scored_bundles()[task],
                                     trans_val_edges=np.empty((0, 2), dtype=np.int64))
        for kind in ("validation", "transductive") if task == "link" else ("validation",):
            sources, positives, _ = scored_nodes(bundle, kind)
            assert sources.size == 0 and positives == {}


def _link_scorer_fixture():
    """A link bundle whose per-source candidate counts include values that are
    not multiples of 4 or 8 (the GEMM's row blocking)."""
    graph, _ = generate_scale_free(203, 2, feat_dim=6, seed=5)
    bundle = make_link_bundle(graph, seed=5)
    model = init_model(EncoderConfig("gcn", 6, 12, 12), "link", seed=5)
    emb = encode(model, bundle.train_graph).value
    pool = np.asarray(bundle.v_train, dtype=np.int64)
    return model, emb, bundle.train_graph, pool, np.arange(bundle.train_graph.num_nodes)


def _recsys_scorer_fixture():
    graph = generate_bipartite(41, 53, seed=6)
    bundle = make_recsys_bundle(graph, seed=6)
    model = init_model(
        EncoderConfig("gcn", 8, 12, 12), "recsys", num_nodes=94, featureless=True, seed=6)
    emb = encode(model, bundle.train_graph).value
    pool = np.arange(41, 94, dtype=np.int64)
    return model, emb, bundle.train_graph, pool, np.arange(41)


class TestBufferedScorerAgainstFreshScorer:
    @pytest.mark.parametrize("fixture", [_link_scorer_fixture, _recsys_scorer_fixture],
                             ids=["link", "recsys"])
    def test_bytes_equal_across_calls(self, fixture):
        model, emb, graph, pool, sources = fixture()
        buffered = ranking_score_fn(model, emb)
        fresh = fresh_ranking_score_fn(model, emb)
        got, want, counts = [], [], set()
        for s in sources:
            candidates = pool[~np.isin(pool, graph.neighbors(int(s)))]
            counts.add(candidates.size)
            got.append(buffered(int(s), candidates))
            want.append(fresh(int(s), candidates))
        # earlier results must survive later calls: no buffer is handed out
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        assert any(c % 4 for c in counts) and any(c % 8 == 4 for c in counts)

    @pytest.mark.parametrize("fixture", [_link_scorer_fixture, _recsys_scorer_fixture],
                             ids=["link", "recsys"])
    def test_more_candidates_than_rows(self, fixture):
        model, emb, _, pool, _ = fixture()
        candidates = np.concatenate([np.arange(emb.shape[0]), pool[:3]])
        got = ranking_score_fn(model, emb)(1, candidates)
        assert got.tobytes() == fresh_ranking_score_fn(model, emb)(1, candidates).tobytes()

    def test_candidate_ids_outside_the_embedding_rows_rejected(self):
        model, emb, _, pool, _ = _link_scorer_fixture()
        n = emb.shape[0]
        score = ranking_score_fn(model, emb)
        for bad in ([0, n], [-n - 1, 2]):
            with pytest.raises(EvalError, match="candidate ids"):
                score(1, np.array(bad))
        wrapped = np.array([-1, -n, 3, n - 1])  # negative ids index from the end, as before
        want = fresh_ranking_score_fn(model, emb)(1, wrapped)
        assert score(1, wrapped).tobytes() == want.tobytes()


def _candidate_lists(rng, n, pool):
    """Candidate lists of one source: the pool, a random subset of it
    (shuffled and sorted), repeated ids, wrapped negative ids, and more ids
    than embedding rows."""
    subset = rng.choice(pool, size=int(rng.integers(1, pool.size)), replace=False)
    return [pool, subset, np.sort(subset), np.repeat(subset[:5], 3), subset - n,
            rng.integers(-n, n, size=n + 7)]


class TestScoresAreCandidateIndependent:
    @pytest.mark.parametrize("fixture", [_link_scorer_fixture, _recsys_scorer_fixture],
                             ids=["link", "recsys"])
    def test_each_score_is_the_entry_of_every_rows_scores(self, fixture):
        """``score(s, c)`` is ``score(s, arange(n))[c]`` byte for byte: a
        pair's score does not depend on which candidates were asked for."""
        model, emb, _, pool, sources = fixture()
        n = emb.shape[0]
        score = ranking_score_fn(model, emb)
        rng = np.random.default_rng(12)
        for s in sources:
            every = score(int(s), np.arange(n))
            for candidates in _candidate_lists(rng, n, pool):
                assert score(int(s), candidates).tobytes() == every[candidates].tobytes()


class TestLinkScorerAgainstGatheredHead:
    def test_within_1e_12_relative(self):
        """The folded link scorer against the arithmetic it replaced, over
        every source of the fixture and several candidate lists each, with
        nonzero biases so that folding ``b1`` into the product is exercised."""
        model, emb, _, pool, sources = _link_scorer_fixture()
        rng = np.random.default_rng(13)
        for name in ("head.b1", "head.b2"):
            model.params[name].value[...] = rng.standard_normal(model.params[name].value.shape)
        score, oracle = ranking_score_fn(model, emb), gathered_link_score_fn(model, emb)
        for s in sources:
            for candidates in _candidate_lists(rng, emb.shape[0], pool):
                got, want = score(int(s), candidates), oracle(int(s), candidates)
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12 * np.abs(want).max())
