"""Encoders and heads: shapes, hand values, equivariance, checkpoint round-trips."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from dense_oracle import gat_encode_chain, gcn_encode_chain
from tailkit import autodiff as ad
from tailkit.generators import generate_scale_free
from tailkit.graph import build_graph, drop_edges, normalize_adjacency
from tailkit.models import (
    EncoderConfig,
    ModelError,
    VARIANTS,
    classify_embeddings,
    encode,
    init_model,
    load_model,
    save_model,
    score_pairs,
)


def small_graph(seed=0, n=8, feat_dim=5):
    rng = np.random.default_rng(seed)
    pairs = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 6)}  # node 7 isolated
    return build_graph(sorted(pairs), n, features=rng.normal(size=(n, feat_dim)))


class TestConfig:
    def test_bad_variant(self):
        with pytest.raises(ModelError, match="variant"):
            EncoderConfig("sage", 4, 8, 4)

    def test_layer_dims(self):
        cfg = EncoderConfig("gcn", 5, 16, 3, num_layers=3)
        assert cfg.layer_dims() == [(5, 16), (16, 16), (16, 3)]

    def test_single_layer(self):
        cfg = EncoderConfig("gcn", 5, 16, 3, num_layers=1)
        assert cfg.layer_dims() == [(5, 3)]


class TestEncode:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_output_shape(self, variant):
        g = small_graph()
        cfg = EncoderConfig(variant, 5, 7, 4)
        model = init_model(cfg, "classification", num_classes=3, seed=1)
        emb = encode(model, g)
        assert emb.value.shape == (8, 4)
        assert np.isfinite(emb.value).all()

    def test_gcn_on_edgeless_graph_is_pointwise_mlp(self):
        """Renormalized adjacency of an edgeless graph is the identity, so the
        encoder must reduce to a per-node MLP."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 5))
        g = build_graph([], 6, features=x)
        cfg = EncoderConfig("gcn", 5, 7, 4, num_layers=2)
        model = init_model(cfg, "classification", num_classes=2, seed=2)
        w0 = model.params["enc0.weight"].value
        b0 = model.params["enc0.bias"].value
        w1 = model.params["enc1.weight"].value
        b1 = model.params["enc1.bias"].value
        expected = np.maximum(x @ w0 + b0, 0.0) @ w1 + b1
        np.testing.assert_allclose(encode(model, g).value, expected, atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_permutation_equivariance(self, variant):
        g = small_graph(seed=4)
        cfg = EncoderConfig(variant, 5, 6, 3)
        model = init_model(cfg, "classification", num_classes=2, seed=5)
        emb = encode(model, g).value

        rng = np.random.default_rng(9)
        perm = rng.permutation(g.num_nodes)
        inv = np.argsort(perm)
        g_perm = build_graph(
            [(perm[u], perm[v]) for u, v in g.edges], g.num_nodes, features=g.features[inv]
        )
        emb_perm = encode(model, g_perm).value
        np.testing.assert_allclose(emb_perm, emb[inv], atol=1e-9)

    def test_gat_attention_sums_to_one(self, monkeypatch):
        g = small_graph(seed=6)
        cfg = EncoderConfig("gat", 5, 6, 3)
        model = init_model(cfg, "classification", num_classes=2, seed=7)
        attention, softmax = [], ad.segment_softmax

        def capture(logits, adj):
            coeff = softmax(logits, adj)
            attention.append(coeff.value.copy())
            return coeff

        monkeypatch.setattr(ad, "segment_softmax", capture)
        encode(model, g)
        adj = normalize_adjacency(g, "renormalized")
        assert len(attention) == cfg.num_layers
        for coeff in attention:
            sums = np.add.reduceat(coeff[:, 0], adj.offsets[:-1])
            np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    @pytest.mark.parametrize("variant,mode", [
        ("gcn", "renormalized"), ("sage-mean", "row-mean"), ("sage-sum", "none")])
    def test_operator_is_built_once_per_graph_and_read_only(self, variant, mode):
        g = small_graph(seed=9)
        model = init_model(EncoderConfig(variant, 5, 6, 3), "classification",
                           num_classes=2, seed=9)
        first = encode(model, g).value
        memo = g.operators[mode]
        assert encode(model, g).value.tobytes() == first.tobytes()
        # the encoder also keeps its first-layer aggregate of the features
        assert list(g.operators) == [mode, ("input", variant)]
        assert g.operators[mode] is memo
        fresh = normalize_adjacency(g, mode)
        assert memo.num_nodes == fresh.num_nodes
        for field in dataclasses.fields(fresh)[1:]:
            got, want = getattr(memo, field.name), getattr(fresh, field.name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field.name
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 0
        # read-only views: the graph's own CSR, which they may share, stays writable
        assert g.csr_offsets.flags.writeable and g.csr_targets.flags.writeable

    @pytest.mark.parametrize("variant", ["gcn", "sage-mean", "sage-max", "sage-sum"])
    def test_feature_aggregate_is_kept_read_only(self, variant):
        g = small_graph(seed=10)
        model = init_model(EncoderConfig(variant, 5, 6, 3), "classification",
                           num_classes=2, seed=10)
        first = encode(model, g).value
        kept = g.operators[("input", variant)]
        x = ad.Tensor(g.features)
        if variant == "sage-max":
            fresh = ad.row_max_pool(x, g).value
        else:
            mode = {"gcn": "renormalized", "sage-mean": "row-mean", "sage-sum": "none"}
            fresh = ad.spmm(normalize_adjacency(g, mode[variant]), x).value
        assert kept.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 0
        assert encode(model, g).value.tobytes() == first.tobytes()
        assert g.operators[("input", variant)] is kept

    @pytest.mark.parametrize("variant", ["gcn", "sage-mean", "sage-max"])
    def test_embedding_table_input_is_never_kept(self, variant):
        g = small_graph(seed=11)
        model = init_model(EncoderConfig(variant, 5, 6, 3), "classification",
                           num_classes=2, num_nodes=g.num_nodes, featureless=True, seed=11)
        first = encode(model, g).value
        assert ("input", variant) not in g.operators
        model.params["embed.table"].value[...] += 1.0  # as an optimizer step would
        second = encode(model, g).value
        assert ("input", variant) not in g.operators
        fresh = init_model(EncoderConfig(variant, 5, 6, 3), "classification",
                           num_classes=2, num_nodes=g.num_nodes, featureless=True, seed=11)
        fresh.params["embed.table"].value[...] += 1.0
        assert second.tobytes() == encode(fresh, small_graph(seed=11)).value.tobytes()
        assert second.tobytes() != first.tobytes()

    @pytest.mark.parametrize("table", [False, True], ids=["features", "table"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5], ids=["intact", "dropped"])
    @pytest.mark.parametrize("variant, chain", [("gcn", gcn_encode_chain),
                                                ("gat", gat_encode_chain)],
                             ids=["gcn", "gat"])
    def test_matches_replaced_chain(self, variant, chain, alpha, table):
        """Layers as one dense record on an aggregate match the chain each
        variant ran before, to 1e-12 relative, values and every gradient:
        gcn's ``(Â h) W + b`` the ``Â (h W) + b`` of NUMERICS 1, gat's
        ``(C h) W + b`` with logits ``h (W a)`` the ``C (h W) + b`` with
        logits ``(h W) a`` of NUMERICS 2."""
        graph = drop_edges(generate_scale_free(300, 2, feat_dim=6, seed=12)[0], alpha, seed=12)
        model = init_model(EncoderConfig(variant, 6, 16, 8), "classification", num_classes=2,
                           num_nodes=graph.num_nodes, featureless=table, seed=12)
        upstream = ad.Tensor(np.random.default_rng(12).normal(size=(graph.num_nodes, 8)))
        encoder = sorted(k for k in model.params if not k.startswith("head."))
        results = []
        for run in (encode, chain):
            copy = model.copy()
            with ad.Tape() as tape:
                out = run(copy, graph)
                loss = ad.sum_all(ad.hadamard(out, upstream))
            tape.backward(loss)
            results.append({"value": out.value, **{k: copy.params[k].grad for k in encoder}})
        got, want = results
        for key, w in want.items():
            np.testing.assert_allclose(got[key], w, rtol=1e-12,
                                       atol=1e-12 * np.abs(w).max(), err_msg=key)
        # gat's aggregate depends on its parameters, so it is never kept
        assert (("input", variant) in graph.operators) is (variant == "gcn" and not table)

    def test_sum_aggregate_is_twice_mean_on_ring(self):
        """On a 2-regular ring every node has degree 2, so the sum aggregate is
        exactly twice the mean aggregate."""
        n = 6
        ring = [(i, (i + 1) % n) for i in range(n)]
        g = build_graph(ring, n, features=np.random.default_rng(8).normal(size=(n, 4)))
        x = ad.Tensor(g.features)
        agg_sum = ad.spmm(normalize_adjacency(g, "none"), x).value
        agg_mean = ad.spmm(normalize_adjacency(g, "row-mean"), x).value
        np.testing.assert_allclose(agg_sum, 2.0 * agg_mean, atol=1e-12)

    def test_init_deterministic(self):
        cfg = EncoderConfig("sage-mean", 5, 6, 3)
        m1 = init_model(cfg, "classification", num_classes=2, seed=11)
        m2 = init_model(cfg, "classification", num_classes=2, seed=11)
        for k in m1.params:
            np.testing.assert_array_equal(m1.params[k].value, m2.params[k].value)

    def test_feature_dim_mismatch(self):
        g = small_graph()
        cfg = EncoderConfig("gcn", 9, 6, 3)
        model = init_model(cfg, "classification", num_classes=2)
        with pytest.raises(ModelError, match="input_dim"):
            encode(model, g)


class TestHeads:
    def test_classifier_rows_normalize(self):
        g = small_graph()
        model = init_model(EncoderConfig("gcn", 5, 6, 4), "classification", num_classes=3)
        log_probs = classify_embeddings(model, encode(model, g)).value
        assert log_probs.shape == (8, 3)
        np.testing.assert_allclose(np.exp(log_probs).sum(axis=1), 1.0, atol=1e-12)

    def test_link_head_hand_value(self):
        model = init_model(EncoderConfig("gcn", 2, 2, 2), "link", seed=0)
        model.params["head.w1"].value[...] = np.eye(2)
        model.params["head.b1"].value[...] = 0.0
        model.params["head.w2"].value[...] = [[1.0], [1.0]]
        model.params["head.b2"].value[...] = 0.0
        emb = ad.Tensor(np.array([[2.0, -1.0], [1.0, 3.0]]))
        # hadamard = (2, -3) -> relu -> (2, 0) -> sum = 2
        score = score_pairs(model, emb, [(0, 1)])
        np.testing.assert_allclose(score.value, [[2.0]], atol=1e-12)

    def test_link_score_end_to_end_shape(self):
        g = small_graph()
        model = init_model(EncoderConfig("sage-mean", 5, 6, 4), "link", seed=1)
        out = score_pairs(model, encode(model, g), [(0, 1), (2, 5), (7, 3)])
        assert out.value.shape == (3, 1)

    def test_recsys_inner_product(self):
        g = build_graph([(0, 2), (1, 3)], 4, bipartite=(2, 2))
        model = init_model(
            EncoderConfig("sage-mean", 3, 4, 3), "recsys", num_nodes=4, featureless=True, seed=2
        )
        emb = encode(model, g)
        scores = score_pairs(model, emb, [(0, 2), (1, 2)])
        np.testing.assert_allclose(scores.value[0, 0], emb.value[0] @ emb.value[2], atol=1e-12)
        np.testing.assert_allclose(scores.value[1, 0], emb.value[1] @ emb.value[2], atol=1e-12)

    def test_wrong_task_rejected(self):
        g = small_graph()
        model = init_model(EncoderConfig("gcn", 5, 6, 4), "link")
        with pytest.raises(ModelError):
            classify_embeddings(model, encode(model, g))

    def test_embedding_table_iff_featureless(self):
        with_table = init_model(
            EncoderConfig("gcn", 4, 4, 4), "recsys", num_nodes=5, featureless=True
        )
        without = init_model(EncoderConfig("gcn", 4, 4, 4), "recsys")
        assert with_table.has_embedding_table
        assert not without.has_embedding_table


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        g = small_graph()
        model = init_model(EncoderConfig("gat", 5, 6, 4), "classification", num_classes=3, seed=3)
        # make values adversarial for text serialization
        model.params["enc0.weight"].value[0, 0] = np.nextafter(1.0, 2.0)
        before = encode(model, g).value
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        for k in model.params:
            assert model.params[k].value.tobytes() == loaded.params[k].value.tobytes()
        np.testing.assert_array_equal(encode(loaded, g).value, before)

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99, "params": {}}')
        with pytest.raises(ModelError, match="version"):
            load_model(path)

    def test_serialization_deterministic(self, tmp_path):
        model = init_model(EncoderConfig("gcn", 3, 4, 2), "link", seed=4)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestGradientsEndToEnd:
    def test_classifier_gradcheck_one_variant(self):
        """Full pipeline gradient vs central differences (the acceptance suite
        runs the complete variant x head grid)."""
        g = small_graph(seed=12, n=7)
        model = init_model(
            EncoderConfig("gat", 5, 4, 3, num_layers=2), "classification", num_classes=2, seed=13
        )
        labels = np.array([0, 1, 0, 1, 1, 0, 1])

        def forward():
            log_probs = classify_embeddings(model, encode(model, g))
            return ad.scale(ad.mean_all(ad.pick(log_probs, labels)), -1.0)

        model.zero_grad()
        with ad.Tape() as tape:
            loss = forward()
        tape.backward(loss)

        h = 1e-5
        for p in model.parameters():
            flat = p.value.ravel()
            gflat = (p.grad if p.grad is not None else np.zeros_like(p.value)).ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = float(forward().value)
                flat[i] = orig - h
                fm = float(forward().value)
                flat[i] = orig
                numeric = (fp - fm) / (2 * h)
                denom = max(abs(numeric) + abs(gflat[i]), 1.0)
                assert abs(numeric - gflat[i]) / denom < 1e-5
