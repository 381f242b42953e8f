"""Split protocols: exact counts, zero leakage, determinism, file round-trips."""
import io
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from tailkit.data import (
    DatasetFileError,
    SplitBundle,
    SplitError,
    cold_start_remove,
    edge_split_inductive,
    edge_split_transductive,
    label_split,
    load_dataset,
    make_classification_bundle,
    make_link_bundle,
    make_recsys_bundle,
    node_split,
    recsys_split,
    save_edge_list,
    save_features,
    save_labels,
)
from tailkit.data import _feature_line_error
from tailkit.experiment import canonical_json
from tailkit.generators import generate_bipartite, generate_scale_free
from tailkit.graph import GraphError, LabelSet, build_graph

from feature_files import BAD_NPY, npy_bytes, save_features_csv


def pair_set(edges):
    return {(int(u), int(v)) for u, v in np.asarray(edges).reshape(-1, 2)}


def random_graph(n, p, seed, features=False):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, k=1)
    edges = np.argwhere(upper)
    feats = rng.standard_normal((n, 3)) if features else None
    return build_graph(edges, n, features=feats)


# ---------------------------------------------------------------------------
# node_split
# ---------------------------------------------------------------------------

class TestNodeSplit:
    def test_new_node_count_is_floor(self):
        g = random_graph(103, 0.1, seed=0)
        ns = node_split(g, new_fraction=0.05, seed=1)
        assert ns.v_new.size == 5  # floor(0.05 * 103)
        assert ns.v_train.size == 98

    def test_edge_conservation(self):
        g = random_graph(80, 0.1, seed=2)
        ns = node_split(g, 0.1, seed=3)
        total = ns.train_graph.num_edges + len(ns.cross_edges) + len(ns.new_new_edges)
        assert total == g.num_edges
        combined = (
            pair_set(ns.train_graph.edges) | pair_set(ns.cross_edges) | pair_set(ns.new_new_edges)
        )
        assert combined == pair_set(g.edges)

    def test_train_graph_isolates_new_nodes(self):
        g = random_graph(60, 0.15, seed=4)
        ns = node_split(g, 0.1, seed=5)
        assert ns.train_graph.num_nodes == g.num_nodes
        degs = ns.train_graph.degrees()
        assert (degs[ns.v_new] == 0).all()

    def test_cross_edges_touch_exactly_one_new_node(self):
        g = random_graph(60, 0.15, seed=6)
        ns = node_split(g, 0.1, seed=7)
        new = set(ns.v_new.tolist())
        for u, v in ns.cross_edges:
            assert (int(u) in new) != (int(v) in new)
        for u, v in ns.new_new_edges:
            assert int(u) in new and int(v) in new

    def test_deterministic_and_seed_sensitive(self):
        g = random_graph(100, 0.1, seed=8)
        a = node_split(g, 0.1, seed=9)
        b = node_split(g, 0.1, seed=9)
        c = node_split(g, 0.1, seed=10)
        assert np.array_equal(a.v_new, b.v_new)
        assert not np.array_equal(a.v_new, c.v_new)

    def test_zero_fraction_keeps_everything(self):
        g = random_graph(30, 0.2, seed=11)
        ns = node_split(g, 0.0, seed=0)
        assert ns.v_new.size == 0
        assert ns.train_graph.num_edges == g.num_edges

    def test_invalid_fraction(self):
        g = random_graph(10, 0.3, seed=12)
        with pytest.raises(SplitError):
            node_split(g, 1.0, seed=0)


# ---------------------------------------------------------------------------
# label_split
# ---------------------------------------------------------------------------

class TestLabelSplit:
    def test_canonical_counts(self):
        nodes = np.arange(1000)
        train, val, unlabeled = label_split(nodes, 0.10, seed=0)
        assert (train.size, val.size, unlabeled.size) == (50, 50, 900)

    def test_odd_labeled_count_favors_train(self):
        nodes = np.arange(70)
        train, val, _ = label_split(nodes, 0.10, seed=1)  # 7 labeled
        assert (train.size, val.size) == (4, 3)

    def test_partition_of_input(self):
        nodes = np.arange(41) * 3  # non-contiguous ids
        train, val, unlabeled = label_split(nodes, 0.25, seed=2)
        merged = np.sort(np.concatenate([train, val, unlabeled]))
        assert np.array_equal(merged, np.sort(nodes))
        assert not (set(train) & set(val))

    def test_deterministic(self):
        nodes = np.arange(100)
        a = label_split(nodes, 0.2, seed=3)
        b = label_split(nodes, 0.2, seed=3)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_invalid_fraction(self):
        with pytest.raises(SplitError):
            label_split(np.arange(10), 0.0, seed=0)


# ---------------------------------------------------------------------------
# edge splits
# ---------------------------------------------------------------------------

class TestEdgeSplitTransductive:
    def test_exact_counts(self):
        g = random_graph(40, 0.3, seed=20)
        e = g.num_edges
        train_graph, val, test = edge_split_transductive(g, (0.5, 0.2, 0.3), seed=0)
        assert train_graph.num_edges == int(np.floor(0.5 * e))
        assert len(val) == int(np.floor(0.2 * e))
        assert len(test) == e - train_graph.num_edges - len(val)

    def test_remainder_goes_to_test(self):
        edges = [(i, i + 1) for i in range(7)]
        g = build_graph(edges, 8)
        train_graph, val, test = edge_split_transductive(g, (0.5, 0.2, 0.3), seed=1)
        assert (train_graph.num_edges, len(val), len(test)) == (3, 1, 3)

    def test_zero_leakage_partition(self):
        g = random_graph(50, 0.2, seed=21)
        train_graph, val, test = edge_split_transductive(g, seed=2)
        parts = [pair_set(train_graph.edges), pair_set(val), pair_set(test)]
        assert parts[0] | parts[1] | parts[2] == pair_set(g.edges)
        assert not parts[0] & parts[1]
        assert not parts[0] & parts[2]
        assert not parts[1] & parts[2]

    def test_node_universe_preserved(self):
        g = random_graph(50, 0.2, seed=22)
        train_graph, _, _ = edge_split_transductive(g, seed=3)
        assert train_graph.num_nodes == g.num_nodes

    def test_bad_ratios(self):
        g = random_graph(10, 0.3, seed=23)
        with pytest.raises(SplitError):
            edge_split_transductive(g, (0.5, 0.2), seed=0)
        with pytest.raises(SplitError):
            edge_split_transductive(g, (0.6, 0.3, 0.3), seed=0)


class TestEdgeSplitInductive:
    def test_four_edges_give_two_and_two(self):
        edges = [(0, 9), (1, 9), (2, 9), (3, 9)]
        inp, ev = edge_split_inductive(edges, [9], ratio=0.5, seed=0)
        assert (len(inp), len(ev)) == (2, 2)

    def test_odd_count_rounds_input_down(self):
        edges = [(0, 9), (1, 9), (2, 9)]
        inp, ev = edge_split_inductive(edges, [9], ratio=0.5, seed=0)
        assert (len(inp), len(ev)) == (1, 2)

    def test_per_node_not_global(self):
        # two new nodes with 3 edges each: global floor would give 3, per-node gives 1+1
        edges = [(0, 10), (1, 10), (2, 10), (0, 11), (1, 11), (2, 11)]
        inp, ev = edge_split_inductive(edges, [10, 11], ratio=0.5, seed=1)
        assert len(inp) == 2
        owners_in = [max(u, v) for u, v in inp]
        assert sorted(owners_in) == [10, 11]

    def test_partition_and_determinism(self):
        rng = np.random.default_rng(2)
        new_nodes = [20, 21, 22]
        edges = [(int(rng.integers(0, 20)), n) for n in new_nodes for _ in range(5)]
        edges = list({tuple(sorted(e)) for e in edges})
        a_inp, a_ev = edge_split_inductive(edges, new_nodes, 0.5, seed=3)
        b_inp, b_ev = edge_split_inductive(edges, new_nodes, 0.5, seed=3)
        assert pair_set(a_inp) == pair_set(b_inp)
        assert pair_set(a_inp) | pair_set(a_ev) == pair_set(np.asarray(edges))
        assert not pair_set(a_inp) & pair_set(a_ev)
        assert pair_set(b_ev) == pair_set(a_ev)

    def test_new_new_edge_owned_by_lower_id(self):
        # (10, 11) joins node 10's pool: with ratio 1.0 every edge of each
        # owner becomes input, so ownership only shows in the per-node counts.
        edges = [(10, 11), (0, 10), (1, 10), (0, 11)]
        inp, ev = edge_split_inductive(edges, [10, 11], ratio=0.5, seed=4)
        # node 10 owns 3 edges -> 1 input; node 11 owns 1 edge -> 0 input
        assert len(inp) == 1
        u, v = inp[0]
        assert 10 in (u, v)

    def test_edge_without_new_node_rejected(self):
        with pytest.raises(SplitError):
            edge_split_inductive([(0, 1)], [5], 0.5, seed=0)

    def test_empty_edges(self):
        inp, ev = edge_split_inductive(np.empty((0, 2)), [1], 0.5, seed=0)
        assert inp.size == 0 and ev.size == 0


class TestColdStartRemove:
    def test_ratio_point_nine_leaves_one_of_ten(self):
        edges = [(i, 50) for i in range(10)]
        kept = cold_start_remove(edges, [50], 0.9, seed=0)
        assert len(kept) == 1

    def test_ratio_point_three_leaves_seven_of_ten(self):
        edges = [(i, 50) for i in range(10)]
        kept = cold_start_remove(edges, [50], 0.3, seed=0)
        assert len(kept) == 7

    def test_kept_count_monotone_in_ratio(self):
        edges = [(i, 50) for i in range(10)] + [(i, 51) for i in range(7)]
        counts = [
            len(cold_start_remove(edges, [50, 51], r, seed=1))
            for r in (0.0, 0.3, 0.6, 0.9, 1.0)
        ]
        assert counts[0] == 17
        assert counts[-1] == 0
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_kept_edges_are_subset(self):
        edges = [(i, 50) for i in range(10)]
        kept = cold_start_remove(edges, [50], 0.6, seed=2)
        assert pair_set(kept) <= pair_set(np.asarray(edges))

    def test_per_node_removal(self):
        edges = [(i, 50) for i in range(4)] + [(i, 51) for i in range(2)]
        kept = cold_start_remove(edges, [50, 51], 0.5, seed=3)
        owners = [max(u, v) for u, v in kept]
        assert sorted(owners) == [50, 50, 51]


class TestRecsysSplit:
    def test_counts_and_bipartite_required(self):
        g = generate_bipartite(30, 40, seed=0)
        e = g.num_edges
        train_graph, val, test = recsys_split(g, seed=1)
        assert train_graph.num_edges == int(np.floor(0.10 * e))
        assert len(val) == int(np.floor(0.05 * e))
        assert train_graph.num_edges + len(val) + len(test) == e
        plain = random_graph(10, 0.3, seed=1)
        with pytest.raises(SplitError):
            recsys_split(plain, seed=0)


# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------

class TestClassificationBundle:
    def build(self, seed=0):
        graph, labels = generate_scale_free(200, 3, seed=5)
        return graph, make_classification_bundle(graph, labels, seed=seed)

    def test_label_partition_of_v_train(self):
        _, b = self.build()
        ls = b.label_set
        merged = np.sort(
            np.concatenate([ls.train_labeled, ls.validation, ls.unlabeled])
        )
        assert np.array_equal(merged, b.v_train)
        assert set(ls.train_labeled.tolist()).isdisjoint(b.v_new.tolist())

    def test_sizes(self):
        _, b = self.build()
        assert b.v_new.size == 10  # floor(0.05 * 200)
        labeled = int(np.floor(0.10 * 190))
        assert b.label_set.train_labeled.size == labeled - labeled // 2
        assert b.label_set.validation.size == labeled // 2

    def test_cold_variants_shrink(self):
        _, b = self.build()
        sizes = [b.cold_input_edges[r].shape[0] for r in (0.3, 0.6, 0.9)]
        assert sizes[0] >= sizes[1] >= sizes[2]
        for r in (0.3, 0.6, 0.9):
            assert pair_set(b.cold_input_edges[r]) <= pair_set(b.new_input_edges)

    def test_inference_graphs(self):
        graph, b = self.build()
        trans = b.inference_graph("transductive")
        assert trans is b.train_graph
        ind = b.inference_graph("inductive")
        assert pair_set(ind.edges) == pair_set(graph.edges)
        cold = b.inference_graph("inductive-cold", 0.9)
        assert pair_set(cold.edges) == pair_set(b.train_graph.edges) | pair_set(
            b.cold_input_edges[0.9]
        )
        with pytest.raises(SplitError):
            b.inference_graph("inductive-cold", 0.5)
        with pytest.raises(SplitError):
            b.inference_graph("extrapolative")

    def test_deterministic(self):
        _, a = self.build(seed=7)
        _, b = self.build(seed=7)
        assert np.array_equal(a.v_new, b.v_new)
        assert np.array_equal(a.label_set.train_labeled, b.label_set.train_labeled)
        assert pair_set(a.cold_input_edges[0.6]) == pair_set(b.cold_input_edges[0.6])


class TestLinkBundle:
    def build(self, seed=0):
        graph = random_graph(120, 0.08, seed=30, features=True)
        return graph, make_link_bundle(graph, seed=seed)

    def test_full_partition_no_leakage(self):
        graph, b = self.build()
        parts = [
            pair_set(b.train_graph.edges),
            pair_set(b.trans_val_edges),
            pair_set(b.trans_test_edges),
            pair_set(b.new_input_edges),
            pair_set(b.new_test_edges),
        ]
        union = set()
        for p in parts:
            assert not union & p
            union |= p
        assert union == pair_set(graph.edges)

    def test_transductive_counts_on_induced_graph(self):
        graph, b = self.build()
        induced = (
            b.train_graph.num_edges + len(b.trans_val_edges) + len(b.trans_test_edges)
        )
        assert b.train_graph.num_edges == int(np.floor(0.5 * induced))
        assert len(b.trans_val_edges) == int(np.floor(0.2 * induced))

    def test_new_edges_touch_new_nodes(self):
        _, b = self.build()
        new = set(b.v_new.tolist())
        for u, v in np.concatenate([b.new_input_edges, b.new_test_edges]):
            assert int(u) in new or int(v) in new

    def test_inference_graph_features_preserved(self):
        graph, b = self.build()
        ind = b.inference_graph("inductive")
        assert np.array_equal(ind.features, graph.features)


class TestRecsysBundle:
    def test_fields_and_no_inductive(self):
        g = generate_bipartite(25, 30, seed=2)
        b = make_recsys_bundle(g, seed=0)
        assert b.task == "recsys"
        assert b.v_new.size == 0
        assert b.trans_test_edges is not None
        with pytest.raises(SplitError):
            b.inference_graph("inductive")

    def test_train_graph_keeps_partition(self):
        g = generate_bipartite(25, 30, seed=3)
        b = make_recsys_bundle(g, seed=1)
        assert b.train_graph.bipartite == (25, 30)


def serialized_bundle(task):
    """``(graph, bundle)``: a small split of each task."""
    if task == "classification":
        graph, labels = generate_scale_free(120, 2, seed=9)
        return graph, make_classification_bundle(graph, labels, seed=3)
    if task == "link":
        graph = random_graph(90, 0.1, seed=9, features=True)
        return graph, make_link_bundle(graph, seed=3)
    graph = generate_bipartite(20, 25, seed=9)
    return graph, make_recsys_bundle(graph, seed=3)


def assert_same_array(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


# (task, path in the payload) of every id array a bundle serializes
BUNDLE_ID_ARRAYS = [
    *(("link", (key,)) for key in ("v_train", "v_new", "train_edges", "trans_val_edges",
                                   "trans_test_edges", "new_input_edges", "new_test_edges")),
    ("link", ("cold_input_edges", "0.3")),
    *(("classification", ("labels", key)) for key in ("train_labeled", "validation",
                                                      "unlabeled")),
]


class TestBundleSerialization:
    @pytest.mark.parametrize("task", ["classification", "link", "recsys"])
    def test_json_round_trip(self, task):
        graph, bundle = serialized_bundle(task)
        payload = json.loads(json.dumps(bundle.to_dict()))
        back = SplitBundle.from_dict(payload, graph)
        assert (back.task, back.seed, back.num_nodes) == (bundle.task, bundle.seed,
                                                          bundle.num_nodes)
        for name in ("v_train", "v_new", "trans_val_edges", "trans_test_edges",
                     "new_input_edges", "new_test_edges"):
            assert_same_array(getattr(back, name), getattr(bundle, name))
        assert_same_array(back.train_graph.edges, bundle.train_graph.edges)
        assert back.train_graph.bipartite == bundle.train_graph.bipartite
        assert back.train_graph.features is graph.features
        assert list(back.cold_input_edges) == list(bundle.cold_input_edges)
        for r, e in bundle.cold_input_edges.items():
            assert_same_array(back.cold_input_edges[r], e)
        assert (back.label_set is None) == (bundle.label_set is None)
        if bundle.label_set is not None:
            assert back.label_set.num_classes == bundle.label_set.num_classes
            for name in ("labels", "train_labeled", "validation", "unlabeled"):
                assert_same_array(getattr(back.label_set, name),
                                  getattr(bundle.label_set, name))
        again = json.loads(json.dumps(back.to_dict()))
        assert canonical_json(again) == canonical_json(bundle.to_dict())

    @pytest.mark.parametrize("bad", ["negative", "num_nodes"])
    @pytest.mark.parametrize("task,path", BUNDLE_ID_ARRAYS,
                             ids=[".".join(path) for _, path in BUNDLE_ID_ARRAYS])
    def test_from_dict_refuses_an_id_outside_the_graph(self, task, path, bad):
        graph, bundle = serialized_bundle(task)
        payload = json.loads(json.dumps(bundle.to_dict()))
        holder = payload[path[0]] if len(path) > 1 else payload
        node = -1 if bad == "negative" else graph.num_nodes
        holder[path[-1]] = [[0, node]] if "edges" in path[0] else [node]
        with pytest.raises(SplitError, match=rf"^{'.'.join(path)} holds a node id outside "
                                             rf"\[0, {graph.num_nodes}\)$"):
            SplitBundle.from_dict(payload, graph)

    def test_from_dict_refuses_labels_not_one_per_node(self):
        graph, bundle = serialized_bundle("classification")
        payload = bundle.to_dict()
        payload["labels"]["labels"] = payload["labels"]["labels"][:2]
        with pytest.raises(SplitError, match="labels.labels holds 2 entries for 120 nodes"):
            SplitBundle.from_dict(payload, graph)

    def test_from_dict_refuses_another_node_count(self):
        graph, bundle = serialized_bundle("link")
        payload = dict(bundle.to_dict(), num_nodes=91)
        with pytest.raises(SplitError, match="num_nodes 91 is not the graph's 90"):
            SplitBundle.from_dict(payload, graph)


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

# a feature file of each format: its name, and the writer of its bytes
FEATURE_WRITERS = [("x.csv", save_features_csv), ("x.npy", save_features)]


class TestDatasetFiles:
    def test_plain_round_trip(self, tmp_path):
        g = random_graph(25, 0.2, seed=40)
        path = tmp_path / "edges.txt"
        save_edge_list(g, path)
        loaded, labels = load_dataset(path)
        assert labels is None
        assert loaded.num_nodes == int(g.edges.max()) + 1
        assert pair_set(loaded.edges) == pair_set(g.edges)

    @pytest.mark.parametrize("name,save", FEATURE_WRITERS)
    def test_features_pin_node_count(self, tmp_path, name, save):
        g = random_graph(12, 0.3, seed=41, features=True)
        epath, fpath = tmp_path / "e.txt", tmp_path / name
        save_edge_list(g, epath)
        # two extra isolated nodes beyond any edge endpoint
        feats = np.vstack([g.features, np.zeros((2, 3))])
        save(feats, fpath)
        loaded, _ = load_dataset(epath, fpath)
        assert loaded.num_nodes == 14
        assert loaded.features.tobytes() == feats.tobytes()

    @pytest.mark.parametrize("name,save", FEATURE_WRITERS)
    def test_feature_count_too_small_rejected(self, tmp_path, name, save):
        epath, fpath = tmp_path / "e.txt", tmp_path / name
        epath.write_text("0 1\n1 2\n")
        save(np.zeros((2, 4)), fpath)
        with pytest.raises(DatasetFileError, match="2 rows, but the edge list implies 3"):
            load_dataset(epath, fpath)

    def test_bipartite_round_trip(self, tmp_path):
        g = generate_bipartite(8, 11, seed=42)
        path = tmp_path / "bip.txt"
        save_edge_list(g, path)
        first_data_line = [
            ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")
        ][0]
        assert first_data_line == "%bipartite 8 11"
        loaded, _ = load_dataset(path)
        assert loaded.bipartite == (8, 11)
        assert loaded.num_nodes == 19
        assert pair_set(loaded.edges) == pair_set(g.edges)

    def test_labels_round_trip(self, tmp_path):
        graph, labels = generate_scale_free(40, 2, seed=43)
        epath, lpath = tmp_path / "e.txt", tmp_path / "y.txt"
        save_edge_list(graph, epath)
        save_labels(labels, lpath)
        loaded, lab = load_dataset(epath, label_path=lpath)
        assert lab is not None
        assert np.array_equal(lab.labels, labels.labels)
        assert lab.num_classes == labels.num_classes

    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("# top comment\n0 1  # trailing\n\n  1   2\n# done\n")
        g, _ = load_dataset(path)
        assert pair_set(g.edges) == {(0, 1), (1, 2)}

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("0 1\n1 2 3\n")
        with pytest.raises(GraphError, match=":2:"):
            load_dataset(path)
        path.write_text("0 1\nx 2\n")
        with pytest.raises(GraphError, match=":2:"):
            load_dataset(path)

    def test_malformed_feature_line_reports_number(self, tmp_path):
        epath, fpath = tmp_path / "e.txt", tmp_path / "f.txt"
        epath.write_text("0 1\n1 2\n")
        # the line number counts comment and blank lines, as for the other files
        for text, where in [("0.5\nx\n2.5\n", ":2:"), ("# c\n\n0.5,1\n\n1.5\n2.5,3\n", ":5:"),
                            ("1,2\n3,4\n5,nan,\n", ":3:")]:
            fpath.write_text(text)
            with pytest.raises(GraphError, match=f"f.txt{where}"):
                load_dataset(epath, feature_path=fpath)
        fpath.write_bytes(b"0.5\n\xff\xfe\n2.5\n")
        with pytest.raises(GraphError, match="f.txt:2: byte 0xff is not UTF-8"):
            load_dataset(epath, feature_path=fpath)
        fpath.write_text("# c\n0.5\n\n1.5 # x\n2.5\n")
        graph, _ = load_dataset(epath, feature_path=fpath)
        assert graph.features.ravel().tolist() == [0.5, 1.5, 2.5]

    def test_label_file_errors(self, tmp_path):
        epath, lpath = tmp_path / "e.txt", tmp_path / "y.txt"
        epath.write_text("0 1\n")
        lpath.write_text("5 0\n")
        with pytest.raises(GraphError, match="out of range"):
            load_dataset(epath, label_path=lpath)
        lpath.write_text("0 -2\n")
        with pytest.raises(GraphError, match="nonnegative"):
            load_dataset(epath, label_path=lpath)

    def test_bipartite_marker_must_be_first(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("0 8\n%bipartite 8 11\n")
        with pytest.raises(GraphError):
            load_dataset(path)


class TestNpyFeatures:
    def test_special_values_round_trip_byte_for_byte(self, tmp_path):
        signaling_nan = np.array([0x7FF0000000000001], dtype=np.uint64).view(np.float64)[0]
        feats = np.array([[-0.0, 0.0, 5e-324, -2.2250738585072009e-308],
                          [np.inf, -np.inf, np.nan, signaling_nan],
                          [np.finfo(np.float64).max, np.finfo(np.float64).tiny, 1 / 3, -1e-310]])
        epath, fpath = tmp_path / "e.txt", tmp_path / "x.npy"
        epath.write_text("0 1\n1 2\n")
        save_features(feats, fpath)
        graph, _ = load_dataset(epath, fpath)
        assert graph.features.dtype == np.float64 and graph.features.shape == (3, 4)
        assert graph.features.flags.c_contiguous
        assert graph.features.tobytes() == feats.tobytes()

    def test_repeated_writes_are_identical(self, tmp_path):
        feats = generate_scale_free(50, 2, feat_dim=5, seed=3)[0].features
        written = []
        for name in ("a.npy", "b.npy", "a.npy"):
            save_features(feats, tmp_path / name)
            written.append((tmp_path / name).read_bytes())
        assert written[0] == written[1] == written[2] == npy_bytes(feats)
        # a Fortran-order or integer matrix is written as C-order float64
        save_features(np.asfortranarray(feats), tmp_path / "f.npy")
        assert (tmp_path / "f.npy").read_bytes() == written[0]
        save_features(np.arange(6).reshape(3, 2), tmp_path / "i.npy")
        assert (tmp_path / "i.npy").read_bytes() == npy_bytes(np.arange(6.0).reshape(3, 2))

    @pytest.mark.parametrize("bad", list(BAD_NPY))
    def test_refused_without_allocating_its_claim(self, tmp_path, bad):
        epath, fpath = tmp_path / "e.txt", tmp_path / "x.npy"
        epath.write_text("0 1\n1 2\n")
        fpath.write_bytes(BAD_NPY[bad])
        tracemalloc.start()
        try:
            with pytest.raises(DatasetFileError) as info:
                load_dataset(epath, fpath)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.path == fpath
        assert str(info.value).startswith(f"{fpath}: ")
        assert peak < 2**20


# ---------------------------------------------------------------------------
# the line-by-line loader, kept as the oracle of the numpy parse
# ---------------------------------------------------------------------------

def _parse_lines(path):
    """(line number, text) of each line that is not blank or a comment."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetFileError(path, data.count(b"\n", 0, exc.start) + 1,
                               f"byte {data[exc.start]:#04x} is not UTF-8") from exc
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def load_dataset_line_by_line(edge_path, feature_path=None, label_path=None):
    edges = []
    bipartite = None
    first = True
    for lineno, line in _parse_lines(edge_path):
        if first and line.startswith("%bipartite"):
            parts = line.split()
            if len(parts) != 3:
                raise DatasetFileError(edge_path, lineno, "malformed %bipartite line")
            try:
                bipartite = (int(parts[1]), int(parts[2]))
            except ValueError:
                raise DatasetFileError(edge_path, lineno, "%bipartite sizes must be integers")
            first = False
            continue
        first = False
        parts = line.split()
        if len(parts) != 2:
            raise DatasetFileError(
                edge_path, lineno, f"expected two node ids, got {len(parts)} tokens")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise DatasetFileError(edge_path, lineno, "node ids must be base-10 integers")
        if u < 0 or v < 0:
            raise DatasetFileError(edge_path, lineno, "node ids must be nonnegative")
        if max(u, v) >= 2**63:
            raise DatasetFileError(edge_path, lineno, "node ids must be below 2**63")
        edges.append((u, v))

    features = None
    if feature_path is not None:
        try:
            features = np.loadtxt(feature_path, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise _feature_line_error(feature_path) or DatasetFileError(
                feature_path, None, str(exc)) from exc

    if bipartite is not None:
        num_nodes = bipartite[0] + bipartite[1]
        if features is not None and features.shape[0] != num_nodes:
            raise DatasetFileError(feature_path, None, f"{features.shape[0]} rows, but the "
                                   f"%bipartite line declares {num_nodes} nodes")
    elif features is not None:
        num_nodes = features.shape[0]
        if edges and max(max(e) for e in edges) >= num_nodes:
            raise DatasetFileError(feature_path, None, f"{num_nodes} rows, but the edge "
                                   f"list implies {max(max(e) for e in edges) + 1} nodes")
    else:
        num_nodes = (max(max(e) for e in edges) + 1) if edges else 0

    try:
        graph = build_graph(edges, num_nodes, features=features, bipartite=bipartite)
    except GraphError as exc:
        raise DatasetFileError(edge_path, None, str(exc)) from exc

    label_set = None
    if label_path is not None:
        labels = np.full(num_nodes, -1, dtype=np.int64)
        for lineno, line in _parse_lines(label_path):
            parts = line.split()
            if len(parts) != 2:
                raise DatasetFileError(label_path, lineno, "expected 'node_id class_id'")
            try:
                node, cls_id = int(parts[0]), int(parts[1])
            except ValueError:
                raise DatasetFileError(label_path, lineno, "ids must be base-10 integers")
            if not 0 <= node < num_nodes:
                raise DatasetFileError(label_path, lineno, f"node {node} out of range")
            if cls_id < 0:
                raise DatasetFileError(label_path, lineno, "class must be nonnegative")
            if cls_id >= 2**63:
                raise DatasetFileError(label_path, lineno, "class must be below 2**63")
            if cls_id >= num_nodes:
                raise DatasetFileError(label_path, lineno, f"class {cls_id} is not below the "
                                       f"node count {num_nodes}")
            labels[node] = cls_id
        num_classes = int(labels.max()) + 1 if (labels >= 0).any() else 1
        label_set = LabelSet(labels, max(num_classes, 2))
    return graph, label_set


def _written(tmp_path, write):
    path = tmp_path / "written.txt"
    write(path)
    return path.read_bytes()


def _round_trips(tmp_path):
    graph, labels = generate_scale_free(60, 2, seed=44)
    bip = generate_bipartite(8, 11, seed=45)
    return {
        "scale-free": {
            "edges": _written(tmp_path, lambda p: save_edge_list(graph, p)),
            "features": _written(tmp_path, lambda p: save_features_csv(graph.features, p)),
            "labels": _written(tmp_path, lambda p: save_labels(labels, p)),
        },
        "bipartite": {"edges": _written(tmp_path, lambda p: save_edge_list(bip, p))},
    }


BIG = b"99999999999999999999"  # beyond int64
LOADER_CORPUS = {
    "comments-and-blanks": {"edges": b"# top\n0 1  # trailing\n\n  1   2\n# done\n"},
    "crlf": {"edges": b"0 1\r\n1 2\r\n2 3\r\n"},
    "lone-cr": {"edges": b"0 1\r1 2\r\r2 3"},
    "mixed-newlines": {"edges": b"# c\r\n0 1\r1 2\n2 3\r\n"},
    "tab": {"edges": b"0\t1\n1\t\t2\n"},
    "nbsp": {"edges": "0\u00a01\n1 \u00a02\n".encode()},
    "other-unicode-space": {"edges": "0\u20031\n1\u30002\n2\x0c3\n".encode()},
    "unicode-line-breaks": {"edges": "0 1\x852 3\n".encode()},
    "unicode-line-breaks-2": {"edges": "0 1\u20282 3\n".encode()},
    "plus-sign": {"edges": b"+5 6\n0 +1\n"},
    "leading-zeros": {"edges": b"007 1\n0 010\n"},
    "minus-zero": {"edges": b"-0 1\n"},
    "underscore": {"edges": b"0 1\n1_000 1\n"},
    "arabic-indic": {"edges": "0 1\n\u0661 \u0662\n".encode()},
    "fullwidth": {"edges": "\uff11 \uff12\n".encode()},
    "beyond-int64": {"edges": b"0 1\n1 " + BIG + b"\n"},
    "beyond-int64-with-features": {"edges": b"0 " + BIG + b"\n", "features": b"1\n2\n3\n"},
    "beyond-int64-bipartite": {"edges": b"%bipartite 2 2\n0 " + BIG + b"\n"},
    "int64-max": {"edges": b"9223372036854775807 1\n"},
    "negative": {"edges": b"0 1\n-1 2\n"},
    "negative-beyond-int64": {"edges": b"-" + BIG + b" 1\n"},
    "three-tokens": {"edges": b"0 1\n1 2 3\n"},
    "all-three-tokens": {"edges": b"0 1 2\n1 2 3\n"},
    "one-token": {"edges": b"5\n"},
    "comment-splits-pair": {"edges": b"0 # 1\n"},
    "float": {"edges": b"0 1\n1.0 2\n"},
    "hex": {"edges": b"0x1 2\n"},
    "bom": {"edges": "\ufeff0 1\n".encode()},
    "nul": {"edges": b"0 1\x00\n"},
    "self-loop": {"edges": b"0 1\n2 2\n"},
    "duplicates-both-orientations": {"edges": b"1 0\n0 1\n0 1\n3 2\n"},
    "bipartite-first": {"edges": b"%bipartite 2 3\n0 2\n1 4\n"},
    "bipartite-after-comments": {"edges": b"# c\n\n  %bipartite 2 2  # x\n0 2\n"},
    "bipartite-only": {"edges": b"%bipartite 2 2\n"},
    "bipartite-later": {"edges": b"0 2\n%bipartite 2 2\n"},
    "bipartite-twice": {"edges": b"%bipartite 2 2\n%bipartite 2 2\n"},
    "bipartite-malformed": {"edges": b"%bipartite 2\n0 2\n"},
    "bipartite-not-integer": {"edges": b"%bipartite x 2\n0 2\n"},
    "bipartite-inside-partition": {"edges": b"%bipartite 2 2\n0 1\n"},
    "bipartite-features-mismatch": {"edges": b"%bipartite 2 2\n0 2\n",
                                    "features": b"1\n2\n3\n"},
    "empty": {"edges": b""},
    "comment-only": {"edges": b"# nothing\n\n   \n"},
    "empty-with-features": {"edges": b"", "features": b"1\n2\n"},
    "features-pin-count": {"edges": b"0 1\n", "features": b"1,2\n3,4\n5,6\n"},
    "features-too-few": {"edges": b"0 3\n", "features": b"1\n2\n"},
    "labels": {"edges": b"0 1\n1 2\n", "labels": b"0 1\n2 0\n# c\n"},
    "labels-duplicate": {"edges": b"0 1\n1 2\n", "labels": b"0 1\n0 3\n1 0\n"},
    "labels-out-of-range": {"edges": b"0 1\n", "labels": b"0 0\n5 1\n"},
    "labels-negative-node": {"edges": b"0 1\n", "labels": b"-1 0\n"},
    "labels-negative-class": {"edges": b"0 1\n", "labels": b"0 1\n1 -2\n"},
    "labels-three-tokens": {"edges": b"0 1\n", "labels": b"0 1 2\n"},
    "labels-underscore": {"edges": b"0 1\n", "labels": b"0 1_0\n"},
    "labels-class-beyond-int64": {"edges": b"0 1\n", "labels": b"0 " + BIG + b"\n"},
    "labels-class-at-node-count": {"edges": b"0 1\n1 2\n", "labels": b"0 1\n2 3\n"},
    "labels-class-huge": {"edges": b"0 1\n", "labels": b"0 1\n1 4611686018427387904\n"},
    "labels-duplicate-in-range": {"edges": b"0 1\n1 2\n", "labels": b"0 1\n0 2\n1 0\n"},
    "labels-empty": {"edges": b"0 1\n", "labels": b""},
    "labels-crlf": {"edges": b"0 1\n", "labels": b"0 0\r\n1 1\r\n"},
    "edges-not-utf8": {"edges": b"0 1\n1 \xff2\n"},
    "labels-not-utf8": {"edges": b"0 1\n", "labels": b"0 0\n\xfe\n"},
    "latin-1-nbsp": {"edges": b"0\xa01\n"},
}


def _load_outcome(loader, paths):
    try:
        graph, labels = loader(paths["edges"], paths.get("features"), paths.get("labels"))
    except Exception as exc:  # the oracle's exception is the expected outcome
        return type(exc), str(exc)
    arrays = [graph.edges, graph.csr_offsets, graph.csr_targets]
    if graph.features is not None:
        arrays.append(graph.features)
    if labels is not None:
        arrays.append(labels.labels)
    return (graph.num_nodes, graph.bipartite, labels and labels.num_classes,
            [(a.dtype.str, a.shape, a.tobytes()) for a in arrays])


class TestLoaderAgainstLineByLineOracle:
    @pytest.mark.parametrize("name", ["scale-free", "bipartite", *LOADER_CORPUS])
    def test_same_arrays_or_same_error(self, tmp_path, name):
        files = LOADER_CORPUS.get(name) or _round_trips(tmp_path)[name]
        paths = {}
        for key, data in files.items():
            paths[key] = tmp_path / f"{key}.txt"
            paths[key].write_bytes(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = _load_outcome(load_dataset_line_by_line, paths)
            assert _load_outcome(load_dataset, paths) == expected

    @pytest.mark.parametrize("name,key,lineno", [
        ("beyond-int64", "edges", 2),
        ("beyond-int64-with-features", "edges", 1),
        ("beyond-int64-bipartite", "edges", 2),
        ("labels-class-beyond-int64", "labels", 1),
    ])
    def test_id_beyond_int64_is_refused_at_its_line(self, tmp_path, name, key, lineno):
        paths = {}
        for part, data in LOADER_CORPUS[name].items():
            paths[part] = tmp_path / f"{part}.txt"
            paths[part].write_bytes(data)
        with pytest.raises(DatasetFileError, match="below 2\\*\\*63") as info:
            load_dataset(paths["edges"], paths.get("features"), paths.get("labels"))
        assert str(info.value).startswith(f"{paths[key]}:{lineno}: ")

    @pytest.mark.parametrize("name,count", [("labels-class-at-node-count", 3),
                                            ("labels-class-huge", 2)])
    def test_class_at_or_above_node_count_is_refused_at_its_line(self, tmp_path, name,
                                                                 count):
        paths = {}
        for part, data in LOADER_CORPUS[name].items():
            paths[part] = tmp_path / f"{part}.txt"
            paths[part].write_bytes(data)
        with pytest.raises(DatasetFileError) as info:
            load_dataset(paths["edges"], label_path=paths["labels"])
        assert str(info.value).startswith(f"{paths['labels']}:2: class ")
        assert str(info.value).endswith(f"is not below the node count {count}")
