"""Split protocols and dataset ingestion.

Every protocol partitions by count with floor rounding (remainder to the last
part) and is deterministic per seed; sub-steps derive independent generators
through ``np.random.SeedSequence.spawn`` so protocols never share draws. The
node universe is never re-indexed: a training graph keeps ``num_nodes`` and
simply omits held-out edges, so held-out nodes are present but isolated, which
leaves the trained function untouched (no messages flow from or to them) while
keeping feature rows and ids stable across settings.
"""
from __future__ import annotations

import io
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graph import Graph, GraphError, LabelSet, build_graph

__all__ = [
    "DatasetFileError",
    "NodeSplitResult",
    "SplitBundle",
    "SplitError",
    "check_three_ratios",
    "cold_start_remove",
    "edge_split_inductive",
    "edge_split_transductive",
    "label_split",
    "load_dataset",
    "make_classification_bundle",
    "make_link_bundle",
    "make_recsys_bundle",
    "node_split",
    "recsys_split",
    "save_edge_list",
    "save_features",
    "save_labels",
    "write_atomic",
]


class SplitError(ValueError):
    """Invalid split parameters or inputs."""


class DatasetFileError(GraphError):
    """A dataset file that cannot be read, with the offending line if known."""

    def __init__(self, path, lineno: int | None, message: str):
        self.path = path
        where = path if lineno is None else f"{path}:{lineno}"
        super().__init__(f"{where}: {message}")


def _spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


@dataclass(frozen=True)
class NodeSplitResult:
    """Outcome of holding out a fraction of nodes as unseen arrivals."""

    train_graph: Graph
    v_train: np.ndarray
    v_new: np.ndarray
    cross_edges: np.ndarray
    new_new_edges: np.ndarray


def node_split(graph: Graph, new_fraction: float = 0.05, seed: int = 0) -> NodeSplitResult:
    """Hold out ``floor(new_fraction * n)`` uniform nodes as V_new.

    The training graph keeps only edges with both endpoints in V; edges with
    exactly one endpoint in V_new are the cross edges, and V_new-V_new edges
    are reported separately. Together the three groups conserve the edge count.
    """
    if not 0.0 <= new_fraction < 1.0:
        raise SplitError(f"new_fraction must be in [0, 1), got {new_fraction}")
    n = graph.num_nodes
    num_new = int(np.floor(new_fraction * n))
    (rng,) = _spawn_rngs(seed, 1)
    v_new = np.sort(rng.choice(n, size=num_new, replace=False))
    is_new = np.zeros(n, dtype=bool)
    is_new[v_new] = True
    v_train = np.flatnonzero(~is_new)

    e_new = is_new[graph.edges]
    both_old = ~e_new.any(axis=1)
    both_new = e_new.all(axis=1)
    cross = ~both_old & ~both_new
    train_graph = build_graph(
        graph.edges[both_old], n, features=graph.features, bipartite=graph.bipartite
    )
    return NodeSplitResult(
        train_graph, v_train, v_new, graph.edges[cross], graph.edges[both_new]
    )


def label_split(
    nodes, labeled_fraction: float, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pick ``floor(fraction * |nodes|)`` labeled nodes, halved into train and
    validation (an odd count gives train the extra one); the rest are unlabeled."""
    if not 0.0 < labeled_fraction <= 1.0:
        raise SplitError(f"labeled_fraction must be in (0, 1], got {labeled_fraction}")
    nodes = np.asarray(nodes, dtype=np.int64)
    num_labeled = int(np.floor(labeled_fraction * nodes.size))
    (rng,) = _spawn_rngs(seed, 1)
    perm = rng.permutation(nodes)
    labeled = perm[:num_labeled]
    num_train = num_labeled - num_labeled // 2  # ceil: odd count favors train
    train = np.sort(labeled[:num_train])
    validation = np.sort(labeled[num_train:])
    unlabeled = np.sort(perm[num_labeled:])
    return train, validation, unlabeled


def _partition_counts(total: int, ratios) -> list[int]:
    counts = [int(np.floor(r * total)) for r in ratios[:-1]]
    counts.append(total - sum(counts))
    if counts[-1] < 0:
        raise SplitError(f"ratios {tuple(ratios)} exceed 1")
    return counts


def check_three_ratios(ratios) -> None:
    """Refuse split ratios that are not three nonnegative parts summing to 1."""
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise SplitError(f"need three nonnegative ratios, got {ratios}")
    if not np.isclose(sum(ratios), 1.0):
        raise SplitError(f"ratios must sum to 1, got {ratios}")


def edge_split_transductive(
    graph: Graph, ratios=(0.5, 0.2, 0.3), seed: int = 0
) -> tuple[Graph, np.ndarray, np.ndarray]:
    """Partition edges into train/validation/test by count.

    The first two parts get ``floor(ratio * |E|)`` edges each, the last takes
    the remainder. The returned train graph contains only train edges.
    """
    check_three_ratios(ratios)
    (rng,) = _spawn_rngs(seed, 1)
    perm = rng.permutation(graph.num_edges)
    n_train, n_val, _ = _partition_counts(graph.num_edges, ratios)
    train_edges = graph.edges[np.sort(perm[:n_train])]
    val_edges = graph.edges[np.sort(perm[n_train:n_train + n_val])]
    test_edges = graph.edges[np.sort(perm[n_train + n_val:])]
    train_graph = build_graph(
        train_edges, graph.num_nodes, features=graph.features, bipartite=graph.bipartite
    )
    return train_graph, val_edges, test_edges


def recsys_split(
    graph: Graph, ratios=(0.10, 0.05, 0.85), seed: int = 0
) -> tuple[Graph, np.ndarray, np.ndarray]:
    """Interaction split for user-item graphs (train/validation/test by count)."""
    if graph.bipartite is None:
        raise SplitError("recsys_split needs a bipartite graph")
    return edge_split_transductive(graph, ratios, seed)


def _pick_per_owner(edges: np.ndarray, new_nodes, ratio: float, seed: int) -> np.ndarray:
    """Mask of ``floor(ratio * k)`` edges drawn at random from each owner's k.

    An edge's owner is its new endpoint, or the lower id when both are new.
    """
    is_new = np.isin(edges, np.asarray(new_nodes, dtype=np.int64))
    if not is_new.any(axis=1).all():
        bad = edges[~is_new.any(axis=1)][0]
        raise SplitError(f"edge ({bad[0]}, {bad[1]}) touches no new node")
    both = is_new.all(axis=1)
    owner = np.where(is_new[:, 0], edges[:, 0], edges[:, 1])
    owner[both] = edges[both].min(axis=1)
    (rng,) = _spawn_rngs(seed, 1)
    picked = np.zeros(edges.shape[0], dtype=bool)
    for node in np.unique(owner):
        idx = np.flatnonzero(owner == node)
        picked[rng.permutation(idx)[:int(np.floor(ratio * idx.size))]] = True
    return picked


def edge_split_inductive(
    edges, new_nodes, ratio: float = 0.5, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Split each new node's edges independently into input and evaluation.

    Each owner keeps ``floor(ratio * k)`` of its k edges as input (rounded
    down); the rest are evaluation edges. Edge ownership: the new endpoint, or
    the lower-id endpoint when both are new (so each edge is split once).
    """
    if not 0.0 <= ratio <= 1.0:
        raise SplitError(f"ratio must be in [0, 1], got {ratio}")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    is_input = _pick_per_owner(edges, new_nodes, ratio, seed)
    return edges[is_input], edges[~is_input]


def cold_start_remove(input_edges, new_nodes, removal_ratio: float, seed: int = 0) -> np.ndarray:
    """Remove ``floor(removal_ratio * k)`` of each new node's k input edges."""
    if not 0.0 <= removal_ratio <= 1.0:
        raise SplitError(f"removal_ratio must be in [0, 1], got {removal_ratio}")
    edges = np.asarray(input_edges, dtype=np.int64).reshape(-1, 2)
    return edges[~_pick_per_owner(edges, new_nodes, removal_ratio, seed)]


# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------

@dataclass
class SplitBundle:
    """Everything downstream training and evaluation read from one split."""

    task: str
    seed: int
    num_nodes: int
    v_train: np.ndarray
    v_new: np.ndarray
    train_graph: Graph
    label_set: LabelSet | None = None
    trans_val_edges: np.ndarray | None = None
    trans_test_edges: np.ndarray | None = None
    new_input_edges: np.ndarray | None = None
    new_test_edges: np.ndarray | None = None
    cold_input_edges: dict[float, np.ndarray] = field(default_factory=dict)

    def inference_graph(self, setting: str, cold_ratio: float | None = None) -> Graph:
        """The exact graph a model sees at evaluation time for a setting."""
        base = self.train_graph
        if setting == "transductive":
            return base
        if self.task == "recsys":
            raise SplitError("recsys has no inductive setting")
        if setting == "inductive":
            extra = self.new_input_edges
        elif setting == "inductive-cold":
            if cold_ratio is None or cold_ratio not in self.cold_input_edges:
                raise SplitError(
                    f"no cold variant for ratio {cold_ratio!r}; "
                    f"available: {sorted(self.cold_input_edges)}"
                )
            extra = self.cold_input_edges[cold_ratio]
        else:
            raise SplitError(f"unknown setting {setting!r}")
        edges = np.concatenate([base.edges, extra.reshape(-1, 2)], axis=0)
        return build_graph(edges, self.num_nodes, features=base.features, bipartite=base.bipartite)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        def arr(a):
            return None if a is None else np.asarray(a).tolist()

        out = {
            "task": self.task,
            "seed": self.seed,
            "num_nodes": self.num_nodes,
            "v_train": arr(self.v_train),
            "v_new": arr(self.v_new),
            "train_edges": arr(self.train_graph.edges),
            "trans_val_edges": arr(self.trans_val_edges),
            "trans_test_edges": arr(self.trans_test_edges),
            "new_input_edges": arr(self.new_input_edges),
            "new_test_edges": arr(self.new_test_edges),
            "cold_input_edges": {repr(r): arr(e) for r, e in sorted(self.cold_input_edges.items())},
        }
        if self.label_set is not None:
            out["labels"] = {
                "labels": arr(self.label_set.labels),
                "num_classes": self.label_set.num_classes,
                "train_labeled": arr(self.label_set.train_labeled),
                "validation": arr(self.label_set.validation),
                "unlabeled": arr(self.label_set.unlabeled),
            }
        return out

    @classmethod
    def from_dict(cls, payload: dict, base_graph: Graph) -> "SplitBundle":
        def edge_arr(x):
            return None if x is None else np.asarray(x, dtype=np.int64).reshape(-1, 2)

        train_graph = build_graph(
            edge_arr(payload["train_edges"]),
            payload["num_nodes"],
            features=base_graph.features,
            bipartite=base_graph.bipartite,
        )
        label_set = None
        if "labels" in payload:
            lab = payload["labels"]
            label_set = LabelSet(
                np.asarray(lab["labels"], dtype=np.int64), lab["num_classes"]
            ).with_splits(lab["train_labeled"], lab["validation"], lab["unlabeled"])
        return cls(
            task=payload["task"],
            seed=payload["seed"],
            num_nodes=payload["num_nodes"],
            v_train=np.asarray(payload["v_train"], dtype=np.int64),
            v_new=np.asarray(payload["v_new"], dtype=np.int64),
            train_graph=train_graph,
            label_set=label_set,
            trans_val_edges=edge_arr(payload["trans_val_edges"]),
            trans_test_edges=edge_arr(payload["trans_test_edges"]),
            new_input_edges=edge_arr(payload["new_input_edges"]),
            new_test_edges=edge_arr(payload["new_test_edges"]),
            cold_input_edges={
                float(r): edge_arr(e) for r, e in payload["cold_input_edges"].items()
            },
        )


def make_classification_bundle(
    graph: Graph,
    labels: LabelSet,
    *,
    new_fraction: float = 0.05,
    labeled_fraction: float = 0.10,
    cold_ratios=(0.3, 0.6, 0.9),
    seed: int = 0,
) -> SplitBundle:
    if labels.num_nodes != graph.num_nodes:
        raise SplitError("label set does not match the graph")
    r_node, r_label, r_cold = np.random.SeedSequence(seed).spawn(3)
    ns = node_split(graph, new_fraction, seed=_entropy(r_node))
    train, val, unlabeled = label_split(ns.v_train, labeled_fraction, seed=_entropy(r_label))
    new_input = _concat_edges(ns.cross_edges, ns.new_new_edges)
    return SplitBundle(
        task="classification",
        seed=seed,
        num_nodes=graph.num_nodes,
        v_train=ns.v_train,
        v_new=ns.v_new,
        train_graph=ns.train_graph,
        label_set=labels.with_splits(train, val, unlabeled),
        new_input_edges=new_input,
        cold_input_edges=_cold_variants(new_input, ns.v_new, cold_ratios, r_cold),
    )


def make_link_bundle(
    graph: Graph,
    *,
    new_fraction: float = 0.05,
    trans_ratios=(0.5, 0.2, 0.3),
    inductive_ratio: float = 0.5,
    cold_ratios=(0.3, 0.6, 0.9),
    seed: int = 0,
) -> SplitBundle:
    r_node, r_trans, r_ind, r_cold = np.random.SeedSequence(seed).spawn(4)
    ns = node_split(graph, new_fraction, seed=_entropy(r_node))
    induced = ns.train_graph
    train_graph, val_edges, test_edges = edge_split_transductive(
        induced, trans_ratios, seed=_entropy(r_trans)
    )
    new_edges = _concat_edges(ns.cross_edges, ns.new_new_edges)
    new_input, new_test = edge_split_inductive(
        new_edges, ns.v_new, inductive_ratio, seed=_entropy(r_ind)
    )
    return SplitBundle(
        task="link",
        seed=seed,
        num_nodes=graph.num_nodes,
        v_train=ns.v_train,
        v_new=ns.v_new,
        train_graph=train_graph,
        trans_val_edges=val_edges,
        trans_test_edges=test_edges,
        new_input_edges=new_input,
        new_test_edges=new_test,
        cold_input_edges=_cold_variants(new_input, ns.v_new, cold_ratios, r_cold),
    )


def make_recsys_bundle(graph: Graph, *, ratios=(0.10, 0.05, 0.85), seed: int = 0) -> SplitBundle:
    train_graph, val_edges, test_edges = recsys_split(graph, ratios, seed=seed)
    return SplitBundle(
        task="recsys",
        seed=seed,
        num_nodes=graph.num_nodes,
        v_train=np.arange(graph.num_nodes, dtype=np.int64),
        v_new=np.empty(0, dtype=np.int64),
        train_graph=train_graph,
        trans_val_edges=val_edges,
        trans_test_edges=test_edges,
    )


def _entropy(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _cold_variants(new_input, v_new, cold_ratios, seq: np.random.SeedSequence) -> dict:
    """The new nodes' input edges thinned once per cold-start ratio."""
    return {
        float(r): cold_start_remove(new_input, v_new, float(r), seed=_entropy(seq) + i)
        for i, r in enumerate(cold_ratios)
    }


def _concat_edges(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = a.reshape(-1, 2)
    b = b.reshape(-1, 2)
    return np.concatenate([a, b], axis=0)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def write_atomic(path, text: str) -> None:
    """Write ``text`` through a sibling temp file and ``os.replace``, so a
    crash never leaves a truncated file behind for a resumed stage to accept.
    A write that fails removes the temp file and re-raises."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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


def load_dataset(edge_path, feature_path=None, label_path=None) -> tuple[Graph, LabelSet | None]:
    """Read a graph (and optional features/labels) from text files.

    Edge file: UTF-8, one ``u v`` pair of base-10 ids per line, whitespace
    separated; ``#`` starts a comment; an optional first non-comment line
    ``%bipartite <num_users> <num_items>`` declares a user-item graph. The
    feature file is a headerless CSV whose row i holds node i's features; a
    label file has ``node_id class_id`` lines. Node count comes from the
    bipartite marker, else the feature row count, else max endpoint + 1. A
    file that cannot be read raises :class:`DatasetFileError` naming it.
    """
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
            labels[node] = cls_id
        num_classes = int(labels.max()) + 1 if (labels >= 0).any() else 1
        label_set = LabelSet(labels, max(num_classes, 2))
    return graph, label_set


def _feature_line_error(path) -> DatasetFileError | None:
    """The first line of a feature CSV that does not parse, or that holds a
    different number of values than the first line (numpy reports rows
    0-based and counts only data rows, so its message cannot name a line)."""
    width = None
    for lineno, line in _parse_lines(path):
        try:
            row = np.loadtxt([line], delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError:
            return DatasetFileError(path, lineno, f"{line!r} is not a row of numbers")
        if width is None:
            width = row.shape[1]
        elif row.shape[1] != width:
            return DatasetFileError(
                path, lineno, f"{row.shape[1]} values, but the first row has {width}")
    return None


def save_edge_list(graph: Graph, path) -> None:
    lines = [f"{u} {v}\n" for u, v in graph.edges]
    if graph.bipartite is not None:
        lines.insert(0, f"%bipartite {graph.bipartite[0]} {graph.bipartite[1]}\n")
    write_atomic(path, "".join(lines))


def save_features(features: np.ndarray, path) -> None:
    buffer = io.StringIO()
    np.savetxt(buffer, features, delimiter=",", fmt="%.17g")
    write_atomic(path, buffer.getvalue())


def save_labels(label_set: LabelSet, path) -> None:
    write_atomic(path, "".join(f"{node} {cls_id}\n"
                               for node, cls_id in enumerate(label_set.labels) if cls_id >= 0))
