"""Accuracy, full-ranking recall@K, degree buckets, and the evaluation harness.

Ranking is exhaustive: every candidate in the pool is scored, minus only the
source's neighbors in the graph the model actually saw at inference time. Ties
break toward the lower node id so results are reproducible across runs and
platforms. Scoring here bypasses the autodiff tape (frozen parameters, plain
ndarray math).

A pair's ranking score depends only on (source, node), never on which other
candidates were asked for. A BLAS product's row results can depend on its row
count: with OpenBLAS 0.3.31 (Haswell kernels), a link head run on 37 of a
2,000-node graph's rows scored some of them differently than run on all
2,000, for 138 of 286 sources. So the link scorer runs one product of the
same shape per source, over every embedding row, and picks the candidates'
entries from it; sources are not batched, for the same reason.
Its scores agree with the training-side ``score_pairs`` to within 1e-12
relative, not bit for bit. The recsys scorer sums each candidate's row on its
own, so it is candidate-independent as it stands and equals ``score_pairs``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import TailkitError
from .graph import Graph, build_graph
from .models import Model, encode

__all__ = [
    "BUCKET_LABELS",
    "EvalError",
    "MetricReport",
    "bucket_index",
    "degree_buckets",
    "evaluate_setting",
    "parse_setting",
    "predict_classes",
    "ranking_score_fn",
    "recall_per_source",
    "scored_nodes",
    "validation_metric",
]

_BUCKET_EDGES = (0, 1, 2, 3, 4, 5, 6, 11, 21, 51)
BUCKET_LABELS = ("0", "1", "2", "3", "4", "5", "6-10", "11-20", "21-50", "51+")


class EvalError(TailkitError):
    """Invalid evaluation request."""


# ---------------------------------------------------------------------------
# core metrics
# ---------------------------------------------------------------------------

def recall_per_source(score_fn, sources, positives, pool, k=50, exclude=None) -> np.ndarray:
    """Per-source recall@k, in the order of ``sources``.

    ``score_fn(source, candidates)`` returns one score per candidate, where
    ``candidates`` is ``pool`` (distinct ids, in its own order) minus the ids
    that ``exclude`` (optional) maps ``source`` to. ``positives`` maps source
    -> positive target ids. Ties break toward the lower candidate id. Recall
    is the number of distinct positives in the top k over ``len(positives)``.
    """
    pool = np.asarray(pool, dtype=np.int64)
    if k < 1:
        raise EvalError(f"k must be at least 1, got {k}")
    positions = _pool_positions(pool)
    out = np.empty(len(sources), dtype=np.float64)
    for i, source in enumerate(sources):
        source = int(source)
        pos = np.asarray(positives[source], dtype=np.int64)
        if pos.size == 0:
            raise EvalError(f"source {source} has no positives")
        is_pos = np.zeros(pool.size, dtype=bool)
        is_pos[positions(pos)] = True
        candidates = pool
        if exclude is not None:
            keep = np.ones(pool.size, dtype=bool)
            keep[positions(exclude[source])] = False
            candidates, is_pos = pool[keep], is_pos[keep]
        if candidates.size == 0:
            raise EvalError(f"source {source} has an empty candidate pool")
        scores = np.asarray(score_fn(source, candidates), dtype=np.float64).ravel()
        if scores.shape != candidates.shape:
            raise EvalError(
                f"score function returned {scores.shape}, expected {candidates.shape}"
            )
        out[i] = np.count_nonzero(is_pos[_top_k(scores, candidates, k)]) / pos.size
    return out


def _pool_positions(pool: np.ndarray):
    """``positions(ids)``: the positions in ``pool`` (distinct ids) of those
    ``ids`` it holds, looked up in one id-indexed table."""
    lo = int(pool.min()) if pool.size else 0
    slot = np.full(int(pool.max()) - lo + 1 if pool.size else 0, -1, dtype=np.int64)
    slot[pool - lo] = np.arange(pool.size)
    if np.count_nonzero(slot >= 0) != pool.size:
        raise EvalError("candidate pool holds a duplicate id")

    def positions(ids) -> np.ndarray:
        rel = np.asarray(ids, dtype=np.int64) - lo
        found = slot[rel[(rel >= 0) & (rel < slot.size)]]
        return found[found >= 0]

    return positions


def _top_k(scores: np.ndarray, ids: np.ndarray, k: int):
    """Indices of the k best entries by (score descending, id ascending).

    Selects instead of sorting: the entries strictly better than the k-th
    score are in, and the tie at the k-th score is filled from its lowest ids.
    NaN ranks last, as it does in a sort.
    """
    if k >= scores.size:
        return slice(None)
    key = -scores
    top = np.argpartition(key, k - 1)[:k]
    kth = key[top[-1]]
    if np.isnan(kth):
        better, tied = top[~np.isnan(key[top])], np.flatnonzero(np.isnan(key))
    else:
        better, tied = top[key[top] < kth], np.flatnonzero(key == kth)
    fill = tied[np.argsort(ids[tied])[: k - better.size]]
    return np.concatenate([better, fill])


def bucket_index(degrees) -> np.ndarray:
    """Bucket id per degree for the fixed bucket edges."""
    degrees = np.asarray(degrees, dtype=np.int64)
    return np.searchsorted(_BUCKET_EDGES, degrees, side="right") - 1


def degree_buckets(graph: Graph, nodes, per_node_metric) -> list[dict]:
    """Mean metric and node count per input-graph degree bucket.

    Buckets are 0,1,2,3,4,5,6-10,11-20,21-50,51+ over the degree each node has
    in ``graph`` (the exact graph the model consumed). All ten rows are always
    present; an unpopulated bucket has count 0 and mean None.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    metric = np.asarray(per_node_metric, dtype=np.float64)
    if metric.shape != nodes.shape:
        raise EvalError(f"metric shape {metric.shape} does not match nodes {nodes.shape}")
    ids = bucket_index(graph.degrees()[nodes])
    rows = []
    for b, label in enumerate(BUCKET_LABELS):
        mask = ids == b
        count = int(mask.sum())
        rows.append(
            {
                "bucket": label,
                "mean": float(metric[mask].mean()) if count else None,
                "count": count,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# report type
# ---------------------------------------------------------------------------

@dataclass
class MetricReport:
    """One evaluated setting: scalar metric, degree-bucket table, provenance."""

    setting: str
    metric_name: str
    value: float
    buckets: list[dict]
    graph_hash: str
    population: int

    def __post_init__(self) -> None:
        if not -1e-9 <= self.value <= 1 + 1e-9:
            raise EvalError(f"metric {self.value} outside [0, 1]")
        total = sum(row["count"] for row in self.buckets)
        if self.buckets and total != self.population:
            raise EvalError(
                f"bucket counts sum to {total}, expected population {self.population}"
            )

    def to_dict(self) -> dict:
        return {
            "setting": self.setting,
            "metric": self.metric_name,
            "value": self.value,
            "population": self.population,
            "graph_hash": self.graph_hash,
            "buckets": self.buckets,
        }


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

_COLD_RE = re.compile(r"^inductive-cold\((\d*\.?\d+)\)$")


def parse_setting(tag: str) -> tuple[str, float | None]:
    """Split a setting tag into (kind, cold ratio)."""
    if tag in ("transductive", "inductive"):
        return tag, None
    m = _COLD_RE.match(tag)
    if m:
        return "inductive-cold", float(m.group(1))
    raise EvalError(f"unknown setting tag {tag!r}")


def predict_classes(model: Model, graph: Graph) -> np.ndarray:
    """Hard class predictions for every node (no tape, parameters untouched)."""
    emb = encode(model, graph)
    logits = emb.value @ model.params["head.weight"].value + model.params["head.bias"].value
    return logits.argmax(axis=1)


def ranking_score_fn(model: Model, embeddings: np.ndarray):
    """A ``(source, candidates) -> scores`` closure over frozen embeddings.

    Link: with ``E`` the embeddings, every row's hidden layer is one product,
    ``relu([E | 1] @ [[e_s[:, None] * W1]; [b1]])``, then ``@ w2``; the
    candidates' entries plus ``b2`` are returned. The product has the same
    shape for every source, so a pair's score depends only on (source, node).
    Recsys: the row sums of ``e_s * E[candidates]``. Candidate ids in
    ``[-n, n)`` index as ``E[candidates]`` does. The operands and the
    intermediates live in buffers the closure allocates once; every call
    returns a fresh array.
    """
    n, d = embeddings.shape

    def checked(candidates) -> np.ndarray:
        candidates = np.asarray(candidates, dtype=np.int64)
        if candidates.size and (candidates.min() < -n or candidates.max() >= n):
            raise EvalError(f"candidate ids must index {n} embedding rows")
        return candidates

    if model.task == "link":
        w1 = model.params["head.w1"].value
        w2 = model.params["head.w2"].value
        b2 = model.params["head.b2"].value
        rows = np.ones((n, d + 1))
        rows[:, :d] = embeddings
        folded = np.empty((d + 1, w1.shape[1]))
        folded[d] = model.params["head.b1"].value
        hidden = np.empty((n, w1.shape[1]))
        column = np.empty((n, 1))

        def score(source, candidates):
            candidates = checked(candidates)
            np.multiply(embeddings[source][:, None], w1, out=folded[:d])
            np.matmul(rows, folded, out=hidden)
            np.maximum(hidden, 0.0, out=hidden)
            np.matmul(hidden, w2, out=column)
            return column[candidates, 0] + b2

        return score
    if model.task == "recsys":
        rows = np.empty((n, d), dtype=embeddings.dtype)

        def score(source, candidates):
            candidates = checked(candidates)
            m = candidates.size
            out = rows[:m] if m <= n else np.empty((m, d), dtype=embeddings.dtype)
            # within [-n, n) "wrap" indexes as embeddings[candidates] does, and
            # unlike the default mode it writes into ``out`` without a temporary
            np.take(embeddings, candidates, axis=0, out=out, mode="wrap")
            return np.multiply(embeddings[source], out, out=out).sum(axis=1)

        return score
    raise EvalError(f"no ranking scorer for task {model.task!r}")


def scored_nodes(bundle, kind: str) -> tuple[np.ndarray, dict | None, np.ndarray | None]:
    """``(nodes, positives, pool)`` that ``kind`` scores on ``bundle``.

    ``kind`` is ``validation`` or a setting kind of :func:`parse_setting`
    (``inductive-cold`` scores as ``inductive``). Classification scores the
    validation, unlabeled (transductive) or new nodes whose label is known,
    with no positives and no pool. The ranking tasks read the scored edges
    as a graph, ``held_out``, and rank for each source its neighbors there
    (``positives[s] = held_out.neighbors(s)``). Link sources are the
    validation edges' nodes, the test edges' nodes that are also validation
    sources (both ranked among the training nodes), or the new nodes of the
    inductive test edges (ranked among every node). Recsys (never inductive)
    ranks the items for each user of the validation or test edges.
    """
    kind = "inductive" if kind == "inductive-cold" else kind
    if bundle.task == "classification":
        label_set = bundle.label_set
        nodes = np.asarray({"validation": label_set.validation, "transductive": label_set.unlabeled,
                            "inductive": bundle.v_new}[kind], dtype=np.int64)
        return nodes[label_set.labels[nodes] >= 0], None, None
    n = bundle.num_nodes
    edges = {"validation": bundle.trans_val_edges, "transductive": bundle.trans_test_edges,
             "inductive": bundle.new_test_edges}[kind]
    held_out = build_graph(edges, n)
    eligible = held_out.degrees() > 0
    if bundle.task == "recsys":
        num_users = bundle.train_graph.bipartite[0]
        eligible[num_users:] = False
        pool = np.arange(num_users, n, dtype=np.int64)
    elif kind == "inductive":
        eligible &= np.isin(np.arange(n), bundle.v_new)
        pool = np.arange(n, dtype=np.int64)
    else:
        if kind == "transductive":
            eligible &= build_graph(bundle.trans_val_edges, n).degrees() > 0
        pool = np.asarray(bundle.v_train, dtype=np.int64)
    sources = np.flatnonzero(eligible)
    return sources, {s: held_out.neighbors(s) for s in sources.tolist()}, pool


def _scored(model: Model, bundle, graph: Graph, kind: str, k: int):
    """``(nodes, metric per node)`` of :func:`scored_nodes` on ``graph``:
    each node's accuracy for classification, else each source's recall@k
    with its neighbors in ``graph`` excluded."""
    nodes, positives, pool = scored_nodes(bundle, kind)
    if nodes.size == 0:
        raise EvalError(f"no {kind} nodes to score")
    if positives is None:
        labels = bundle.label_set.labels
        return nodes, (predict_classes(model, graph)[nodes] == labels[nodes]).astype(np.float64)
    score_fn = ranking_score_fn(model, encode(model, graph).value)
    exclude = {int(s): graph.neighbors(int(s)) for s in nodes}
    return nodes, recall_per_source(score_fn, nodes, positives, pool, k, exclude)


def evaluate_setting(model: Model, bundle, setting: str, k: int = 50) -> MetricReport:
    """Run the frozen model under one evaluation setting and report metrics.

    The inference graph is the training graph for transductive, plus each
    new node's input edges for inductive, with the requested fraction removed
    for inductive-cold; the bundle builds each once and keeps it. Parameters
    are never updated (scoring happens outside any tape).
    """
    kind, ratio = parse_setting(setting)
    if bundle.task == "recsys" and kind != "transductive":
        raise EvalError("recsys supports only the transductive setting")
    graph = bundle.inference_graph(kind, ratio)
    nodes, per_node = _scored(model, bundle, graph, kind, k)
    return MetricReport(
        setting=setting,
        metric_name="accuracy" if bundle.task == "classification" else f"recall@{k}",
        value=float(per_node.mean()),
        buckets=degree_buckets(graph, nodes, per_node),
        graph_hash=graph.edge_hash(),
        population=int(nodes.size),
    )


def validation_metric(model: Model, bundle, k: int = 50) -> float:
    """Early-stopping signal on the training graph: validation accuracy for
    classification, validation-edge recall for the ranking tasks."""
    return float(_scored(model, bundle, bundle.train_graph, "validation", k)[1].mean())
