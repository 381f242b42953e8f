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
entries from it. Products stay per source; selection runs per block of
sources (one partition finds every row's k-th key), and the sources are
split over the usable CPUs, each thread ranking its own contiguous chunk.
A source's recall depends on its own scores only, so the bytes are the same
for any thread count. The link scorer's scores agree with the training-side
``score_pairs`` to within 1e-12 relative, not bit for bit. The recsys scorer
sums each candidate's row on its own, so it is candidate-independent as it
stands and equals ``score_pairs``.

``recall_per_source`` runs threads of its own: a caller should run BLAS on
one thread (the ``tailkit`` command does), or the ranking threads and BLAS's
share the CPUs.
"""
from __future__ import annotations

import os
import re
import threading
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

# sources selected together: one partition per block, and a thread's buffers
# hold a block's (sources x pool) keys and masks
_BLOCK = 32


def recall_per_source(score_fn, sources, positives, pool, k=50, exclude=None) -> np.ndarray:
    """Per-source recall@k, in the order of ``sources``.

    ``score_fn(source, candidates)`` returns one score per candidate, where
    ``candidates`` is ``pool`` (distinct ids, in its own order) minus the ids
    that ``exclude`` (optional) maps ``source`` to. ``positives`` maps source
    -> positive target ids. Ties break toward the lower candidate id. Recall
    is the number of distinct positives in the top k over ``len(positives)``.

    Sources are ranked in blocks of up to ``_BLOCK``, in contiguous chunks on
    up to one thread per usable CPU (the calling thread takes the first), so
    ``score_fn`` must be safe to call from several threads at once. A source's
    recall depends only on its own scores: the result is the same for any
    thread count. No thread outlives the call.
    """
    pool = np.asarray(pool, dtype=np.int64)
    if k < 1:
        raise EvalError(f"k must be at least 1, got {k}")
    order = np.argsort(pool, kind="stable")
    ids = pool[order]
    if np.any(ids[1:] == ids[:-1]):
        raise EvalError("candidate pool holds a duplicate id")
    sources = [int(s) for s in sources]
    width = pool.size
    # cells are ``row * width + column`` of a (sources, pool) mask; positives
    # are in id order, exclusions in pool order (the order candidates keep)
    pos_cells, num_pos = _cells(positives, sources, ids, np.arange(width))
    excl_cells = (np.empty(0, dtype=np.int64) if exclude is None
                  else _cells(exclude, sources, ids, order)[0])
    num_excluded = np.bincount(excl_cells // max(width, 1), minlength=len(sources))
    bad = np.flatnonzero((num_pos == 0) | (num_excluded == width))
    if bad.size:
        i = bad[0]
        what = "has no positives" if num_pos[i] == 0 else "has an empty candidate pool"
        raise EvalError(f"source {sources[i]} {what}")
    out = np.empty(len(sources), dtype=np.float64)
    workers = _worker_count(-(-len(sources) // _BLOCK))
    bounds = [len(sources) * j // workers for j in range(workers + 1)]
    # allocated by this thread: what a new thread allocates comes from a glibc
    # arena of its own, which stays mapped after the thread ends
    buffers = [_BlockBuffers(min(_BLOCK, len(sources)), width) for _ in range(workers)]

    def rank_chunk(j: int) -> None:
        for lo in range(bounds[j], bounds[j + 1], _BLOCK):
            hi = min(lo + _BLOCK, bounds[j + 1])
            hits = buffers[j].hits(score_fn, sources[lo:hi], pool, order, k,
                                   _rows(pos_cells, lo, hi, width),
                                   _rows(excl_cells, lo, hi, width))
            out[lo:hi] = hits / num_pos[lo:hi]

    # deferred: the import costs about 10 ms of start-up, which runs that rank
    # nothing should not pay
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as threads:
        futures = [threads.submit(rank_chunk, j) for j in range(1, workers)]
        rank_chunk(0)
        for future in futures:
            future.result()
    return out


def _worker_count(num_blocks: int) -> int:
    """Threads for ``num_blocks`` blocks: one per usable CPU, at most one per block."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, num_blocks))


def _cells(mapping, sources, ids, column) -> tuple[np.ndarray, np.ndarray]:
    """``(cells, counts)``: the sorted distinct cells ``i * len(ids) +
    column[j]`` for each id ``ids[j]`` that ``mapping[sources[i]]`` holds
    (``ids`` sorted), and how many ids each source maps to, held or not."""
    given = [np.asarray(mapping[s], dtype=np.int64).ravel() for s in sources]
    counts = np.array([g.size for g in given], dtype=np.int64)
    flat = np.concatenate(given) if given else np.empty(0, dtype=np.int64)
    at = np.searchsorted(ids, flat)
    held = at < ids.size
    held[held] = ids[at[held]] == flat[held]
    rows = np.repeat(np.arange(len(sources)), counts)
    return np.unique(rows[held] * ids.size + column[at[held]]), counts


def _rows(cells: np.ndarray, lo: int, hi: int, width: int) -> np.ndarray:
    """The cells of rows ``lo:hi``, renumbered from row ``lo``."""
    a, z = np.searchsorted(cells, (lo * width, hi * width))
    return cells[a:z] - lo * width


class _BlockBuffers:
    """One thread's arrays for ranking up to ``rows`` sources over a pool of
    ``width`` candidates: the same buffers serve each block in turn."""

    def __init__(self, rows: int, width: int):
        self.key = np.empty((rows, width))
        self.part = np.empty((rows, width))
        self.run = np.empty((rows, width), dtype=np.int32)
        self.keep, self.positive, self.tie, self.top = (
            np.empty((rows, width), dtype=bool) for _ in range(4))

    def hits(self, score_fn, block, pool, order, k, pos_cells, excl_cells):
        """How many of each ``block`` source's positives are in its top k.

        Scores are placed in pool order, then the block's columns are put in
        id order (``order``). A row's key is its negated scores, NaN where
        excluded. One partition finds each row's k-th key; the top k are the
        keys below it plus its lowest-id ties. A NaN k-th key means every
        non-NaN candidate is in and the NaN candidates tie.
        """
        b = len(block)
        key, part, keep, positive, tie, top = (
            a[:b] for a in (self.key, self.part, self.keep, self.positive, self.tie,
                            self.top))
        keep.fill(True)
        keep.reshape(-1)[excl_cells] = False
        positive.fill(False)
        positive.reshape(-1)[pos_cells] = True
        part.fill(np.nan)
        for r, source in enumerate(block):
            candidates = pool[keep[r]]
            scores = np.asarray(score_fn(source, candidates), dtype=np.float64).ravel()
            if scores.shape != candidates.shape:
                raise EvalError(
                    f"score function returned {scores.shape}, expected {candidates.shape}"
                )
            part[r][keep[r]] = scores
        # ``order`` is in range, and unlike the default mode "clip" writes
        # into ``key`` without a temporary
        np.take(part, order, axis=1, out=key, mode="clip")
        np.negative(key, out=key)
        np.copyto(part, key)
        kk = min(k, pool.size)
        part.partition(kk - 1, axis=1)
        kth = part[:, kk - 1:kk]
        np.less(key, kth, out=top)
        np.equal(key, kth, out=tie)
        lost = np.flatnonzero(np.isnan(kth[:, 0]))
        if lost.size:
            nan = np.isnan(key[lost])
            top[lost] = ~nan
            tie[lost] = nan & keep[lost][:, order]
        need = k - np.count_nonzero(top, axis=1)
        cut = np.flatnonzero(np.count_nonzero(tie, axis=1) > need)
        if cut.size:
            run = np.cumsum(tie[cut], axis=1, dtype=np.int32, out=self.run[:cut.size])
            tie[cut] &= run <= need[cut, None]
        top |= tie
        top &= positive
        return np.count_nonzero(top, axis=1)


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
    ``[-n, n)`` index as ``E[candidates]`` does. The closure may be called
    from several threads at once: ``[E | 1]`` is shared and read-only, and
    each thread gets its own intermediates, allocated on its first call and
    kept for its later ones; every call returns a fresh array.
    """
    n, d = embeddings.shape
    local = threading.local()

    def checked(candidates) -> np.ndarray:
        candidates = np.asarray(candidates, dtype=np.int64)
        if candidates.size and (candidates.min() < -n or candidates.max() >= n):
            raise EvalError(f"candidate ids must index {n} embedding rows")
        return candidates

    if model.task == "link":
        w1 = model.params["head.w1"].value
        b1 = model.params["head.b1"].value
        w2 = model.params["head.w2"].value[:, 0]  # a gemv either way, with the same bits
        b2 = model.params["head.b2"].value
        rows = np.ones((n, d + 1))
        rows[:, :d] = embeddings

        def buffers():
            if not hasattr(local, "folded"):
                local.folded = np.empty((d + 1, w1.shape[1]))
                local.folded[d] = b1
                local.hidden = np.empty((n, w1.shape[1]))
                local.column = np.empty(n)
            return local.folded, local.hidden, local.column

        def score(source, candidates):
            candidates = checked(candidates)
            folded, hidden, column = buffers()
            np.multiply(embeddings[source][:, None], w1, out=folded[:d])
            np.matmul(rows, folded, out=hidden)
            np.maximum(hidden, 0.0, out=hidden)
            np.matmul(hidden, w2, out=column)
            return column[candidates] + b2

        return score
    if model.task == "recsys":

        def score(source, candidates):
            candidates = checked(candidates)
            if not hasattr(local, "rows"):
                local.rows = np.empty((n, d), dtype=embeddings.dtype)
            m = candidates.size
            out = local.rows[:m] if m <= n else np.empty((m, d), dtype=embeddings.dtype)
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
