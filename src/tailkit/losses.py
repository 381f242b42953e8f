"""Training objectives: cross-entropy, pairwise ranking with sampled negatives,
and embedding regularization, plus the supervision container they share."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import TailkitError
from .graph import Graph

__all__ = [
    "LossError",
    "SupervisionSet",
    "bpr_loss",
    "cross_entropy",
    "l2_regularize",
    "sample_negatives",
]


class LossError(TailkitError):
    """Invalid supervision or loss input."""


@dataclass
class SupervisionSet:
    """What the trainer fits against.

    Classification: ``nodes``/``classes`` aligned arrays with no duplicate
    nodes. Ranking (link or recsys): ``positive_pairs`` of (source, target)
    rows, the training ``graph`` they come from (whose neighbors of a source
    are its positives, excluded from its negative candidates), and the
    candidate pool (all nodes for link prediction, the item partition for
    recsys).
    """

    task: str
    num_nodes: int
    nodes: np.ndarray | None = None
    classes: np.ndarray | None = None
    positive_pairs: np.ndarray | None = None
    pool: np.ndarray | None = None
    graph: Graph | None = field(default=None, repr=False)

    # -- factories ----------------------------------------------------------

    @classmethod
    def classification(cls, nodes, classes, num_classes: int, num_nodes: int):
        nodes = np.asarray(nodes, dtype=np.int64)
        classes = np.asarray(classes, dtype=np.int64)
        if nodes.shape != classes.shape or nodes.ndim != 1:
            raise LossError("nodes and classes must be aligned 1-d arrays")
        if np.unique(nodes).size != nodes.size:
            raise LossError("duplicate node in classification supervision")
        outside = nodes[(nodes < 0) | (nodes >= num_nodes)]
        if outside.size:
            raise LossError(f"node id {outside[0]} outside [0, {num_nodes})")
        if classes.size and (classes.min() < 0 or classes.max() >= num_classes):
            raise LossError(f"class id outside [0, {num_classes})")
        return cls("classification", num_nodes, nodes=nodes, classes=classes)

    @classmethod
    def ranking(cls, task: str, graph: Graph):
        """Ranking supervision from every edge of a training graph.

        Link prediction sources both endpoints (each undirected edge yields two
        oriented positives); recsys orients user -> item only.
        """
        if task not in ("link", "recsys"):
            raise LossError(f"ranking task must be link or recsys, got {task!r}")
        edges = graph.edges
        if task == "recsys":
            if graph.bipartite is None:
                raise LossError("recsys supervision needs a bipartite graph")
            pairs = edges  # canonical u < v puts the user first
            pool = np.arange(graph.bipartite[0], graph.num_nodes, dtype=np.int64)
        else:
            pairs = np.concatenate([edges, edges[:, ::-1]], axis=0)
            pool = np.arange(graph.num_nodes, dtype=np.int64)
        return cls(task, graph.num_nodes, positive_pairs=pairs, pool=pool, graph=graph)

    @property
    def size(self) -> int:
        if self.task == "classification":
            return int(self.nodes.shape[0])
        return int(self.positive_pairs.shape[0])


def cross_entropy(log_probs: Tensor, supervision: SupervisionSet) -> Tensor:
    """Mean negative log-likelihood over the supervised nodes."""
    if supervision.task != "classification":
        raise LossError("cross_entropy needs classification supervision")
    if supervision.size == 0:
        raise LossError("empty supervision")
    num_classes = log_probs.value.shape[1]
    if supervision.classes.max() >= num_classes:
        raise LossError(
            f"label {int(supervision.classes.max())} >= model classes {num_classes}"
        )
    rows = ad.gather_rows(log_probs, supervision.nodes)
    picked = ad.pick(rows, supervision.classes)
    return ad.scale(ad.mean_all(picked), -1.0)


def bpr_loss(pos_scores: Tensor, neg_scores: Tensor) -> Tensor:
    """Mean softplus(-(pos - neg)): the negative log-sigmoid of the margin."""
    if pos_scores.value.shape != neg_scores.value.shape:
        raise LossError(
            f"score shapes differ: {pos_scores.value.shape} vs {neg_scores.value.shape}"
        )
    if pos_scores.value.size == 0:
        raise LossError("empty score vectors")
    margin = ad.sub(pos_scores, neg_scores)
    return ad.mean_all(ad.softplus(ad.scale(margin, -1.0)))


def l2_regularize(embeddings: Tensor, weight: float) -> Tensor:
    """``weight`` times the mean squared row norm of the embedding matrix."""
    if weight < 0:
        raise LossError(f"weight must be nonnegative, got {weight}")
    n = embeddings.value.shape[0]
    sq = ad.sum_all(ad.hadamard(embeddings, embeddings))
    return ad.scale(sq, weight / n)


def sample_negatives(supervision: SupervisionSet, sources, seed: int) -> np.ndarray:
    """One uniform negative per source, avoiding each source's positives.

    Candidates are the supervision pool (items for recsys, all nodes for link
    prediction) minus the source's neighbors in the training graph; recsys
    sources are users. Deterministic per seed; raises if some source is
    linked to the entire pool.
    """
    if supervision.task == "classification":
        raise LossError("negative sampling applies to ranking supervision")
    sources = np.asarray(sources, dtype=np.int64)
    graph, pool = supervision.graph, supervision.pool
    pool_size = pool.shape[0]
    unique = np.unique(sources)
    full = unique[graph.degrees()[unique] >= pool_size]
    if full.size:
        raise LossError(f"source {int(full[0])} is linked to every candidate")

    rng = np.random.default_rng(seed)
    out = np.empty(sources.shape[0], dtype=np.int64)
    pending = np.arange(sources.shape[0])
    for _ in range(64):
        if pending.size == 0:
            return out
        draws = pool[rng.integers(pool_size, size=pending.size)]
        out[pending] = draws
        pending = pending[graph.has_edges(sources[pending], draws)]
    # rejection stalled (sources whose positives cover most of the pool):
    # sample the explicit complement, still uniform and seed-deterministic
    for j in pending:
        candidates = np.setdiff1d(pool, graph.neighbors(sources[j]), assume_unique=True)
        out[j] = candidates[rng.integers(candidates.size)]
    return out
