"""Undirected graph container, degree-aware edge ops, and adjacency normalization.

Graphs are simple (no self-loops, no multi-edges) and stored twice: a canonical
edge array with ``u < v`` per row, and a CSR neighbor structure with both
directions materialized. All node ids are dense integers in ``[0, num_nodes)``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TailkitError

__all__ = [
    "Graph",
    "GraphError",
    "LabelSet",
    "NormalizedAdjacency",
    "build_graph",
    "drop_edges",
    "normalize_adjacency",
]

NORMALIZATIONS = ("renormalized", "row-mean", "none")
MAX_NODES = 3_037_000_499  # isqrt(2**63 - 1): node-pair keys below num_nodes**2 fit in int64


class GraphError(TailkitError):
    """Raised for malformed graph input (bad ids, self-loops, partition errors)."""


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph.

    Attributes
    ----------
    num_nodes:
        Size of the node universe. Isolated nodes are allowed.
    edges:
        ``(E, 2)`` int64 array, one undirected edge per row, canonicalized to
        ``u < v`` and sorted lexicographically.
    csr_offsets, csr_targets:
        Compressed sparse rows over both edge directions; the neighbors of
        node ``i`` are ``csr_targets[csr_offsets[i]:csr_offsets[i + 1]]``,
        sorted ascending.
    features:
        Optional ``(num_nodes, dim)`` float64 node feature matrix.
    bipartite:
        ``(num_users, num_items)`` when the graph is a user-item graph; users
        occupy ids ``[0, num_users)`` and items ``[num_users, num_nodes)``.
    operators:
        The aggregation operators built from this graph by normalization mode,
        the gcn and sage encoders' first-layer aggregates of ``features`` by
        ``("input", variant)``, filled in by ``models.encode``, and the sorted
        pair keys of :meth:`has_edges` under ``"pair_keys"``: each is built
        once, freed with the graph.
    """

    num_nodes: int
    edges: np.ndarray
    csr_offsets: np.ndarray
    csr_targets: np.ndarray
    features: np.ndarray | None = None
    bipartite: tuple[int, int] | None = None
    operators: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    def neighbors(self, node: int) -> np.ndarray:
        if not 0 <= node < self.num_nodes:
            raise GraphError(f"node {node} out of range [0, {self.num_nodes})")
        return self.csr_targets[self.csr_offsets[node]:self.csr_offsets[node + 1]]

    def degrees(self) -> np.ndarray:
        """Degree of every node as an int64 array."""
        return np.diff(self.csr_offsets)

    def has_edges(self, u, v) -> np.ndarray:
        """Whether each pair ``(u[i], v[i])`` is an edge, in either orientation.

        One ``searchsorted`` over the CSR's sorted pair keys ``i * num_nodes +
        j``, built on the first call and kept in :attr:`operators`.
        """
        u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
        for ids in (u, v):
            bad = (ids < 0) | (ids >= self.num_nodes)
            if bad.any():
                raise GraphError(f"node {int(ids[bad][0])} out of range [0, {self.num_nodes})")
        keys = self.operators.get("pair_keys")
        if keys is None:
            rows = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees())
            keys = self.operators["pair_keys"] = rows * self.num_nodes + self.csr_targets
        query = u * self.num_nodes + v
        if keys.size == 0:
            return np.zeros(query.shape, dtype=bool)
        return keys[np.minimum(np.searchsorted(keys, query), keys.size - 1)] == query

    def edge_hash(self) -> str:
        """Stable hex digest of the edge structure (used to tag eval reports)."""
        import hashlib

        h = hashlib.sha256()
        h.update(np.int64(self.num_nodes).tobytes())
        h.update(np.ascontiguousarray(self.edges, dtype=np.int64).tobytes())
        return h.hexdigest()[:16]


def _csr(num_nodes: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR offsets and targets of the distinct int64 pairs ``(src, dst)``:
    sorting their scalar keys orders them by source, then target."""
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=offsets[1:])
    return offsets, np.sort(src * num_nodes + dst) % num_nodes


def _csr_from_edges(num_nodes: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return _csr(num_nodes, np.concatenate([edges[:, 0], edges[:, 1]]),
                np.concatenate([edges[:, 1], edges[:, 0]]))


def build_graph(
    edge_list,
    num_nodes: int,
    features=None,
    bipartite: tuple[int, int] | None = None,
) -> Graph:
    """Validate and canonicalize an edge list into a :class:`Graph`.

    Edges may appear in either orientation and with duplicates; the result is
    deduplicated and stored with ``u < v``. Self-loops and out-of-range ids are
    errors, as are bipartite graphs with an edge inside one partition.
    """
    if num_nodes < 0:
        raise GraphError(f"num_nodes must be nonnegative, got {num_nodes}")
    if num_nodes > MAX_NODES:
        raise GraphError(f"num_nodes {num_nodes} exceeds {MAX_NODES}, the most for "
                         "which a node pair's key u * num_nodes + v fits in int64")
    edges = np.asarray(edge_list, dtype=np.int64).reshape(-1, 2)
    if edges.size:
        if edges.min() < 0 or edges.max() >= num_nodes:
            bad = edges[(edges < 0).any(axis=1) | (edges >= num_nodes).any(axis=1)][0]
            raise GraphError(
                f"edge ({bad[0]}, {bad[1]}) has an endpoint outside [0, {num_nodes})"
            )
        loops = edges[:, 0] == edges[:, 1]
        if loops.any():
            raise GraphError(f"self-loop at node {int(edges[loops][0, 0])}")
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        keys = np.unique(lo * num_nodes + hi)
        edges = np.stack([keys // num_nodes, keys % num_nodes], axis=1)
    else:
        edges = np.empty((0, 2), dtype=np.int64)

    if bipartite is not None:
        num_users, num_items = int(bipartite[0]), int(bipartite[1])
        if num_users < 0 or num_items < 0 or num_users + num_items != num_nodes:
            raise GraphError(
                f"bipartite sizes {bipartite} do not sum to num_nodes={num_nodes}"
            )
        if edges.size:
            crosses = (edges[:, 0] < num_users) & (edges[:, 1] >= num_users)
            if not crosses.all():
                bad = edges[~crosses][0]
                raise GraphError(
                    f"edge ({bad[0]}, {bad[1]}) does not cross the user/item partition"
                )
        bipartite = (num_users, num_items)

    if features is not None:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] != num_nodes:
            raise GraphError(
                f"features must be (num_nodes, dim), got shape {features.shape}"
            )

    offsets, targets = _csr_from_edges(num_nodes, edges)
    return Graph(num_nodes, edges, offsets, targets, features, bipartite)


def drop_edges(graph: Graph, alpha: float, seed: int) -> Graph:
    """Remove exactly ``floor(alpha * num_edges)`` undirected edges at random.

    Edges are chosen uniformly without replacement with a generator seeded by
    ``seed``, so the result is deterministic per ``(graph, alpha, seed)``. Both
    directions of a dropped edge disappear together; features and the bipartite
    partition carry over unchanged.
    """
    if not 0.0 <= alpha <= 1.0:
        raise GraphError(f"alpha must be in [0, 1], got {alpha}")
    num_drop = int(np.floor(alpha * graph.num_edges))
    if num_drop == 0:
        return graph
    rng = np.random.default_rng(seed)
    dropped = rng.choice(graph.num_edges, size=num_drop, replace=False)
    keep = np.ones(graph.num_edges, dtype=bool)
    keep[dropped] = False
    kept_edges = graph.edges[keep]
    offsets, targets = _csr_from_edges(graph.num_nodes, kept_edges)
    return Graph(
        graph.num_nodes, kept_edges, offsets, targets, graph.features, graph.bipartite
    )


@dataclass(frozen=True)
class NormalizedAdjacency:
    """Sparse aggregation operator in CSR form, built by
    :func:`normalize_adjacency`. ``rows`` repeats each row index per stored
    entry. Its arrays are read-only views: one operator serves every pass
    over its graph, so an in-place write would corrupt them all.

    The support (the set of stored (i, j) pairs) is symmetric in every mode:
    it is an undirected graph plus diagonal entries. ``mirror[e]`` is the
    index of the entry (j, i) for entry ``e`` = (i, j), so the transpose is
    this same CSR with ``weights[mirror]`` as its weights, and Aᵀ·X is a
    segment-sum like A·X.
    """

    num_nodes: int
    offsets: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    rows: np.ndarray = field(repr=False)
    mirror: np.ndarray = field(repr=False)

    @property
    def nnz(self) -> int:
        return int(self.targets.shape[0])


def normalize_adjacency(graph: Graph, mode: str = "renormalized") -> NormalizedAdjacency:
    """Build the aggregation operator used by the encoders.

    ``renormalized``: entry (i, j) is ``1 / sqrt(d̃_i · d̃_j)`` over the
    self-looped support, with ``d̃ = degree + 1``; symmetric, and exactly the
    identity on an edgeless graph. ``row-mean``: each neighbor of i gets
    ``1 / degree(i)``; an isolated node gets a single self-entry of 1 so every
    row sums to 1. ``none``: unit weights on the raw neighbor structure.
    """
    if mode not in NORMALIZATIONS:
        raise GraphError(f"unknown normalization {mode!r}, expected one of {NORMALIZATIONS}")
    n = graph.num_nodes
    deg = graph.degrees()
    offsets, targets = graph.csr_offsets, graph.csr_targets
    rows = np.repeat(np.arange(n, dtype=np.int64), deg)
    # diagonal entries: on every node (renormalized), on isolated nodes (row-mean)
    diag = (np.arange(n, dtype=np.int64) if mode == "renormalized" else
            np.flatnonzero(deg == 0) if mode == "row-mean" else np.empty(0, np.int64))
    if diag.size:
        offsets, targets = _csr(n, np.concatenate([rows, diag]), np.concatenate([targets, diag]))
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    mirror = np.argsort(targets * n + rows)

    if mode == "renormalized":
        inv_sqrt = 1.0 / np.sqrt(deg.astype(np.float64) + 1.0)
        weights = inv_sqrt[rows] * inv_sqrt[targets]
    elif mode == "row-mean":
        weights = (1.0 / np.maximum(deg, 1))[rows]
    else:
        weights = np.ones(targets.shape[0], dtype=np.float64)
    arrays = [a.view() for a in (offsets, targets, weights, rows, mirror)]
    for a in arrays:  # views: offsets and targets may be the graph's own CSR
        a.flags.writeable = False
    return NormalizedAdjacency(n, *arrays)


@dataclass
class LabelSet:
    """Ground-truth class labels for a node universe.

    ``labels[i]`` is the class of node i, or -1 when unknown. The optional
    index arrays are filled in by the split protocols and consumed by
    pseudo-labeling.
    """

    labels: np.ndarray
    num_classes: int
    train_labeled: np.ndarray | None = None
    validation: np.ndarray | None = None
    unlabeled: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1:
            raise GraphError(f"labels must be 1-d, got shape {self.labels.shape}")
        if self.num_classes < 1:
            raise GraphError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.labels.size and self.labels.max() >= self.num_classes:
            raise GraphError(
                f"label {int(self.labels.max())} >= num_classes={self.num_classes}"
            )

    @property
    def num_nodes(self) -> int:
        return int(self.labels.shape[0])

    def with_splits(
        self, train_labeled: np.ndarray, validation: np.ndarray, unlabeled: np.ndarray
    ) -> "LabelSet":
        return LabelSet(
            self.labels.copy(),
            self.num_classes,
            np.asarray(train_labeled, dtype=np.int64),
            np.asarray(validation, dtype=np.int64),
            np.asarray(unlabeled, dtype=np.int64),
        )
