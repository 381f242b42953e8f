"""Synthetic benchmark graphs: scale-free community graphs and bipartite interactions.

Both generators are deterministic per seed and sized for desk-scale experiments;
the knobs beyond the required signature are keyword-only with defaults tuned so
that features alone are informative but imperfect, and graph structure adds
signal that low-degree nodes receive less of.
"""
from __future__ import annotations

import numpy as np

from .graph import Graph, GraphError, LabelSet, build_graph

__all__ = ["generate_scale_free", "generate_bipartite"]


def generate_scale_free(
    n: int,
    m_attach: int,
    feat_dim: int = 16,
    num_classes: int = 2,
    label_noise: float = 0.0,
    seed: int = 0,
    *,
    separation: float = 2.0,
    feature_noise: float = 1.0,
    community_bias: float = 4.0,
) -> tuple[Graph, LabelSet]:
    """Preferential-attachment graph with planted communities.

    Starts from ``m_attach`` edgeless seed nodes; every later node attaches to
    exactly ``m_attach`` distinct existing nodes, so the edge count is exactly
    ``m_attach * (n - m_attach)``. Attachment probability is proportional to
    ``degree + 1``, multiplied by ``community_bias`` for same-community targets
    (homophily). Node features are drawn from a community-specific Gaussian:
    community c has mean ``separation * e_c`` and isotropic ``feature_noise``
    standard deviation. Labels equal communities, except a ``label_noise``
    fraction of nodes reassigned to a different class uniformly.

    Every draw returns what ``Generator.choice(i, p=w / w.sum())`` draws for
    the same uniform (:func:`_attach`), so the graph is bit-for-bit the one
    ``choice`` draws, without its per-call validation, and in O(n log n) from
    exact integer prefix sums. A draw costs O(i) only when ``community_bias``
    lies outside ``[2**-400, 2**400]``, or in the rare case that its uniform
    falls within a proven rounding bound of a boundary.
    """
    if m_attach < 1 or n <= m_attach:
        raise GraphError(f"need n > m_attach >= 1, got n={n}, m_attach={m_attach}")
    if num_classes < 2:
        raise GraphError(f"num_classes must be >= 2, got {num_classes}")
    if feat_dim < num_classes:
        raise GraphError(
            f"feat_dim={feat_dim} must be >= num_classes={num_classes} "
            "(community means are axis-aligned)"
        )
    if not 0.0 <= label_noise <= 1.0:
        raise GraphError(f"label_noise must be in [0, 1], got {label_noise}")
    if not 0.0 < community_bias < np.inf:
        raise GraphError(f"community_bias must be positive and finite, got {community_bias}")

    rng = np.random.default_rng(seed)
    communities = rng.integers(num_classes, size=n)
    # a weight that overflows to inf is refused by _draw's check on the sum
    with np.errstate(over="ignore"):
        edges = _attach(rng, communities, m_attach, community_bias)

    means = np.zeros((num_classes, feat_dim))
    means[np.arange(num_classes), np.arange(num_classes)] = separation
    features = means[communities] + feature_noise * rng.standard_normal((n, feat_dim))

    labels = communities.copy()
    num_flip = int(np.floor(label_noise * n))
    if num_flip:
        flip = rng.choice(n, size=num_flip, replace=False)
        shift = rng.integers(1, num_classes, size=num_flip)
        labels[flip] = (labels[flip] + shift) % num_classes

    graph = build_graph(edges, n, features=features)
    return graph, LabelSet(labels, num_classes)


# Twice float64's unit roundoff, the unit of _Weights.draw's margin.
_EPS = 2.0 ** -52
# A bias in this range keeps every weight and every w / total normal and far
# from overflow, as _Weights.draw's rounding bound assumes.
_BIAS_RANGE = (2.0 ** -400, 2.0 ** 400)


def _attach(rng, communities, m_attach: int, community_bias: float) -> np.ndarray:
    """The ``(target, node)`` edges of preferential attachment, node by node.

    Node ``i`` of community ``c`` draws each target from ``w``: ``deg + 1`` of
    every earlier node, times ``community_bias`` on ``c``'s members, with the
    targets drawn for ``i`` so far at 0, so they are distinct. Each draw
    returns the index ``Generator.choice(i, p=w / w.sum())`` returns for its
    uniform (:meth:`_Weights.draw`). The uniforms are drawn at once: the same
    doubles, and the same generator state after, as one ``rng.random()`` each.
    """
    n = communities.shape[0]
    weights = _Weights(communities, float(community_bias))
    for t in range(m_attach):
        weights.add(t, 1)
    uniforms = iter(rng.random((n - m_attach) * m_attach).tolist())
    edges = np.empty((n - m_attach, m_attach, 2), dtype=np.int64)
    edges[:, :, 1] = np.arange(m_attach, n)[:, None]
    comm, weight, add, draw = weights.comm, weights.weight, weights.add, weights.draw
    drawn = [0] * m_attach
    for i in range(m_attach, n):
        c = comm[i]
        chosen = edges[i - m_attach, :, 0]
        for j in range(m_attach):
            k = chosen[j] = draw(c, i, next(uniforms))
            drawn[j] = weight[k]
            if j + 1 < m_attach:  # out until the degree update, one higher
                add(k, -drawn[j])
        for k, w in zip(chosen.tolist(), drawn):
            add(k, w + 1 - weight[k])
        add(i, m_attach + 1)
    return edges.reshape(-1, 2)


class _Weights:
    """Attachment weights as exact Python ints: ``weight[t]`` is node ``t``'s,
    ``tree`` a Fenwick (binary indexed) tree of their prefix sums, and
    ``trees[c]`` one over community ``c``'s members alone. A prefix sum and a
    weight update each take O(log n)."""

    def __init__(self, communities, bias: float):
        self.communities, self.comm, self.bias = communities, communities.tolist(), bias
        self.size = 1 << (communities.shape[0] - 1).bit_length()  # a power of two >= n
        self.weight = [0] * communities.shape[0]
        self.tree = [0] * (self.size + 1)
        self.trees = [[0] * (self.size + 1) for _ in range(communities.max() + 1)]

    def add(self, t: int, x: int) -> None:
        """Add ``x`` to node ``t``'s weight."""
        self.weight[t] += x
        tree, ctree, size = self.tree, self.trees[self.comm[t]], self.size
        t += 1
        while t <= size:
            tree[t] += x
            ctree[t] += x
            t += t & -t

    def draw(self, c: int, i: int, u: float) -> int:
        """The index ``_draw(w, u)`` returns for ``w``, the first ``i``
        weights times the bias on community ``c``'s members, located by one
        O(log n) descent over ``tree`` and ``trees[c]``; ``_draw``'s own where
        rounding could make the two differ, or the bias is outside
        ``_BIAS_RANGE``.

        Let ``C_k`` be the sum of ``trees[c]`` up to index ``k``, ``D_k`` that
        of ``tree``, ``N_k = D_k - C_k``, ``W_k = N_k + bias * C_k`` (the
        exact sum of ``w[:k + 1]``) and ``W = W_(i-1)``. The descent finds the
        ``k`` with ``S~_(k-1) <= target < S~_k``, for ``S~_k = fl(N_k +
        fl(bias * C_k))`` (monotone in ``k``), ``total = S~_(i-1)`` and
        ``target = fl(u * total)``. Why accepting ``k`` only when ``S~_k -
        target`` and ``target - S~_(k-1)`` both exceed ``margin`` gives
        ``_draw``'s index, with ``eps`` float64's unit roundoff and ``g(n) = n
        eps / (1 - n eps)``:

        1. ``_draw`` returns the ``k`` with ``cdf[k - 1] <= u < cdf[k]``. Each
           ``w_t / total`` carries one rounding, the sequential ``cumsum`` up
           to ``k`` more, and the division by the last entry (``i``
           roundings) one more and cancels ``total``; so ``|cdf[k] - W_k / W|
           <= g(2i + 2)``.
        2. ``N_k``, ``C_k`` and the totals are exact integers below 2**53:
           all weights sum to ``n + 2 m (n - m) <= n + n**2 / 2``, and the
           config caps ``num_nodes`` at 2**24. So each converts to float
           exactly, and the only roundings are two in each ``S~_k`` and one in
           ``target``. Both terms of ``S~_k`` are nonnegative, and with the
           bias in ``_BIAS_RANGE`` ``bias * C_k`` is 0 or normal; so ``|S~_k
           - W_k| <= g(2) W_k``, and ``|target - u W| <= g(3) W``. (Past ``n
           = 2**26`` each conversion adds a rounding, which the margin covers.)
        3. If both differences exceed ``(g(2) + g(3) + g(2i + 2)) W``, then
           ``W_(k-1) / W + g(2i + 2) < u < W_k / W - g(2i + 2)``, so
           ``cdf[k - 1] < u < cdf[k]`` by 1, and ``_draw`` returns ``k``.
           ``margin = (2i + 16) * 2 * _EPS * total`` is over four times that
           bound, which covers ``g(n)`` against ``n eps``, ``total`` against
           ``W``, and the roundings of the two differences and of ``margin``.

        A uniform this close to a boundary is rare (about ``i * 2 margin /
        total`` per draw, below 1e-6 at ``i = 20,000``).
        """
        bias, step = self.bias, self.size
        if _BIAS_RANGE[0] <= bias <= _BIAS_RANGE[1]:
            tree, ctree = self.tree, self.trees[c]
            total = (tree[step] - ctree[step]) + bias * ctree[step]
            target = u * total
            k = d = dc = 0
            while step > 1:
                step >>= 1
                nd, nc = d + tree[k + step], dc + ctree[k + step]
                if (nd - nc) + bias * nc <= target:
                    k, d, dc = k + step, nd, nc
            if k < i:  # else target >= total
                margin = (2 * i + 16) * 2 * _EPS * total
                wk = self.weight[k]
                nc = dc + wk if self.comm[k] == c else dc
                if ((d + wk - nc) + bias * nc - target > margin
                        and target - ((d - dc) + bias * dc) > margin):
                    return k
        w = np.array(self.weight[:i], dtype=np.float64)
        w[self.communities[:i] == c] *= bias
        return _draw(w, u)


def _draw(w, u: float) -> int:
    """The index ``Generator.choice(w.size, p=w / w.sum())`` draws for the
    uniform ``u``: the cumulative sum of the probabilities, rescaled by its
    last entry, searched for ``u``. O(i) for ``i = w.size``."""
    total = w.sum()
    if not 0.0 < total < np.inf:
        raise GraphError(f"node {w.shape[0]}'s attachment weights sum to {total}")
    cdf = (w / total).cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(u, side="right")


def generate_bipartite(
    num_users: int,
    num_items: int,
    *,
    exponent: float = 1.8,
    min_interactions: int = 2,
    max_interactions: int | None = None,
    num_clusters: int = 4,
    affinity: float = 6.0,
    seed: int = 0,
) -> Graph:
    """User-item interaction graph with power-law user activity.

    Per-user interaction counts follow a truncated discrete power law
    ``p(k) ∝ k ** -exponent`` on ``[min_interactions, max_interactions]``.
    Users and items carry planted cluster latents (near one of ``num_clusters``
    orthogonal directions); a user's items are drawn without replacement with
    probability proportional to ``exp(affinity * <user latent, item latent>)``,
    so same-cluster items dominate. Item ids are offset by ``num_users``.
    """
    if num_users < 1 or num_items < 1:
        raise GraphError("need at least one user and one item")
    if num_clusters < 1 or num_clusters > min(8, num_items):
        raise GraphError(f"num_clusters={num_clusters} out of range")
    if max_interactions is None:
        max_interactions = max(min_interactions, num_items // 4)
    max_interactions = min(max_interactions, num_items)
    if min_interactions < 1 or min_interactions > max_interactions:
        raise GraphError(
            f"bad interaction bounds [{min_interactions}, {max_interactions}]"
        )

    rng = np.random.default_rng(seed)
    ks = np.arange(min_interactions, max_interactions + 1, dtype=np.float64)
    pmf = ks ** -exponent
    pmf /= pmf.sum()
    counts = rng.choice(ks.astype(np.int64), size=num_users, p=pmf)

    latent_dim = 8
    basis = np.zeros((num_clusters, latent_dim))
    basis[np.arange(num_clusters), np.arange(num_clusters)] = 1.0
    user_clusters = rng.integers(num_clusters, size=num_users)
    item_clusters = rng.integers(num_clusters, size=num_items)
    user_latents = basis[user_clusters] + 0.1 * rng.standard_normal((num_users, latent_dim))
    item_latents = basis[item_clusters] + 0.1 * rng.standard_normal((num_items, latent_dim))

    edges = []
    for u in range(num_users):
        logits = affinity * item_latents @ user_latents[u]
        logits -= logits.max()
        p = np.exp(logits)
        p /= p.sum()
        items = rng.choice(num_items, size=int(counts[u]), replace=False, p=p)
        for it in items:
            edges.append((u, num_users + int(it)))

    return build_graph(
        np.asarray(edges, dtype=np.int64),
        num_users + num_items,
        bipartite=(num_users, num_items),
    )
