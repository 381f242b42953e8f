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

    Each draw is ``Generator.choice(i, p=w / w.sum())``'s arithmetic written
    out (see :func:`_attach`), so the graph is bit-for-bit the one ``choice``
    draws, without its per-call validation. Drawing stays quadratic in ``n``:
    only the full sequential ``cumsum`` over every existing node reproduces
    ``choice``'s draw bit for bit, and a sub-quadratic sampler would change
    every generated dataset.
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


def _attach(rng, communities, m_attach: int, community_bias: float) -> np.ndarray:
    """The ``(target, node)`` edges of preferential attachment, node by node.

    ``tables[c, t]`` is always ``(deg[t] + 1.0) * (community_bias if
    communities[t] == c else 1.0)``, the weight of target ``t`` for a node of
    community ``c``; after each node only the entries whose degree changed are
    recomputed. A target already drawn for the node is zeroed in place (and
    restored by that recomputation), so the ``m_attach`` targets are distinct.
    Each draw repeats ``Generator.choice(i, p=w / total)``: the cumulative sum
    of the probabilities, rescaled by its last entry, searched for one
    ``rng.random()``.
    """
    n = communities.shape[0]
    factors = np.where(communities == np.arange(communities.max() + 1)[:, None],
                       community_bias, 1.0)
    tables = factors.copy()  # every degree is 0, and (0 + 1.0) * factor == factor
    deg = np.zeros(n, dtype=np.int64)
    edges = np.empty((n - m_attach, m_attach, 2), dtype=np.int64)
    edges[:, :, 1] = np.arange(m_attach, n)[:, None]
    for i in range(m_attach, n):
        w = tables[communities[i], :i]
        chosen = edges[i - m_attach, :, 0]
        for j in range(m_attach):
            total = w.sum()
            if not 0.0 < total < np.inf:
                raise GraphError(f"node {i}'s attachment weights sum to {total}")
            cdf = (w / total).cumsum()
            cdf /= cdf[-1]
            chosen[j] = cdf.searchsorted(rng.random(), side="right")
            w[chosen[j]] = 0.0
        deg[chosen] += 1
        deg[i] += m_attach
        touched = np.append(chosen, i)
        tables[:, touched] = (deg[touched] + 1.0) * factors[:, touched]
    return edges.reshape(-1, 2)


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
