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
    the same uniform (see :func:`_attach`), so the graph is bit-for-bit the
    one ``choice`` draws, without its per-call validation. What stays
    quadratic: a draw sums the ``i / 64`` block sums below node ``i``, so
    drawing is still O(n²), with 1/64 of the full ``cumsum``'s work. What
    costs O(i) per draw, as before: the first 2,048 nodes, where the full
    ``cumsum`` is faster; every draw when ``community_bias`` lies outside
    ``[2**-400, 2**400]``; and the rare draw whose uniform falls within a
    proven rounding bound of a boundary (:func:`_block_draw`).
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


# Draws are located from sums of blocks of this many weights.
_BLOCK = 64
# Below this node the full cumsum is faster than the block sums and their
# upkeep: of crossovers from 0 to 4,096, this one drew n=4,000 and n=8,000
# graphs fastest.
_CROSSOVER = 2048
# Twice float64's unit roundoff: _block_draw's margin is twice the rounding
# bound it has to cover.
_EPS = 2.0 ** -52
# A bias in this range keeps every weight and every w / total normal and far
# from overflow, as _block_draw's rounding bound assumes.
_BIAS_RANGE = (2.0 ** -400, 2.0 ** 400)


def _attach(rng, communities, m_attach: int, community_bias: float) -> np.ndarray:
    """The ``(target, node)`` edges of preferential attachment, node by node.

    ``tables[c, t]`` is always ``(deg[t] + 1.0) * (community_bias if
    communities[t] == c else 1.0)``, the weight of target ``t`` for a node of
    community ``c``; after each node only the entries whose degree changed are
    recomputed. A target already drawn for the node is zeroed in place (and
    restored by that recomputation), so the ``m_attach`` targets are distinct.
    Each draw takes one ``rng.random()`` and returns the index
    ``Generator.choice(i, p=w / total)`` returns for it (:func:`_draw`).

    From node ``_CROSSOVER`` on (if ``community_bias`` lies in
    ``_BIAS_RANGE``), ``sums[c, b]`` is the ``np.sum`` of block ``b`` of
    ``tables[c]``, recomputed for every block whose weights changed, and a
    draw is located from them (:func:`_block_draw`), which runs
    :func:`_draw` only for a draw it cannot prove equal to :func:`_draw`'s.
    """
    n = communities.shape[0]
    num_blocks = -(-n // _BLOCK)
    factors = np.where(communities == np.arange(communities.max() + 1)[:, None],
                       community_bias, 1.0)
    tables = np.zeros((factors.shape[0], num_blocks * _BLOCK))
    tables[:, :n] = factors  # every degree is 0, and (0 + 1.0) * factor == factor
    blocks = tables.reshape(factors.shape[0], num_blocks, _BLOCK)
    sums = None
    start = (max(_CROSSOVER, m_attach)
             if _BIAS_RANGE[0] <= community_bias <= _BIAS_RANGE[1] else n)
    deg = np.zeros(n, dtype=np.int64)
    edges = np.empty((n - m_attach, m_attach, 2), dtype=np.int64)
    edges[:, :, 1] = np.arange(m_attach, n)[:, None]
    touched = np.empty(m_attach + 1, dtype=np.int64)
    for i in range(m_attach, n):
        if i == start:
            sums = blocks.sum(axis=2)
        c = communities[i]
        w = tables[c, :i]
        chosen = edges[i - m_attach, :, 0]
        for j in range(m_attach):
            u = rng.random()
            chosen[j] = _draw(w, u) if sums is None else _block_draw(w, sums[c], u)
            w[chosen[j]] = 0.0
            if sums is not None and j + 1 < m_attach:  # the next draw skips it
                b = chosen[j] // _BLOCK
                sums[c, b] = blocks[c, b].sum()
        deg[chosen] += 1
        deg[i] += m_attach
        touched[:m_attach], touched[m_attach] = chosen, i
        tables[:, touched] = (deg[touched] + 1.0) * factors[:, touched]
        if sums is not None:
            b = touched // _BLOCK
            sums[:, b] = blocks[:, b].sum(axis=2)
    return edges.reshape(-1, 2)


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


def _block_draw(w, sums, u: float) -> int:
    """The index ``_draw(w, u)`` returns, found from ``sums`` (the sums of
    ``w``'s blocks of ``_BLOCK`` weights) in O(i / _BLOCK + _BLOCK); where
    rounding could make the two differ, ``_draw(w, u)`` itself.

    ``S~_k``, the computed sum of ``w`` up to index ``k``, is built from the
    sums of the full blocks below ``k``'s block and a ``cumsum`` inside it;
    ``target = u * total`` is searched for among them. Why accepting ``k`` only when
    ``S~_k - target`` and ``target - S~_(k-1)`` both exceed ``margin`` gives
    ``_draw``'s index: let ``W_k`` be the exact sum of ``w[:k + 1]``, ``W =
    W_(i-1)``, ``eps`` float64's unit roundoff and ``g(n) = n eps / (1 - n
    eps)``. All weights are nonnegative, and with the bias in ``_BIAS_RANGE``
    every weight and every ``w / total`` is normal, so each rounding is
    relative.

    1. ``_draw`` returns the ``k`` with ``cdf[k - 1] <= u < cdf[k]``. Each
       ``w_t / total`` carries one rounding, the sequential ``cumsum`` up to
       ``k`` more, and the division by the last entry (``i`` roundings) one
       more and cancels ``total``; so ``cdf[k] = (W_k / W)(1 + theta)`` with
       ``|theta| <= g(2i + 1)``, and ``|cdf[k] - W_k / W| <= g(2i + 2)``.
    2. A weight of a full block below ``k``'s block meets at most ``_BLOCK -
       1`` roundings in its block sum, ``full`` in the ``cumsum`` over block
       sums and one where that base is added; a weight of ``k``'s own block
       (or of the partial tail, for ``total``) at most ``_BLOCK - 1`` in its
       ``cumsum`` (or sum) and one more. So with ``m = _BLOCK + full + 1``,
       every ``S~_k`` and ``total`` lie within ``g(m) W`` of ``W_k`` and
       ``W``, and ``target`` within ``g(m + 1) W`` of ``u W``.
    3. If both differences exceed ``(2 g(m + 1) + g(2i + 2)) W``, then
       ``W_(k-1) / W + g(2i + 2) < u < W_k / W - g(2i + 2)``, so
       ``cdf[k - 1] < u < cdf[k]`` by 1, and ``_draw`` returns ``k``.
       ``margin = (2(m + 1) + 2i + 4) * 2 eps * total`` is twice that bound;
       the factor 2 covers ``g(n)`` against ``n eps``, ``total`` against
       ``W``, and the roundings of the two differences and of ``margin``.

    A zero weight (a target already drawn) has ``S~_k == S~_(k-1)`` and is
    never accepted. A uniform this close to a boundary is rare (about
    ``i * 2 margin / total`` per draw, below 1e-6 at ``i = 20,000``).
    """
    i = w.shape[0]
    full = i // _BLOCK
    prefix = sums[:full].cumsum()
    total = (prefix[-1] if full else 0.0) + w[full * _BLOCK:].sum()
    target = u * total
    b = prefix.searchsorted(target, side="right")
    base = prefix[b - 1] if b else 0.0
    seg = w[b * _BLOCK:(b + 1) * _BLOCK].cumsum()
    seg += base
    k = seg.searchsorted(target, side="right")
    margin = (2 * (_BLOCK + full + i) + 8) * _EPS * total
    if (k < seg.shape[0] and seg[k] - target > margin
            and target - (seg[k - 1] if k else base) > margin):
        return b * _BLOCK + k
    return _draw(w, u)


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
