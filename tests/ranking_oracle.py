"""Reference oracle: the per-source ranking loop that block selection replaced.

Up to the block kernel, ``tailkit.evaluation.recall_per_source`` scored and
selected one source at a time on the calling thread: a mask over the pool
for the source's positives and exclusions, one call of the score function on
the remaining candidates, and ``_top_k``'s partition plus a lowest-id fill of
the tie at the k-th score. It is kept here verbatim, with its two helpers, so
that the block kernel can be held to it byte for byte.
"""
import numpy as np

from tailkit.evaluation import EvalError


def recall_per_source(score_fn, sources, positives, pool, k=50, exclude=None) -> np.ndarray:
    """Per-source recall@k, in the order of ``sources``, one source at a time."""
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
