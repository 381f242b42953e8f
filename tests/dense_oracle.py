"""Reference oracle: the op chain that ``ad.dense`` replaced.

A sage layer concatenated its input with the neighbor aggregate as an op of
its own, then ran ``matmul``, ``add_bias`` and, between layers, ``relu``;
each task head ran the same chain on one input. Every op of the chain kept
its output on the tape.
"""
import numpy as np

from tailkit import autodiff as ad


def concat_cols(a, b):
    """The column concatenation op, with the slicing vjp it had."""
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[0] != b.value.shape[0]:
        raise ad.AutodiffError(f"concat_cols shapes {a.value.shape} | {b.value.shape}")
    ka = a.value.shape[1]
    return ad._apply(
        np.concatenate([a.value, b.value], axis=1),
        [(a, lambda u: u[:, :ka]), (b, lambda u: u[:, ka:])],
    )


def dense_chain(parts, w, b, relu=False):
    """``ad.dense`` as the four ops it replaced."""
    x, *rest = parts
    for part in rest:
        x = concat_cols(x, part)
    h = ad.add_bias(ad.matmul(x, w), b)
    return ad.relu(h) if relu else h
