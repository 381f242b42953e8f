"""Reference oracles: the op chains that ``ad.dense`` replaced.

A sage layer concatenated its input with the neighbor aggregate as an op of
its own, then ran ``matmul``, ``add_bias`` and, between layers, ``relu``;
each task head ran the same chain on one input. Every op of the chain kept
its output on the tape.

Up to ``NUMERICS`` 1, a gcn layer was ``Â (h W) + b``: ``matmul``, ``spmm``
and ``add_bias``, then ``relu`` between layers, with layer 0 aggregating the
graph's features again on every pass. Since version 2 it is ``(Â h) W + b``.
"""
import numpy as np

from tailkit import autodiff as ad
from tailkit.graph import normalize_adjacency


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


def gcn_encode_chain(model, graph):
    """gcn ``models.encode`` of ``NUMERICS`` 1, every layer ``Â (h W) + b``."""
    adj = normalize_adjacency(graph, "renormalized")
    h = (model.params["embed.table"] if model.has_embedding_table
         else ad.Tensor(graph.features))
    layers = model.config.num_layers
    for layer in range(layers):
        w = model.params[f"enc{layer}.weight"]
        h = ad.add_bias(ad.spmm(adj, ad.matmul(h, w)), model.params[f"enc{layer}.bias"])
        if layer < layers - 1:
            h = ad.relu(h)
    return h
