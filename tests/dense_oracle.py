"""Reference oracles: the ops and op chains that ``ad.dense`` replaced.

``add_bias`` and ``relu`` were ops of ``tailkit.autodiff`` until every encoder
layer became one ``dense`` record; they are kept here, with the vjps they had.

A sage layer concatenated its input with the neighbor aggregate as an op of
its own, then ran ``matmul``, ``add_bias`` and, between layers, ``relu``;
each task head ran the same chain on one input. Every op of the chain kept
its output on the tape.

Up to ``NUMERICS`` 1, a gcn layer was ``Â (h W) + b``: ``matmul``, ``spmm``
and ``add_bias``, then ``relu`` between layers, with layer 0 aggregating the
graph's features again on every pass. Since version 2 it is ``(Â h) W + b``.

Up to ``NUMERICS`` 2, a gat layer was ``C (h W) + b`` with attention logits
``(h W) a``: ``matmul``, ``edge_spmm`` on ``h W``, ``add_bias`` and ``relu``.
Since version 3 it is ``(C h) W + b`` with logits ``h (W a)``.
"""
import numpy as np

from tailkit import autodiff as ad
from tailkit.graph import normalize_adjacency


def add_bias(x, b):
    """The row-broadcast bias op, with the vjps it had."""
    if b.value.ndim != 1 or x.value.ndim != 2 or x.value.shape[1] != b.value.shape[0]:
        raise ad.AutodiffError(f"add_bias shapes {x.value.shape} + {b.value.shape}")
    return ad._apply(
        x.value + b.value[None, :],
        [(x, lambda u: u), (b, lambda u: u.sum(axis=0))],
    )


def relu(x):
    """The ReLU op, with the mask vjp it had."""
    mask = x.value > 0
    return ad._apply(np.where(mask, x.value, 0.0), [(x, lambda u: u * mask)])


_relu = relu  # ``dense_chain``'s keyword shadows the op's name


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
    h = add_bias(ad.matmul(x, w), b)
    return _relu(h) if relu else h


def _encoder_input(model, graph):
    return (model.params["embed.table"] if model.has_embedding_table
            else ad.Tensor(graph.features))


def gcn_encode_chain(model, graph):
    """gcn ``models.encode`` of ``NUMERICS`` 1, every layer ``Â (h W) + b``."""
    adj = normalize_adjacency(graph, "renormalized")
    h = _encoder_input(model, graph)
    layers = model.config.num_layers
    for layer in range(layers):
        w = model.params[f"enc{layer}.weight"]
        h = add_bias(ad.spmm(adj, ad.matmul(h, w)), model.params[f"enc{layer}.bias"])
        if layer < layers - 1:
            h = relu(h)
    return h


def gat_encode_chain(model, graph):
    """gat ``models.encode`` of ``NUMERICS`` 2, every layer ``C (h W) + b``
    with attention logits ``(h W) a``."""
    adj = normalize_adjacency(graph, "renormalized")
    h = _encoder_input(model, graph)
    layers = model.config.num_layers
    for layer in range(layers):
        wh = ad.matmul(h, model.params[f"enc{layer}.weight"])
        e_src = ad.matmul(wh, model.params[f"enc{layer}.att_src"])
        e_dst = ad.matmul(wh, model.params[f"enc{layer}.att_dst"])
        logits = ad.leaky_relu(
            ad.add(ad.gather_rows(e_src, adj.rows), ad.gather_rows(e_dst, adj.targets)),
            0.2,
        )
        coeff = ad.segment_softmax(logits, adj)
        h = add_bias(ad.edge_spmm(coeff, wh, adj), model.params[f"enc{layer}.bias"])
        if layer < layers - 1:
            h = relu(h)
    return h
