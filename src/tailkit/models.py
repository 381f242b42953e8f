"""Encoders and task heads built on the tape engine.

Five encoder variants share one weights-per-layer layout: ``gcn`` applies the
symmetric renormalized adjacency ``Â``; the ``sage-*`` variants concatenate
each node's own representation with a neighbor aggregate (mean, elementwise
max, or sum) before the linear transform; ``gat`` learns single-head attention
over each node's neighborhood plus itself (LeakyReLU slope 0.2, coefficients
normalized to sum to 1). ReLU sits between layers, never after the last.

Heads: a linear + log-softmax classifier, a two-layer MLP link scorer on the
Hadamard product of endpoint embeddings (hidden width = embedding width), and
an inner-product scorer for user-item graphs. Featureless graphs get a
trainable shallow embedding table as encoder input.

gcn layers (``(Â h) W + b``), sage layers (``[h | agg] W + b``), with the ReLU
between layers, and the linear layers of both heads run through
``autodiff.dense``: one tape record each, which keeps only its output and the
ReLU's bool mask. Only gat, whose attention reads ``h W``, keeps separate ops.
"""
from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import write_atomic
from .errors import TailkitError, check_fields
from .graph import Graph, normalize_adjacency

__all__ = [
    "EncoderConfig",
    "Model",
    "ModelError",
    "TASKS",
    "VARIANTS",
    "classify_embeddings",
    "encode",
    "init_model",
    "load_model",
    "save_model",
    "score_pairs",
]

VARIANTS = ("gcn", "sage-mean", "sage-max", "sage-sum", "gat")
TASKS = ("classification", "link", "recsys")
# the aggregation operator of each variant; gat reads only its support, and
# sage-max pools over the graph's own neighbor lists
_NORMALIZATIONS = {"gcn": "renormalized", "gat": "renormalized",
                   "sage-mean": "row-mean", "sage-sum": "none"}


class ModelError(TailkitError):
    """Invalid model configuration or misuse of a task head."""


_WIDTH = {"minimum": 1, "maximum": 2**16}


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture of the message-passing encoder; each field's bounds are
    its metadata, which the config schema reads too."""

    variant: str = field(metadata={"choices": VARIANTS})
    input_dim: int = field(metadata=_WIDTH)
    hidden_dim: int = field(metadata=_WIDTH)
    output_dim: int = field(metadata=_WIDTH)
    num_layers: int = field(default=3, metadata={"minimum": 1, "maximum": 2**10})

    def __post_init__(self) -> None:
        check_fields(self, ModelError)

    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [self.input_dim] + [self.hidden_dim] * (self.num_layers - 1) + [self.output_dim]
        return list(zip(dims[:-1], dims[1:]))


@dataclass
class Model:
    """Parameter container for an encoder plus one task head."""

    config: EncoderConfig
    task: str
    params: dict[str, Tensor]
    num_classes: int | None = None

    def parameters(self) -> list[Tensor]:
        """Trainable tensors in deterministic (sorted-name) order."""
        return [self.params[k] for k in sorted(self.params)]

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def copy_values(self) -> dict[str, np.ndarray]:
        return {k: p.value.copy() for k, p in self.params.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        for k, p in self.params.items():
            p.value[...] = values[k]

    def copy(self) -> "Model":
        """The same model with parameter arrays of its own."""
        params = {k: Tensor(p.value.copy(), requires_grad=p.requires_grad)
                  for k, p in self.params.items()}
        return Model(self.config, self.task, params, self.num_classes)

    @property
    def has_embedding_table(self) -> bool:
        return "embed.table" in self.params


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_model(
    config: EncoderConfig,
    task: str,
    *,
    num_classes: int | None = None,
    num_nodes: int | None = None,
    featureless: bool = False,
    seed: int = 0,
) -> Model:
    """Glorot-initialized model; biases start at zero.

    ``featureless=True`` adds a shallow embedding table of shape
    ``(num_nodes, input_dim)`` used as encoder input (the usual setup for
    user-item graphs without node features).
    """
    if task not in TASKS:
        raise ModelError(f"unknown task {task!r}, expected one of {TASKS}")
    if task == "classification" and (num_classes is None or num_classes < 2):
        raise ModelError("classification needs num_classes >= 2")
    if featureless and (num_nodes is None or num_nodes < 1):
        raise ModelError("a shallow embedding table needs num_nodes")

    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for layer, (d_in, d_out) in enumerate(config.layer_dims()):
        w_in = 2 * d_in if config.variant.startswith("sage") else d_in
        params[f"enc{layer}.weight"] = Tensor(
            _glorot(rng, w_in, d_out, (w_in, d_out)), requires_grad=True
        )
        params[f"enc{layer}.bias"] = Tensor(np.zeros(d_out), requires_grad=True)
        if config.variant == "gat":
            params[f"enc{layer}.att_src"] = Tensor(
                _glorot(rng, d_out, 1, (d_out, 1)), requires_grad=True
            )
            params[f"enc{layer}.att_dst"] = Tensor(
                _glorot(rng, d_out, 1, (d_out, 1)), requires_grad=True
            )

    d = config.output_dim
    if task == "classification":
        params["head.weight"] = Tensor(_glorot(rng, d, num_classes, (d, num_classes)), requires_grad=True)
        params["head.bias"] = Tensor(np.zeros(num_classes), requires_grad=True)
    elif task == "link":
        params["head.w1"] = Tensor(_glorot(rng, d, d, (d, d)), requires_grad=True)
        params["head.b1"] = Tensor(np.zeros(d), requires_grad=True)
        params["head.w2"] = Tensor(_glorot(rng, d, 1, (d, 1)), requires_grad=True)
        params["head.b2"] = Tensor(np.zeros(1), requires_grad=True)
    # recsys scores by inner product: no head parameters

    if featureless:
        params["embed.table"] = Tensor(
            0.1 * rng.standard_normal((num_nodes, config.input_dim)), requires_grad=True
        )
    return Model(config, task, params, num_classes)


def _encoder_input(model: Model, graph: Graph) -> Tensor:
    if model.has_embedding_table:
        table = model.params["embed.table"]
        if table.value.shape[0] != graph.num_nodes:
            raise ModelError(
                f"embedding table has {table.value.shape[0]} rows, graph has {graph.num_nodes} nodes"
            )
        return table
    if graph.features is None:
        raise ModelError("graph has no features and the model has no embedding table")
    if graph.features.shape[1] != model.config.input_dim:
        raise ModelError(
            f"feature dim {graph.features.shape[1]} != input_dim {model.config.input_dim}"
        )
    return Tensor(graph.features)


def _neighbor_aggregate(h: Tensor, graph: Graph, adj) -> Tensor:
    """``Â h`` (gcn) or a sage layer's neighbor aggregate; sage-max has no operator and pools."""
    return ad.row_max_pool(h, graph) if adj is None else ad.spmm(adj, h)


def _feature_aggregate(features: Tensor, graph: Graph, adj, variant: str) -> Tensor:
    """:func:`_neighbor_aggregate` of the graph's own features: the input of a
    gcn or sage encoder's first layer, kept read-only in ``graph.operators``."""
    key = ("input", variant)
    agg = graph.operators.get(key)
    if agg is None:
        agg = _neighbor_aggregate(features, graph, adj).value
        agg.flags.writeable = False
        graph.operators[key] = agg
    return Tensor(agg)


def encode(model: Model, graph: Graph) -> Tensor:
    """Run the encoder; returns node embeddings of shape (num_nodes, output_dim).

    The graph's aggregation operator is built on the first pass over it and
    kept in ``graph.operators`` for every later one. So is a gcn or sage
    encoder's first-layer aggregate of the graph's own features, read-only
    under ``("input", variant)``: it is constant, unlike an embedding
    table's, which changes with every step and is never kept. Each gcn or
    sage layer is one ``dense`` record, gcn's on ``Â h``; gat runs separate ops.
    """
    cfg = model.config
    h = _encoder_input(model, graph)
    variant = cfg.variant
    mode = _NORMALIZATIONS.get(variant)
    adj = graph.operators.get(mode)
    if adj is None and mode is not None:
        adj = graph.operators[mode] = normalize_adjacency(graph, mode)

    for layer in range(cfg.num_layers):
        w = model.params[f"enc{layer}.weight"]
        b = model.params[f"enc{layer}.bias"]
        hidden = layer < cfg.num_layers - 1
        if variant != "gat":
            if layer == 0 and not model.has_embedding_table:
                agg = _feature_aggregate(h, graph, adj, variant)
            else:
                agg = _neighbor_aggregate(h, graph, adj)
            h = ad.dense([agg] if variant == "gcn" else [h, agg], w, b, relu=hidden)
            continue
        wh = ad.matmul(h, w)
        e_src = ad.matmul(wh, model.params[f"enc{layer}.att_src"])
        e_dst = ad.matmul(wh, model.params[f"enc{layer}.att_dst"])
        logits = ad.leaky_relu(
            ad.add(ad.gather_rows(e_src, adj.rows), ad.gather_rows(e_dst, adj.targets)),
            0.2,
        )
        coeff = ad.segment_softmax(logits, adj)
        h = ad.add_bias(ad.edge_spmm(coeff, wh, adj), b)
        if hidden:
            h = ad.relu(h)
    return h


def classify_embeddings(model: Model, embeddings: Tensor) -> Tensor:
    """Log class probabilities from precomputed embeddings, shape (n, classes)."""
    if model.task != "classification":
        raise ModelError(f"classify called on a {model.task} model")
    logits = ad.dense([embeddings], model.params["head.weight"], model.params["head.bias"])
    return ad.log_softmax(logits)


def score_pairs(model: Model, embeddings: Tensor, pairs: np.ndarray) -> Tensor:
    """Scores for (source, target) rows given precomputed embeddings, shape (P, 1)."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    zs = ad.gather_rows(embeddings, pairs[:, 0])
    zt = ad.gather_rows(embeddings, pairs[:, 1])
    had = ad.hadamard(zs, zt)
    if model.task == "link":
        h = ad.dense([had], model.params["head.w1"], model.params["head.b1"], relu=True)
        return ad.dense([h], model.params["head.w2"], model.params["head.b2"])
    if model.task == "recsys":
        return ad.row_sum(had)
    raise ModelError(f"score_pairs called on a {model.task} model")


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

FORMAT_VERSION = 2


def save_model(model: Model, path) -> None:
    """Write a versioned JSON checkpoint; float64 values round-trip exactly."""
    payload = {
        "format_version": FORMAT_VERSION,
        "task": model.task,
        "num_classes": model.num_classes,
        "config": asdict(model.config),
        "params": {
            k: {
                "shape": list(p.value.shape),
                "data": base64.b64encode(
                    np.ascontiguousarray(p.value, dtype="<f8").tobytes()
                ).decode("ascii"),
            }
            for k, p in sorted(model.params.items())
        },
    }
    write_atomic(path, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def load_model(path) -> Model:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelError(f"unsupported checkpoint version {version!r}")
    config = EncoderConfig(**payload["config"])
    params = {}
    for k, entry in payload["params"].items():
        raw = base64.b64decode(entry["data"])
        arr = np.frombuffer(raw, dtype="<f8").reshape(entry["shape"]).copy()
        params[k] = Tensor(arr, requires_grad=True)
    return Model(config, payload["task"], params, payload.get("num_classes"))
