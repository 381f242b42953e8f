"""Conventional training, the two-stage tuneup curriculum, and its ablations.

Every training method is one row of :data:`METHODS`. :func:`run_ablation`
trains a list of them from one initialization, running each distinct stage
once. The full curriculum, ``tuneup``, trains stage 1 on the
clean graph. Stage 2 restarts the optimizer and fine-tunes on a freshly
resampled edge-dropped graph at every update, supervising classification
with the stage-1 snapshot's pseudo-labels and the ranking tasks with the
original (un-dropped) edges. Everything is full-batch and bitwise
deterministic for a fixed (config, seed) pair: per-update randomness (edge
drops, negative samples) comes from counter-keyed seed sequences, never from
shared generator state.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, Tape
from .errors import TailkitError, check_fields, positive
from .evaluation import predict_classes
from .graph import Graph, LabelSet, drop_edges
from .losses import SupervisionSet, bpr_loss, cross_entropy, l2_regularize, sample_negatives
from .models import TASKS, Model, classify_embeddings, encode, score_pairs

__all__ = [
    "METHODS",
    "PRESETS",
    "StageReport",
    "TrainConfig",
    "TrainError",
    "TrainReport",
    "pseudo_label",
    "run_ablation",
]

# method -> (stage-1 graphs, stage-2 graphs or None, stage-2 pseudo-labels).
# "clean" is the intact graph, "dropped" a freshly edge-dropped copy per
# update, "both" sums the two losses in one update. Pseudo-labels apply to
# classification only; ranking tasks keep their supervision pairs.
METHODS = {
    "base": ("clean", None, False),
    "dropedge": ("dropped", None, False),
    "tuneup": ("clean", "dropped", True),
    "no-curriculum": ("both", None, False),
    "no-pseudo": ("clean", "dropped", False),
    "no-syntails": ("clean", "clean", True),
}


class TrainError(TailkitError):
    """Invalid training configuration or inputs."""


def _check_alpha(alpha) -> None:
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"must be in [0, 1), got {alpha}")


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run.

    ``stage2_lr=None`` reuses the stage-1 rate, except recsys which defaults
    to 1e-4 for fine-tuning. Any alpha in [0, 1) is accepted, so that
    alpha=0 degenerates to training on the intact graph. Each field's bounds
    are its metadata, which the config schema reads too.
    """

    task: str = field(metadata={"choices": TASKS})
    stage1_epochs: int = field(default=300, metadata={"minimum": 0})
    stage2_epochs: int = field(default=200, metadata={"minimum": 0})
    stage1_lr: float = field(default=0.01, metadata={"check": positive})
    stage2_lr: float | None = field(default=None, metadata={"check": positive})
    alpha: float = field(default=0.5, metadata={"check": _check_alpha})
    l2_weight: float = field(default=0.0, metadata={"minimum": 0.0})
    eval_every: int = field(default=10, metadata={"minimum": 1})
    patience: int = field(default=10, metadata={"minimum": 1})
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, TrainError)

    @property
    def resolved_stage2_lr(self) -> float:
        if self.stage2_lr is not None:
            return self.stage2_lr
        return 1e-4 if self.task == "recsys" else self.stage1_lr


PRESETS = {
    # desk-scale defaults used by the test suite and the bundled benchmarks
    "desk-classification": TrainConfig("classification"),
    "desk-link": TrainConfig("link", stage1_lr=0.01, l2_weight=1e-4),
    "desk-recsys": TrainConfig("recsys", stage1_lr=0.01, stage2_lr=1e-4, l2_weight=1e-4),
    # published full-scale schedules, impractical as test defaults
    "full-classification": TrainConfig(
        "classification", stage1_epochs=1500, stage2_epochs=1500, stage1_lr=0.001
    ),
    "full-link": TrainConfig(
        "link", stage1_epochs=1000, stage2_epochs=1000, stage1_lr=1e-4, l2_weight=1e-4
    ),
    "full-recsys": TrainConfig(
        "recsys", stage1_epochs=2000, stage2_epochs=500,
        stage1_lr=0.001, stage2_lr=1e-4, l2_weight=1e-4,
    ),
}


@dataclass
class StageReport:
    """Trace of one training stage."""

    name: str
    losses: list = field(default_factory=list)
    val_epochs: list = field(default_factory=list)
    val_values: list = field(default_factory=list)
    best_epoch: int = 0
    epochs_run: int = 0


@dataclass
class TrainReport:
    """Full trace of a run: stages, config echo, seed."""

    stages: list
    config: dict
    seed: int

    @property
    def stage_boundaries(self) -> list:
        out, total = [], 0
        for stage in self.stages:
            total += stage.epochs_run
            out.append(total)
        return out

    def to_dict(self) -> dict:
        return {
            "stages": [asdict(s) for s in self.stages],
            "stage_boundaries": self.stage_boundaries,
            "config": self.config,
            "seed": self.seed,
        }


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------

def _derive_seed(base: int, stage: int, epoch: int, slot: int) -> int:
    seq = np.random.SeedSequence(entropy=base, spawn_key=(stage, epoch, slot))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _task_loss(model: Model, graph: Graph, supervision: SupervisionSet, config, negatives):
    emb = encode(model, graph)
    if config.task == "classification":
        loss = cross_entropy(classify_embeddings(model, emb), supervision)
    else:
        pairs = supervision.positive_pairs
        pos = score_pairs(model, emb, pairs)
        neg_pairs = np.stack([pairs[:, 0], negatives], axis=1)
        neg = score_pairs(model, emb, neg_pairs)
        loss = bpr_loss(pos, neg)
    if config.l2_weight > 0:
        loss = ad.add(loss, l2_regularize(emb, config.l2_weight))
    return loss


def _run_stage(
    model: Model,
    graph: Graph,
    supervision: SupervisionSet,
    config: TrainConfig,
    *,
    name: str,
    stage_index: int,
    epochs: int,
    lr: float,
    mode: str,
    validation_fn=None,
) -> StageReport:
    """One optimization stage; restores the best-validation snapshot at exit.

    ``mode`` picks the per-update forward graph(s), as in :data:`METHODS`.
    """
    report = StageReport(name=name)
    state = AdamState(model.parameters())
    best_val = -np.inf
    best_snapshot = None
    stalled = 0
    for epoch in range(1, epochs + 1):
        graphs = []
        if mode in ("clean", "both"):
            graphs.append(graph)
        if mode in ("dropped", "both"):
            drop_seed = _derive_seed(config.seed, stage_index, epoch, 0)
            graphs.append(drop_edges(graph, config.alpha, seed=drop_seed))
        negatives = None
        if config.task != "classification":
            neg_seed = _derive_seed(config.seed, stage_index, epoch, 1)
            negatives = sample_negatives(supervision, supervision.positive_pairs[:, 0], neg_seed)

        model.zero_grad()
        with Tape() as tape:
            loss = _task_loss(model, graphs[0], supervision, config, negatives)
            for extra in graphs[1:]:
                loss = ad.add(loss, _task_loss(model, extra, supervision, config, negatives))
            tape.backward(loss)
        ad.adam_step(model.parameters(), state, lr)
        report.losses.append(float(loss.value))
        report.epochs_run = epoch

        if validation_fn is not None and (epoch % config.eval_every == 0 or epoch == epochs):
            value = float(validation_fn(model))
            report.val_epochs.append(epoch)
            report.val_values.append(value)
            if value > best_val:
                best_val = value
                best_snapshot = model.copy_values()
                report.best_epoch = epoch
                stalled = 0
            else:
                stalled += 1
                if stalled >= config.patience:
                    break

    if best_snapshot is not None:
        model.load_values(best_snapshot)
    else:
        report.best_epoch = report.epochs_run
    return report


def _check_inputs(model: Model, supervision: SupervisionSet, config: TrainConfig) -> None:
    if model.task != config.task:
        raise TrainError(f"model task {model.task!r} != config task {config.task!r}")
    if supervision.task != config.task:
        raise TrainError(
            f"supervision task {supervision.task!r} != config task {config.task!r}"
        )
    if supervision.size == 0:
        raise TrainError("supervision is empty")


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def pseudo_label(model: Model, graph: Graph, label_set: LabelSet) -> SupervisionSet:
    """Augment training supervision with model-predicted classes.

    The frozen model predicts on the intact graph; every unlabeled node that
    has at least one edge receives its argmax class, after the labeled
    training nodes, which keep their observed classes (so the pseudo-labels
    are the last ``size - train_labeled.size``). Isolated unlabeled nodes stay
    out (an edgeless node gives the encoder nothing to read).
    """
    if model.task != "classification":
        raise TrainError(f"pseudo_label needs a classification model, got {model.task!r}")
    if label_set.train_labeled is None or label_set.unlabeled is None:
        raise TrainError("label set is missing its split index arrays")
    preds = predict_classes(model, graph)
    degrees = graph.degrees()
    unlabeled = np.asarray(label_set.unlabeled, dtype=np.int64)
    targets = unlabeled[degrees[unlabeled] >= 1]
    train = np.asarray(label_set.train_labeled, dtype=np.int64)
    nodes = np.concatenate([train, targets])
    classes = np.concatenate([label_set.labels[train], preds[targets]])
    return SupervisionSet.classification(
        nodes, classes, label_set.num_classes, label_set.num_nodes)


def run_ablation(
    methods: Sequence[str],
    model: Model,
    graph: Graph,
    supervision: SupervisionSet,
    config: TrainConfig,
    *,
    label_set: LabelSet | None = None,
    validation_fn=None,
) -> dict[str, tuple[Model, TrainReport]]:
    """Train each of ``methods`` from the initialization ``model``.

    Returns ``{method: (trained model, report)}`` in the order given; every
    model owns its parameters and ``model`` itself is left as it was. Stage 1
    runs ``stage1_epochs`` at ``stage1_lr``. A two-stage method then
    fine-tunes a copy of the stage-1 snapshot for ``stage2_epochs`` at the
    resolved stage-2 rate with a fresh optimizer, on pseudo-labels from that
    snapshot when its row asks for them. A single stage is named after the
    method; two are "base" and "finetune".

    Methods whose stage 1 is the same (mode and name) share one run of it,
    and its report, and pseudo-labels are made once per stage-1 snapshot.
    Stage 2 is shared the same way, keyed by its stage 1, its mode and
    whether pseudo-labels apply (on ranking tasks ``tuneup`` and
    ``no-pseudo`` are one run). Each method's result is the one it would get
    trained alone, in a model of its own.
    """
    _check_inputs(model, supervision, config)
    pseudo_task = config.task == "classification"
    for method in methods:
        if method not in METHODS:
            raise TrainError(f"unknown method {method!r}, expected one of {tuple(METHODS)}")
        if pseudo_task and METHODS[method][2] and label_set is None:
            raise TrainError(f"method {method!r} needs a label_set to produce pseudo-labels")
    stage1, stage2, pseudo_labels, out = {}, {}, {}, {}
    for method in methods:
        stage1_mode, stage2_mode, pseudo = METHODS[method]
        pseudo = pseudo and pseudo_task
        key = (stage1_mode, "base" if stage2_mode else method)
        if key not in stage1:
            trained = model.copy()
            stage1[key] = trained, _run_stage(
                trained, graph, supervision, config,
                name=key[1], stage_index=0,
                epochs=config.stage1_epochs, lr=config.stage1_lr, mode=stage1_mode,
                validation_fn=validation_fn,
            )
        trained, first = stage1[key]
        stages = [first]
        if stage2_mode:
            key2 = (key, stage2_mode, pseudo)
            if key2 not in stage2:
                if pseudo and key not in pseudo_labels:
                    pseudo_labels[key] = pseudo_label(trained, graph, label_set)
                tuned = trained.copy()
                stage2[key2] = tuned, _run_stage(
                    tuned, graph, pseudo_labels[key] if pseudo else supervision, config,
                    name="finetune", stage_index=1, epochs=config.stage2_epochs,
                    lr=config.resolved_stage2_lr, mode=stage2_mode,
                    validation_fn=validation_fn,
                )
            tuned, second = stage2[key2]
            trained = tuned.copy()
            stages.append(second)
        out[method] = trained, TrainReport(stages, asdict(config), config.seed)
    return out
