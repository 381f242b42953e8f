"""Experiment pipeline: validated JSON configs, staged runners, reports.

A single JSON document describes an experiment: the task, a dataset (either
synthetic generator parameters or paths to files on disk), the encoder and
training hyperparameters, the methods to compare, the evaluation settings,
and the seeds. Every stage writes deterministic JSON under
``<output_dir>/<config-hash>/``, so reruns are byte-identical, finished
stages are skipped, and outputs from different configurations can never be
mixed up silently. Stages are pure functions of the declared inputs: the
dataset stage feeds the split stage, splits feed training, training feeds
evaluation, and the report stage reduces the per-seed evaluations into a
mean and standard deviation table per method, setting, and degree bucket.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from .data import (
    SplitBundle,
    load_dataset,
    make_classification_bundle,
    make_link_bundle,
    make_recsys_bundle,
    save_edge_list,
    save_features,
    save_labels,
)
from .evaluation import BUCKET_LABELS, EvalError, evaluate_setting, parse_setting, validation_metric
from .generators import generate_bipartite, generate_scale_free
from .losses import SupervisionSet
from .models import TASKS, VARIANTS, EncoderConfig, init_model, load_model, save_model
from .theory import MonteCarloConfig, TheoryError, monte_carlo_validate
from .training import METHODS, PRESETS, TrainConfig, TrainError, run_ablation

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "MissingInputError",
    "canonical_json",
    "cmd_eval",
    "cmd_generate",
    "cmd_report",
    "cmd_split",
    "cmd_theory",
    "cmd_train",
    "load_config",
    "render_report_table",
    "write_json",
]


class ConfigError(Exception):
    """Schema violation; carries the JSON path of the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class MissingInputError(Exception):
    """A stage was invoked before the stage that produces its inputs."""


# ---------------------------------------------------------------------------
# schema helpers
# ---------------------------------------------------------------------------

_MISSING = object()


def _as_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return dict(value)


def _take(section: dict, key: str, path: str, default=_MISSING):
    if key in section:
        return section.pop(key)
    if default is _MISSING:
        raise ConfigError(f"{path}.{key}", "required field is missing")
    return default


def _no_extras(section: dict, path: str) -> None:
    if section:
        raise ConfigError(f"{path}.{next(iter(section))}", "unknown field")


def _int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    return value


def _number(value, path: str, minimum=None, maximum=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    value = float(value)
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(path, f"must be <= {maximum}, got {value}")
    return value


def _string(value, path: str, choices=None) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(path, f"expected one of {tuple(choices)}, got {value!r}")
    return value


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected true or false, got {value!r}")
    return value


def _float_list(value, path: str, *, length: int | None = None) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(path, f"expected a list, got {value!r}")
    out = tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))
    if length is not None and len(out) != length:
        raise ConfigError(path, f"expected {length} entries, got {len(out)}")
    return out


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _normalize_dataset(raw, task: str) -> dict:
    section = _as_mapping(raw, "$.dataset")
    kind = _string(_take(section, "kind", "$.dataset", "synthetic"),
                   "$.dataset.kind", ("synthetic", "files"))
    out = {"kind": kind}
    if kind == "files":
        edges = _string(_take(section, "edges", "$.dataset"), "$.dataset.edges")
        if not Path(edges).is_file():
            raise ConfigError("$.dataset.edges", f"file not found: {edges}")
        out["edges"] = edges
        for key in ("features", "labels"):
            value = _take(section, key, "$.dataset", None)
            if value is not None:
                value = _string(value, f"$.dataset.{key}")
                if not Path(value).is_file():
                    raise ConfigError(f"$.dataset.{key}", f"file not found: {value}")
            out[key] = value
        if task == "classification" and out["labels"] is None:
            raise ConfigError("$.dataset.labels", "classification needs a label file")
    elif task == "recsys":
        out["num_users"] = _int(_take(section, "num_users", "$.dataset", 300),
                                "$.dataset.num_users", 1)
        out["num_items"] = _int(_take(section, "num_items", "$.dataset", 150),
                                "$.dataset.num_items", 1)
        out["exponent"] = _number(_take(section, "exponent", "$.dataset", 1.8),
                                  "$.dataset.exponent")
        out["min_interactions"] = _int(
            _take(section, "min_interactions", "$.dataset", 2),
            "$.dataset.min_interactions", 1)
        max_inter = _take(section, "max_interactions", "$.dataset", None)
        out["max_interactions"] = (
            None if max_inter is None
            else _int(max_inter, "$.dataset.max_interactions", 1)
        )
        out["num_clusters"] = _int(_take(section, "num_clusters", "$.dataset", 4),
                                   "$.dataset.num_clusters", 1)
        out["affinity"] = _number(_take(section, "affinity", "$.dataset", 6.0),
                                  "$.dataset.affinity")
        out["seed"] = _int(_take(section, "seed", "$.dataset", 0), "$.dataset.seed")
    else:
        out["num_nodes"] = _int(_take(section, "num_nodes", "$.dataset", 2000),
                                "$.dataset.num_nodes", 3)
        out["m_attach"] = _int(_take(section, "m_attach", "$.dataset", 4),
                               "$.dataset.m_attach", 1)
        out["feat_dim"] = _int(_take(section, "feat_dim", "$.dataset", 16),
                               "$.dataset.feat_dim", 1)
        out["num_classes"] = _int(_take(section, "num_classes", "$.dataset", 2),
                                  "$.dataset.num_classes", 2)
        out["label_noise"] = _number(_take(section, "label_noise", "$.dataset", 0.0),
                                     "$.dataset.label_noise", 0.0, 1.0)
        out["separation"] = _number(_take(section, "separation", "$.dataset", 2.0),
                                    "$.dataset.separation")
        out["feature_noise"] = _number(
            _take(section, "feature_noise", "$.dataset", 1.0),
            "$.dataset.feature_noise", 0.0)
        out["community_bias"] = _number(
            _take(section, "community_bias", "$.dataset", 4.0),
            "$.dataset.community_bias", 0.0)
        out["seed"] = _int(_take(section, "seed", "$.dataset", 0), "$.dataset.seed")
    _no_extras(section, "$.dataset")
    return out


def _normalize_model(raw, task: str) -> dict:
    section = _as_mapping(raw, "$.model")
    out = {
        "variant": _string(_take(section, "variant", "$.model", "gcn"),
                           "$.model.variant", VARIANTS),
        "hidden_dim": _int(_take(section, "hidden_dim", "$.model", 32),
                           "$.model.hidden_dim", 1),
        "output_dim": _int(_take(section, "output_dim", "$.model", 32),
                           "$.model.output_dim", 1),
        "num_layers": _int(_take(section, "num_layers", "$.model", 2),
                           "$.model.num_layers", 1),
        "featureless": _bool(
            _take(section, "featureless", "$.model", task == "recsys"),
            "$.model.featureless"),
    }
    _no_extras(section, "$.model")
    return out


_TRAIN_FIELDS = ("stage1_epochs", "stage2_epochs", "stage1_lr", "stage2_lr",
                 "alpha", "l2_weight", "eval_every", "patience")


def _normalize_train(raw, task: str) -> dict:
    section = _as_mapping(raw, "$.train")
    preset_name = _take(section, "preset", "$.train", None)
    if preset_name is not None:
        preset_name = _string(preset_name, "$.train.preset", tuple(PRESETS))
        preset = PRESETS[preset_name]
        if preset.task != task:
            raise ConfigError(
                "$.train.preset",
                f"preset {preset_name!r} is for task {preset.task!r}, not {task!r}")
        base = {field: getattr(preset, field) for field in _TRAIN_FIELDS}
    else:
        defaults = TrainConfig(task=task)
        base = {field: getattr(defaults, field) for field in _TRAIN_FIELDS}
    for field in _TRAIN_FIELDS:
        if field in section:
            base[field] = section.pop(field)
    _no_extras(section, "$.train")
    try:
        TrainConfig(task=task, **base)
    except (TrainError, TypeError) as exc:
        raise ConfigError("$.train", str(exc)) from exc
    return base


def _normalize_settings(raw, task: str, cold_ratios) -> tuple:
    if raw is None:
        if task == "recsys":
            return ("transductive",)
        cold = tuple(f"inductive-cold({r:g})" for r in cold_ratios)
        return ("transductive", "inductive") + cold
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError("$.settings", "expected a nonempty list")
    out = []
    for i, tag in enumerate(raw):
        path = f"$.settings[{i}]"
        tag = _string(tag, path)
        try:
            kind, ratio = parse_setting(tag)
        except EvalError as exc:
            raise ConfigError(path, str(exc)) from exc
        if task == "recsys" and kind != "transductive":
            raise ConfigError(path, "recommender evaluation is transductive only")
        if ratio is not None and ratio not in cold_ratios:
            raise ConfigError(
                path, f"cold ratio {ratio} not in $.split.cold_ratios {cold_ratios}")
        out.append(tag)
    if len(set(out)) != len(out):
        raise ConfigError("$.settings", "duplicate setting")
    return tuple(out)


def _normalize_split(raw, task: str) -> dict:
    section = _as_mapping(raw, "$.split") if raw is not None else {}
    out = {}
    if task == "recsys":
        out["ratios"] = _float_list(
            _take(section, "ratios", "$.split", [0.10, 0.05, 0.85]),
            "$.split.ratios", length=3)
    else:
        out["new_fraction"] = _number(
            _take(section, "new_fraction", "$.split", 0.05),
            "$.split.new_fraction", 0.0, 1.0)
        out["cold_ratios"] = _float_list(
            _take(section, "cold_ratios", "$.split", [0.3, 0.6, 0.9]),
            "$.split.cold_ratios")
        if task == "classification":
            out["labeled_fraction"] = _number(
                _take(section, "labeled_fraction", "$.split", 0.10),
                "$.split.labeled_fraction", 0.0, 1.0)
        else:
            out["trans_ratios"] = _float_list(
                _take(section, "trans_ratios", "$.split", [0.5, 0.2, 0.3]),
                "$.split.trans_ratios", length=3)
            out["inductive_ratio"] = _number(
                _take(section, "inductive_ratio", "$.split", 0.5),
                "$.split.inductive_ratio", 0.0, 1.0)
    _no_extras(section, "$.split")
    return out


def _check_split_counts(dataset: dict, split: dict, settings: tuple) -> None:
    """Refuse a split whose node counts the split stage cannot work with.

    ``node_split`` holds out ``floor(new_fraction * n)`` nodes, and
    ``label_split`` labels ``floor(labeled_fraction * |V_train|)`` of the rest
    (training takes the larger half). The node count of a file dataset is
    unknown until it is read, so there only zero fractions are caught.
    """
    fraction = split.get("new_fraction")
    if fraction is None:
        return
    if fraction == 1:
        raise ConfigError("$.split.new_fraction", "must be < 1.0, got 1.0")
    n = dataset.get("num_nodes")
    num_new = None if n is None else int(np.floor(fraction * n))
    inductive = [tag for tag in settings if tag != "transductive"]
    if inductive and (fraction == 0 or num_new == 0):
        raise ConfigError(
            "$.split.new_fraction",
            f"holds out no new node, but settings {inductive} evaluate on new nodes")
    labeled = split.get("labeled_fraction")
    if labeled is not None and (
            labeled == 0 or (n is not None and np.floor(labeled * (n - num_new)) == 0)):
        raise ConfigError(
            "$.split.labeled_fraction", "leaves no labeled training node")


_THEORY_DEFAULTS = MonteCarloConfig()
_THEORY_FIELDS = ("N", "T", "R", "m", "d", "delta", "separation", "seed",
                  "stage1_steps", "stage2_steps", "lr")


def _normalize_theory(raw) -> dict:
    section = _as_mapping(raw, "$.theory") if raw is not None else {}
    out = {field: getattr(_THEORY_DEFAULTS, field) for field in _THEORY_FIELDS}
    for field in _THEORY_FIELDS:
        if field in section:
            out[field] = section.pop(field)
    out["trials"] = _int(_take(section, "trials", "$.theory", 200),
                         "$.theory.trials", 1)
    _no_extras(section, "$.theory")
    try:
        MonteCarloConfig(**{k: v for k, v in out.items() if k != "trials"})
    except (TheoryError, TypeError) as exc:
        raise ConfigError("$.theory", str(exc)) from exc
    return out


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully defaulted experiment description."""

    task: str
    dataset: dict
    model: dict
    train: dict
    methods: tuple
    settings: tuple
    seeds: tuple
    split: dict
    evaluation: dict
    theory: dict
    output_dir: str

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        section = _as_mapping(payload, "$")
        task = _string(_take(section, "task", "$"), "$.task", TASKS)
        dataset = _normalize_dataset(_take(section, "dataset", "$", {}), task)
        model = _normalize_model(_take(section, "model", "$", {}), task)
        train = _normalize_train(_take(section, "train", "$", {}), task)

        raw_methods = _take(section, "methods", "$", list(METHODS))
        if not isinstance(raw_methods, (list, tuple)) or not raw_methods:
            raise ConfigError("$.methods", "expected a nonempty list")
        methods = tuple(
            _string(m, f"$.methods[{i}]", METHODS)
            for i, m in enumerate(raw_methods)
        )
        if len(set(methods)) != len(methods):
            raise ConfigError("$.methods", "duplicate method")

        raw_seeds = _take(section, "seeds", "$", [0])
        if not isinstance(raw_seeds, (list, tuple)) or not raw_seeds:
            raise ConfigError("$.seeds", "expected a nonempty list")
        seeds = tuple(_int(s, f"$.seeds[{i}]", 0) for i, s in enumerate(raw_seeds))
        if len(set(seeds)) != len(seeds):
            raise ConfigError("$.seeds", "duplicate seed")

        split = _normalize_split(_take(section, "split", "$", None), task)
        settings = _normalize_settings(
            _take(section, "settings", "$", None), task,
            split.get("cold_ratios", ()))
        _check_split_counts(dataset, split, settings)

        eval_section = _as_mapping(_take(section, "eval", "$", {}), "$.eval")
        evaluation = {"k": _int(_take(eval_section, "k", "$.eval", 50), "$.eval.k", 1)}
        _no_extras(eval_section, "$.eval")

        theory = _normalize_theory(_take(section, "theory", "$", None))
        output_dir = _string(_take(section, "output_dir", "$", "runs"),
                             "$.output_dir")
        _no_extras(section, "$")
        return cls(task, dataset, model, train, methods, settings, seeds,
                   split, evaluation, theory, output_dir)

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "dataset": dict(self.dataset),
            "model": dict(self.model),
            "train": dict(self.train),
            "methods": list(self.methods),
            "settings": list(self.settings),
            "seeds": list(self.seeds),
            "split": {k: list(v) if isinstance(v, tuple) else v
                      for k, v in self.split.items()},
            "eval": dict(self.evaluation),
            "theory": dict(self.theory),
            "output_dir": self.output_dir,
        }

    @property
    def config_hash(self) -> str:
        """Digest of everything that affects results.

        The output directory and the seed list are excluded: moving a run or
        adding seeds extends the same experiment rather than defining a new
        one (seeds name their own subdirectories).
        """
        payload = self.to_dict()
        del payload["output_dir"]
        del payload["seeds"]
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:12]

    @property
    def run_dir(self) -> Path:
        return Path(self.output_dir) / self.config_hash

    def seed_dir(self, seed: int) -> Path:
        return self.run_dir / str(seed)

    def with_overrides(self, *, seeds=None, output_dir=None) -> "ExperimentConfig":
        updates = {}
        if seeds is not None:
            if not seeds:
                raise ConfigError("$.seeds", "expected a nonempty list")
            updates["seeds"] = tuple(_int(s, "$.seeds") for s in seeds)
        if output_dir is not None:
            updates["output_dir"] = str(output_dir)
        return dataclasses.replace(self, **updates) if updates else self


def load_config(path, *, seeds=None, output_dir=None) -> ExperimentConfig:
    """Read and validate a JSON config file, applying flag overrides."""
    path = Path(path)
    if not path.is_file():
        raise MissingInputError(f"config file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from exc
    config = ExperimentConfig.from_dict(payload)
    return config.with_overrides(seeds=seeds, output_dir=output_dir)


# ---------------------------------------------------------------------------
# deterministic file IO
# ---------------------------------------------------------------------------

def canonical_json(payload) -> str:
    """Compact, key-sorted JSON; the hashing and equality representation."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_json(path, payload) -> None:
    """Write through a sibling temp file, so a crash never leaves a truncated
    file behind for a resumed stage to accept."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _read_json(path, stage: str) -> dict:
    path = Path(path)
    if not path.is_file():
        raise MissingInputError(f"{path} not found; run the {stage!r} stage first")
    return json.loads(path.read_text(encoding="utf-8"))


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def cmd_generate(config: ExperimentConfig) -> dict:
    """Materialize the dataset and write its manifest.

    Synthetic datasets are written as text files under the run directory;
    file-backed datasets are checksummed in place. Either way the manifest
    records paths and digests so later stages can verify what they load.
    """
    manifest_path = config.run_dir / "dataset.json"
    if manifest_path.is_file():
        manifest = _read_json(manifest_path, "generate")
        if manifest.get("config_hash") == config.config_hash:
            return manifest

    dataset = config.dataset
    if dataset["kind"] == "files":
        paths = {
            "edges": str(Path(dataset["edges"]).resolve()),
            "features": (None if dataset["features"] is None
                         else str(Path(dataset["features"]).resolve())),
            "labels": (None if dataset["labels"] is None
                       else str(Path(dataset["labels"]).resolve())),
        }
    else:
        # relative to the run directory, so moving a run keeps it loadable
        # and reruns into another directory produce identical bytes
        data_dir = config.run_dir / "dataset"
        data_dir.mkdir(parents=True, exist_ok=True)
        paths = {"edges": "dataset/edges.txt", "features": None, "labels": None}
        if config.task == "recsys":
            graph = generate_bipartite(
                dataset["num_users"], dataset["num_items"],
                exponent=dataset["exponent"],
                min_interactions=dataset["min_interactions"],
                max_interactions=dataset["max_interactions"],
                num_clusters=dataset["num_clusters"],
                affinity=dataset["affinity"],
                seed=dataset["seed"])
            save_edge_list(graph, data_dir / "edges.txt")
        else:
            graph, labels = generate_scale_free(
                dataset["num_nodes"], dataset["m_attach"],
                feat_dim=dataset["feat_dim"],
                num_classes=dataset["num_classes"],
                label_noise=dataset["label_noise"],
                seed=dataset["seed"],
                separation=dataset["separation"],
                feature_noise=dataset["feature_noise"],
                community_bias=dataset["community_bias"])
            save_edge_list(graph, data_dir / "edges.txt")
            paths["features"] = "dataset/features.txt"
            save_features(graph.features, data_dir / "features.txt")
            if config.task == "classification":
                paths["labels"] = "dataset/labels.txt"
                save_labels(labels, data_dir / "labels.txt")

    resolved = {key: _resolve_data_path(config, p) for key, p in paths.items()}
    checksums = {key: _sha256(p) for key, p in resolved.items() if p is not None}
    graph, _ = load_dataset(resolved["edges"], resolved["features"],
                            resolved["labels"])
    manifest = {
        "config_hash": config.config_hash,
        "task": config.task,
        "dataset": dict(dataset),
        "paths": paths,
        "checksums": checksums,
        "num_nodes": graph.num_nodes,
        "num_edges": int(graph.edges.shape[0]),
    }
    write_json(manifest_path, manifest)
    return manifest


def _resolve_data_path(config: ExperimentConfig, path):
    if path is None:
        return None
    path = Path(path)
    return str(path if path.is_absolute() else config.run_dir / path)


def _load_run_dataset(config: ExperimentConfig):
    manifest = _read_json(config.run_dir / "dataset.json", "generate")
    if manifest.get("config_hash") != config.config_hash:
        raise ConfigError(
            "$.config_hash",
            f"dataset manifest belongs to {manifest.get('config_hash')!r}, "
            f"expected {config.config_hash!r}")
    paths = manifest["paths"]
    return load_dataset(
        _resolve_data_path(config, paths["edges"]),
        _resolve_data_path(config, paths["features"]),
        _resolve_data_path(config, paths["labels"]))


def _build_bundle(config: ExperimentConfig, graph, labels, seed: int) -> SplitBundle:
    split = config.split
    if config.task == "classification":
        return make_classification_bundle(
            graph, labels,
            new_fraction=split["new_fraction"],
            labeled_fraction=split["labeled_fraction"],
            cold_ratios=split["cold_ratios"],
            seed=seed)
    if config.task == "link":
        return make_link_bundle(
            graph,
            new_fraction=split["new_fraction"],
            trans_ratios=split["trans_ratios"],
            inductive_ratio=split["inductive_ratio"],
            cold_ratios=split["cold_ratios"],
            seed=seed)
    return make_recsys_bundle(graph, ratios=split["ratios"], seed=seed)


def cmd_split(config: ExperimentConfig) -> dict:
    """Build one split bundle per seed; returns {seed: path}."""
    graph, labels = _load_run_dataset(config)
    written = {}
    for seed in config.seeds:
        path = config.seed_dir(seed) / "split.json"
        if path.is_file():
            payload = _read_json(path, "split")
            if payload.get("config_hash") == config.config_hash:
                written[seed] = str(path)
                continue
        bundle = _build_bundle(config, graph, labels, seed)
        write_json(path, {
            "config_hash": config.config_hash,
            "seed": seed,
            "bundle": bundle.to_dict(),
        })
        written[seed] = str(path)
    return written


def _load_bundle(config: ExperimentConfig, graph, seed: int) -> SplitBundle:
    payload = _read_json(config.seed_dir(seed) / "split.json", "split")
    if payload.get("config_hash") != config.config_hash:
        raise ConfigError(
            "$.config_hash",
            f"split for seed {seed} belongs to {payload.get('config_hash')!r}, "
            f"expected {config.config_hash!r}")
    return SplitBundle.from_dict(payload["bundle"], graph)


def _encoder_config(config: ExperimentConfig, graph) -> EncoderConfig:
    model = config.model
    if model["featureless"]:
        input_dim = model["hidden_dim"]
    else:
        if graph.features is None:
            raise ConfigError(
                "$.model.featureless",
                "dataset has no node features; set featureless to true")
        input_dim = graph.features.shape[1]
    return EncoderConfig(
        variant=model["variant"],
        input_dim=input_dim,
        hidden_dim=model["hidden_dim"],
        output_dim=model["output_dim"],
        num_layers=model["num_layers"])


def _make_supervision(config: ExperimentConfig, bundle: SplitBundle):
    if config.task == "classification":
        label_set = bundle.label_set
        nodes = label_set.train_labeled
        return SupervisionSet.classification(
            nodes, label_set.labels[nodes],
            num_classes=label_set.num_classes,
            num_nodes=bundle.train_graph.num_nodes)
    return SupervisionSet.ranking(config.task, bundle.train_graph)


def cmd_train(config: ExperimentConfig) -> dict:
    """Train every configured method for every seed; returns {seed: summary}.

    All methods of one seed share the same parameter initialization, so the
    comparison isolates the training strategy.
    """
    graph, _ = _load_run_dataset(config)
    results = {}
    for seed in config.seeds:
        out_path = config.seed_dir(seed) / "train.json"
        if out_path.is_file():
            payload = _read_json(out_path, "train")
            if payload.get("config_hash") == config.config_hash and all(
                (config.run_dir / rel).is_file()
                for rel in payload["checkpoints"].values()
            ):
                results[seed] = payload
                continue
        bundle = _load_bundle(config, graph, seed)
        encoder = _encoder_config(config, bundle.train_graph)
        supervision = _make_supervision(config, bundle)
        label_set = bundle.label_set if config.task == "classification" else None
        k = config.evaluation["k"]

        def validate(model, bundle=bundle, k=k):
            return validation_metric(model, bundle, k=k)

        train_config = TrainConfig(task=config.task, seed=seed, **config.train)
        methods, checkpoints = {}, {}
        for method in config.methods:
            model = init_model(
                encoder, config.task,
                num_classes=label_set.num_classes if label_set is not None else None,
                num_nodes=bundle.train_graph.num_nodes,
                featureless=config.model["featureless"],
                seed=seed)
            trained, report = run_ablation(
                method, model, bundle.train_graph, supervision,
                train_config, label_set=label_set, validation_fn=validate)
            rel = f"{seed}/models/{method}.json"
            checkpoint = config.run_dir / rel
            checkpoint.parent.mkdir(parents=True, exist_ok=True)
            save_model(trained, checkpoint)
            methods[method] = report.to_dict()
            checkpoints[method] = rel
        payload = {
            "config_hash": config.config_hash,
            "seed": seed,
            "methods": methods,
            "checkpoints": checkpoints,
        }
        write_json(out_path, payload)
        results[seed] = payload
    return results


def cmd_eval(config: ExperimentConfig) -> dict:
    """Evaluate every trained method on every setting; returns {seed: payload}."""
    graph, _ = _load_run_dataset(config)
    results = {}
    for seed in config.seeds:
        out_path = config.seed_dir(seed) / "eval.json"
        if out_path.is_file():
            payload = _read_json(out_path, "eval")
            if payload.get("config_hash") == config.config_hash:
                results[seed] = payload
                continue
        bundle = _load_bundle(config, graph, seed)
        train_payload = _read_json(config.seed_dir(seed) / "train.json", "train")
        if train_payload.get("config_hash") != config.config_hash:
            raise ConfigError(
                "$.config_hash",
                f"training output for seed {seed} belongs to "
                f"{train_payload.get('config_hash')!r}")
        reports = {}
        for method in config.methods:
            if method not in train_payload["checkpoints"]:
                raise MissingInputError(
                    f"no checkpoint for method {method!r} under seed {seed}; "
                    "rerun the 'train' stage")
            model = load_model(config.run_dir / train_payload["checkpoints"][method])
            reports[method] = {
                setting: evaluate_setting(
                    model, bundle, setting, k=config.evaluation["k"]).to_dict()
                for setting in config.settings
            }
        payload = {
            "config_hash": config.config_hash,
            "seed": seed,
            "methods": list(config.methods),
            "settings": list(config.settings),
            "reports": reports,
        }
        write_json(out_path, payload)
        results[seed] = payload
    return results


def cmd_theory(config: ExperimentConfig, *, csv: bool = False) -> dict:
    """Run the bound validation campaign; writes theory.json (and CSV)."""
    out_path = config.run_dir / "theory.json"
    if out_path.is_file():
        payload = _read_json(out_path, "theory")
        if payload.get("config_hash") == config.config_hash:
            if csv:
                _write_theory_csv(config.run_dir / "theory.csv", payload["rows"])
            return payload
    params = dict(config.theory)
    trials = params.pop("trials")
    result = monte_carlo_validate(MonteCarloConfig(**params), trials)
    payload = {
        "config_hash": config.config_hash,
        "summary": result["summary"],
        "rows": result["rows"],
    }
    write_json(out_path, payload)
    if csv:
        _write_theory_csv(config.run_dir / "theory.csv", payload["rows"])
    return payload


_THEORY_CSV_COLUMNS = ("trial", "method", "gap", "bound", "q", "tau", "g_term",
                       "stage1_surrogate", "stage2_surrogate", "violated")


def _csv_value(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_theory_csv(path, rows) -> None:
    lines = [",".join(_THEORY_CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_csv_value(row[col]) for col in _THEORY_CSV_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _aggregate_cell(per_seed: list[dict]) -> dict:
    """Mean and std of one (method, setting) cell across seeds."""
    values = np.array([r["value"] for r in per_seed], dtype=np.float64)
    buckets = []
    for b, label in enumerate(BUCKET_LABELS):
        means = [r["buckets"][b]["mean"] for r in per_seed
                 if r["buckets"][b]["mean"] is not None]
        buckets.append({
            "bucket": label,
            "mean": float(np.mean(means)) if means else None,
            "std": float(np.std(means)) if means else None,
            "count": int(sum(r["buckets"][b]["count"] for r in per_seed)),
        })
    return {
        "mean": float(values.mean()),
        "std": float(values.std()),
        "buckets": buckets,
    }


def cmd_report(run_path, *, csv: bool = False) -> dict:
    """Aggregate per-seed evaluations into a comparison table.

    Reads every ``<seed>/eval.json`` under the run directory, refuses to mix
    config hashes, and emits mean and standard deviation per method, setting,
    and degree bucket, plus the relative gain of tuneup over base on the
    headline metric. Writes report.json (and report.csv when asked).
    """
    run_path = Path(run_path)
    if not run_path.is_dir():
        raise MissingInputError(f"run directory not found: {run_path}")
    eval_paths = sorted(
        (p for p in run_path.glob("*/eval.json") if p.parent.name.isdigit()),
        key=lambda p: int(p.parent.name))
    if not eval_paths:
        raise MissingInputError(
            f"no eval.json under {run_path}; run the 'eval' stage first")

    payloads = [_read_json(p, "eval") for p in eval_paths]
    hashes = {p.get("config_hash") for p in payloads}
    if len(hashes) != 1:
        raise ConfigError(
            "$.config_hash",
            f"refusing to aggregate mixed config hashes: {sorted(map(str, hashes))}")
    config_hash = payloads[0]["config_hash"]
    if run_path.name != config_hash:
        raise ConfigError(
            "$.config_hash",
            f"run directory {run_path.name!r} does not match embedded hash "
            f"{config_hash!r}")

    seeds = [p["seed"] for p in payloads]
    first = payloads[0]
    methods = first.get("methods") or [
        m for m in METHODS if m in first["reports"]]
    settings = first.get("settings") or list(first["reports"][methods[0]])
    metric = (first["reports"][methods[0]][settings[0]]["metric"]
              if methods and settings else "")

    table = {}
    for setting in settings:
        table[setting] = {}
        for method in methods:
            per_seed = []
            for payload in payloads:
                try:
                    per_seed.append(payload["reports"][method][setting])
                except KeyError as exc:
                    raise MissingInputError(
                        f"seed {payload['seed']} lacks {method}/{setting}; "
                        "rerun the 'eval' stage") from exc
            table[setting][method] = _aggregate_cell(per_seed)

    relative_gain = {}
    if "base" in methods and "tuneup" in methods:
        for setting in settings:
            base = table[setting]["base"]["mean"]
            tune = table[setting]["tuneup"]["mean"]
            if base > 0:
                gain = (tune - base) / base
                relative_gain[setting] = {
                    "value": gain, "formatted": f"{gain:+.1%}"}
            else:
                relative_gain[setting] = {"value": None, "formatted": "n/a"}

    report = {
        "config_hash": config_hash,
        "metric": metric,
        "seeds": seeds,
        "num_seeds": len(seeds),
        "methods": methods,
        "settings": settings,
        "table": table,
        "relative_gain": relative_gain,
    }
    write_json(run_path / "report.json", report)
    if csv:
        _write_report_csv(run_path / "report.csv", report)
    return report


def _write_report_csv(path, report) -> None:
    lines = ["setting,method,scope,bucket,mean,std,count"]
    for setting in report["settings"]:
        for method in report["methods"]:
            cell = report["table"][setting][method]
            lines.append(
                f"{setting},{method},overall,,{cell['mean']!r},{cell['std']!r},")
            for bucket in cell["buckets"]:
                mean = "" if bucket["mean"] is None else repr(bucket["mean"])
                std = "" if bucket["std"] is None else repr(bucket["std"])
                lines.append(
                    f"{setting},{method},bucket,{bucket['bucket']},"
                    f"{mean},{std},{bucket['count']}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def render_report_table(report: dict) -> str:
    """Human-readable comparison table, one block per setting."""
    lines = []
    width = max((len(m) for m in report["methods"]), default=6) + 2
    for setting in report["settings"]:
        lines.append(
            f"== {setting} ({report['metric']}, mean over "
            f"{report['num_seeds']} seed(s)) ==")
        header = "method".ljust(width) + "overall".ljust(16)
        header += "".join(label.rjust(8) for label in BUCKET_LABELS)
        lines.append(header)
        for method in report["methods"]:
            cell = report["table"][setting][method]
            row = method.ljust(width)
            row += f"{cell['mean']:.4f}±{cell['std']:.4f}".ljust(16)
            for bucket in cell["buckets"]:
                text = "-" if bucket["mean"] is None else f"{bucket['mean']:.3f}"
                row += text.rjust(8)
            lines.append(row)
        if setting in report["relative_gain"]:
            gain = report["relative_gain"][setting]["formatted"]
            lines.append(f"Rel. gain over base: {gain}")
        lines.append("")
    return "\n".join(lines)
