"""Experiment pipeline: validated JSON configs, staged runners, reports.

A single JSON document describes an experiment: the task, a dataset (either
synthetic generator parameters or paths to files on disk), the encoder and
training hyperparameters, the methods to compare, the evaluation settings,
and the seeds. Every stage writes deterministic JSON under
``<output_dir>/<config-hash>/``, so reruns are byte-identical and outputs
from different configurations can never be mixed up silently; each output
records the sha256 of the files it was computed from, so a finished stage is
skipped until one of them changes. Stages are pure functions of their
inputs: the dataset stage feeds the split stage, splits feed training,
training feeds evaluation, and the report stage reduces the per-seed
evaluations into a mean and standard deviation table per method, setting,
and degree bucket.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import types
import typing
from pathlib import Path

import numpy as np

from .data import (
    DatasetFileError,
    SplitBundle,
    check_three_ratios,
    load_dataset,
    make_classification_bundle,
    make_link_bundle,
    make_recsys_bundle,
    save_edge_list,
    save_features,
    save_labels,
    write_atomic,
)
from .evaluation import (BUCKET_LABELS, EvalError, evaluate_setting, parse_setting,
                         ranking_sources, validation_metric)
from .generators import generate_bipartite, generate_scale_free
from .losses import SupervisionSet
from .models import TASKS, VARIANTS, EncoderConfig, init_model, load_model, save_model
from .theory import MonteCarloConfig, monte_carlo_validate
from .training import METHODS, PRESETS, TrainConfig, run_ablation

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
# configuration schema
# ---------------------------------------------------------------------------

_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string", list: "a list", dict: "an object"}


def _value(value, kind, path: str, meta):
    """Check one JSON value against a field annotation and its bounds.

    ``int`` refuses booleans and floats; ``float`` also takes an integer and
    stores it as a float. ``X | None`` takes null, and ``tuple[X, ...]`` a
    list whose every entry is an ``X`` within the same bounds.
    """
    if types.UnionType is type(kind):
        if value is None:
            return None
        (kind,) = (arg for arg in typing.get_args(kind) if arg is not type(None))
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(path, f"expected a list, got {value!r}")
        item = typing.get_args(kind)[0]
        return tuple(_value(v, item, f"{path}[{i}]", meta) for i, v in enumerate(value))
    if kind is float and type(value) is int:
        value = float(value)
    accepted = (list, tuple) if kind is list else kind
    if (isinstance(value, bool) is not (kind is bool) or not isinstance(value, accepted)
            or (kind is float and not math.isfinite(value))):
        raise ConfigError(path, f"expected {_TYPE_NAMES[kind]}, got {value!r}")
    if "choices" in meta and value not in meta["choices"]:
        raise ConfigError(path, f"expected one of {tuple(meta['choices'])}, got {value!r}")
    if "minimum" in meta and value < meta["minimum"]:
        raise ConfigError(path, f"must be >= {meta['minimum']}, got {value}")
    if "maximum" in meta and value > meta["maximum"]:
        raise ConfigError(path, f"must be <= {meta['maximum']}, got {value}")
    return value


def _section(cls, raw, path: str, *, base=None, fixed=None):
    """Read the JSON object ``raw`` (null reads as ``{}``) into ``cls``.

    Every field is typed by its annotation and bounded by its metadata
    (``minimum``, ``maximum``, ``choices``, and ``check``, a callable whose
    ``ValueError`` names the field). An absent field takes its value from
    ``base`` if given, else its default. ``fixed`` fields are set by the
    caller and are not keys of the section. Unknown and missing keys are
    errors, and the rules ``cls`` checks itself are reported on ``path``.
    """
    raw = {} if raw is None else _value(raw, dict, path, {})
    values = dict(fixed or {})
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.name not in values]
    for key in raw:
        if key not in {f.name for f in fields}:
            raise ConfigError(f"{path}.{key}", "unknown field")
    for f in fields:
        where = f"{path}.{f.name}"
        if f.name in raw:
            value = _value(raw[f.name], hints[f.name], where, f.metadata)
            if value is not None and "check" in f.metadata:
                try:
                    f.metadata["check"](value)
                except ValueError as exc:
                    raise ConfigError(where, str(exc)) from exc
        elif base is not None:
            value = getattr(base, f.name)
        elif f.default is not dataclasses.MISSING:
            value = f.default
        else:
            raise ConfigError(where, "required field is missing")
        values[f.name] = value
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _distinct(raw, path: str, read) -> tuple:
    """A nonempty list without duplicates, each entry checked by ``read``."""
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError(path, "expected a nonempty list")
    out = tuple(read(v, f"{path}[{i}]") for i, v in enumerate(raw))
    for i, v in enumerate(out):
        if v in out[:i]:
            raise ConfigError(path, f"duplicate entry {v!r}")
    return out


def _seeds(raw) -> tuple:
    return _distinct(raw, "$.seeds", lambda v, path: _value(v, int, path, {"minimum": 0}))


def _at_least(minimum, default):
    return dataclasses.field(default=default, metadata={"minimum": minimum})


def _unit(default):
    return dataclasses.field(default=default, metadata={"minimum": 0.0, "maximum": 1.0})


def _checked(check, default=dataclasses.MISSING):
    return dataclasses.field(default=default, metadata={"check": check})


def _positive(value) -> None:
    if not value > 0:
        raise ValueError(f"must be > 0, got {value}")


def _existing_file(path: str) -> None:
    if not Path(path).is_file():
        raise ValueError(f"file not found: {path}")


@dataclasses.dataclass(frozen=True)
class _Document:
    """The top level of a config; each section is read by its own class."""

    task: str = dataclasses.field(metadata={"choices": TASKS})
    dataset: dict | None = None
    model: dict | None = None
    train: dict | None = None
    methods: list = tuple(METHODS)
    settings: list | None = None
    seeds: list = (0,)
    split: dict | None = None
    eval: dict | None = None
    theory: dict | None = None
    output_dir: str = "runs"


@dataclasses.dataclass(frozen=True)
class _ScaleFreeDataset:
    num_nodes: int = _at_least(3, 2000)
    m_attach: int = _at_least(1, 4)
    feat_dim: int = _at_least(1, 16)
    num_classes: int = _at_least(2, 2)
    label_noise: float = _unit(0.0)
    separation: float = 2.0
    feature_noise: float = _at_least(0.0, 1.0)
    community_bias: float = _checked(_positive, 4.0)
    seed: int = _at_least(0, 0)

    def __post_init__(self) -> None:
        if self.m_attach >= self.num_nodes:
            raise ValueError(f"m_attach={self.m_attach} must be < num_nodes={self.num_nodes}")
        if self.feat_dim < self.num_classes:
            raise ValueError(f"feat_dim={self.feat_dim} must be >= num_classes={self.num_classes}")


@dataclasses.dataclass(frozen=True)
class _BipartiteDataset:
    num_users: int = _at_least(1, 300)
    num_items: int = _at_least(1, 150)
    exponent: float = 1.8
    min_interactions: int = _at_least(1, 2)
    max_interactions: int | None = _at_least(1, None)
    num_clusters: int = _at_least(1, 4)
    affinity: float = 6.0
    seed: int = _at_least(0, 0)

    def __post_init__(self) -> None:
        if self.num_clusters > min(8, self.num_items):
            raise ValueError(f"num_clusters={self.num_clusters} must be <= "
                             f"min(8, num_items)={min(8, self.num_items)}")
        most = min(self.num_items, self.max_interactions or self.num_items)
        if self.min_interactions > most:
            raise ValueError(f"min_interactions={self.min_interactions} exceeds {most}, "
                             "the most items a user can interact with")


@dataclasses.dataclass(frozen=True)
class _FilesDataset:
    edges: str = _checked(_existing_file)
    features: str | None = _checked(_existing_file, None)
    labels: str | None = _checked(_existing_file, None)


@dataclasses.dataclass(frozen=True)
class _Model:
    variant: str = dataclasses.field(default="gcn", metadata={"choices": VARIANTS})
    hidden_dim: int = _at_least(1, 32)
    output_dim: int = _at_least(1, 32)
    num_layers: int = _at_least(1, 2)
    featureless: bool = False


@dataclasses.dataclass(frozen=True)
class _ClassificationSplit:
    new_fraction: float = _unit(0.05)
    cold_ratios: tuple[float, ...] = _unit((0.3, 0.6, 0.9))
    labeled_fraction: float = _unit(0.10)


@dataclasses.dataclass(frozen=True)
class _LinkSplit:
    new_fraction: float = _unit(0.05)
    cold_ratios: tuple[float, ...] = _unit((0.3, 0.6, 0.9))
    trans_ratios: tuple[float, ...] = _checked(check_three_ratios, (0.5, 0.2, 0.3))
    inductive_ratio: float = _unit(0.5)


@dataclasses.dataclass(frozen=True)
class _RecsysSplit:
    ratios: tuple[float, ...] = _checked(check_three_ratios, (0.10, 0.05, 0.85))


_SPLITS = {"classification": _ClassificationSplit, "link": _LinkSplit,
           "recsys": _RecsysSplit}


@dataclasses.dataclass(frozen=True)
class _Eval:
    k: int = _at_least(1, 50)


@dataclasses.dataclass(frozen=True)
class _Theory(MonteCarloConfig):
    trials: int = _at_least(1, 200)


def _settings(raw, task: str, cold_ratios) -> tuple:
    if raw is None:
        if task == "recsys":
            return ("transductive",)
        cold = tuple(f"inductive-cold({r:g})" for r in cold_ratios)
        return ("transductive", "inductive") + cold

    def read(tag, path):
        tag = _value(tag, str, path, {})
        try:
            kind, ratio = parse_setting(tag)
        except EvalError as exc:
            raise ConfigError(path, str(exc)) from exc
        if task == "recsys" and kind != "transductive":
            raise ConfigError(path, "recommender evaluation is transductive only")
        if ratio is not None and ratio not in cold_ratios:
            raise ConfigError(
                path, f"cold ratio {ratio} not in $.split.cold_ratios {cold_ratios}")
        return tag

    return _distinct(raw, "$.settings", read)


def _train(raw, task: str) -> dict:
    raw = dict(raw or {})
    name, preset = raw.pop("preset", None), None
    if name is not None:
        preset = PRESETS[_value(name, str, "$.train.preset", {"choices": PRESETS})]
        if preset.task != task:
            raise ConfigError(
                "$.train.preset",
                f"preset {name!r} is for task {preset.task!r}, not {task!r}")
    train = dataclasses.asdict(_section(
        TrainConfig, raw, "$.train", base=preset, fixed={"task": task, "seed": 0}))
    del train["task"], train["seed"]
    return train


def _check_split_counts(n, split: dict, settings: tuple) -> None:
    """Refuse a split that leaves a part the later stages need empty.

    ``node_split`` holds out ``floor(new_fraction * n)`` nodes, and
    ``label_split`` labels ``floor(labeled_fraction * |V_train|)`` of the rest
    (training takes the larger half, validation the rest). The node count of
    a file dataset is unknown until it is read (``n=None``), so there only
    zero fractions are caught; the split stage checks again with the count.
    """
    for key in ("trans_ratios", "ratios"):
        for part, what in enumerate(("training", "validation")):
            if key in split and split[key][part] == 0:
                raise ConfigError(f"$.split.{key}", f"holds out no {what} edge")
    fraction = split.get("new_fraction")
    if fraction is None:
        return
    if fraction == 1:
        raise ConfigError("$.split.new_fraction", "must be < 1.0, got 1.0")
    num_new = None if n is None else int(np.floor(fraction * n))
    inductive = [tag for tag in settings if tag != "transductive"]
    if inductive and (fraction == 0 or num_new == 0):
        raise ConfigError(
            "$.split.new_fraction",
            f"holds out no new node, but settings {inductive} evaluate on new nodes")
    labeled = split.get("labeled_fraction")
    if labeled is not None and (
            labeled == 0 or (n is not None and np.floor(labeled * (n - num_new)) < 2)):
        raise ConfigError("$.split.labeled_fraction",
                          "labels fewer than 2 nodes: one to train on, one to validate")
    if labeled == 1 and "transductive" in settings:
        raise ConfigError("$.split.labeled_fraction",
                          "leaves no unlabeled node for the 'transductive' setting")


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
        doc = _section(_Document, payload, "$")
        task = doc.task
        raw_dataset = dict(doc.dataset or {})
        kind = _value(raw_dataset.pop("kind", "synthetic"), str, "$.dataset.kind",
                      {"choices": ("synthetic", "files")})
        dataset_cls = (_FilesDataset if kind == "files" else
                       _BipartiteDataset if task == "recsys" else _ScaleFreeDataset)
        dataset = {"kind": kind,
                   **dataclasses.asdict(_section(dataset_cls, raw_dataset, "$.dataset"))}
        if kind == "files" and task == "classification" and dataset["labels"] is None:
            raise ConfigError("$.dataset.labels", "classification needs a label file")
        model = _section(_Model, doc.model, "$.model",
                         base=_Model(featureless=task == "recsys"))
        methods = _distinct(doc.methods, "$.methods",
                            lambda v, path: _value(v, str, path, {"choices": METHODS}))
        split = dataclasses.asdict(_section(_SPLITS[task], doc.split, "$.split"))
        settings = _settings(doc.settings, task, split.get("cold_ratios", ()))
        _check_split_counts(dataset.get("num_nodes"), split, settings)
        return cls(task, dataset, dataclasses.asdict(model), _train(doc.train, task),
                   methods, settings, _seeds(doc.seeds), split,
                   dataclasses.asdict(_section(_Eval, doc.eval, "$.eval")),
                   dataclasses.asdict(_section(_Theory, doc.theory, "$.theory")),
                   doc.output_dir)

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
            updates["seeds"] = _seeds(seeds)
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
    """Key-sorted, indented JSON, written atomically."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _checkpoint(seed: int, method: str) -> str:
    return f"{seed}/models/{method}.json"


def _entry(name: str, seed=None, extra=()) -> tuple:
    """``(path, stage, keys, files)`` of the stage output ``name`` (of
    ``seed``, for a per-seed one): its run-relative path, the stage that
    writes it, the keys it must carry, and the files its checksums record
    (those it was computed from, run-relative unless absolute). ``extra``
    adds the files only a config names (``_stage_output``)."""
    split, train = f"{seed}/split.json", f"{seed}/train.json"
    stage, keys, files = {
        "dataset.json": ("generate", ("paths", "num_nodes", "num_edges"), []),
        "split.json": ("split", ("bundle",), ["dataset.json"]),
        "train.json": ("train", ("methods", "checkpoints"), ["dataset.json", split]),
        "eval.json": ("eval", ("methods", "settings", "reports"),
                      ["dataset.json", split, train]),
        "theory.json": ("theory", ("summary", "rows"), []),
        "report.json": ("report", ("table",), []),
    }[name]
    return name if seed is None else f"{seed}/{name}", stage, keys, [*files, *extra]


def _stage_output(config: ExperimentConfig, name: str, seed=None) -> tuple:
    """The entry of ``name`` with the files the config names: the dataset's
    files for ``dataset.json``, the checkpoints beside ``train.json``."""
    extra = {"dataset.json": [p for p in _data_paths(config).values() if p is not None],
             "train.json": [_checkpoint(seed, m) for m in config.methods]}
    return _entry(name, seed, extra.get(name, ()))


def _usable(run_dir: Path, config_hash: str, entry: tuple):
    """``(payload, None)`` when the stage output ``entry`` names under
    ``run_dir`` is usable: it parses, carries ``config_hash``, its stage's
    keys and a ``checksums`` map, and each file in that map or among the
    files its entry records still has the recorded sha256. Else ``(None, why
    not)``. This one rule decides for every stage, ``report`` included."""
    rel, _, keys, files = entry
    path = run_dir / rel
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        payload = None
    if not isinstance(payload, dict):
        return None, f"{path} {'is not valid JSON' if path.is_file() else 'not found'}"
    if payload.get("config_hash") != config_hash:
        return None, (f"{path} belongs to config {payload.get('config_hash')!r}, "
                      f"not {config_hash!r}")
    checksums = payload.get("checksums")
    for key in ("checksums", *keys):
        if key not in payload or not isinstance(checksums, dict):
            return None, f"{path} does not record {key!r}"
    for rel in dict.fromkeys([*files, *checksums]):
        file = run_dir / rel
        if not file.is_file() or _sha256(file) != checksums.get(rel):
            return None, f"{file} is missing or does not match its checksum in {path}"
    return payload, None


def _required(run_dir: Path, config_hash: str, entry: tuple) -> dict:
    """An earlier stage's output; an unusable one exits 3 naming why."""
    payload, reason = _usable(run_dir, config_hash, entry)
    if reason is not None:
        raise MissingInputError(f"{reason}; rerun the {entry[1]!r} stage")
    return payload


def _record(run_dir: Path, config_hash: str, entry: tuple, payload: dict) -> dict:
    """Write a stage output with the config hash and the checksums of the
    files its entry records."""
    payload = {"config_hash": config_hash, **payload,
               "checksums": {rel: _sha256(run_dir / rel) for rel in entry[3]}}
    write_json(run_dir / entry[0], payload)
    return payload


def _output(config: ExperimentConfig, name: str, seed=None):
    return _usable(config.run_dir, config.config_hash, _stage_output(config, name, seed))


def _input(config: ExperimentConfig, name: str, seed=None) -> dict:
    return _required(config.run_dir, config.config_hash, _stage_output(config, name, seed))


def _write_output(config: ExperimentConfig, name: str, seed, payload: dict) -> dict:
    return _record(config.run_dir, config.config_hash, _stage_output(config, name, seed),
                   payload)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def _data_paths(config: ExperimentConfig) -> dict:
    """{edges, features, labels: path or None}; synthetic files are named
    relative to the run directory, so moving a run keeps it loadable and
    reruns into another directory produce identical bytes."""
    dataset = config.dataset
    if dataset["kind"] == "files":
        return {key: None if dataset[key] is None else str(Path(dataset[key]).resolve())
                for key in ("edges", "features", "labels")}
    return {"edges": "dataset/edges.txt",
            "features": None if config.task == "recsys" else "dataset/features.txt",
            "labels": "dataset/labels.txt" if config.task == "classification" else None}


def _read_dataset(config: ExperimentConfig):
    """The graph and labels in the dataset's files."""
    return load_dataset(*(None if p is None else str(config.run_dir / p)
                          for p in _data_paths(config).values()))


def cmd_generate(config: ExperimentConfig) -> dict:
    """Materialize the dataset and write its manifest.

    Synthetic datasets are written as text files under the run directory;
    file-backed datasets are checksummed in place. Either way the manifest
    records paths and digests so later stages can verify what they load.
    """
    manifest, stale = _output(config, "dataset.json")
    if stale is None:
        return manifest
    dataset, paths = config.dataset, _data_paths(config)
    if dataset["kind"] == "synthetic":
        (config.run_dir / "dataset").mkdir(parents=True, exist_ok=True)
        params = {key: value for key, value in dataset.items() if key != "kind"}
        if config.task == "recsys":
            graph = generate_bipartite(**params)
        else:
            graph, labels = generate_scale_free(params.pop("num_nodes"), **params)
            save_features(graph.features, config.run_dir / paths["features"])
            if paths["labels"] is not None:
                save_labels(labels, config.run_dir / paths["labels"])
        save_edge_list(graph, config.run_dir / paths["edges"])
    else:
        try:
            graph, _ = _read_dataset(config)
        except DatasetFileError as exc:
            key = next(key for key, p in paths.items()
                       if p is not None and str(config.run_dir / p) == exc.path)
            raise ConfigError(f"$.dataset.{key}", str(exc)) from exc
    return _write_output(config, "dataset.json", None, {
        "task": config.task,
        "dataset": dict(dataset),
        "paths": paths,
        "num_nodes": graph.num_nodes,
        "num_edges": int(graph.edges.shape[0]),
    })


def _load_run_dataset(config: ExperimentConfig):
    """The dataset ``generate`` recorded; an unusable manifest, or a file
    that does not parse, exits 3 naming the ``generate`` stage."""
    _input(config, "dataset.json")
    try:
        return _read_dataset(config)
    except DatasetFileError as exc:
        raise MissingInputError(f"{exc}; rerun the 'generate' stage") from exc


def _build_bundle(config: ExperimentConfig, graph, labels, seed: int) -> SplitBundle:
    """The seed's split; a ranking split is refused when it leaves training
    without an edge, or validation or an evaluated setting without a source."""
    if config.task == "classification":
        return make_classification_bundle(graph, labels, **config.split, seed=seed)
    if config.task == "link":
        bundle = make_link_bundle(graph, **config.split, seed=seed)
    else:
        bundle = make_recsys_bundle(graph, **config.split, seed=seed)
    key = "$.split.trans_ratios" if config.task == "link" else "$.split.ratios"
    if bundle.train_graph.num_edges == 0:
        raise ConfigError(key, f"holds out no training edge for seed {seed}")
    kinds = {"validation", *("transductive" if tag == "transductive" else "inductive"
                             for tag in config.settings)}
    for kind, part in (("validation", "validation"), ("transductive", "test"),
                       ("inductive", "inductive test")):
        if kind in kinds and ranking_sources(bundle, kind)[0].size == 0:
            raise ConfigError("$.split.inductive_ratio" if kind == "inductive" else key,
                              f"holds out no {part} edge with a source to rank for seed {seed}")
    return bundle


def cmd_split(config: ExperimentConfig) -> dict:
    """Build one split bundle per seed; returns {seed: path}.

    Every bundle is built before any is written, so a split that leaves
    training without an edge, or validation or an evaluated setting without
    a source (``_build_bundle``), writes nothing.
    """
    graph, labels = _load_run_dataset(config)
    _check_split_counts(graph.num_nodes, config.split, config.settings)
    bundles = {seed: _build_bundle(config, graph, labels, seed) for seed in config.seeds
               if _output(config, "split.json", seed)[1] is not None}
    for seed, bundle in bundles.items():
        _write_output(config, "split.json", seed, {"seed": seed, "bundle": bundle.to_dict()})
    return {seed: str(config.seed_dir(seed) / "split.json") for seed in config.seeds}


def _load_bundle(config: ExperimentConfig, graph, seed: int) -> SplitBundle:
    return SplitBundle.from_dict(_input(config, "split.json", seed)["bundle"], graph)


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
    return EncoderConfig(input_dim=input_dim,
                         **{key: v for key, v in model.items() if key != "featureless"})


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

    All methods of one seed start from the same parameter initialization, so
    the comparison isolates the training strategy, and methods with the same
    stage 1 share one run of it (``run_ablation``).
    """
    graph, _ = _load_run_dataset(config)
    results = {}
    for seed in config.seeds:
        results[seed], stale = _output(config, "train.json", seed)
        if stale is None:
            continue
        bundle = _load_bundle(config, graph, seed)
        supervision = _make_supervision(config, bundle)
        label_set = bundle.label_set if config.task == "classification" else None
        k = config.evaluation["k"]

        def validate(model, bundle=bundle, k=k):
            return validation_metric(model, bundle, k=k)

        model = init_model(
            _encoder_config(config, bundle.train_graph), config.task,
            num_classes=label_set.num_classes if label_set is not None else None,
            num_nodes=bundle.train_graph.num_nodes,
            featureless=config.model["featureless"],
            seed=seed)
        trained = run_ablation(
            config.methods, model, bundle.train_graph, supervision,
            TrainConfig(task=config.task, seed=seed, **config.train),
            label_set=label_set, validation_fn=validate)
        checkpoints = {method: _checkpoint(seed, method) for method in trained}
        (config.seed_dir(seed) / "models").mkdir(exist_ok=True)
        for method, (model, _) in trained.items():
            save_model(model, config.run_dir / checkpoints[method])
        results[seed] = _write_output(config, "train.json", seed, {
            "seed": seed,
            "methods": {method: report.to_dict() for method, (_, report) in trained.items()},
            "checkpoints": checkpoints,
        })
    return results


def cmd_eval(config: ExperimentConfig) -> dict:
    """Evaluate every trained method on every setting; returns {seed: payload}."""
    graph, _ = _load_run_dataset(config)
    results = {}
    for seed in config.seeds:
        results[seed], stale = _output(config, "eval.json", seed)
        if stale is None:
            continue
        bundle = _load_bundle(config, graph, seed)
        _input(config, "train.json", seed)  # its checksums vouch for the checkpoints
        reports = {}
        for method in config.methods:
            model = load_model(config.run_dir / _checkpoint(seed, method))
            reports[method] = {
                setting: evaluate_setting(
                    model, bundle, setting, k=config.evaluation["k"]).to_dict()
                for setting in config.settings
            }
        results[seed] = _write_output(config, "eval.json", seed, {
            "seed": seed,
            "methods": list(config.methods),
            "settings": list(config.settings),
            "reports": reports,
        })
    return results


def cmd_theory(config: ExperimentConfig, *, csv: bool = False) -> dict:
    """Run the bound validation campaign; writes theory.json (and CSV)."""
    payload, stale = _output(config, "theory.json")
    if stale is not None:
        params = dict(config.theory)
        trials = params.pop("trials")
        result = monte_carlo_validate(MonteCarloConfig(**params), trials)
        payload = _write_output(config, "theory.json", None, {
            "summary": result["summary"],
            "rows": result["rows"],
        })
    if csv:
        _write_csv(config.run_dir / "theory.csv", _THEORY_CSV_COLUMNS, payload["rows"])
    return payload


_THEORY_CSV_COLUMNS = ("trial", "method", "gap", "bound", "q", "tau", "g_term",
                       "stage1_surrogate", "stage2_surrogate", "violated")
_REPORT_CSV_COLUMNS = ("setting", "method", "scope", "bucket", "mean", "std", "count")


def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, columns, rows) -> None:
    """One line per row (a dict) under a header of ``columns``; a column the
    row lacks, or holds None in, is left empty."""
    lines = [",".join(columns)]
    lines += [",".join(_csv_value(row.get(col)) for col in columns) for row in rows]
    write_atomic(path, "\n".join(lines) + "\n")


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

    Reads every ``<seed>/eval.json`` under the run directory through the rule
    every stage output passes (``_usable``), with the directory's name as the
    config hash, and emits mean and standard deviation per method, setting,
    and degree bucket, plus the relative gain of tuneup over base on the
    headline metric. Writes report.json, whose checksums record the
    evaluations it averaged (and report.csv when asked).
    """
    run_path = Path(run_path)
    if not run_path.is_dir():
        raise MissingInputError(f"run directory not found: {run_path}")
    names = sorted((p.parent.name for p in run_path.glob("*/eval.json")
                    if p.parent.name.isdecimal()), key=int)
    if not names:
        raise MissingInputError(
            f"no eval.json under {run_path}; run the 'eval' stage first")
    config_hash = run_path.resolve().name  # "." names the run directory too
    entries = [_entry("eval.json", name) for name in names]
    payloads = [_required(run_path, config_hash, entry) for entry in entries]
    methods, settings = payloads[0]["methods"], payloads[0]["settings"]

    table = {}
    for setting in settings:
        table[setting] = {}
        for method in methods:
            per_seed = []
            for name, payload in zip(names, payloads):
                try:
                    per_seed.append(payload["reports"][method][setting])
                except (KeyError, TypeError) as exc:  # a hand-edited eval.json
                    raise MissingInputError(
                        f"seed {name} lacks {method}/{setting}; "
                        "rerun the 'eval' stage") from exc
            table[setting][method] = _aggregate_cell(per_seed)
    metric = (payloads[0]["reports"][methods[0]][settings[0]]["metric"]
              if methods and settings else "")

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

    seeds = [int(name) for name in names]
    report = {"metric": metric, "seeds": seeds, "num_seeds": len(seeds), "methods": methods,
              "settings": settings, "table": table, "relative_gain": relative_gain}
    report = _record(run_path, config_hash,
                     _entry("report.json", extra=[entry[0] for entry in entries]), report)
    if csv:
        rows = []
        for setting in settings:
            for method in methods:
                cell, where = table[setting][method], {"setting": setting, "method": method}
                rows.append({**where, "scope": "overall", **cell})
                rows += [{**where, "scope": "bucket", **bucket} for bucket in cell["buckets"]]
        _write_csv(run_path / "report.csv", _REPORT_CSV_COLUMNS, rows)
    return report


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
