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

import ctypes
import dataclasses
import functools
import hashlib
import json
import math
import types
import typing
from pathlib import Path

import numpy as np

from . import NUMERICS
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
from .errors import check_bounds, positive
from .evaluation import (BUCKET_LABELS, EvalError, evaluate_setting, parse_setting,
                         scored_nodes, validation_metric)
from .generators import generate_bipartite, generate_scale_free
from .losses import SupervisionSet
from .models import TASKS, EncoderConfig, init_model, load_model, save_model
from .theory import MonteCarloConfig, monte_carlo_validate
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
# configuration schema
# ---------------------------------------------------------------------------

_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string", list: "a list", dict: "an object"}


def _value(value, kind, path: str, meta):
    """Check one JSON value against a field annotation and its metadata.

    ``int`` refuses booleans and floats; ``float`` also takes an integer and
    stores it as a float. ``X | None`` takes null, and ``tuple[X, ...]`` a
    list whose every entry is an ``X``. The bounds in ``meta`` are held by
    :func:`check_bounds`, the rule the library's config classes apply too.
    """
    if types.UnionType is type(kind):
        if value is None:
            return None
        (kind,) = (arg for arg in typing.get_args(kind) if arg is not type(None))
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(path, f"expected a list, got {value!r}")
        # each entry is bounded on its own path; a check takes the whole list
        entry = {key: v for key, v in meta.items() if key != "check"}
        value = tuple(_value(v, typing.get_args(kind)[0], f"{path}[{i}]", entry)
                      for i, v in enumerate(value))
    else:
        if kind is float and type(value) is int:
            value = float(value)
        accepted = (list, tuple) if kind is list else kind
        if (isinstance(value, bool) is not (kind is bool) or not isinstance(value, accepted)
                or (kind is float and not math.isfinite(value))):
            raise ConfigError(path, f"expected {_TYPE_NAMES[kind]}, got {value!r}")
    try:
        check_bounds(value, meta)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    return value


def _section(cls, raw, path: str, *, base=None, fixed=None) -> dict:
    """Read the JSON object ``raw`` (null reads as ``{}``) through ``cls``,
    and return its keys with their values.

    Every field is typed by its annotation and bounded by its metadata. An
    absent field takes its value from ``base`` if given, else its default.
    ``fixed`` fields are set by the caller and are not keys of the section.
    Unknown and missing keys are errors, and the rules ``cls`` checks
    itself between fields are reported on ``path``.
    """
    raw = {} if raw is None else _value(raw, dict, path, {})
    fixed = fixed or {}
    values = dict(fixed)
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.name not in values]
    for key in raw:
        if key not in {f.name for f in fields}:
            raise ConfigError(f"{path}.{key}", "unknown field")
    for f in fields:
        if f.name in raw:
            value = _value(raw[f.name], hints[f.name], f"{path}.{f.name}", f.metadata)
        elif base is not None:
            value = getattr(base, f.name)
        elif f.default is not dataclasses.MISSING:
            value = f.default
        else:
            raise ConfigError(f"{path}.{f.name}", "required field is missing")
        values[f.name] = value
    try:
        section = dataclasses.asdict(cls(**values))
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    return {key: value for key, value in section.items() if key not in fixed}


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


def _at_least(minimum, default, maximum=math.inf):
    return dataclasses.field(default=default, metadata={"minimum": minimum, "maximum": maximum})


def _unit(default):
    return dataclasses.field(default=default, metadata={"minimum": 0.0, "maximum": 1.0})


def _checked(check, default=dataclasses.MISSING):
    return dataclasses.field(default=default, metadata={"check": check})


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
    num_nodes: int = _at_least(3, 2000, 2**24)
    m_attach: int = _at_least(1, 4)
    feat_dim: int = _at_least(1, 16, 2**16)
    num_classes: int = _at_least(2, 2)
    label_noise: float = _unit(0.0)
    separation: float = 2.0
    feature_noise: float = _at_least(0.0, 1.0)
    community_bias: float = _checked(positive, 4.0)
    seed: int = _at_least(0, 0)

    def __post_init__(self) -> None:
        if self.m_attach >= self.num_nodes:
            raise ValueError(f"m_attach={self.m_attach} must be < num_nodes={self.num_nodes}")
        if self.feat_dim < self.num_classes:
            raise ValueError(f"feat_dim={self.feat_dim} must be >= num_classes={self.num_classes}")


@dataclasses.dataclass(frozen=True)
class _BipartiteDataset:
    num_users: int = _at_least(1, 300, 2**24)
    num_items: int = _at_least(1, 150, 2**24)
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


# the encoder a config's model section defaults to; its input width is the
# dataset's, fixed once the dataset is read (``_encoder_config``)
_MODEL = EncoderConfig("gcn", 1, 32, 32, num_layers=2)


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
    trials: int = _at_least(1, 200, 10**6)


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
    return _section(TrainConfig, raw, "$.train", base=preset, fixed={"task": task, "seed": 0})


def _check_split_counts(n, split: dict, settings: tuple) -> None:
    """Refuse a split that leaves a part the later stages need empty.

    ``node_split`` holds out ``floor(new_fraction * n)`` nodes, and
    ``label_split`` labels ``floor(labeled_fraction * |V_train|)`` of the rest
    (training takes the larger half, validation the rest). The node count of
    a file dataset is unknown until it is read (``n=None``), so there only
    zero fractions are caught; ``_check_bundle`` checks every bundle built.
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
        task = doc["task"]
        raw_dataset = dict(doc["dataset"] or {})
        kind = _value(raw_dataset.pop("kind", "synthetic"), str, "$.dataset.kind",
                      {"choices": ("synthetic", "files")})
        dataset_cls = (_FilesDataset if kind == "files" else
                       _BipartiteDataset if task == "recsys" else _ScaleFreeDataset)
        dataset = {"kind": kind, **_section(dataset_cls, raw_dataset, "$.dataset")}
        if kind == "files" and task == "classification" and dataset["labels"] is None:
            raise ConfigError("$.dataset.labels", "classification needs a label file")
        raw_model = dict(doc["model"] or {})
        featureless = _value(raw_model.pop("featureless", task == "recsys"), bool,
                             "$.model.featureless", {})
        model = {**_section(EncoderConfig, raw_model, "$.model", base=_MODEL,
                            fixed={"input_dim": 1}), "featureless": featureless}
        methods = _distinct(doc["methods"], "$.methods",
                            lambda v, path: _value(v, str, path, {"choices": METHODS}))
        split = _section(_SPLITS[task], doc["split"], "$.split")
        settings = _settings(doc["settings"], task, split.get("cold_ratios", ()))
        _check_split_counts(dataset.get("num_nodes"), split, settings)
        return cls(task, dataset, model, _train(doc["train"], task), methods, settings,
                   _seeds(doc["seeds"]), split, _section(_Eval, doc["eval"], "$.eval"),
                   _section(_Theory, doc["theory"], "$.theory"), doc["output_dir"])

    def to_dict(self) -> dict:
        """The config as a JSON document: tuples as lists, and
        ``evaluation`` under its key ``eval``."""
        payload = json.loads(canonical_json(vars(self)))
        payload["eval"] = payload.pop("evaluation")
        return payload

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
    """``canonical_json`` and a newline, written atomically."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, canonical_json(payload) + "\n")


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _checkpoint(seed: int, method: str) -> str:
    return f"{seed}/models/{method}.json"


def _entry(name: str, seed=None, extra=()) -> tuple:
    """``(path, stage, seed, read, files)`` of the stage output ``name`` (of
    ``seed``, for a per-seed one): its run-relative path, the stage that
    writes it, the seed it records, its reader (``read(payload, *given)``
    returns what its consumers use, or raises if they could not use it), and
    the files its checksums record (those it was computed from, run-relative
    unless absolute; ``extra`` adds those only a config names)."""
    split, train = f"{seed}/split.json", f"{seed}/train.json"
    stage, read, files = {
        "dataset.json": ("generate", _read_manifest, []),
        "split.json": ("split", _read_split, ["dataset.json"]),
        "train.json": ("train", _read_train, ["dataset.json", split]),
        "eval.json": ("eval", _read_eval, ["dataset.json", split, train]),
        "theory.json": ("theory", _read_theory, []),
        "report.json": ("report", None, []),  # report never reads its own output
    }[name]
    return name if seed is None else f"{seed}/{name}", stage, seed, read, [*files, *extra]


def _stage_output(config: ExperimentConfig, name: str, seed=None) -> tuple:
    """The entry of ``name`` with the files the config names: the dataset's
    files for ``dataset.json``, the checkpoints beside ``train.json``."""
    extra = {"dataset.json": [p for p in _data_paths(config).values() if p is not None],
             "train.json": [_checkpoint(seed, m) for m in config.methods]}
    return _entry(name, seed, extra.get(name, ()))


def _read(run_dir: Path, config_hash: str, entry: tuple, *given):
    """What the stage output ``entry`` names under ``run_dir`` holds, as its
    reader returns it given ``given``, if it is usable: it parses, carries
    ``config_hash``, ``NUMERICS``, its entry's seed and a ``checksums`` map,
    each file in that map or among its entry's files still has the recorded
    sha256, and its reader accepts it. Else :class:`MissingInputError` names
    why not and the stage to rerun. This one rule decides for every stage."""
    rel, stage, seed, read, files = entry
    path = run_dir / rel
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        payload = None
    if not isinstance(payload, dict):
        why = f"{path} {'is not valid JSON' if path.is_file() else 'not found'}"
    elif payload.get("config_hash") != config_hash:
        why = f"{path} belongs to config {payload.get('config_hash')!r}, not {config_hash!r}"
    elif not (type(numerics := payload.get("numerics")) is int and numerics == NUMERICS):
        why = f"{path} was computed under numerics {numerics!r}, not {NUMERICS}"
    elif seed is not None and payload.get("seed") != int(seed):
        why = f"{path} belongs to seed {payload.get('seed')!r}, not {seed}"
    elif not isinstance(checksums := payload.get("checksums"), dict):
        why = f"{path} does not record 'checksums'"
    else:
        why = next((f"{run_dir / rel} is missing or does not match its checksum in {path}"
                    for rel in dict.fromkeys([*files, *checksums])
                    if not (run_dir / rel).is_file()
                    or _sha256(run_dir / rel) != checksums.get(rel)), None)
    if why is None:
        try:
            return read(payload, *given)
        except KeyError as exc:
            why = f"{path} does not record {exc.args[0]!r}"
        except (AttributeError, TypeError, ValueError, OverflowError, ConfigError) as exc:
            # these readers' own refusals name the data file or the seed
            why = (str(exc) if isinstance(exc, (DatasetFileError, TrainError, EvalError))
                   else f"{path} is malformed: {exc}")
    raise MissingInputError(f"{why}; rerun the {stage!r} stage")


def _record(run_dir: Path, config_hash: str, entry: tuple, payload: dict) -> dict:
    """Write a stage output with the config hash, ``NUMERICS`` and the
    checksums of the files its entry records."""
    payload = {"config_hash": config_hash, "numerics": NUMERICS, **payload,
               "checksums": {rel: _sha256(run_dir / rel) for rel in entry[4]}}
    write_json(run_dir / entry[0], payload)
    return payload


def _input(config: ExperimentConfig, name: str, seed=None, *given):
    return _read(config.run_dir, config.config_hash, _stage_output(config, name, seed), *given)


def _output(config: ExperimentConfig, name: str, seed=None, *given):
    """A stage's own output as its reader returns it; None makes it recompute."""
    try:
        return _input(config, name, seed, *given)
    except MissingInputError:
        return None


def _write_output(config: ExperimentConfig, name: str, seed, payload: dict) -> dict:
    return _record(config.run_dir, config.config_hash, _stage_output(config, name, seed),
                   payload)


def _read_manifest(payload: dict, config: ExperimentConfig) -> tuple:
    """dataset.json: itself, and the graph and labels of the files it records."""
    recorded = payload["paths"], payload["num_nodes"], payload["num_edges"]
    graph, labels = _read_dataset(config)
    if recorded != (_data_paths(config), graph.num_nodes, graph.num_edges):
        raise ValueError("its paths or counts are not the dataset's")
    return payload, graph, labels


def _read_split(payload: dict, config: ExperimentConfig, graph) -> SplitBundle:
    """split.json: the seed's bundle on the dataset's ``graph``, if ``_check_bundle`` passes it."""
    bundle = SplitBundle.from_dict(payload["bundle"], graph)
    _check_bundle(config, bundle)
    return bundle


def _read_train(payload: dict, methods) -> dict:
    """train.json: a report object per method of ``methods``, and its checkpoints."""
    reports, seed = payload["methods"], payload["seed"]
    if not (isinstance(reports, dict) and sorted(reports) == sorted(methods)
            and all(isinstance(report, dict) for report in reports.values())
            and payload["checkpoints"] == {m: _checkpoint(seed, m) for m in methods}):
        raise TrainError(f"seed {seed} holds malformed method reports or checkpoints")
    return payload


def _read_eval(payload: dict, methods=None, settings=None) -> dict:
    """eval.json: method and setting lists (those given, when given), and for
    each pair a cell holding every field ``report`` averages."""
    seed, reports = payload["seed"], payload["reports"]
    lists = payload["methods"], payload["settings"]
    if (not all(isinstance(v, list) and all(isinstance(s, str) for s in v) for v in lists)
            or (methods is not None and lists != (list(methods), list(settings)))):
        raise EvalError(f"seed {seed} holds malformed method or setting lists")
    for method in lists[0]:
        for setting in lists[1]:
            try:
                cell = reports[method][setting]
            except (KeyError, TypeError) as exc:
                raise EvalError(f"seed {seed} lacks {method}/{setting}") from exc
            buckets = cell.get("buckets") if isinstance(cell, dict) else None
            if not (isinstance(buckets, list) and len(buckets) == len(BUCKET_LABELS)
                    and type(cell.get("value")) in (int, float)
                    and isinstance(cell.get("metric"), str)
                    and all(isinstance(b, dict) and type(b.get("count")) is int
                            and type(b.get("mean")) in (type(None), int, float)
                            for b in buckets)):
                raise EvalError(f"seed {seed} holds a malformed {method}/{setting} cell")
    return payload


def _read_theory(payload: dict) -> dict:
    """theory.json: numbers for the summary figures ``theory`` prints; rows as objects."""
    summary = payload["summary"]
    if not (all(type(summary[key][method]) in (int, float) for method in summary["violation_rate"]
                for key in ("violation_rate", "mean_gap", "mean_bound"))
            and all(isinstance(row, dict) for row in payload["rows"])):
        raise ValueError("its summary figures or rows are not numbers and objects")
    return payload


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
            "features": None if config.task == "recsys" else "dataset/features.npy",
            "labels": "dataset/labels.txt" if config.task == "classification" else None}


def _read_dataset(config: ExperimentConfig):
    """The graph and labels in the dataset's files."""
    return load_dataset(*(None if p is None else str(config.run_dir / p)
                          for p in _data_paths(config).values()))


def cmd_generate(config: ExperimentConfig) -> dict:
    """Materialize the dataset and write its manifest.

    Synthetic datasets are written under the run directory (edge and label
    lists as text, features as ``.npy``); file-backed datasets are
    checksummed in place. Either way the manifest records paths and digests
    so later stages can verify what they load.
    """
    usable = _output(config, "dataset.json", None, config)
    if usable is not None:
        return usable[0]
    dataset, paths = config.dataset, _data_paths(config)
    if dataset["kind"] == "synthetic":
        params = {key: value for key, value in dataset.items() if key != "kind"}
        if config.task == "recsys":
            graph, labels = generate_bipartite(**params), None
        else:
            graph, labels = generate_scale_free(params.pop("num_nodes"), **params)
        # only a dataset that was generated gets a directory
        (config.run_dir / "dataset").mkdir(parents=True, exist_ok=True)
        save_edge_list(graph, config.run_dir / paths["edges"])
        if paths["features"] is not None:
            save_features(graph.features, config.run_dir / paths["features"])
        if paths["labels"] is not None:
            save_labels(labels, config.run_dir / paths["labels"])
        # once they are written, any other file there (say, of an older layout) goes
        for path in (config.run_dir / "dataset").iterdir():
            if path.is_file() and str(path.relative_to(config.run_dir)) not in paths.values():
                path.unlink()
    else:
        try:
            graph, _ = _read_dataset(config)
        except DatasetFileError as exc:
            key = next(key for key, p in paths.items()
                       if p is not None and str(config.run_dir / p) == exc.path)
            raise ConfigError(f"$.dataset.{key}", str(exc)) from exc
        if config.task == "recsys" and graph.bipartite is None:
            raise ConfigError("$.dataset.edges", "a recsys edge file needs a '%bipartite' line")
        if graph.features is not None and not config.model["featureless"]:
            try:  # the features' width is the encoder's input_dim
                check_bounds(graph.features.shape[1],
                             EncoderConfig.__dataclass_fields__["input_dim"].metadata)
            except ValueError as exc:
                raise ConfigError("$.dataset.features",
                                  f"its feature width is the model's input_dim, which {exc}"
                                  ) from exc
    return _write_output(config, "dataset.json", None, {
        "task": config.task, "dataset": dict(dataset), "paths": paths,
        "num_nodes": graph.num_nodes, "num_edges": graph.num_edges})


def _build_bundle(config: ExperimentConfig, graph, labels, seed: int) -> SplitBundle:
    """The seed's split, if it passes ``_check_bundle``."""
    make = {"classification": functools.partial(make_classification_bundle, labels=labels),
            "link": make_link_bundle, "recsys": make_recsys_bundle}[config.task]
    bundle = make(graph, **config.split, seed=seed)
    _check_bundle(config, bundle)
    return bundle


def _check_bundle(config: ExperimentConfig, bundle: SplitBundle) -> None:
    """Refuse a bundle that leaves training, validation or an evaluated
    setting nothing to score (``scored_nodes``), or lacks the variant of an
    evaluated cold ratio, naming the split key at fault."""
    seed, ranking = bundle.seed, config.task != "classification"
    unit = "edge" if ranking else "node"
    key = {"classification": "labeled_fraction", "link": "trans_ratios"}.get(config.task, "ratios")
    if len(bundle.train_edges if ranking else bundle.label_set.train_labeled) == 0:
        raise ConfigError(f"$.split.{key}", f"holds out no training {unit} for seed {seed}")
    new = "inductive_ratio" if ranking and bundle.v_new.size else "new_fraction"
    parsed = [parse_setting(tag) for tag in config.settings]
    for kind in dict.fromkeys(["validation", *(kind for kind, _ in parsed)]):
        if scored_nodes(bundle, kind)[0].size == 0:
            at, part = {"validation": (key, "validation"), "transductive": (key, "test")}.get(
                kind, (new, "inductive test"))
            raise ConfigError(f"$.split.{at}",
                              f"holds out no {part} {unit} to score for seed {seed}")
    for tag, (_, ratio) in zip(config.settings, parsed):
        if ratio is not None and ratio not in bundle.cold_input_edges:
            raise ConfigError("$.split.cold_ratios", f"has no variant for {tag} for seed {seed}")


def cmd_split(config: ExperimentConfig) -> dict:
    """Build one split bundle per seed; returns {seed: path}.

    Every bundle is built before any is written, so a split that leaves
    training, validation or an evaluated setting nothing to score
    (``_check_bundle``) writes nothing.
    """
    _, graph, labels = _input(config, "dataset.json", None, config)
    bundles = {seed: _build_bundle(config, graph, labels, seed) for seed in config.seeds
               if _output(config, "split.json", seed, config, graph) is None}
    for seed, bundle in bundles.items():
        _write_output(config, "split.json", seed, {"seed": seed, "bundle": bundle.to_dict()})
    return {seed: str(config.seed_dir(seed) / "split.json") for seed in config.seeds}


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


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Have glibc keep freed training arrays in the heap for reuse.

    Every update builds and frees n x d activations and gradients. By default
    glibc gives large freed blocks back to the kernel (an array above the
    mmap threshold is unmapped, and so is a free heap top above the trim
    threshold), so the next update faults the same pages in again. A fixed
    16 MiB mmap threshold is above every array an update reallocates (20,000
    x 64 floats are 10 MB), and a 64 MiB trim threshold keeps them mapped
    (32 and 256 MiB raised a 20,000-node run's peak RSS by 3.8 MB).
    The setting is process-wide and stays after the stage returns; the
    library below this module leaves the allocator to its caller. Without
    glibc's ``mallopt`` (another libc or platform), or if glibc refuses the
    mmap threshold, this sets nothing.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 16 << 20):
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def cmd_train(config: ExperimentConfig) -> dict:
    """Train every configured method for every seed; returns {seed: summary}.

    All methods of one seed start from the same parameter initialization, so
    the comparison isolates the training strategy, and methods with the same
    stage 1 share one run of it (``run_ablation``).
    """
    _keep_freed_memory()
    _, graph, _ = _input(config, "dataset.json", None, config)
    results = {}
    for seed in config.seeds:
        results[seed] = _output(config, "train.json", seed, config.methods)
        if results[seed] is not None:
            continue
        bundle = _input(config, "split.json", seed, config, graph)
        supervision = _make_supervision(config, bundle)
        label_set = bundle.label_set if config.task == "classification" else None
        validate = functools.partial(validation_metric, bundle=bundle, k=config.evaluation["k"])
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
        reports = {method: report.to_dict() for method, (_, report) in trained.items()}
        results[seed] = _write_output(config, "train.json", seed, {
            "seed": seed, "methods": reports, "checkpoints": checkpoints})
    return results


def cmd_eval(config: ExperimentConfig) -> dict:
    """Evaluate every trained method on every setting; returns {seed: payload}."""
    _keep_freed_memory()
    _, graph, _ = _input(config, "dataset.json", None, config)
    results = {}
    for seed in config.seeds:
        results[seed] = _output(config, "eval.json", seed, config.methods, config.settings)
        if results[seed] is not None:
            continue
        bundle = _input(config, "split.json", seed, config, graph)
        _input(config, "train.json", seed, config.methods)  # it vouches for the checkpoints
        reports = {}
        for method in config.methods:
            model = load_model(config.run_dir / _checkpoint(seed, method))
            reports[method] = {
                setting: evaluate_setting(
                    model, bundle, setting, k=config.evaluation["k"]).to_dict()
                for setting in config.settings
            }
        results[seed] = _write_output(config, "eval.json", seed, {
            "seed": seed, "methods": list(config.methods), "settings": list(config.settings),
            "reports": reports})
    return results


def cmd_theory(config: ExperimentConfig, *, csv: bool = False) -> dict:
    """Run the bound validation campaign; writes theory.json (and CSV)."""
    payload = _output(config, "theory.json")
    if payload is None:
        params = dict(config.theory)
        trials = params.pop("trials")
        payload = _write_output(config, "theory.json", None,
                                monte_carlo_validate(MonteCarloConfig(**params), trials))
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
    every stage output passes (``_read``), with the directory's name as the
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
    first = _read(run_path, config_hash, entries[0])
    methods, settings = first["methods"], first["settings"]
    # every other seed holds the first seed's methods and settings
    payloads = [first, *(_read(run_path, config_hash, entry, methods, settings)
                         for entry in entries[1:])]

    table = {setting: {method: _aggregate_cell([p["reports"][method][setting] for p in payloads])
                       for method in methods} for setting in settings}
    metric = (payloads[0]["reports"][methods[0]][settings[0]]["metric"]
              if methods and settings else "")

    relative_gain = {}
    if "base" in methods and "tuneup" in methods:
        for setting in settings:
            base, tune = (table[setting][method]["mean"] for method in ("base", "tuneup"))
            gain = (tune - base) / base if base > 0 else None
            relative_gain[setting] = {"value": gain,
                                      "formatted": "n/a" if gain is None else f"{gain:+.1%}"}

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
