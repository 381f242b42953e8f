"""Tests for the config schema, pipeline stages, report aggregation, and CLI."""
import ctypes
import dataclasses
import hashlib
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from tailkit import NUMERICS, experiment, theory, training
from tailkit.cli import _blas_thread_calls, main
from tailkit.data import (SplitBundle, make_classification_bundle, save_edge_list,
                          save_features, save_labels)
from tailkit.evaluation import BUCKET_LABELS, MetricReport
from tailkit.generators import generate_scale_free
from tailkit.graph import LabelSet, build_graph, normalize_adjacency
from tailkit.errors import positive
from tailkit.models import EncoderConfig, ModelError, init_model, save_model
from tailkit.theory import MonteCarloConfig, TheoryError
from tailkit.training import TrainConfig, TrainError
from tailkit.experiment import (
    _aggregate_cell,
    ConfigError,
    ExperimentConfig,
    MissingInputError,
    canonical_json,
    cmd_eval,
    cmd_generate,
    cmd_report,
    cmd_split,
    cmd_theory,
    cmd_train,
    load_config,
    render_report_table,
    write_json,
)

from feature_files import BAD_NPY, npy_bytes, save_features_csv


def classification_payload(tmp_path, **overrides):
    payload = {
        "task": "classification",
        "dataset": {"num_nodes": 120, "m_attach": 2, "feat_dim": 6, "seed": 1},
        "model": {"variant": "gcn", "hidden_dim": 8, "output_dim": 8},
        "train": {"stage1_epochs": 8, "stage2_epochs": 4, "stage1_lr": 0.02,
                  "eval_every": 4, "patience": 3},
        "methods": ["base", "tuneup"],
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "runs"),
    }
    payload.update(overrides)
    return payload


def make_config(tmp_path, **overrides):
    return ExperimentConfig.from_dict(classification_payload(tmp_path, **overrides))


# small synthetic datasets that files_config writes out as a file dataset
FILE_SOURCES = {
    "classification": {"num_nodes": 40, "m_attach": 2, "feat_dim": 6, "seed": 1},
    "link": {"num_nodes": 40, "m_attach": 2, "feat_dim": 6, "seed": 1},
    "recsys": {"num_users": 5, "num_items": 3, "min_interactions": 3, "num_clusters": 3},
}


def files_config(tmp_path, task="classification", **overrides):
    """A config file whose ``kind: files`` dataset is a copy of a small
    synthetic one; its runs go under ``tmp_path / "files"``."""
    source = make_config(tmp_path, task=task, dataset=FILE_SOURCES[task])
    data = tmp_path / "data"
    data.mkdir()
    dataset = {"kind": "files"}
    for key, rel in cmd_generate(source)["paths"].items():
        if rel is None:
            continue
        dataset[key] = str(data / f"{key}.txt")
        if key == "features":
            save_features_csv(np.load(source.run_dir / rel), dataset[key])
        else:
            Path(dataset[key]).write_bytes((source.run_dir / rel).read_bytes())
    cfg_path = tmp_path / "files.json"
    cfg_path.write_text(json.dumps(classification_payload(
        tmp_path, task=task, dataset=dataset, output_dir=str(tmp_path / "files"),
        **overrides)))
    return cfg_path


# every config the schema refuses, and the JSON path it names
SCHEMA_VIOLATIONS = [
    ({"task": "swimming"}, "$.task"),
    ({"task": "classification", "frobnicate": 1}, "$.frobnicate"),
    ({"task": "classification", "model": {"depth": 3}}, "$.model.depth"),
    ({"task": "classification", "dataset": {"foo": 1}}, "$.dataset.foo"),
    ({"task": "classification", "seeds": []}, "$.seeds"),
    ({"task": "classification", "seeds": ["a"]}, "$.seeds[0]"),
    ({"task": "classification", "seeds": [1, 1]}, "$.seeds"),
    ({"task": "classification", "methods": []}, "$.methods"),
    ({"task": "classification", "methods": ["warmup"]}, "$.methods[0]"),
    ({"task": "classification", "methods": ["base", "base"]}, "$.methods"),
    ({"task": "classification", "train": {"alpha": 2.0}}, "$.train.alpha"),
    ({"task": "classification", "settings": ["sideways"]}, "$.settings[0]"),
    ({"task": "classification",
      "settings": ["inductive-cold(0.5)"]}, "$.settings[0]"),
    ({"task": "recsys", "settings": ["inductive"]}, "$.settings[0]"),
    ({"task": "classification", "eval": {"k": 0}}, "$.eval.k"),
    ({"task": "classification", "theory": {"delta": 2.0}}, "$.theory.delta"),
    ({"task": "classification", "model": {"hidden_dim": "big"}},
     "$.model.hidden_dim"),
    ({"task": "classification", "split": {"new_fraction": 0}},
     "$.split.new_fraction"),
    ({"task": "link", "split": {"new_fraction": 0.0},
      "settings": ["transductive", "inductive-cold(0.9)"]}, "$.split.new_fraction"),
    ({"task": "classification", "dataset": {"num_nodes": 19},
      "split": {"new_fraction": 0.05}}, "$.split.new_fraction"),
    ({"task": "classification", "train": {"stage1_epochs": 2.5}},
     "$.train.stage1_epochs"),
    ({"task": "classification", "train": {"stage1_epochs": True}},
     "$.train.stage1_epochs"),
    ({"task": "classification", "train": {"eval_every": 2.5}}, "$.train.eval_every"),
    ({"task": "classification", "train": {"stage1_lr": float("nan")}},
     "$.train.stage1_lr"),
    ({"task": "classification", "dataset": {"seed": -1}}, "$.dataset.seed"),
    ({"task": "classification", "split": {"cold_ratios": [2.0]}},
     "$.split.cold_ratios[0]"),
    ({"task": "link", "split": {"trans_ratios": [0.9, 0.9, 0.9]}},
     "$.split.trans_ratios"),
    ({"task": "link", "split": {"trans_ratios": [0.5, 0.5]}}, "$.split.trans_ratios"),
    ({"task": "recsys", "split": {"ratios": [-0.1, 0.2, 0.9]}}, "$.split.ratios"),
    ({"task": "classification", "theory": {"N": 100.0}}, "$.theory.N"),
    ({"task": "classification", "theory": {"seed": 1.5}}, "$.theory.seed"),
    ({"task": "classification", "theory": {"seed": -1}}, "$.theory.seed"),
    ({"task": "classification", "seeds": [-1]}, "$.seeds[0]"),
    ({"task": "classification", "train": {"task": "link"}}, "$.train.task"),
    # one past each size maximum
    ({"task": "classification", "dataset": {"num_nodes": 2**24 + 1}}, "$.dataset.num_nodes"),
    ({"task": "recsys", "dataset": {"num_users": 2**24 + 1}}, "$.dataset.num_users"),
    ({"task": "recsys", "dataset": {"num_items": 2**24 + 1}}, "$.dataset.num_items"),
    ({"task": "classification", "theory": {"N": 2**24 + 1}}, "$.theory.N"),
    ({"task": "classification", "theory": {"T": 2**24 + 1}}, "$.theory.T"),
    ({"task": "classification", "theory": {"R": 2**24 + 1}}, "$.theory.R"),
    ({"task": "classification", "theory": {"m": 2**24 + 1}}, "$.theory.m"),
    ({"task": "classification", "theory": {"d": 2**16 + 1}}, "$.theory.d"),
    # one past each bound of the train keys
    ({"task": "classification", "train": {"stage1_epochs": -1}}, "$.train.stage1_epochs"),
    ({"task": "classification", "train": {"stage2_epochs": -1}}, "$.train.stage2_epochs"),
    ({"task": "classification", "train": {"stage1_lr": 0}}, "$.train.stage1_lr"),
    ({"task": "classification", "train": {"stage2_lr": 0}}, "$.train.stage2_lr"),
    ({"task": "classification", "train": {"l2_weight": -0.5}}, "$.train.l2_weight"),
    ({"task": "classification", "train": {"eval_every": 0}}, "$.train.eval_every"),
    ({"task": "classification", "train": {"patience": 0}}, "$.train.patience"),
]


# overrides of classification_payload that every stage refuses before it
# runs, and the JSON path each refusal names
REFUSED_OVERRIDES = [
    ({"model": {"variant": "gat", "gat_heads": 2}}, "$.model.gat_heads"),
    ({"split": {"new_fraction": 0}}, "$.split.new_fraction"),
    ({"split": {"new_fraction": 1.0}, "settings": ["transductive"]},
     "$.split.new_fraction"),
    ({"split": {"labeled_fraction": 0}}, "$.split.labeled_fraction"),
    ({"split": {"labeled_fraction": 0.001}}, "$.split.labeled_fraction"),
    ({"train": {"stage1_epochs": 2.5}}, "$.train.stage1_epochs"),
    ({"train": {"stage1_epochs": True}}, "$.train.stage1_epochs"),
    ({"train": {"eval_every": 2.5}}, "$.train.eval_every"),
    ({"dataset": {"num_nodes": 120, "seed": -1}}, "$.dataset.seed"),
    ({"split": {"cold_ratios": [2.0]}}, "$.split.cold_ratios"),
    ({"task": "link", "split": {"trans_ratios": [0.9, 0.9, 0.9]}},
     "$.split.trans_ratios"),
    ({"task": "recsys", "dataset": {"num_users": 30, "num_items": 20},
      "split": {"ratios": [-0.1, 0.2, 0.9]}}, "$.split.ratios"),
    ({"theory": {"N": 100.0}}, "$.theory.N"),
    ({"theory": {"seed": 1.5}}, "$.theory.seed"),
    ({"dataset": {"num_nodes": 60, "feat_dim": 1}}, "$.dataset"),
    ({"dataset": {"num_nodes": 4, "m_attach": 4}}, "$.dataset"),
    ({"task": "recsys", "dataset": {"num_items": 3}}, "$.dataset"),
    ({"task": "recsys", "dataset": {"min_interactions": 200}}, "$.dataset"),
    ({"task": "recsys", "dataset": {"min_interactions": 5, "max_interactions": 4}},
     "$.dataset"),
    ({"dataset": {"num_nodes": 60, "community_bias": 0.0}}, "$.dataset.community_bias"),
    ({"dataset": {"num_nodes": 60, "community_bias": -1}}, "$.dataset.community_bias"),
    # each of these ended in a traceback at train or eval
    ({"task": "recsys", "dataset": {"num_users": 30, "num_items": 20},
      "split": {"ratios": [0.2, 0.0, 0.8]}}, "$.split.ratios"),
    ({"task": "link", "split": {"trans_ratios": [0.5, 0.0, 0.5]}}, "$.split.trans_ratios"),
    ({"task": "link", "split": {"trans_ratios": [0.0, 0.5, 0.5]}}, "$.split.trans_ratios"),
    ({"split": {"labeled_fraction": 1.0}}, "$.split.labeled_fraction"),
    ({"split": {"labeled_fraction": 0.01}}, "$.split.labeled_fraction"),
    # each of these ended in a traceback at generate, train or theory
    ({"dataset": {"num_nodes": 60, "feat_dim": 2**63}}, "$.dataset.feat_dim"),
    ({"model": {"hidden_dim": 2**63}}, "$.model.hidden_dim"),
    ({"model": {"output_dim": 2**63}}, "$.model.output_dim"),
    ({"model": {"num_layers": 2**63}}, "$.model.num_layers"),
    ({"theory": {"trials": 10**19}}, "$.theory.trials"),
    # each of these was refused naming only $.train
    ({"train": {"stage1_epochs": -1}}, "$.train.stage1_epochs"),
    ({"train": {"stage2_epochs": -1}}, "$.train.stage2_epochs"),
    ({"train": {"stage1_lr": 0}}, "$.train.stage1_lr"),
    ({"train": {"stage2_lr": -1e-3}}, "$.train.stage2_lr"),
    ({"train": {"l2_weight": -1}}, "$.train.l2_weight"),
    ({"train": {"eval_every": 0}}, "$.train.eval_every"),
    ({"train": {"patience": 0}}, "$.train.patience"),
]


# --seed flags that every stage refuses before it runs
BAD_SEED_FLAGS = [
    ("--seed=-1", "$.seeds[0]"),
    ("--seed=1,1", "$.seeds"),
    ("--seed=a", "$.seeds"),
]
# splits of files_config's datasets that the split stage refuses, of the
# task file_split_task names
FILE_SPLITS_REFUSED = [
    ({"labeled_fraction": 0.01}, "$.split.labeled_fraction"),
    ({"new_fraction": 0.01}, "$.split.new_fraction"),
    # recsys: 15 interactions leave floor(0.05 * 15) = 0 for validation
    ({"ratios": [0.10, 0.05, 0.85]}, "$.split.ratios"),
    # link: floor(0.01 * 40) = 0 new nodes, so no inductive test edge either
    ({"new_fraction": 0.01, "inductive_ratio": 0.5}, "$.split.new_fraction"),
]


def file_split_task(split) -> str:
    """The task of a FILE_SPLITS_REFUSED split, by a key only that task takes."""
    return ("recsys" if "ratios" in split else "link" if "inductive_ratio" in split
            else "classification")


def file_dataset(directory, texts) -> dict:
    """A ``kind: files`` dataset of ``{name: bytes}`` written under ``directory``."""
    dataset = {"kind": "files"}
    for name, text in texts.items():
        (directory / f"{name}.txt").write_bytes(text)
        dataset[name] = str(directory / f"{name}.txt")
    return dataset


# a three-node file dataset, and the texts that break one of its files at line 2
DATASET_TEXTS = {"edges": b"0 1\n1 2\n", "features": b"0.5\n1.5\n2.5\n",
                 "labels": b"0 0\n1 1\n2 0\n"}
MALFORMED_TEXTS = {
    "edges": b"0 1\n1 x\n",
    "features": b"0.5\nx\n2.5\n",
    "labels": b"0 0\n1 x\n2 0\n",
    "features-width": b"0.5\n1.5,2\n2.5\n",
    "edges-utf8": b"0 1\n1 \xff2\n",
    "labels-utf8": b"0 0\n1 \xff1\n2 0\n",
}
# a ten-node file dataset whose last label is 2**62
CLASS_ID_TOO_LARGE = {
    "edges": "".join(f"{i} {i + 1}\n" for i in range(9)).encode(),
    "labels": ("".join(f"{i} {i % 2}\n" for i in range(9))
               + "9 4611686018427387904\n").encode(),
}
# (task, files) whose line 2 holds an id beyond int64
BEYOND_INT64 = [
    ("recsys", {"edges": b"%bipartite 2 2\n1 99999999999999999999\n0 2\n"}),
    ("classification", {"edges": b"0 1\n1 2\n",
                        "labels": b"0 0\n1 99999999999999999999\n"}),
]


# the config classes whose field metadata the schema reads: their section,
# their error, and an instance that passes
CONFIG_CLASSES = [("train", TrainError, TrainConfig("classification")),
                  ("model", ModelError, EncoderConfig("gcn", 4, 4, 4)),
                  ("theory", TheoryError, MonteCarloConfig())]
# a value just past each bound of the checks in that metadata
PAST_CHECKS = {positive: [0.0], training._check_alpha: [-1e-9, 1.0],
               theory._check_delta: [0.0, 1.0]}


def past_each_bound():
    """(section, error, instance, field, value) for a value just past each
    bound that a field of a CONFIG_CLASSES class declares."""
    cases = []
    for section, error, instance in CONFIG_CLASSES:
        for f in dataclasses.fields(instance):
            meta = f.metadata
            step = 1 if isinstance(getattr(instance, f.name), int) else 1e-9
            values = [*(["x"] if "choices" in meta else []),
                      *([meta["minimum"] - step] if "minimum" in meta else []),
                      *([meta["maximum"] + step] if "maximum" in meta else []),
                      *PAST_CHECKS.get(meta.get("check"), [])]
            cases += [(section, error, instance, f.name, value) for value in values]
    return cases


def drop_first_line(path) -> None:
    path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))


class TestConfigSchema:
    def test_minimal_config_fills_defaults(self, tmp_path):
        config = ExperimentConfig.from_dict({"task": "classification"})
        assert config.dataset["num_nodes"] == 2000
        assert config.model["variant"] == "gcn"
        assert config.methods == ("base", "dropedge", "tuneup",
                                  "no-curriculum", "no-pseudo", "no-syntails")
        assert config.settings[0] == "transductive"
        assert "inductive-cold(0.9)" in config.settings
        assert config.seeds == (0,)
        assert config.evaluation == {"k": 50}
        assert config.theory["trials"] == 200

    def test_normalization_is_idempotent(self, tmp_path):
        config = make_config(tmp_path)
        again = ExperimentConfig.from_dict(config.to_dict())
        assert again == config
        assert canonical_json(again.to_dict()) == canonical_json(config.to_dict())

    def test_recsys_defaults(self):
        config = ExperimentConfig.from_dict({"task": "recsys"})
        assert config.settings == ("transductive",)
        assert config.model["featureless"] is True
        assert config.split == {"ratios": (0.10, 0.05, 0.85)}

    def test_hash_ignores_output_dir_and_seeds(self, tmp_path):
        config = make_config(tmp_path)
        moved = make_config(tmp_path, output_dir=str(tmp_path / "elsewhere"))
        reseeded = make_config(tmp_path, seeds=[5, 6, 7])
        assert config.config_hash == moved.config_hash
        assert config.config_hash == reseeded.config_hash
        assert len(config.config_hash) == 12
        int(config.config_hash, 16)

    def test_hash_tracks_experiment_content(self, tmp_path):
        config = make_config(tmp_path)
        changed = make_config(
            tmp_path, train={"stage1_epochs": 8, "stage2_epochs": 4,
                             "stage1_lr": 0.02, "eval_every": 4,
                             "patience": 3, "alpha": 0.75})
        assert config.config_hash != changed.config_hash

    @pytest.mark.parametrize("payload,path", SCHEMA_VIOLATIONS)
    def test_schema_violations_report_json_path(self, payload, path):
        with pytest.raises(ConfigError) as excinfo:
            ExperimentConfig.from_dict(payload)
        assert excinfo.value.path == path

    @pytest.mark.parametrize("section,error,instance,name,value", past_each_bound())
    def test_one_rule_holds_the_schema_and_the_config_classes(self, section, error,
                                                              instance, name, value):
        """A value past a bound is refused by the schema naming its JSON path,
        and by the class with its own error, whose message starts with the
        field's name."""
        with pytest.raises(ConfigError) as excinfo:
            ExperimentConfig.from_dict({"task": "classification", section: {name: value}})
        assert excinfo.value.path == f"$.{section}.{name}"
        with pytest.raises(error) as excinfo:
            dataclasses.replace(instance, **{name: value})
        assert str(excinfo.value).startswith(f"{name}: ")

    def test_config_classes_declare_their_bounds_as_metadata(self):
        bounded = {(section, name) for section, _, _, name, _ in past_each_bound()}
        assert {name for section, name in bounded if section == "train"} == {
            "task", "stage1_epochs", "stage2_epochs", "stage1_lr", "stage2_lr", "alpha",
            "l2_weight", "eval_every", "patience"}
        assert {name for section, name in bounded if section == "model"} == {
            "variant", "input_dim", "hidden_dim", "output_dim", "num_layers"}
        assert {name for section, name in bounded if section == "theory"} == {
            "N", "T", "R", "m", "d", "delta", "seed", "stage1_steps", "stage2_steps", "lr"}

    @pytest.mark.parametrize("key,value", [
        ("N", 0), ("T", 0), ("R", 0), ("m", 0), ("d", 0),
        ("stage1_steps", -1), ("stage2_steps", -1), ("lr", 0.0)])
    def test_theory_field_errors_name_the_field(self, key, value):
        with pytest.raises(ConfigError) as excinfo:
            ExperimentConfig.from_dict({"task": "classification", "theory": {key: value}})
        assert excinfo.value.path == f"$.theory.{key}"

    def test_size_maxima_are_accepted(self):
        config = ExperimentConfig.from_dict({
            "task": "classification",
            "dataset": {"num_nodes": 2**24, "feat_dim": 2**16},
            "model": {"hidden_dim": 2**16, "output_dim": 2**16, "num_layers": 2**10},
            "theory": {"N": 2**24, "T": 2**23, "R": 2**23, "m": 2**23, "d": 2**16,
                       "trials": 10**6}})
        assert config.model["num_layers"] == 2**10 and config.theory["trials"] == 10**6
        recsys = ExperimentConfig.from_dict({
            "task": "recsys", "dataset": {"num_users": 2**24, "num_items": 2**24}})
        assert recsys.dataset["num_items"] == 2**24

    def test_float_fields_take_integers_and_store_floats(self):
        config = ExperimentConfig.from_dict({
            "task": "classification", "train": {"l2_weight": 0, "alpha": 0},
            "theory": {"separation": 8}})
        assert config.train["l2_weight"] == 0.0
        assert type(config.train["l2_weight"]) is float
        assert type(config.train["alpha"]) is float
        assert type(config.theory["separation"]) is float
        assert type(config.theory["N"]) is int

    def test_config_hashes_are_pinned(self):
        # the README's minimal config, the two benchmark workloads at seed 0,
        # and the three all-defaults configs
        configs = {
            "e63585c28b5f": {
                "task": "classification",
                "dataset": {"num_nodes": 300, "m_attach": 2, "feat_dim": 8, "seed": 1},
                "model": {"variant": "gcn", "hidden_dim": 16, "output_dim": 16},
                "train": {"stage1_epochs": 40, "stage2_epochs": 20, "eval_every": 5,
                          "patience": 4},
                "methods": ["base", "tuneup"],
                "settings": ["transductive", "inductive-cold(0.9)"],
                "seeds": [0, 1, 2],
                "output_dir": "runs",
            },
            "f8ed702e2423": {
                "task": "link",
                "dataset": {"num_nodes": 2000, "m_attach": 2, "feat_dim": 16, "seed": 0},
                "model": {"variant": "gcn", "hidden_dim": 32, "output_dim": 32,
                          "num_layers": 2},
                "train": {"preset": "desk-link", "stage1_epochs": 40,
                          "stage2_epochs": 40, "eval_every": 10, "patience": 10},
                "methods": ["base", "tuneup"],
                "settings": ["transductive", "inductive", "inductive-cold(0.9)"],
                "split": {"cold_ratios": [0.9]},
                "eval": {"k": 50},
                "theory": {"trials": 20, "seed": 0},
            },
            "e614a83eb989": {
                "task": "classification",
                "dataset": {"num_nodes": 20000, "m_attach": 2, "feat_dim": 16,
                            "num_classes": 2, "separation": 1.5, "feature_noise": 1.0,
                            "community_bias": 4.0, "label_noise": 0.0, "seed": 0},
                "model": {"variant": "sage-max", "hidden_dim": 32, "output_dim": 32,
                          "num_layers": 2},
                "train": {"stage1_epochs": 10, "stage2_epochs": 10, "stage1_lr": 0.01,
                          "alpha": 0.5, "eval_every": 5, "patience": 10},
                "methods": ["base", "tuneup"],
                "settings": ["transductive", "inductive-cold(0.9)"],
                "split": {"cold_ratios": [0.9]},
            },
            "ab0ad22a972f": {"task": "classification"},
            "24ca8b6cd558": {"task": "link"},
            "70287f071892": {"task": "recsys"},
        }
        for expected, payload in configs.items():
            assert ExperimentConfig.from_dict(payload).config_hash == expected

    def test_every_schema_field_is_in_the_readme(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        reference = readme.split("## Configuration reference")[1].split("\n## ")[0]
        documented = set(re.findall(r"`([A-Za-z_0-9]+)`", reference))
        sections = [experiment._Document, experiment._ScaleFreeDataset,
                    experiment._BipartiteDataset, experiment._FilesDataset,
                    EncoderConfig, TrainConfig, *experiment._SPLITS.values(),
                    experiment._Eval, experiment._Theory]
        accepted = {f.name for cls in sections for f in dataclasses.fields(cls)}
        accepted |= {"kind", "preset", "featureless"}
        assert sorted(accepted - documented) == []

    def test_no_new_nodes_is_fine_when_only_transductive(self, tmp_path):
        config = make_config(tmp_path, split={"new_fraction": 0},
                             settings=["transductive"])
        assert config.split["new_fraction"] == 0
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n")
        files = ExperimentConfig.from_dict({
            "task": "link",
            "dataset": {"kind": "files", "edges": str(edges)},
            "split": {"new_fraction": 0.001},
        })
        assert files.split["new_fraction"] == 0.001

    def test_file_dataset_requires_existing_files(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n")
        with pytest.raises(ConfigError) as excinfo:
            ExperimentConfig.from_dict({
                "task": "link",
                "dataset": {"kind": "files", "edges": str(tmp_path / "no.txt")},
            })
        assert excinfo.value.path == "$.dataset.edges"
        with pytest.raises(ConfigError) as excinfo:
            ExperimentConfig.from_dict({
                "task": "classification",
                "dataset": {"kind": "files", "edges": str(edges)},
            })
        assert excinfo.value.path == "$.dataset.labels"
        config = ExperimentConfig.from_dict({
            "task": "link",
            "dataset": {"kind": "files", "edges": str(edges)},
        })
        assert config.dataset == {"kind": "files", "edges": str(edges),
                                  "features": None, "labels": None}

    def test_presets_apply_and_check_task(self, tmp_path):
        config = ExperimentConfig.from_dict({
            "task": "classification",
            "train": {"preset": "full-classification"},
        })
        assert config.train["stage1_epochs"] == 1500
        assert config.train["stage1_lr"] == 0.001
        override = ExperimentConfig.from_dict({
            "task": "classification",
            "train": {"preset": "full-classification", "stage1_epochs": 12},
        })
        assert override.train["stage1_epochs"] == 12
        with pytest.raises(ConfigError) as excinfo:
            ExperimentConfig.from_dict({
                "task": "classification",
                "train": {"preset": "full-recsys"},
            })
        assert excinfo.value.path == "$.train.preset"

    def test_load_config_and_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(classification_payload(tmp_path)))
        config = load_config(path, seeds=[7], output_dir=str(tmp_path / "o"))
        assert config.seeds == (7,)
        assert config.output_dir == str(tmp_path / "o")
        for seeds, where in (([-1], "$.seeds[0]"), ([1, 1], "$.seeds"), ([], "$.seeds")):
            with pytest.raises(ConfigError) as excinfo:
                load_config(path, seeds=seeds)
            assert excinfo.value.path == where
        with pytest.raises(MissingInputError):
            load_config(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError) as excinfo:
            load_config(bad)
        assert excinfo.value.path == "$"


class TestStages:
    def test_generate_writes_dataset_and_manifest(self, tmp_path):
        config = make_config(tmp_path)
        manifest = cmd_generate(config)
        run = config.run_dir
        assert (run / "dataset/edges.txt").is_file()
        assert (run / "dataset/features.npy").is_file()
        assert (run / "dataset/labels.txt").is_file()
        assert manifest["config_hash"] == config.config_hash
        assert manifest["num_nodes"] == 120
        assert manifest["num_edges"] == 2 * (120 - 2)
        digest = hashlib.sha256((run / "dataset/edges.txt").read_bytes()).hexdigest()
        assert manifest["checksums"]["dataset/edges.txt"] == digest

    def test_generated_dataset_digests_are_pinned(self, tmp_path):
        # a generator change that alters the data must show up here
        config = make_config(tmp_path, dataset={
            "num_nodes": 2000, "m_attach": 3, "feat_dim": 8, "num_classes": 3,
            "label_noise": 0.1, "community_bias": 2.5, "seed": 4})
        manifest = cmd_generate(config)
        assert manifest["checksums"] == {
            "dataset/edges.txt":
                "0ed028d30ccfb1d229debbec81602489d9d1599a06c863852f3d06b8a59ea0f4",
            "dataset/features.npy":
                "909a3fca0abbbb425904248e9ef6b937cfccbd62571683de2d2e3987f82081f9",
            "dataset/labels.txt":
                "7c247ee56fea49a57ffcd40a30d6f7d706e80ca3740e11e316781f02efc10656",
        }
        for rel, digest in manifest["checksums"].items():
            path = config.run_dir / rel
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("task", ["classification", "link"])
    def test_generated_features_equal_their_csv_text(self, tmp_path, task):
        """The generated ``features.npy`` loads bit-equal to the ``%.17g``
        CSV text of the generator's array, with an equal graph and labels."""
        config = make_config(tmp_path, task=task)
        paths = {key: None if rel is None else config.run_dir / rel
                 for key, rel in cmd_generate(config)["paths"].items()}
        assert paths["features"].name == "features.npy"
        params = {key: value for key, value in config.dataset.items() if key != "kind"}
        generated = generate_scale_free(params.pop("num_nodes"), **params)[0].features
        text = tmp_path / "features.csv"
        save_features_csv(generated, text)
        from_text = np.loadtxt(text, delimiter=",", dtype=np.float64, ndmin=2)
        graph, labels = experiment.load_dataset(paths["edges"], paths["features"],
                                                paths["labels"])
        assert graph.features.tobytes() == from_text.tobytes() == generated.tobytes()
        assert graph.features.shape == from_text.shape and graph.features.dtype == np.float64
        oracle, oracle_labels = experiment.load_dataset(paths["edges"], text, paths["labels"])
        for name in ("num_nodes", "bipartite", "edges", "csr_offsets", "csr_targets"):
            assert np.array_equal(getattr(graph, name), getattr(oracle, name)), name
        if task == "classification":
            assert np.array_equal(labels.labels, oracle_labels.labels)
            assert labels.num_classes == oracle_labels.num_classes
        else:
            assert labels is None and oracle_labels is None

    @pytest.mark.parametrize("task,overrides,digests", [
        ("classification", {}, {
            "models/base.json": "d6ddd363c4e83ed15c63cfe39a05675279f6fba2ac76b468663f42d57c11ced0",
            "models/dropedge.json":
                "f992b9e6ddb1632458f283f204a1d9fbc6f40af691d43aad253248aece3225bd",
            "models/no-curriculum.json":
                "4214ac78f41d342f0bac44bd9d6b7c71e7a0d312efceee1d8e94e7937fe30217",
            "models/no-pseudo.json":
                "7bd377e15830a8fc877066ebbf425604c4a43a0f5efb6023afca751d41adb753",
            "models/no-syntails.json":
                "1f7b4441dfe5b79ac3a153f7b67a8ffe6b20782c88db9446ecd78a1823607268",
            "models/tuneup.json":
                "18436e1d4a647dae1cf1e11f74db52305019c674c8660ec75104872d2ee01f24",
            "train.json": "a7307dd930ece9a836c723d51b7111c6550e28a46fa746f32d5a9fe855d8180b",
        }),
        ("link", {
            "model": {"variant": "sage-mean", "hidden_dim": 8, "output_dim": 8},
            "train": {"preset": "desk-link", "stage1_epochs": 8, "stage2_epochs": 4,
                      "eval_every": 4, "patience": 3},
        }, {
            "models/base.json": "f3d3e56ab281fbcad01851fb58173c83196deaf1f97f3deaacb00b870e9cd213",
            "models/dropedge.json":
                "b236f6a7b2aec57f2669af4cc21494eef1ee021868c4dc864d8dcc50925ecde6",
            "models/no-curriculum.json":
                "e4714e033b13428e155bbf63c31b8fdee7866fa18bd3b727844dc3f9aa2fd7ae",
            "models/no-pseudo.json":
                "1e867ad8a07466689b19c930125615475c1384bac38b66925e98e816dd81813d",
            "models/no-syntails.json":
                "526a60076f3655ecee6fea0ff68a34db97548191c98cb2a9d90cf2ab4d49c6f3",
            "models/tuneup.json":
                "1e867ad8a07466689b19c930125615475c1384bac38b66925e98e816dd81813d",
            "train.json": "48c89532419260b5a04166d2292ddc93d2903ec49526e751b99fb9d5c0f4e0af",
        }),
        ("link", {
            "model": {"variant": "gcn", "hidden_dim": 8, "output_dim": 8},
            "train": {"preset": "desk-link", "stage1_epochs": 8, "stage2_epochs": 4,
                      "eval_every": 4, "patience": 3},
        }, {
            "models/base.json": "88f454d0acdac14e4f8f7abca0968c9ed92d4f4c6781487cf742889bafcf6e2a",
            "models/dropedge.json":
                "7cb18bfeb68149a5e93090abd837132430f994bfdbd61880204f1870fe5d1265",
            "models/no-curriculum.json":
                "6b7b418f61c052ef7374cbcec45bb38162028c5f398d611a5dd944e6b0d26e41",
            "models/no-pseudo.json":
                "6c975506b45fb0da67108c12a8d3d36f288c999c9f1e3ccde04795b1734c7219",
            "models/no-syntails.json":
                "efd900f6cb0f5b019990dac228446d7552606e8784f43e2563648ec497a6aa3b",
            "models/tuneup.json":
                "6c975506b45fb0da67108c12a8d3d36f288c999c9f1e3ccde04795b1734c7219",
            "train.json": "65d9cfb4b972384a0ae9e444ad74be38cbd1fd1ae03b2256ae343648b0014d7d",
        }),
        ("classification", {"model": {"variant": "gat", "hidden_dim": 8, "output_dim": 8}}, {
            "models/base.json": "ac81ec69026fb2451134e4bf462ece8a3f13fe6d7d43b007cddedd1ecc752b58",
            "models/dropedge.json":
                "09556367f94bc5fef62e195e489483c86fe541ff87a16708a5b0dc4993e0a91d",
            "models/no-curriculum.json":
                "19e266ec90787278341fb18843fd9a0b441ba42d10a295a88edb08e46415ff27",
            "models/no-pseudo.json":
                "831f6d510ad326cd2b810df00b37581b31c832716f83484c6b2f39d0caefa445",
            "models/no-syntails.json":
                "177af502017b75df90bf78a066e5fbd4bbb6e1cfc2ad39c8c2b9c755b84d2171",
            "models/tuneup.json":
                "2bd572313a59d7e6c6cafdf1d2e065c9653df533da53ccd10855209aa111f940",
            "train.json": "bddda87604d333ee9cdbb88783680160e166ba7cf227d3f485a18566b69ff072",
        }),
    ])
    def test_training_digests_are_pinned(self, tmp_path, task, overrides, digests):
        # a training change that alters any method's result must show up
        # here; the values were taken when each method ran its own stage 1
        config = make_config(tmp_path, task=task, methods=list(training.METHODS),
                             seeds=[0], **overrides)
        cmd_generate(config)
        cmd_split(config)
        cmd_train(config)
        written = {str(p.relative_to(config.seed_dir(0))): p
                   for p in config.seed_dir(0).rglob("*.json") if p.name != "split.json"}
        assert {rel: hashlib.sha256(p.read_bytes()).hexdigest()
                for rel, p in written.items()} == digests

    @pytest.mark.parametrize("task,overrides,digests", [
        ("classification", {}, {
            "0/eval.json": "1bdb9d42d1cb28cb6e0589b85232d75d9ab9cde6477f1e3f4f7c16041de63daa",
            "1/eval.json": "54c5393072f96a34823bb618ae8f3b4847605e6dcb912083824bda6175cea342",
            "report.csv": "6171f3a7cac37d225abb0aa29f3d25a164b2c803aa21046ff50397fd99bd5888",
        }),
        ("link", {"model": {"variant": "sage-mean", "hidden_dim": 8, "output_dim": 8}}, {
            "0/eval.json": "728da79bcec326ff93281dfaffbbaf7a8d4573bd443be408822ba47835359c17",
            "1/eval.json": "1beca26b8408f3fa1a937f03a35e3cdea5e07de649b8a219c07e2786fa7e20ab",
            "report.csv": "8d5f599934842ece8792939da6fc2355659b8b8c1aef9d883b2ef5d1f40862c4",
        }),
        ("recsys", {"dataset": {"num_users": 30, "num_items": 20}}, {
            "0/eval.json": "c33d9bacada037faef1f7f620c9bb492ba919ef59f38a9222bc62e144347adc9",
            "1/eval.json": "84695cadc4247c7209f36e6e05680aea50e8309bc3e52d86da75d7840a91341f",
            "report.csv": "98a32b6e6dcae105e074a8909d7757f6ec8b3425c5315e13c642bbd4c3ee1883",
        }),
    ])
    def test_evaluation_digests_are_pinned(self, tmp_path, task, overrides, digests):
        # every default setting is scored: a change to any setting's nodes,
        # candidate pool or arithmetic must show up here
        config = make_config(tmp_path, task=task, **overrides)
        for stage in (cmd_generate, cmd_split, cmd_train, cmd_eval):
            stage(config)
        cmd_report(config.run_dir, csv=True)
        assert {rel: hashlib.sha256((config.run_dir / rel).read_bytes()).hexdigest()
                for rel in ("0/eval.json", "1/eval.json", "report.csv")} == digests

    def test_generate_skips_existing_output(self, tmp_path):
        config = make_config(tmp_path)
        cmd_generate(config)
        marker = config.run_dir / "dataset.json"
        before = marker.stat().st_mtime_ns
        again = cmd_generate(config)
        assert marker.stat().st_mtime_ns == before
        assert again["config_hash"] == config.config_hash

    def test_split_writes_per_seed_bundles(self, tmp_path):
        config = make_config(tmp_path)
        cmd_generate(config)
        written = cmd_split(config)
        assert set(written) == {0, 1}
        payload = json.loads((config.seed_dir(0) / "split.json").read_text())
        assert payload["config_hash"] == config.config_hash
        assert payload["seed"] == 0
        assert payload["bundle"]["task"] == "classification"

    def test_split_requires_generate(self, tmp_path):
        with pytest.raises(MissingInputError):
            cmd_split(make_config(tmp_path))

    def test_train_requires_split(self, tmp_path):
        config = make_config(tmp_path)
        cmd_generate(config)
        with pytest.raises(MissingInputError):
            cmd_train(config)

    def test_train_writes_reports_and_checkpoints(self, tmp_path):
        config = make_config(tmp_path, seeds=[0])
        cmd_generate(config)
        cmd_split(config)
        results = cmd_train(config)
        payload = results[0]
        assert set(payload["methods"]) == {"base", "tuneup"}
        assert payload["methods"]["tuneup"]["stages"][0]["name"] == "base"
        assert payload["methods"]["tuneup"]["stages"][1]["name"] == "finetune"
        for rel in payload["checkpoints"].values():
            assert (config.run_dir / rel).is_file()

    def test_eval_requires_train(self, tmp_path):
        config = make_config(tmp_path, seeds=[0])
        cmd_generate(config)
        cmd_split(config)
        with pytest.raises(MissingInputError):
            cmd_eval(config)

    def test_eval_reports_all_settings(self, tmp_path):
        config = make_config(tmp_path, seeds=[0],
                             settings=["transductive", "inductive"])
        cmd_generate(config)
        cmd_split(config)
        cmd_train(config)
        results = cmd_eval(config)
        reports = results[0]["reports"]
        for method in ("base", "tuneup"):
            assert set(reports[method]) == {"transductive", "inductive"}
            for report in reports[method].values():
                assert 0.0 <= report["value"] <= 1.0
                assert report["metric"] == "accuracy"
                assert len(report["buckets"]) == len(BUCKET_LABELS)

    def test_eval_builds_each_graph_once(self, tmp_path, monkeypatch):
        # every method of a seed evaluates on the same inference graphs, so
        # each distinct graph is built, and its operator normalized, once
        config = make_config(
            tmp_path, task="link", seeds=[0], dataset={"num_nodes": 150, "seed": 1},
            model={"variant": "sage-mean", "hidden_dim": 8, "output_dim": 8},
            settings=["transductive", "inductive", "inductive-cold(0.9)"])
        for stage in (cmd_generate, cmd_split, cmd_train):
            stage(config)
        built, normalized = [], []

        def counted_build(*args, **kwargs):
            built.append(build_graph(*args, **kwargs))
            return built[-1]

        def counted_normalize(graph, mode):
            normalized.append(graph)
            return normalize_adjacency(graph, mode)

        monkeypatch.setattr("tailkit.data.build_graph", counted_build)
        monkeypatch.setattr("tailkit.models.normalize_adjacency", counted_normalize)
        cmd_eval(config)
        # the dataset, the training graph, and one graph per inductive setting
        assert len(built) == len({g.edge_hash() for g in built}) == 4
        assert len(normalized) == len({g.edge_hash() for g in normalized}) == 3

    def test_each_stage_reads_the_dataset_once_and_each_bundle_at_most_once(
            self, tmp_path, monkeypatch):
        config = make_config(tmp_path, settings=["transductive"])
        cmd_generate(config)
        calls = []
        load_dataset, from_dict = experiment.load_dataset, SplitBundle.from_dict

        def counted_load(*paths):
            calls.append("dataset")
            return load_dataset(*paths)

        def counted_from_dict(cls, payload, graph):
            calls.append(payload["seed"])
            return from_dict(payload, graph)

        monkeypatch.setattr(experiment, "load_dataset", counted_load)
        monkeypatch.setattr(SplitBundle, "from_dict", classmethod(counted_from_dict))
        # split builds the bundles it writes; train and eval read them back
        for stage, bundles in ((cmd_split, []), (cmd_train, [0, 1]), (cmd_eval, [0, 1])):
            calls.clear()
            stage(config)
            assert calls == ["dataset", *bundles], stage.__name__

    def test_theory_stage_writes_json_and_csv(self, tmp_path):
        config = make_config(
            tmp_path,
            theory={"N": 500, "T": 120, "R": 100, "m": 20, "d": 4, "trials": 3})
        payload = cmd_theory(config, csv=True)
        assert payload["summary"]["trials"] == 3
        assert len(payload["rows"]) == 9
        csv_lines = (config.run_dir / "theory.csv").read_text().splitlines()
        assert csv_lines[0].startswith("trial,method,gap,bound")
        assert len(csv_lines) == 10
        again = cmd_theory(config)
        assert again == payload


def crash(src, dst):
    raise OSError("disk went away")


# each writer's output for a size; a different size gives different bytes
WRITERS = {
    "save_model": lambda path, size: save_model(
        init_model(EncoderConfig("gcn", 2, size, 2), "link"), path),
    "save_edge_list": lambda path, size: save_edge_list(
        build_graph([(0, i) for i in range(1, size)], size), path),
    "save_features": lambda path, size: save_features(np.ones((size, 2)), path),
    "save_labels": lambda path, size: save_labels(LabelSet(np.zeros(size), 2), path),
    "theory_csv": lambda path, size: experiment._write_csv(
        path, experiment._THEORY_CSV_COLUMNS,
        [dict.fromkeys(experiment._THEORY_CSV_COLUMNS, i) for i in range(size)]),
    "report_csv": lambda path, size: experiment._write_csv(
        path, experiment._REPORT_CSV_COLUMNS,
        [{"setting": "transductive", "method": f"m{i}", "scope": "overall", "mean": 0.5,
          "std": 0.0} for i in range(size)]),
}


def pipeline(config):
    cmd_generate(config)
    cmd_split(config)
    cmd_train(config)
    cmd_eval(config)
    return cmd_report(config.run_dir)


class TestReport:
    def test_aggregates_mean_and_std_over_seeds(self, tmp_path):
        config = make_config(tmp_path, settings=["transductive"])
        report = pipeline(config)
        values = []
        for seed in (0, 1):
            payload = json.loads(
                (config.seed_dir(seed) / "eval.json").read_text())
            values.append(payload["reports"]["base"]["transductive"]["value"])
        cell = report["table"]["transductive"]["base"]
        assert cell["mean"] == pytest.approx(float(np.mean(values)))
        assert cell["std"] == pytest.approx(float(np.std(values)))
        assert report["num_seeds"] == 2
        assert report["methods"] == ["base", "tuneup"]
        assert (config.run_dir / "report.json").is_file()

    def test_aggregate_cell_mean_std_and_bucket_counts(self):
        # bucket "0" is populated on every seed, bucket "1" on one, "2" on none
        per_seed = []
        for value, zero_mean, one in ((0.2, 0.1, None), (0.4, 0.3, 0.9), (0.6, 0.8, None)):
            buckets = [{"bucket": label, "mean": None, "count": 0}
                       for label in BUCKET_LABELS]
            buckets[0] = {"bucket": "0", "mean": zero_mean, "count": 2}
            if one is not None:
                buckets[1] = {"bucket": "1", "mean": one, "count": 1}
            report = MetricReport("transductive", "accuracy", value, buckets, "x",
                                  sum(b["count"] for b in buckets))
            per_seed.append(report.to_dict())
        cell = _aggregate_cell(per_seed)
        assert cell["mean"] == pytest.approx(0.4)
        assert cell["std"] == pytest.approx(np.std([0.2, 0.4, 0.6]))
        zero, one, two = cell["buckets"][:3]
        assert zero["mean"] == pytest.approx(0.4)
        assert zero["std"] == pytest.approx(np.std([0.1, 0.3, 0.8]))
        assert zero["count"] == 6
        assert (one["mean"], one["std"], one["count"]) == (0.9, 0.0, 1)
        assert (two["mean"], two["std"], two["count"]) == (None, None, 0)

    def test_relative_gain_formula_and_format(self, tmp_path):
        config = make_config(tmp_path, settings=["transductive"])
        pipeline(config)
        for seed in (0, 1):
            path = config.seed_dir(seed) / "eval.json"
            payload = json.loads(path.read_text())
            for method, value in (("base", 0.50), ("tuneup", 0.55)):
                payload["reports"][method]["transductive"]["value"] = value
            write_json(path, payload)
        report = cmd_report(config.run_dir)
        gain = report["relative_gain"]["transductive"]
        assert gain["formatted"] == "+10.0%"
        assert gain["value"] == pytest.approx(0.1)
        table = render_report_table(report)
        assert "Rel. gain over base: +10.0%" in table

    def test_refuses_mixed_hashes(self, tmp_path):
        config = make_config(tmp_path, settings=["transductive"])
        pipeline(config)
        victim = config.seed_dir(1) / "eval.json"
        payload = json.loads(victim.read_text())
        payload["config_hash"] = "000000000000"
        victim.write_text(json.dumps(payload))
        with pytest.raises(MissingInputError) as excinfo:
            cmd_report(config.run_dir)
        assert str(excinfo.value) == (
            f"{victim} belongs to config '000000000000', not {config.config_hash!r}; "
            "rerun the 'eval' stage")

    def test_refuses_mismatched_directory_name(self, tmp_path):
        config = make_config(tmp_path, settings=["transductive"])
        pipeline(config)
        renamed = config.run_dir.parent / "0123456789ab"
        config.run_dir.rename(renamed)
        with pytest.raises(MissingInputError) as excinfo:
            cmd_report(renamed)
        assert str(excinfo.value) == (
            f"{renamed / '0' / 'eval.json'} belongs to config {config.config_hash!r}, "
            "not '0123456789ab'; rerun the 'eval' stage")

    def test_skips_a_directory_whose_name_is_not_a_seed(self, tmp_path):
        # "²" is a digit to str.isdigit, but int() refuses it
        config = make_config(tmp_path, settings=["transductive"])
        pipeline(config)
        (config.run_dir / "²").mkdir()
        (config.run_dir / "²" / "eval.json").write_bytes(
            (config.seed_dir(0) / "eval.json").read_bytes())
        assert cmd_report(config.run_dir)["seeds"] == [0, 1]

    def test_report_requires_eval_outputs(self, tmp_path):
        config = make_config(tmp_path)
        cmd_generate(config)
        with pytest.raises(MissingInputError):
            cmd_report(config.run_dir)
        with pytest.raises(MissingInputError):
            cmd_report(tmp_path / "nowhere")

    def test_csv_export(self, tmp_path):
        config = make_config(tmp_path, settings=["transductive"])
        pipeline(config)
        report = cmd_report(config.run_dir, csv=True)
        lines = (config.run_dir / "report.csv").read_text().splitlines()
        assert lines[0] == "setting,method,scope,bucket,mean,std,count"
        overall = [l for l in lines[1:] if ",overall," in l]
        assert len(overall) == len(report["methods"])
        bucket_rows = [l for l in lines[1:] if ",bucket," in l]
        assert len(bucket_rows) == len(report["methods"]) * len(BUCKET_LABELS)


class FakeMallopt:
    """Stands in for ``ctypes.CDLL("libc.so.6").mallopt``."""

    def __init__(self, returns=1):
        self.calls = []
        self.returns = returns

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.returns


class Called(Exception):
    pass


def no_libc(name):
    raise OSError(f"{name}: cannot open shared object file")


# minor faults of four rounds of allocating, doubling and freeing a
# 20,000 x 64 float array, after the process's allocator is set
REUSE_FAULTS = """
import resource
import numpy as np
from tailkit.experiment import _keep_freed_memory
_keep_freed_memory()
faults = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    a = np.ones((20000, 64))
    b = a * 2
    del a, b
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults)
"""


def has_mallopt() -> bool:
    try:
        ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    return True


class TestAllocator:
    @pytest.mark.parametrize("returns, calls", [
        (1, [(-3, 16 << 20), (-1, 64 << 20)]),
        (0, [(-3, 16 << 20)]),  # a refused mmap threshold sets nothing more
    ], ids=["set", "refused"])
    def test_sets_the_mmap_then_the_trim_threshold(self, monkeypatch, returns, calls):
        mallopt = FakeMallopt(returns)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        experiment._keep_freed_memory()
        assert mallopt.calls == calls
        assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)

    @pytest.mark.parametrize("cdll", [no_libc, lambda name: object()],
                             ids=["no-libc", "no-mallopt"])
    def test_without_mallopt_it_does_nothing(self, monkeypatch, cdll):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        experiment._keep_freed_memory()

    @pytest.mark.parametrize("stage", [cmd_train, cmd_eval], ids=["train", "eval"])
    def test_stage_sets_it_before_reading_inputs(self, tmp_path, monkeypatch, stage):
        def spy():
            raise Called

        monkeypatch.setattr(experiment, "_keep_freed_memory", spy)
        with pytest.raises(Called):
            stage(make_config(tmp_path))

    @pytest.mark.skipif(not has_mallopt(), reason="needs glibc's mallopt")
    def test_freed_arrays_are_reused_without_faults(self):
        src = Path(experiment.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run([sys.executable, "-c", REUSE_FAULTS], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)[1:] == [0, 0, 0]


# the stages of each config given on the command line, through ``cli.main``
CLI_STAGES = """
import sys
from tailkit.cli import main
for path in sys.argv[1:]:
    for command in ("generate", "split", "train", "eval"):
        assert main([command, "--config", path]) == 0, (command, path)
"""


def gcn_2000_payload(task, output_dir):
    """A 2,000-node gcn run, 30 + 30 epochs, base and tuneup, seed 0."""
    payload = {
        "task": task,
        "dataset": {"num_nodes": 2000, "m_attach": 2, "feat_dim": 16, "seed": 0},
        "model": {"variant": "gcn", "hidden_dim": 32, "output_dim": 32, "num_layers": 2},
        "train": {"stage1_epochs": 30, "stage2_epochs": 30, "eval_every": 10,
                  "patience": 10},
        "methods": ["base", "tuneup"],
        "seeds": [0],
        "output_dir": str(output_dir),
    }
    if task == "link":
        payload["train"]["preset"] = "desk-link"
    return payload


class TestOneBlasThread:
    @pytest.mark.skipif(_blas_thread_calls() is None, reason="needs numpy's bundled OpenBLAS")
    def test_blas_thread_count_leaves_every_output_identical(self, tmp_path):
        """The command pins BLAS to one thread: runs started with one and with
        two BLAS threads write the same files, byte for byte (with the thread
        count left to the environment, stage-1 losses differed from epoch 6
        for classification and from epoch 2 for link)."""
        src = Path(experiment.__file__).resolve().parents[1]
        runs = []
        for threads in (1, 2):
            out = tmp_path / f"blas{threads}"
            paths = []
            for task in ("classification", "link"):
                path = tmp_path / f"{task}-{threads}.json"
                path.write_text(json.dumps(gcn_2000_payload(task, out)))
                paths.append(str(path))
            env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=str(threads))
            runs.append((out, subprocess.Popen([sys.executable, "-c", CLI_STAGES, *paths],
                                               env=env, stdout=subprocess.PIPE,
                                               stderr=subprocess.PIPE, text=True)))
        for _, proc in runs:
            _, err = proc.communicate(timeout=600)
            assert proc.returncode == 0, err
            assert err == ""
        (one, _), (two, _) = runs
        files = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(two) for p in two.rglob("*") if p.is_file())
        assert any(rel.name == "eval.json" for rel in files)
        for rel in files:
            assert (one / rel).read_bytes() == (two / rel).read_bytes(), rel


class TestDeterminism:
    def test_rerun_in_fresh_directory_is_byte_identical(self, tmp_path):
        first = make_config(tmp_path, seeds=[0],
                            output_dir=str(tmp_path / "one"))
        second = make_config(tmp_path, seeds=[0],
                             output_dir=str(tmp_path / "two"))
        pipeline(first)
        pipeline(second)
        files = sorted(p.relative_to(first.run_dir)
                       for p in first.run_dir.rglob("*") if p.is_file())
        assert files
        for rel in files:
            assert (first.run_dir / rel).read_bytes() == \
                (second.run_dir / rel).read_bytes(), rel

    def test_stage_reruns_do_not_rewrite_outputs(self, tmp_path):
        config = make_config(tmp_path, seeds=[0], settings=["transductive"])
        pipeline(config)
        stamps = {
            p: p.stat().st_mtime_ns
            for p in config.run_dir.rglob("*.json") if p.name != "report.json"
        }
        cmd_split(config)
        cmd_train(config)
        cmd_eval(config)
        for path, stamp in stamps.items():
            assert path.stat().st_mtime_ns == stamp, path

    def test_interrupted_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "seed" / "train.json"
        write_json(path, {"epochs": [1, 2, 3]})
        before = path.read_bytes()
        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError):
            write_json(path, {"epochs": list(range(10_000))})
        assert path.read_bytes() == before

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_replace_keeps_previous_file(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "out"
        WRITERS[writer](path, 3)
        before = path.read_bytes()
        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError):
            WRITERS[writer](path, 5)
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]
        monkeypatch.undo()
        WRITERS[writer](path, 5)
        assert path.read_bytes() != before

    @pytest.mark.parametrize("task,overrides", [
        ("classification", {}),
        ("link", {"model": {"variant": "sage-mean", "hidden_dim": 8, "output_dim": 8}}),
        ("recsys", {"dataset": {"num_users": 30, "num_items": 20}}),
    ], ids=["classification", "link", "recsys"])
    def test_a_failed_write_anywhere_resumes_to_the_same_run(self, tmp_path, monkeypatch,
                                                             task, overrides):
        """Each write of a one-seed pipeline fails in turn; rerunning every
        stage then leaves the bytes of an uninterrupted run."""
        payload = classification_payload(
            tmp_path, task=task, seeds=[0],
            theory={"N": 500, "T": 120, "R": 100, "m": 20, "d": 4, "trials": 2}, **overrides)

        def run(output_dir):
            config = ExperimentConfig.from_dict(dict(payload, output_dir=str(output_dir)))
            for stage in (cmd_generate, cmd_split, cmd_train, cmd_eval):
                stage(config)
            cmd_theory(config, csv=True)
            cmd_report(config.run_dir, csv=True)
            return {str(p.relative_to(output_dir)): p.read_bytes()
                    for p in output_dir.rglob("*") if p.is_file()}

        replace, written = os.replace, []

        def counted(src, dst):
            written.append(dst)
            replace(src, dst)

        monkeypatch.setattr(os, "replace", counted)
        intact = run(tmp_path / "intact")
        assert len(written) == len(intact)  # every file is written once
        for failing in range(len(written)):
            def fail_at(src, dst, failing=failing, calls=itertools.count()):
                if next(calls) == failing:
                    raise OSError("disk went away")
                replace(src, dst)

            monkeypatch.setattr(os, "replace", fail_at)
            with pytest.raises(OSError):
                run(tmp_path / str(failing))
            monkeypatch.setattr(os, "replace", replace)
            assert run(tmp_path / str(failing)) == intact, written[failing]


class TestCli:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_full_pipeline_through_cli(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(
            tmp_path, settings=["transductive", "inductive-cold(0.9)"])))
        for command in ("generate", "split", "train", "eval"):
            assert self.run_cli(command, "--config", str(cfg_path)) == 0
        assert self.run_cli("report", "--config", str(cfg_path)) == 0
        table = capsys.readouterr().out
        assert "Rel. gain over base" in table
        assert "tuneup" in table and "base" in table

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(tmp_path)))
        assert self.run_cli("generate", "--config", str(cfg_path)) == 0
        assert self.run_cli("split", "--config", str(cfg_path),
                            "--seed", "5") == 0
        config = load_config(cfg_path)
        assert (config.seed_dir(5) / "split.json").is_file()
        assert not (config.seed_dir(0) / "split.json").is_file()

    def test_config_error_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"task": "juggling"}))
        assert self.run_cli("generate", "--config", str(cfg_path)) == 2
        err = capsys.readouterr().err
        assert "$.task" in err

    @pytest.mark.parametrize("override,path", REFUSED_OVERRIDES)
    def test_refused_before_any_stage_exits_2(self, tmp_path, capsys, override, path):
        self.assert_refused(tmp_path, capsys, classification_payload(tmp_path, **override),
                            path)

    @pytest.mark.parametrize("flag,path", BAD_SEED_FLAGS)
    def test_bad_seed_flag_refused_before_any_stage_exits_2(self, tmp_path, capsys,
                                                             flag, path):
        self.assert_refused(tmp_path, capsys, classification_payload(tmp_path), path, flag)

    def assert_refused(self, tmp_path, capsys, payload, path, *flags):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        for command in ("generate", "split", "train", "eval", "theory"):
            assert self.run_cli(command, "--config", str(cfg_path), *flags) == 2
            assert path in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_label_file_that_labels_only_some_nodes(self, tmp_path):
        """Training and validation nodes come only from known labels, the
        other V_train nodes stay unlabeled, and evaluation scores only
        known-label nodes."""
        graph, labels = generate_scale_free(60, 2, feat_dim=4, seed=3)
        known = labels.labels.copy()
        known[1::2] = -1  # labels.txt lists only the even nodes
        data = tmp_path / "data"
        data.mkdir()
        save_edge_list(graph, data / "edges.txt")
        save_features_csv(graph.features, data / "features.txt")
        save_labels(LabelSet(known, labels.num_classes), data / "labels.txt")
        dataset = {"kind": "files", **{name: str(data / f"{name}.txt")
                                       for name in ("edges", "features", "labels")}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(
            tmp_path, dataset=dataset, split={"labeled_fraction": 0.5})))
        for command in ("generate", "split", "train", "eval"):
            assert self.run_cli(command, "--config", str(cfg_path)) == 0
        config = load_config(cfg_path)
        for seed in config.seeds:
            bundle = json.loads((config.seed_dir(seed) / "split.json").read_text())["bundle"]
            split = {key: np.asarray(bundle["labels"][key], dtype=np.int64)
                     for key in ("train_labeled", "validation", "unlabeled")}
            assert bundle["labels"]["labels"] == known.tolist()
            assert (known[split["train_labeled"]] >= 0).all()
            assert (known[split["validation"]] >= 0).all()
            assert (known[split["unlabeled"]] < 0).any()
            assert sorted(np.concatenate(list(split.values())).tolist()) == bundle["v_train"]
            scored = {"transductive": split["unlabeled"],
                      "inductive": np.asarray(bundle["v_new"], dtype=np.int64)}
            reports = json.loads((config.seed_dir(seed) / "eval.json").read_text())["reports"]
            for per_setting in reports.values():
                for setting, report in per_setting.items():
                    nodes = scored["transductive" if setting == "transductive" else "inductive"]
                    assert report["population"] == int((known[nodes] >= 0).sum()) > 0

    def test_no_known_label_new_node_names_new_fraction(self, tmp_path):
        config = make_config(tmp_path, settings=["transductive", "inductive"])
        graph, labels = generate_scale_free(120, 2, feat_dim=6, seed=1)
        bundle = make_classification_bundle(graph, labels, seed=0)
        assert bundle.v_new.size
        bundle.label_set.labels[bundle.v_new] = -1
        with pytest.raises(ConfigError, match=r"\$\.split\.new_fraction.*inductive test node"):
            experiment._check_bundle(config, bundle)

    @pytest.mark.parametrize("split,path", FILE_SPLITS_REFUSED)
    def test_file_dataset_split_counts_refused_at_split(self, tmp_path, capsys,
                                                        split, path):
        cfg_path = files_config(tmp_path, task=file_split_task(split), split=split)
        assert self.run_cli("generate", "--config", str(cfg_path)) == 0
        assert self.run_cli("split", "--config", str(cfg_path)) == 2
        err = capsys.readouterr().err
        assert f"config error: {path}: " in err and "inductive_ratio" not in err
        assert not list((tmp_path / "files").rglob("split.json"))

    @pytest.mark.parametrize("dataset_seed,codes", [
        # 86 interactions: floor(0.5 * 86) twice leaves no test edge
        (1, {"generate": 0, "split": 2}),
        # 91 interactions: the remainder leaves one test edge
        (0, {"generate": 0, "split": 0, "train": 0, "eval": 0}),
    ])
    def test_split_without_a_test_edge_exits_2(self, tmp_path, capsys, dataset_seed, codes):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(
            tmp_path, task="recsys", seeds=[0],
            dataset={"num_users": 30, "num_items": 20, "seed": dataset_seed},
            split={"ratios": [0.5, 0.5, 0.0]})))
        for command, code in codes.items():
            assert self.run_cli(command, "--config", str(cfg_path)) == code
        if codes["split"] == 2:
            assert "$.split.ratios: holds out no test edge" in capsys.readouterr().err
            assert not list((tmp_path / "runs").rglob("split.json"))

    def test_split_without_an_inductive_test_edge_exits_2(self, tmp_path, capsys):
        # every new node's edges are input edges, so the inductive settings
        # would have no source to rank
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(
            tmp_path, task="link", seeds=[0], dataset={"num_nodes": 150, "seed": 2},
            split={"inductive_ratio": 1.0})))
        assert self.run_cli("generate", "--config", str(cfg_path)) == 0
        assert self.run_cli("split", "--config", str(cfg_path)) == 2
        assert ("$.split.inductive_ratio: holds out no inductive test edge"
                in capsys.readouterr().err)
        assert not list((tmp_path / "runs").rglob("split.json"))

    def test_recsys_file_dataset_without_a_bipartite_line_exits_2(self, tmp_path, capsys):
        cfg_path = files_config(tmp_path, task="recsys")
        edges = tmp_path / "data" / "edges.txt"
        assert edges.read_text().startswith("%bipartite")
        drop_first_line(edges)
        assert self.run_cli("generate", "--config", str(cfg_path)) == 2
        assert ("$.dataset.edges: a recsys edge file needs a '%bipartite' line"
                in capsys.readouterr().err)
        assert not (tmp_path / "files").exists()

    def test_library_error_exits_2_with_its_message(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(
            tmp_path, dataset={"num_nodes": 60, "community_bias": 1e308})))
        assert self.run_cli("generate", "--config", str(cfg_path)) == 2
        assert re.fullmatch(r"error: node \d+'s attachment weights sum to inf\n",
                            capsys.readouterr().err)

    def test_refused_generate_leaves_nothing_behind(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(
            tmp_path, dataset={"num_nodes": 60, "community_bias": 1e308})))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert self.run_cli("generate", "--config", str(cfg_path)) == 2
        assert [str(w.message) for w in caught] == []
        assert "attachment weights sum to inf" in capsys.readouterr().err
        assert not list((tmp_path / "runs").rglob("*"))

    @pytest.mark.parametrize("task,texts", BEYOND_INT64)
    def test_id_beyond_int64_exits_2(self, tmp_path, capsys, task, texts):
        dataset = file_dataset(tmp_path, texts)
        key = list(texts)[-1]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(
            tmp_path, task=task, dataset=dataset, model={"featureless": True})))
        assert self.run_cli("generate", "--config", str(cfg_path)) == 2
        assert f"$.dataset.{key}: {tmp_path / key}.txt:2: " in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("bad", list(MALFORMED_TEXTS))
    def test_malformed_dataset_file_exits_2(self, tmp_path, capsys, bad):
        key = bad.split("-")[0]
        dataset = file_dataset(tmp_path, {**DATASET_TEXTS, key: MALFORMED_TEXTS[bad]})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(tmp_path, dataset=dataset)))
        assert self.run_cli("generate", "--config", str(cfg_path)) == 2
        err = capsys.readouterr().err
        assert f"$.dataset.{key}: {tmp_path / key}.txt:2:" in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("bad", list(BAD_NPY))
    def test_refused_npy_feature_file_exits_2(self, tmp_path, capsys, bad):
        dataset = file_dataset(tmp_path, DATASET_TEXTS)
        features = tmp_path / "features.npy"
        features.write_bytes(BAD_NPY[bad])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(
            tmp_path, dataset=dict(dataset, features=str(features)), seeds=[0])))
        assert self.run_cli("generate", "--config", str(cfg_path)) == 2
        assert f"config error: $.dataset.features: {features}: " in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()
        # the same dataset with a readable .npy file of its features loads
        features.write_bytes(npy_bytes(np.array([[0.5], [1.5], [2.5]])))
        assert self.run_cli("generate", "--config", str(cfg_path)) == 0

    def test_run_of_the_csv_feature_layout_is_regenerated(self, tmp_path, capsys):
        """A run directory whose manifest names ``dataset/features.txt`` (the
        CSV layout) makes every stage exit 3 naming ``generate``; after
        generate rewrites it, every artifact equals a fresh run's."""
        payload = classification_payload(tmp_path, seeds=[0], settings=["transductive"])
        cfg_path, fresh_path = tmp_path / "cfg.json", tmp_path / "fresh.json"
        cfg_path.write_text(json.dumps(payload))
        fresh_path.write_text(json.dumps(dict(payload, output_dir=str(tmp_path / "fresh"))))
        config = load_config(cfg_path)
        run = config.run_dir
        assert self.run_cli("generate", "--config", str(cfg_path)) == 0
        save_features_csv(np.load(run / "dataset/features.npy"), run / "dataset/features.txt")
        (run / "dataset/features.npy").unlink()
        manifest = json.loads((run / "dataset.json").read_text())
        manifest["paths"]["features"] = "dataset/features.txt"
        manifest["checksums"] = {
            rel: hashlib.sha256((run / rel).read_bytes()).hexdigest()
            for rel in manifest["paths"].values()}
        write_json(run / "dataset.json", manifest)
        capsys.readouterr()
        for command in ("split", "train", "eval"):
            assert self.run_cli(command, "--config", str(cfg_path)) == 3
            err = capsys.readouterr().err
            assert f"{run / 'dataset/features.npy'} is missing" in err
            assert err.rstrip().endswith("rerun the 'generate' stage")
        for command in ("generate", "split", "train", "eval"):
            assert self.run_cli(command, "--config", str(cfg_path)) == 0
            assert self.run_cli(command, "--config", str(fresh_path)) == 0
        fresh = load_config(fresh_path).run_dir
        files = {str(p.relative_to(fresh)): p.read_bytes() for p in fresh.rglob("*") if p.is_file()}
        assert {rel: (run / rel).read_bytes() for rel in files} == files
        # the CSV file, which no manifest names any more, is removed too
        assert sorted(str(p.relative_to(run)) for p in run.rglob("*") if p.is_file()) == sorted(
            files)

    @pytest.mark.parametrize("key,text", [
        ("edges", b"0 1\n1 \xff2\n"),
        ("edges", b"0 1\n1 2\n"),
        ("features", b"0.5\n"),
        ("labels", None),
    ])
    def test_changed_dataset_file_exits_3_and_is_regenerated(self, tmp_path, capsys,
                                                              key, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(tmp_path, seeds=[0])))
        assert self.run_cli("generate", "--config", str(cfg_path)) == 0
        config = load_config(cfg_path)
        dataset = config.run_dir / "dataset"
        intact = {p.name: p.read_bytes() for p in dataset.iterdir()}
        (target,) = dataset.glob(f"{key}.*")
        if text is None:
            target.unlink()
        else:
            target.write_bytes(text)
        capsys.readouterr()
        for command in ("split", "train", "eval"):
            assert self.run_cli(command, "--config", str(cfg_path)) == 3
            assert (f"missing input: {target} is missing or does not match its checksum "
                    f"in {config.run_dir / 'dataset.json'}; rerun the 'generate' stage"
                    ) in capsys.readouterr().err
        assert not (config.seed_dir(0) / "split.json").exists()
        assert self.run_cli("generate", "--config", str(cfg_path)) == 0
        assert {p.name: p.read_bytes() for p in dataset.iterdir()} == intact
        assert self.run_cli("split", "--config", str(cfg_path)) == 0

    @pytest.mark.parametrize("changed", ["edges.txt", "split.json", "train.json",
                                         "models/base.json"])
    def test_outputs_that_record_a_changed_file_are_recomputed(self, tmp_path, capsys,
                                                               changed):
        cfg_path = files_config(tmp_path, seeds=[0])
        for command in ("generate", "split", "train", "eval"):
            assert self.run_cli(command, "--config", str(cfg_path)) == 0
        config = load_config(cfg_path)
        seed_dir = config.seed_dir(0)
        before = {str(p.relative_to(seed_dir)): p.read_bytes()
                  for p in seed_dir.rglob("*.json")}
        if changed == "edges.txt":
            # the file dataset is edited and generate is rerun
            edges = Path(config.dataset["edges"])
            edges.write_text("".join(edges.read_text().splitlines(keepends=True)[:40]))
            capsys.readouterr()
            assert self.run_cli("split", "--config", str(cfg_path)) == 3
            assert (f"missing input: {edges} is missing or does not match its checksum in "
                    f"{config.run_dir / 'dataset.json'}; rerun the 'generate' stage"
                    ) in capsys.readouterr().err
            recomputed = {"split.json", "train.json", "eval.json", "models/base.json",
                          "models/tuneup.json"}
        elif changed == "split.json":
            # another valid split: the one built for seed 7, recorded as seed
            # 0's (a copy that still records seed 7 is rewritten by split)
            assert self.run_cli("split", "--config", str(cfg_path), "--seed", "7") == 0
            payload = json.loads((config.seed_dir(7) / changed).read_text())
            payload["seed"] = payload["bundle"]["seed"] = 0
            write_json(seed_dir / changed, payload)
            recomputed = {"train.json", "eval.json", "models/base.json",
                          "models/tuneup.json"}
        elif changed == "train.json":
            payload = json.loads(before[changed])
            payload["methods"]["base"]["stages"][0]["losses"][0] += 1.0
            write_json(seed_dir / changed, payload)
            recomputed = {"eval.json"}
        else:
            # another valid checkpoint, which loads without complaint
            (seed_dir / changed).write_bytes(before["models/tuneup.json"])
            recomputed = {changed}
        edited = {rel: (seed_dir / rel).read_bytes() for rel in before}
        for command in ("generate", "split", "train", "eval"):
            assert self.run_cli(command, "--config", str(cfg_path)) == 0
        after = {rel: (seed_dir / rel).read_bytes() for rel in before}
        assert {rel for rel in before if after[rel] != edited[rel]} == recomputed
        train = json.loads(after["train.json"])
        assert train["checksums"] == {
            rel: hashlib.sha256((config.run_dir / rel).read_bytes()).hexdigest()
            for rel in ("dataset.json", "0/split.json", "0/models/base.json",
                        "0/models/tuneup.json")}

    def test_output_of_another_config_exits_3_and_is_rewritten(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(tmp_path, seeds=[0])))
        for command in ("generate", "split"):
            assert self.run_cli(command, "--config", str(cfg_path)) == 0
        config = load_config(cfg_path)
        split_json = config.seed_dir(0) / "split.json"
        intact = split_json.read_bytes()
        write_json(split_json, dict(json.loads(intact), config_hash="000000000000"))
        capsys.readouterr()
        assert self.run_cli("train", "--config", str(cfg_path)) == 3
        assert (f"missing input: {split_json} belongs to config '000000000000', not "
                f"{config.config_hash!r}; rerun the 'split' stage"
                ) in capsys.readouterr().err
        assert self.run_cli("split", "--config", str(cfg_path)) == 0
        assert split_json.read_bytes() == intact

    @pytest.mark.parametrize("name,owner,consumer", [
        ("split.json", "split", "train"),
        ("train.json", "train", "eval"),
        ("eval.json", "eval", "report"),
    ])
    def test_output_of_another_seed_exits_3_and_is_rewritten(self, tmp_path, capsys,
                                                             name, owner, consumer):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(
            tmp_path, seeds=[0], settings=["transductive"])))
        for seed in ("0", "7"):
            for command in ("generate", "split", "train", "eval"):
                assert self.run_cli(command, "--config", str(cfg_path), "--seed", seed) == 0
        config = load_config(cfg_path)
        target = config.seed_dir(0) / name
        intact = target.read_bytes()
        target.write_bytes((config.seed_dir(7) / name).read_bytes())
        capsys.readouterr()
        assert self.run_cli(consumer, "--config", str(cfg_path)) == 3
        assert (f"missing input: {target} belongs to seed 7, not 0; rerun the {owner!r} stage"
                in capsys.readouterr().err)
        assert self.run_cli(owner, "--config", str(cfg_path)) == 0
        assert target.read_bytes() == intact
        assert self.run_cli(consumer, "--config", str(cfg_path)) == 0

    def test_dataset_file_that_does_not_parse_exits_3(self, tmp_path, capsys):
        # a file whose checksum matches but that does not parse: only a
        # manifest edited by hand can get here
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(tmp_path)))
        assert self.run_cli("generate", "--config", str(cfg_path)) == 0
        config = load_config(cfg_path)
        edges = config.run_dir / "dataset" / "edges.txt"
        edges.write_bytes(b"0 1\n1 \xff2\n")
        manifest_path = config.run_dir / "dataset.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["checksums"]["dataset/edges.txt"] = hashlib.sha256(
            edges.read_bytes()).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert self.run_cli("split", "--config", str(cfg_path)) == 3
        assert (f"missing input: {edges}:2: byte 0xff is not UTF-8; "
                "rerun the 'generate' stage") in capsys.readouterr().err
        # generate does not accept what split refused: it writes the dataset again
        assert self.run_cli("generate", "--config", str(cfg_path)) == 0
        assert self.run_cli("split", "--config", str(cfg_path)) == 0

    def test_file_dataset_that_does_not_parse_exits_2_at_generate(self, tmp_path, capsys):
        # as above, for a file dataset: generate refuses it as on a first run
        cfg_path = files_config(tmp_path, seeds=[0])
        assert self.run_cli("generate", "--config", str(cfg_path)) == 0
        config = load_config(cfg_path)
        edges = Path(config.dataset["edges"]).resolve()
        edges.write_bytes(b"0 1\n1 \xff2\n")
        manifest_path = config.run_dir / "dataset.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["checksums"][str(edges)] = hashlib.sha256(edges.read_bytes()).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert self.run_cli("split", "--config", str(cfg_path)) == 3
        assert (f"missing input: {edges}:2: byte 0xff is not UTF-8; "
                "rerun the 'generate' stage") in capsys.readouterr().err
        assert self.run_cli("generate", "--config", str(cfg_path)) == 2
        assert (f"config error: $.dataset.edges: {edges}:2: byte 0xff is not UTF-8"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("key", ["checksums", "paths"])
    def test_manifest_without_a_key_exits_3_and_is_regenerated(self, tmp_path, capsys,
                                                                key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(tmp_path, seeds=[0])))
        assert self.run_cli("generate", "--config", str(cfg_path)) == 0
        manifest_path = load_config(cfg_path).run_dir / "dataset.json"
        intact = manifest_path.read_bytes()
        manifest = json.loads(intact)
        del manifest[key]
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        for command in ("split", "train", "eval"):
            assert self.run_cli(command, "--config", str(cfg_path)) == 3
            assert (f"missing input: {manifest_path} does not record {key!r}; "
                    "rerun the 'generate' stage") in capsys.readouterr().err
        assert self.run_cli("generate", "--config", str(cfg_path)) == 0
        assert manifest_path.read_bytes() == intact
        assert self.run_cli("split", "--config", str(cfg_path)) == 0

    def test_manifest_with_edited_counts_exits_3_and_is_regenerated(self, tmp_path, capsys):
        """A manifest whose edge count is not the dataset's, with its
        checksums intact."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(tmp_path, seeds=[0])))
        assert self.run_cli("generate", "--config", str(cfg_path)) == 0
        manifest_path = load_config(cfg_path).run_dir / "dataset.json"
        intact = manifest_path.read_bytes()
        manifest = json.loads(intact)
        manifest["num_edges"] += 1
        write_json(manifest_path, manifest)
        capsys.readouterr()
        assert self.run_cli("split", "--config", str(cfg_path)) == 3
        assert ("its paths or counts are not the dataset's; rerun the 'generate' stage"
                in capsys.readouterr().err)
        assert self.run_cli("generate", "--config", str(cfg_path)) == 0
        assert manifest_path.read_bytes() == intact

    def test_theory_output_with_a_string_figure_is_rewritten(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(
            tmp_path, theory={"N": 500, "T": 120, "R": 100, "m": 20, "d": 4, "trials": 2})))
        assert self.run_cli("theory", "--config", str(cfg_path)) == 0
        theory_json = load_config(cfg_path).run_dir / "theory.json"
        intact = theory_json.read_bytes()
        payload = json.loads(intact)
        payload["summary"]["mean_gap"]["M1"] = "0.5"
        write_json(theory_json, payload)
        assert self.run_cli("theory", "--config", str(cfg_path)) == 0
        assert theory_json.read_bytes() == intact

    def test_file_dataset_without_features_needs_featureless(self, tmp_path, capsys):
        cfg_path = files_config(tmp_path, seeds=[0])
        payload = json.loads(cfg_path.read_text())
        payload["dataset"]["features"] = None
        cfg_path.write_text(json.dumps(payload))
        for command in ("generate", "split"):
            assert self.run_cli(command, "--config", str(cfg_path)) == 0
        capsys.readouterr()
        assert self.run_cli("train", "--config", str(cfg_path)) == 2
        assert ("config error: $.model.featureless: dataset has no node features"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("featureless,code", [(False, 2), (True, 0)])
    def test_file_features_wider_than_the_input_bound_stop_generate(self, tmp_path, capsys,
                                                                    featureless, code):
        """More feature columns than ``input_dim`` may have (2**16) exit 2 at
        ``generate``, naming ``$.dataset.features``; a featureless model
        does not take them as its input, so its dataset passes."""
        cfg_path = files_config(tmp_path, seeds=[0], model={"featureless": featureless})
        payload = json.loads(cfg_path.read_text())
        payload["dataset"]["features"] = str(tmp_path / "wide.npy")
        np.save(payload["dataset"]["features"], np.zeros((40, 2**16 + 1)))
        cfg_path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert self.run_cli("generate", "--config", str(cfg_path)) == code
        if code:
            assert ("config error: $.dataset.features: its feature width is the model's "
                    "input_dim, which must be <= 65536, got 65537") in capsys.readouterr().err

    @pytest.mark.parametrize("name,owner,consumer", [
        ("dataset.json", "generate", "split"),
        ("0/split.json", "split", "train"),
        ("0/train.json", "train", "eval"),
        ("0/eval.json", "eval", "report"),
        ("theory.json", "theory", None),
        ("report.json", "report", None),
    ])
    def test_output_of_another_numerics_exits_3_and_is_rewritten(self, tmp_path, capsys,
                                                                 name, owner, consumer):
        """A stage output recorded under another ``NUMERICS``, or none, makes
        the next stage exit 3 naming the stage that owns it, which
        recomputes it byte for byte."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(
            tmp_path, seeds=[0], settings=["transductive"],
            theory={"N": 500, "T": 120, "R": 100, "m": 20, "d": 4, "trials": 2})))
        for command in ("generate", "split", "train", "eval", "theory", "report"):
            assert self.run_cli(command, "--config", str(cfg_path)) == 0
        target = load_config(cfg_path).run_dir / name
        intact = target.read_bytes()
        assert json.loads(intact)["numerics"] == NUMERICS
        for numerics in (None, 0, NUMERICS + 1, float(NUMERICS), True, str(NUMERICS)):
            payload = json.loads(intact)
            if numerics is None:
                del payload["numerics"]
            else:
                payload["numerics"] = numerics
            write_json(target, payload)
            capsys.readouterr()
            if consumer is not None:
                assert self.run_cli(consumer, "--config", str(cfg_path)) == 3
                assert (f"missing input: {target} was computed under numerics {numerics!r}, "
                        f"not {NUMERICS}; rerun the {owner!r} stage"
                        ) in capsys.readouterr().err
            assert self.run_cli(owner, "--config", str(cfg_path)) == 0
            assert target.read_bytes() == intact
        if consumer is not None:
            assert self.run_cli(consumer, "--config", str(cfg_path)) == 0

    def test_report_without_a_run_directory_or_config_exits_3(self, capsys):
        assert self.run_cli("report") == 3
        assert "report needs a run directory or --config" in capsys.readouterr().err

    def test_train_output_without_checkpoints_exits_3_and_is_rewritten(self, tmp_path,
                                                                       capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(tmp_path, seeds=[0])))
        for command in ("generate", "split", "train"):
            assert self.run_cli(command, "--config", str(cfg_path)) == 0
        train_json = load_config(cfg_path).seed_dir(0) / "train.json"
        intact = train_json.read_bytes()
        payload = json.loads(intact)
        del payload["checkpoints"]
        train_json.write_text(json.dumps(payload))
        capsys.readouterr()
        assert self.run_cli("eval", "--config", str(cfg_path)) == 3
        assert (f"missing input: {train_json} does not record 'checkpoints'; "
                "rerun the 'train' stage") in capsys.readouterr().err
        assert self.run_cli("train", "--config", str(cfg_path)) == 0
        assert train_json.read_bytes() == intact
        assert self.run_cli("eval", "--config", str(cfg_path)) == 0

    def test_module_entry_point_runs_from_a_source_checkout(self, tmp_path):
        src = Path(experiment.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run([sys.executable, "-m", "tailkit", "--help"], cwd=tmp_path,
                                env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("usage: tailkit")

    def test_missing_stage_exits_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(tmp_path)))
        assert self.run_cli("eval", "--config", str(cfg_path)) == 3
        assert "generate" in capsys.readouterr().err

    def test_truncated_train_output_exits_3_at_eval_and_is_rewritten(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(tmp_path, seeds=[0])))
        for command in ("generate", "split", "train"):
            assert self.run_cli(command, "--config", str(cfg_path)) == 0
        train_json = load_config(cfg_path).seed_dir(0) / "train.json"
        intact = train_json.read_bytes()
        train_json.write_bytes(intact[:40])
        capsys.readouterr()
        assert self.run_cli("eval", "--config", str(cfg_path)) == 3
        assert (f"missing input: {train_json} is not valid JSON; "
                "rerun the 'train' stage") in capsys.readouterr().err
        assert self.run_cli("train", "--config", str(cfg_path)) == 0
        assert train_json.read_bytes() == intact
        assert self.run_cli("eval", "--config", str(cfg_path)) == 0

    def test_truncated_split_exits_3_at_train_and_is_rewritten(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(tmp_path, seeds=[0])))
        for command in ("generate", "split"):
            assert self.run_cli(command, "--config", str(cfg_path)) == 0
        split_json = load_config(cfg_path).seed_dir(0) / "split.json"
        intact = split_json.read_bytes()
        split_json.write_bytes(intact[:40])
        capsys.readouterr()
        assert self.run_cli("train", "--config", str(cfg_path)) == 3
        assert (f"missing input: {split_json} is not valid JSON; "
                "rerun the 'split' stage") in capsys.readouterr().err
        assert not (split_json.parent / "train.json").exists()
        assert self.run_cli("split", "--config", str(cfg_path)) == 0
        assert split_json.read_bytes() == intact

    def test_truncated_checkpoint_exits_3_at_eval_and_is_retrained(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(tmp_path, seeds=[0])))
        for command in ("generate", "split", "train"):
            assert self.run_cli(command, "--config", str(cfg_path)) == 0
        checkpoint = load_config(cfg_path).seed_dir(0) / "models" / "base.json"
        intact = checkpoint.read_bytes()
        checkpoint.write_bytes(intact[:40])
        capsys.readouterr()
        assert self.run_cli("eval", "--config", str(cfg_path)) == 3
        assert (f"missing input: {checkpoint} is missing or does not match its checksum "
                f"in {checkpoint.parents[1] / 'train.json'}; rerun the 'train' stage"
                ) in capsys.readouterr().err
        assert self.run_cli("train", "--config", str(cfg_path)) == 0
        assert checkpoint.read_bytes() == intact
        assert self.run_cli("eval", "--config", str(cfg_path)) == 0

    def test_report_without_inputs_exits_3(self, tmp_path):
        assert self.run_cli("report", str(tmp_path / "missing")) == 3

    @pytest.mark.parametrize("edit", ["train.json", "config_hash", "checksums"])
    def test_report_refuses_an_unusable_eval_output_exits_3(self, tmp_path, capsys, edit):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(
            tmp_path, settings=["transductive"])))
        for command in ("generate", "split", "train", "eval", "report"):
            assert self.run_cli(command, "--config", str(cfg_path)) == 0
        config = load_config(cfg_path)
        eval_json = config.seed_dir(0) / "eval.json"
        edited = eval_json.parent / edit if edit == "train.json" else eval_json
        payload = json.loads(edited.read_text())
        if edit == "train.json":
            payload["methods"]["base"]["stages"][0]["losses"][0] += 1.0
        elif edit == "config_hash":
            payload["config_hash"] = "000000000000"
        else:
            del payload["checksums"]
        write_json(edited, payload)
        capsys.readouterr()
        assert self.run_cli("report", str(config.run_dir)) == 3
        reason = {
            "train.json": f"{edited} is missing or does not match its checksum in {eval_json}",
            "config_hash": (f"{eval_json} belongs to config '000000000000', "
                            f"not {config.config_hash!r}"),
            "checksums": f"{eval_json} does not record 'checksums'",
        }[edit]
        assert (f"missing input: {reason}; rerun the 'eval' stage"
                in capsys.readouterr().err)

    def test_report_refuses_an_eval_output_without_the_cell_exits_3(self, tmp_path, capsys):
        config = make_config(tmp_path, settings=["transductive"])
        pipeline(config)
        eval_json = config.seed_dir(1) / "eval.json"
        intact = json.loads(eval_json.read_text())
        edits = {"reports": lambda p: p.update(reports=[]),
                 "method": lambda p: p["reports"].update(base="x"),
                 "setting": lambda p: p["reports"]["base"].pop("transductive")}
        for edit in edits.values():
            payload = json.loads(json.dumps(intact))
            edit(payload)
            write_json(eval_json, payload)
            capsys.readouterr()
            assert self.run_cli("report", str(config.run_dir)) == 3
            assert ("missing input: seed 1 lacks base/transductive; rerun the 'eval' stage"
                    in capsys.readouterr().err)

    @pytest.mark.parametrize("edit,reason", [
        pytest.param(lambda p: p["reports"]["base"].update(transductive=5),
                     "seed 0 holds a malformed base/transductive cell", id="cell"),
        pytest.param(lambda p: p["reports"]["tuneup"]["transductive"]["buckets"].pop(),
                     "seed 0 holds a malformed tuneup/transductive cell", id="buckets"),
        pytest.param(lambda p: p["reports"]["base"]["transductive"]["buckets"][3]
                     .update(count="2"),
                     "seed 0 holds a malformed base/transductive cell", id="count"),
        pytest.param(lambda p: p.update(methods=5),
                     "seed 0 holds malformed method or setting lists", id="methods"),
    ])
    def test_report_refuses_a_malformed_eval_cell_exits_3(self, tmp_path, capsys,
                                                           edit, reason):
        config = make_config(tmp_path, settings=["transductive"])
        pipeline(config)
        eval_json = config.seed_dir(0) / "eval.json"
        payload = json.loads(eval_json.read_text())
        edit(payload)
        write_json(eval_json, payload)
        capsys.readouterr()
        assert self.run_cli("report", str(config.run_dir)) == 3
        assert (f"missing input: {reason}; rerun the 'eval' stage"
                in capsys.readouterr().err)

    def test_report_inside_the_run_directory(self, tmp_path, monkeypatch):
        config = make_config(tmp_path, settings=["transductive"])
        pipeline(config)
        monkeypatch.chdir(config.run_dir)
        assert self.run_cli("report", ".") == 0

    def test_every_json_stage_output_records_hash_and_checksums(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(
            tmp_path, settings=["transductive"],
            theory={"N": 500, "T": 120, "R": 100, "m": 20, "d": 4, "trials": 3})))
        for command in ("generate", "split", "train", "eval", "theory", "report"):
            assert self.run_cli(command, "--config", str(cfg_path)) == 0
        run_dir = load_config(cfg_path).run_dir
        outputs = {str(p.relative_to(run_dir)): json.loads(p.read_text())
                   for p in run_dir.rglob("*.json") if p.parent.name != "models"}
        assert {"dataset.json", "theory.json", "report.json", "0/split.json",
                "0/train.json", "0/eval.json", "1/split.json", "1/train.json",
                "1/eval.json"} <= set(outputs)
        for rel, payload in outputs.items():
            assert payload["config_hash"] == run_dir.name, rel
            assert isinstance(payload["checksums"], dict), rel
        assert set(outputs["report.json"]["checksums"]) == {"0/eval.json", "1/eval.json"}

    def test_class_id_at_or_above_node_count_exits_2(self, tmp_path, capsys):
        # ten nodes: a class id of 2**62 asked the model for a head that
        # numpy could not allocate
        dataset = file_dataset(tmp_path, CLASS_ID_TOO_LARGE)
        labels = dataset["labels"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(
            tmp_path, dataset=dataset, model={"featureless": True}, seeds=[0])))
        assert self.run_cli("generate", "--config", str(cfg_path)) == 2
        assert (f"$.dataset.labels: {labels}:10: class 4611686018427387904 is not below "
                "the node count 10") in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_theory_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(
            tmp_path,
            theory={"N": 500, "T": 120, "R": 100, "m": 20, "d": 4,
                    "trials": 2})))
        assert self.run_cli("theory", "--config", str(cfg_path), "--csv") == 0
        out = capsys.readouterr().out
        assert "violation rate" in out
        config = load_config(cfg_path)
        assert (config.run_dir / "theory.csv").is_file()

    # Each case's stages run downstream first, so that every stage meets the
    # bad input before anything upstream rewrites it, then in pipeline order.
    SWEEP = ("report", "eval", "train", "split", "generate", "split", "train", "eval",
             "report")

    def sweep(self, capsys, name, cfg_path, *flags) -> list:
        """``(command, exit code, stderr)`` of each stage run in SWEEP order."""
        capsys.readouterr()
        runs = []
        for command in self.SWEEP:
            code = self.run_cli(command, "--config", str(cfg_path), *flags)
            err = capsys.readouterr().err
            assert code in (0, 2, 3), (name, command, code, err)
            assert "Traceback" not in err, (name, command, err)
            runs.append((command, code, err))
        return runs

    def test_every_bad_config_exits_0_2_or_3_at_every_stage(self, tmp_path, capsys):
        """Every malformed config and dataset file in this module."""
        cases = []

        def case(name, make, *flags):
            directory = tmp_path / f"case{len(cases)}"
            directory.mkdir()
            payload = {"output_dir": str(directory / "runs"), **make(directory)}
            cfg_path = directory / "cfg.json"
            cfg_path.write_text(json.dumps(payload))
            cases.append((name, cfg_path, flags))

        def files(task, **overrides):
            return lambda d: json.loads(files_config(d, task=task, **overrides).read_text())

        def recsys_without_bipartite_line(d):
            payload = files("recsys")(d)
            drop_first_line(d / "data" / "edges.txt")
            return payload

        case("not a task", lambda d: {"task": "juggling"})
        for payload, path in SCHEMA_VIOLATIONS:
            case(path, lambda d, payload=payload: payload)
        for override, path in REFUSED_OVERRIDES:
            case(path, lambda d, override=override: classification_payload(d, **override))
        for flag, _ in BAD_SEED_FLAGS:
            case(flag, lambda d: classification_payload(d), flag)
        for split, path in FILE_SPLITS_REFUSED:
            case(path, files(file_split_task(split), split=split))
        case("no test edge", lambda d: classification_payload(
            d, task="recsys", seeds=[0], dataset={"num_users": 30, "num_items": 20, "seed": 1},
            split={"ratios": [0.5, 0.5, 0.0]}))
        case("no inductive test edge", lambda d: classification_payload(
            d, task="link", seeds=[0], dataset={"num_nodes": 150, "seed": 2},
            split={"inductive_ratio": 1.0}))
        case("no bipartite line", recsys_without_bipartite_line)
        case("library error", lambda d: classification_payload(
            d, dataset={"num_nodes": 60, "community_bias": 1e308}))
        for task, texts in BEYOND_INT64:
            case(f"{task} id beyond int64", lambda d, task=task, texts=texts: (
                classification_payload(d, task=task, dataset=file_dataset(d, texts),
                                       model={"featureless": True})))
        for bad, text in MALFORMED_TEXTS.items():
            texts = {**DATASET_TEXTS, bad.split("-")[0]: text}
            case(f"malformed {bad}", lambda d, texts=texts: classification_payload(
                d, dataset=file_dataset(d, texts)))
        case("class id too large", lambda d: classification_payload(
            d, dataset=file_dataset(d, CLASS_ID_TOO_LARGE), model={"featureless": True},
            seeds=[0]))

        for name, cfg_path, flags in cases:
            self.sweep(capsys, name, cfg_path, *flags)

    def test_every_edited_artifact_exits_0_2_or_3_at_every_stage(self, tmp_path, capsys):
        """Every edit this module makes to a stage output or a dataset file,
        and a bundle edit of each kind the split.json reader refuses, each on
        a fresh copy of one finished run of its task."""
        runs = {}
        for task, settings in (("classification", ["transductive"]),
                               ("link", ["transductive", "inductive", "inductive-cold(0.3)"])):
            directory = tmp_path / task
            directory.mkdir()
            cfg_path = directory / "cfg.json"
            cfg_path.write_text(json.dumps(classification_payload(
                directory, task=task, seeds=[0], settings=settings)))
            for command in ("generate", "split", "train", "eval", "report"):
                assert self.run_cli(command, "--config", str(cfg_path)) == 0
            assert self.run_cli("split", "--config", str(cfg_path), "--seed", "7") == 0
            (directory / "runs").rename(directory / "template")
            runs[task] = cfg_path, load_config(cfg_path)

        def json_edit(rel, edit):
            def apply(run_dir):
                payload = json.loads((run_dir / rel).read_text())
                edit(payload)
                write_json(run_dir / rel, payload)
            return apply

        def write(rel, text):
            return lambda run_dir: (run_dir / rel).write_bytes(text)

        def truncate(rel):
            return lambda run_dir: (run_dir / rel).write_bytes((run_dir / rel).read_bytes()[:40])

        def copy(src, dst):
            return lambda run_dir: (run_dir / dst).write_bytes((run_dir / src).read_bytes())

        def bundle_edit(edit):
            return json_edit("0/split.json", lambda p: edit(p["bundle"]))

        def unparsable_edges_in_manifest(run_dir):
            write("dataset/edges.txt", b"0 1\n1 \xff2\n")(run_dir)
            json_edit("dataset.json", lambda p: p["checksums"].update({
                "dataset/edges.txt": hashlib.sha256(b"0 1\n1 \xff2\n").hexdigest()}))(run_dir)

        edits = {
            "edges not UTF-8": write("dataset/edges.txt", b"0 1\n1 \xff2\n"),
            "edges changed": write("dataset/edges.txt", b"0 1\n1 2\n"),
            "features changed": write("dataset/features.npy", b"0.5\n"),
            "labels deleted": lambda run_dir: (run_dir / "dataset/labels.txt").unlink(),
            "unparsable edges in the manifest": unparsable_edges_in_manifest,
            "manifest without checksums": json_edit("dataset.json", lambda p: p.pop("checksums")),
            "manifest without paths": json_edit("dataset.json", lambda p: p.pop("paths")),
            "split of another config": json_edit(
                "0/split.json", lambda p: p.update(config_hash="000000000000")),
            "another seed's split": copy("7/split.json", "0/split.json"),
            "split truncated": truncate("0/split.json"),
            "bundle without v_train": json_edit(
                "0/split.json", lambda p: p["bundle"].pop("v_train")),
            "train loss edited": json_edit(
                "0/train.json", lambda p: p["methods"]["base"]["stages"][0]["losses"].append(1.0)),
            "train without checkpoints": json_edit("0/train.json", lambda p: p.pop("checkpoints")),
            "train truncated": truncate("0/train.json"),
            "train methods not an object": json_edit(
                "0/train.json", lambda p: p.update(methods=5)),
            "checkpoint truncated": truncate("0/models/base.json"),
            "another method's checkpoint": copy("0/models/tuneup.json", "0/models/base.json"),
            "eval of another config": json_edit(
                "0/eval.json", lambda p: p.update(config_hash="000000000000")),
            "eval without checksums": json_edit("0/eval.json", lambda p: p.pop("checksums")),
            "eval reports not an object": json_edit("0/eval.json", lambda p: p.update(reports=[])),
            "eval method not an object": json_edit(
                "0/eval.json", lambda p: p["reports"].update(base="x")),
            "eval setting missing": json_edit(
                "0/eval.json", lambda p: p["reports"]["base"].pop("transductive")),
            "eval cell not an object": json_edit(
                "0/eval.json", lambda p: p["reports"]["base"].update(transductive=5)),
            "eval bucket missing": json_edit(
                "0/eval.json", lambda p: p["reports"]["tuneup"]["transductive"]["buckets"].pop()),
            "eval bucket count a string": json_edit(
                "0/eval.json", lambda p: p["reports"]["base"]["transductive"]["buckets"][3]
                .update(count="2")),
            "eval methods not a list": json_edit("0/eval.json", lambda p: p.update(methods=5)),
            "report truncated": truncate("report.json"),
            "labeled node off the graph": bundle_edit(
                lambda b: b["labels"].update(train_labeled=[1000000])),
            "labels cut to two": bundle_edit(
                lambda b: b["labels"].update(labels=b["labels"]["labels"][:2])),
            "new node off the graph": bundle_edit(lambda b: b.update(v_new=[1000000])),
        }
        link_edits = {
            "validation edge off the graph": bundle_edit(
                lambda b: b.update(trans_val_edges=[[0, 1000000]])),
            "cold edge off the graph": bundle_edit(
                lambda b: b["cold_input_edges"].update({"0.3": [[0, 1000000]]})),
            "no inductive test edge": bundle_edit(lambda b: b.update(new_test_edges=[])),
            "cold variant missing": bundle_edit(lambda b: b["cold_input_edges"].pop("0.3")),
        }
        cases = [*(("classification", *item) for item in edits.items()),
                 *(("link", *item) for item in link_edits.items())]
        for task, name, edit in cases:
            cfg_path, config = runs[task]
            template = cfg_path.parent / "template" / config.config_hash
            split_json = config.seed_dir(0) / "split.json"
            shutil.rmtree(cfg_path.parent / "runs", ignore_errors=True)
            shutil.copytree(template.parent, cfg_path.parent / "runs")
            edit(config.run_dir)
            sweep = self.sweep(capsys, name, cfg_path)
            if split_json.read_bytes() != (template / "0" / "split.json").read_bytes():
                # eval refuses an edited bundle, naming its file and its stage
                _, code, err = sweep[1]
                assert code == 3 and f"missing input: {split_json}" in err, (name, err)
                assert err.endswith("; rerun the 'split' stage\n"), (name, err)
            # each stage has recomputed what the next one refused, and split
            # has written the bundle a fresh split writes
            for command in ("generate", "split", "train", "eval", "report"):
                code = self.run_cli(command, "--config", str(cfg_path))
                assert code == 0, (name, command, capsys.readouterr().err)
            assert split_json.read_bytes() == (template / "0" / "split.json").read_bytes(), name
