"""Tests for the config schema, pipeline stages, report aggregation, and CLI."""
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tailkit import experiment, training
from tailkit.cli import main
from tailkit.data import save_edge_list, save_features, save_labels
from tailkit.evaluation import BUCKET_LABELS, MetricReport
from tailkit.graph import LabelSet, build_graph
from tailkit.models import EncoderConfig, init_model, save_model
from tailkit.training import TrainConfig
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
        if rel is not None:
            dataset[key] = str(data / Path(rel).name)
            Path(dataset[key]).write_bytes((source.run_dir / rel).read_bytes())
    cfg_path = tmp_path / "files.json"
    cfg_path.write_text(json.dumps(classification_payload(
        tmp_path, task=task, dataset=dataset, output_dir=str(tmp_path / "files"),
        **overrides)))
    return cfg_path


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

    @pytest.mark.parametrize("payload,path", [
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
        ({"task": "classification", "train": {"alpha": 2.0}}, "$.train"),
        ({"task": "classification", "settings": ["sideways"]}, "$.settings[0]"),
        ({"task": "classification",
          "settings": ["inductive-cold(0.5)"]}, "$.settings[0]"),
        ({"task": "recsys", "settings": ["inductive"]}, "$.settings[0]"),
        ({"task": "classification", "eval": {"k": 0}}, "$.eval.k"),
        ({"task": "classification", "theory": {"delta": 2.0}}, "$.theory"),
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
    ])
    def test_schema_violations_report_json_path(self, payload, path):
        with pytest.raises(ConfigError) as excinfo:
            ExperimentConfig.from_dict(payload)
        assert excinfo.value.path == path

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
                    experiment._Model, TrainConfig, *experiment._SPLITS.values(),
                    experiment._Eval, experiment._Theory]
        accepted = {f.name for cls in sections for f in dataclasses.fields(cls)}
        accepted |= {"kind", "preset"}
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
        assert (run / "dataset/features.txt").is_file()
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
            "dataset/features.txt":
                "ec32a6b7f0c189d987c8a27c321d982296cf04ca48eca862085b356cf3fdde7c",
            "dataset/labels.txt":
                "7c247ee56fea49a57ffcd40a30d6f7d706e80ca3740e11e316781f02efc10656",
        }
        for rel, digest in manifest["checksums"].items():
            path = config.run_dir / rel
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("task,overrides,digests", [
        ("classification", {}, {
            "models/base.json": "24c096e6dd5130532a96c2c618043b9098bc7e0a7c966424eb00f6a296af927c",
            "models/dropedge.json":
                "772c9dd791679ce9403a84ec28e2888df2c62963ba259dc4887bd671d5eabe7c",
            "models/no-curriculum.json":
                "f4440c20ea50ad84a0a08a5d4655ff21b620da9f01938319447a633bc322d7b9",
            "models/no-pseudo.json":
                "1437e2631b157e198dc6bd0942304ea7bbfba875f285f5bea1288dd82363ce12",
            "models/no-syntails.json":
                "58ac1c81f3d688bba7b47afc4236999d0dc74621fca191c67ae6c1706983572b",
            "models/tuneup.json":
                "c7e3afbab3800c7bc3b6b0e42afc0fcff3ce4db9cce46a2c96c6829cdf90586b",
            "train.json": "899aebc6fa0276fa1b29daf15a189147e9237b721a8869f8e1dea5cb5ea9e441",
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
            "train.json": "616745a556a446aa9e61cee407dc6fd3021613f6918f41fee35b18abd5abe92d",
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
            "0/eval.json": "b267aca2a705fe7e6cb7da6fa2c0af1e6a2843a0700d8bf68d2251916b391620",
            "1/eval.json": "5a0caecbbed3d8406f8acd92fd0fa97e9be7cd371f8a1a269cd7eacea44c2379",
            "report.csv": "6171f3a7cac37d225abb0aa29f3d25a164b2c803aa21046ff50397fd99bd5888",
        }),
        ("link", {"model": {"variant": "sage-mean", "hidden_dim": 8, "output_dim": 8}}, {
            "0/eval.json": "c77a22cd0ee7c525940bebec71ddd858341100f02feb6d38db3948a702d31c7e",
            "1/eval.json": "89d2b8e74bd8ca1dd9955f85b932b1e078f9f873aa89cfc58bdbffcbe55f10bd",
            "report.csv": "8d5f599934842ece8792939da6fc2355659b8b8c1aef9d883b2ef5d1f40862c4",
        }),
        ("recsys", {"dataset": {"num_users": 30, "num_items": 20}}, {
            "0/eval.json": "3487ff23a93520af762de3a92a9d3bb0ca2c397796222745890af72f220c2bca",
            "1/eval.json": "3c5ed93b6447fdb9b43c8178c66035a48bffe31b1eeffd56c68e144be686bcef",
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

    @pytest.mark.parametrize("override,path", [
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
    ])
    def test_refused_before_any_stage_exits_2(self, tmp_path, capsys, override, path):
        self.assert_refused(tmp_path, capsys, classification_payload(tmp_path, **override),
                            path)

    @pytest.mark.parametrize("flag,path", [
        ("--seed=-1", "$.seeds[0]"),
        ("--seed=1,1", "$.seeds"),
    ])
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

    @pytest.mark.parametrize("split,path", [
        ({"labeled_fraction": 0.01}, "$.split.labeled_fraction"),
        ({"new_fraction": 0.01}, "$.split.new_fraction"),
        # recsys: 15 interactions leave floor(0.05 * 15) = 0 for validation
        ({"ratios": [0.10, 0.05, 0.85]}, "$.split.ratios"),
    ])
    def test_file_dataset_split_counts_refused_at_split(self, tmp_path, capsys,
                                                        split, path):
        task = "recsys" if "ratios" in split else "classification"
        cfg_path = files_config(tmp_path, task=task, split=split)
        assert self.run_cli("generate", "--config", str(cfg_path)) == 0
        assert self.run_cli("split", "--config", str(cfg_path)) == 2
        assert path in capsys.readouterr().err
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

    @pytest.mark.parametrize("task,texts", [
        ("recsys", {"edges": b"%bipartite 2 2\n1 99999999999999999999\n0 2\n"}),
        ("classification", {"edges": b"0 1\n1 2\n",
                            "labels": b"0 0\n1 99999999999999999999\n"}),
    ])
    def test_id_beyond_int64_exits_2(self, tmp_path, capsys, task, texts):
        dataset = {"kind": "files"}
        for name, text in texts.items():
            (tmp_path / f"{name}.txt").write_bytes(text)
            dataset[name] = str(tmp_path / f"{name}.txt")
        key = list(texts)[-1]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(
            tmp_path, task=task, dataset=dataset, model={"featureless": True})))
        assert self.run_cli("generate", "--config", str(cfg_path)) == 2
        assert f"$.dataset.{key}: {tmp_path / key}.txt:2: " in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("bad", ["edges", "features", "labels", "features-width",
                                     "edges-utf8", "labels-utf8"])
    def test_malformed_dataset_file_exits_2(self, tmp_path, capsys, bad):
        texts = {"edges": b"0 1\n1 2\n", "features": b"0.5\n1.5\n2.5\n",
                 "labels": b"0 0\n1 1\n2 0\n"}
        key = bad.split("-")[0]
        texts[key] = {"edges": b"0 1\n1 x\n", "features": b"0.5\nx\n2.5\n",
                      "labels": b"0 0\n1 x\n2 0\n",
                      "features-width": b"0.5\n1.5,2\n2.5\n",
                      "edges-utf8": b"0 1\n1 \xff2\n",
                      "labels-utf8": b"0 0\n1 \xff1\n2 0\n"}[bad]
        dataset = {"kind": "files"}
        for name, text in texts.items():
            (tmp_path / f"{name}.txt").write_bytes(text)
            dataset[name] = str(tmp_path / f"{name}.txt")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(tmp_path, dataset=dataset)))
        assert self.run_cli("generate", "--config", str(cfg_path)) == 2
        err = capsys.readouterr().err
        assert f"$.dataset.{key}: {tmp_path / key}.txt:2:" in err
        assert not (tmp_path / "runs").exists()

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
        target = dataset / f"{key}.txt"
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
            # another valid split: the one built for seed 7
            assert self.run_cli("split", "--config", str(cfg_path), "--seed", "7") == 0
            (seed_dir / changed).write_bytes((config.seed_dir(7) / changed).read_bytes())
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
        edges, labels = tmp_path / "edges.txt", tmp_path / "labels.txt"
        edges.write_text("".join(f"{i} {i + 1}\n" for i in range(9)))
        labels.write_text("".join(f"{i} {i % 2}\n" for i in range(9))
                          + "9 4611686018427387904\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(classification_payload(
            tmp_path, dataset={"kind": "files", "edges": str(edges), "labels": str(labels)},
            model={"featureless": True}, seeds=[0])))
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
