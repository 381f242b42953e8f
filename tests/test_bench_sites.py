"""The benchmark's code still works against tailkit.

``benchmarks/spans.py`` wraps tailkit functions by module attribute, so a
rename in ``src/`` would otherwise only show up as a crashed traced run.
This reads its site table without installing any wrapper. The oracles of
``benchmarks/checks.py`` call tailkit's public functions; they run here on
a tiny pipeline.
"""
import importlib
import json
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SITES = [(name, module, attr) for name, module, attr in load_spans().SPAN_SITES
         if module is not None]


def test_site_table_is_not_empty():
    assert SITES


@pytest.mark.parametrize("name,module_path,attr_path", SITES, ids=[s[0] for s in SITES])
def test_span_site_resolves(name, module_path, attr_path):
    owner = importlib.import_module(module_path)
    for part in attr_path.split("."):
        assert hasattr(owner, part), f"{name}: {module_path}.{attr_path} is gone"
        owner = getattr(owner, part)
    assert callable(owner)


CHECKS_PATH = SPANS_PATH.with_name("checks.py")


def load_checks():
    spec = importlib.util.spec_from_file_location("bench_checks", CHECKS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_oracles_pass_on_a_tiny_link_pipeline(tmp_path):
    """The benchmark's recall and spmm oracles, called as its worker calls
    them, pass on a tiny link run: a change in ``src/`` that breaks what
    they call fails here rather than only in a benchmark run."""
    from tailkit import experiment
    from tailkit.data import SplitBundle, load_dataset
    from tailkit.models import load_model

    checks = load_checks()
    config = experiment.ExperimentConfig.from_dict({
        "task": "link",
        "dataset": {"num_nodes": 120, "m_attach": 2, "feat_dim": 4, "seed": 1},
        "model": {"variant": "gcn", "hidden_dim": 8, "output_dim": 8},
        "train": {"preset": "desk-link", "stage1_epochs": 4, "stage2_epochs": 2,
                  "eval_every": 2, "patience": 2},
        "methods": ["base", "tuneup"],
        "settings": ["transductive", "inductive", "inductive-cold(0.9)"],
        "split": {"new_fraction": 0.1, "cold_ratios": [0.9]},
        "eval": {"k": 10},
        "seeds": [0],
        "output_dir": str(tmp_path / "runs"),
    })
    manifest = experiment.cmd_generate(config)
    experiment.cmd_split(config)
    train = experiment.cmd_train(config)[0]
    experiment.cmd_eval(config)
    paths = {k: None if p is None else config.run_dir / p for k, p in manifest["paths"].items()}
    graph, _ = load_dataset(paths["edges"], paths["features"], paths["labels"])
    payload = json.loads((config.seed_dir(0) / "split.json").read_text())
    bundle = SplitBundle.from_dict(payload["bundle"], graph)
    model = load_model(config.run_dir / train["checkpoints"]["tuneup"])
    ops = [checks.check_spmm(model, bundle.train_graph, 0),
           *checks.check_recall(model, bundle, config.settings, 10, 0)]
    assert [name for name, _, _ in ops] == [
        "oracle:spmm", "oracle:recall/transductive", "oracle:recall/inductive",
        "oracle:recall/inductive-cold(0.9)"]
    for name, ok, detail in ops:
        assert ok, f"{name}: {detail}"


@pytest.mark.parametrize("task", ["classification", "link"])
def test_worker_reads_the_dataset_and_bundles_the_stages_used(tmp_path, monkeypatch, task):
    """``benchmarks/worker.py::run_checks`` reads a run back with the public
    ``load_dataset`` on the manifest's paths and ``SplitBundle.from_dict`` on
    ``split.json``: on a tiny run of each task, that gives the features and
    bundles that the eval stage used."""
    from tailkit import experiment
    from tailkit.data import SplitBundle, load_dataset

    config = experiment.ExperimentConfig.from_dict({
        "task": task,
        "dataset": {"num_nodes": 120, "m_attach": 2, "feat_dim": 4, "seed": 1},
        "model": {"variant": "sage-max", "hidden_dim": 8, "output_dim": 8},
        "train": {"stage1_epochs": 2, "stage2_epochs": 2, "eval_every": 2, "patience": 2},
        "methods": ["base", "tuneup"],
        "settings": ["transductive", "inductive-cold(0.9)"],
        "split": {"new_fraction": 0.1, "cold_ratios": [0.9]},
        "eval": {"k": 10},
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "runs"),
    })
    manifest = experiment.cmd_generate(config)
    experiment.cmd_split(config)
    experiment.cmd_train(config)
    used = {"graphs": [], "bundles": {}}
    from_dict = SplitBundle.from_dict

    def recorded_load(*paths):
        graph, labels = load_dataset(*paths)
        used["graphs"].append(graph)
        return graph, labels

    def recorded_from_dict(cls, payload, graph):
        used["bundles"][payload["seed"]] = from_dict(payload, graph)
        return used["bundles"][payload["seed"]]

    with monkeypatch.context() as patch:
        patch.setattr(experiment, "load_dataset", recorded_load)
        patch.setattr(SplitBundle, "from_dict", classmethod(recorded_from_dict))
        experiment.cmd_eval(config)
    (stage_graph,) = used["graphs"]
    assert sorted(used["bundles"]) == [0, 1]

    paths = {k: None if p is None else config.run_dir / p for k, p in manifest["paths"].items()}
    assert paths["features"].name == "features.npy"
    graph, _ = load_dataset(paths["edges"], paths["features"], paths["labels"])
    assert graph.features.dtype == stage_graph.features.dtype
    assert graph.features.tobytes() == stage_graph.features.tobytes()
    for seed, stage_bundle in used["bundles"].items():
        payload = json.loads((config.seed_dir(seed) / "split.json").read_text())
        bundle = SplitBundle.from_dict(payload["bundle"], graph)
        assert experiment.canonical_json(bundle.to_dict()) == experiment.canonical_json(
            stage_bundle.to_dict())
        assert bundle.train_graph.features.tobytes() == stage_graph.features.tobytes()
