"""Run one tailkit pipeline in this process and write what it measured.

``run.py`` starts one fresh interpreter per pipeline with this script:

    PYTHONPATH=src python3 benchmarks/worker.py --config CONFIG.json \
        --out REP.json --spawned T [--theory] [--trace] [--request N]

``--spawned`` is ``time.monotonic()`` taken by the parent just before it
started this process, so ``setup_s`` counts interpreter start and imports.
The stages run through the public ``cmd_*`` functions; the checks run after
the last stage and are not timed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

import checks
import spans
from tailkit import experiment
from tailkit.data import SplitBundle, load_dataset
from tailkit.models import load_model

COLD_SETTING = "inductive-cold(0.9)"
TAIL_BUCKETS = ("0", "1", "2")


def tail_value(report: dict) -> float:
    """Count-weighted mean over the degree buckets 0-2 (criterion 6's tail)."""
    num = den = 0.0
    for row in report["buckets"]:
        if row["bucket"] in TAIL_BUCKETS and row["mean"] is not None:
            num += row["mean"] * row["count"]
            den += row["count"]
    if den == 0:
        raise ValueError(f"no evaluation nodes in degree buckets {TAIL_BUCKETS}")
    return num / den


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_pipeline(config, *, theory: bool, tracer) -> dict:
    def stage(name):
        fn = getattr(experiment, name)
        return fn if tracer is None else tracer.wrap(f"experiment.{name}", fn)

    times = {}

    def timed(key, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        times[key] = time.perf_counter() - start
        return result

    start = time.perf_counter()
    timed("generate", stage("cmd_generate"), config)
    timed("split", stage("cmd_split"), config)
    setup_end = time.monotonic()
    train = timed("train", stage("cmd_train"), config)
    evals = timed("eval", stage("cmd_eval"), config)
    theory_payload = timed("theory", stage("cmd_theory"), config) if theory else None
    timed("report", stage("cmd_report"), config.run_dir)
    return {
        "pipeline_s": time.perf_counter() - start,
        "setup_end": setup_end,
        "stages": times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "train": train,
        "evals": evals,
        "theory": theory_payload,
    }


def digest(run_dir: Path, seed: int) -> str:
    """Hash of every result file the pipeline wrote; equal digests mean
    bit-identical quality."""
    h = hashlib.sha256()
    for rel in (f"{seed}/train.json", f"{seed}/eval.json", "theory.json", "report.json"):
        path = run_dir / rel
        if path.is_file():
            h.update(rel.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_checks(config, result, seed: int) -> list:
    train = result["train"][seed]
    evals = result["evals"][seed]
    ops = checks.check_training(train) + checks.check_evaluations(evals)
    if result["theory"] is not None:
        ops += checks.check_theory(result["theory"])
    manifest = json.loads((config.run_dir / "dataset.json").read_text())
    paths = {k: None if p is None else config.run_dir / p for k, p in manifest["paths"].items()}
    graph, _ = load_dataset(paths["edges"], paths["features"], paths["labels"])
    payload = json.loads((config.seed_dir(seed) / "split.json").read_text())
    bundle = SplitBundle.from_dict(payload["bundle"], graph)
    ops.append(checks.check_above_chance(evals, bundle, config.evaluation["k"]))
    model = load_model(config.run_dir / train["checkpoints"]["tuneup"])
    variant = config.model["variant"]
    if variant == "gcn":
        ops.append(checks.check_spmm(model, bundle.train_graph, seed))
    elif variant == "sage-max":
        ops.append(checks.check_row_max_pool(model, bundle.train_graph, seed))
    if config.task == "link":
        ops += checks.check_recall(model, bundle, config.settings, config.evaluation["k"], seed)
    return [{"op": name, "ok": ok, "detail": detail} for name, ok, detail in ops]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--theory", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--request", type=int, default=0)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = spans.Tracer(args.request)
        spans.install(tracer)
    config = experiment.load_config(args.config)
    (seed,) = config.seeds
    result = run_pipeline(config, theory=args.theory, tracer=tracer)
    trace = spans.summarize(tracer) if tracer is not None else None

    train = result["train"][seed]
    tuneup = result["evals"][seed]["reports"]["tuneup"]
    quality = {
        "tail_metric": tail_value(tuneup["transductive"]),
        "cold_metric": tuneup[COLD_SETTING]["value"],
    }
    if result["theory"] is not None:
        quality["theory_violation_rate"] = max(
            result["theory"]["summary"]["violation_rate"].values())
    out = {
        "request": args.request,
        "traced": args.trace,
        "setup_s": result["setup_end"] - args.spawned,
        "pipeline_s": result["pipeline_s"],
        "stages": result["stages"],
        "peak_rss_mb": result["peak_rss_mb"],
        "epochs": sum(s["epochs_run"] for m in train["methods"].values() for s in m["stages"]),
        "quality": quality,
        "digest": digest(config.run_dir, seed),
        "ops": run_checks(config, result, seed),
        "env": environment(),
        "trace": trace,
    }
    out_path = Path(args.out)
    out_path.write_text(json.dumps(out, indent=1), encoding="utf-8")
    if tracer is not None:
        with open(out_path.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as f:
            for row in tracer.spans:
                f.write(json.dumps(row) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
