"""tailkit pipeline benchmark: one workload, one seed, one closed loop.

    python3 benchmarks/run.py --workload link-rank --seed 0 --seconds 45 --trace 0

Runs the workload's pipeline (generate, split, train, eval, [theory],
report) back to back, one fresh interpreter per pipeline, until the next one
would end more than half a pipeline past ``--seconds``. Nothing runs
concurrently, and BLAS is held to one thread (README.md says why).

``--trace 0`` prints the end-to-end metrics (medians over the pipelines).
``--trace 1`` alternates untraced and traced pipelines and prints the
per-layer metrics of the traced ones. The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Raw results,
the environment fingerprint and the span log go to ``.bench_runs/results``.
See ``benchmarks/README.md`` for the workloads and every metric.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_runs"

import spans  # noqa: E402  (benchmarks/ is on sys.path as the script's directory)

# Small matrices gain nothing from a second thread, and two threads on a
# shared 2-CPU machine made one seed's train time vary by 25% (README.md).
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0

# Why each workload is here: README.md and BENCHMARK.json. A workload runs
# the theory stage when its config has a theory section. Epoch counts are
# chosen so early stopping can never fire (epochs <= eval_every * patience):
# every seed does the same amount of training, and a time measures the code
# rather than where one dataset happened to stop improving.
WORKLOADS = {
    "link-rank": lambda seed: {
        "task": "link",
        "dataset": {"num_nodes": 2000, "m_attach": 2, "feat_dim": 16, "seed": seed},
        "model": {"variant": "gcn", "hidden_dim": 32, "output_dim": 32, "num_layers": 2},
        "train": {"preset": "desk-link", "stage1_epochs": 40, "stage2_epochs": 40,
                  "eval_every": 10, "patience": 10},
        "methods": ["base", "tuneup"],
        "settings": ["transductive", "inductive", "inductive-cold(0.9)"],
        "split": {"cold_ratios": [0.9]},
        "eval": {"k": 50},
        "theory": {"trials": 20, "seed": seed},
    },
    "large-max": lambda seed: {
        "task": "classification",
        "dataset": {"num_nodes": 20000, "m_attach": 2, "feat_dim": 16,
                    "num_classes": 2, "separation": 1.5, "feature_noise": 1.0,
                    "community_bias": 4.0, "label_noise": 0.0, "seed": seed},
        "model": {"variant": "sage-max", "hidden_dim": 32, "output_dim": 32, "num_layers": 2},
        "train": {"stage1_epochs": 10, "stage2_epochs": 10, "stage1_lr": 0.01,
                  "alpha": 0.5, "eval_every": 5, "patience": 10},
        "methods": ["base", "tuneup"],
        "settings": ["transductive", "inductive-cold(0.9)"],
        "split": {"cold_ratios": [0.9]},
    },
}

# (name, unit, better); BENCHMARK.json lists the same names.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("train_s", "s", "lower"),
    ("eval_s", "s", "lower"),
    ("pipeline_s", "s", "lower"),
    ("epochs_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
# Printed for reading but not gated: missing on some workloads, zero by
# design, or (quality) spread between seeds wider than any useful bound.
REPORTED_ONLY = (
    ("theory_s", "s", "lower"),
    ("tail_metric", "fraction", "higher"),
    ("cold_metric", "fraction", "higher"),
    ("theory_violation_rate", "fraction", "lower"),
    ("error_rate", "fraction", "lower"),
)
# Per-update spans with enough calls on every workload for the percentile
# rule; drop_edges runs only 10 times on large-max.
PER_UPDATE_GATED = ("models.encode", "autodiff.Tape.backward", "autodiff.adam_step")
RATIOS = (
    ("graph.normalize_adjacency.reuse_ratio", "ratio", "lower"),
    ("graph.drop_edges.kept_frac", "fraction", "higher"),
    ("autodiff.spmm.gflop_computed", "GFLOP", "lower"),
    ("autodiff.spmm.gb_computed", "GB", "lower"),
    ("training.validation_share", "fraction", "lower"),
    ("evaluation.recall_per_source.sources_per_s", "1/s", "higher"),
)


def per_layer_spec() -> list:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for name in spans.SPAN_NAMES:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_share", "fraction", "lower"))
    for name in PER_UPDATE_GATED:
        out.append((f"{name}.ms_p50", "ms", "lower"))
        out.append((f"{name}.ms_hi", "ms", "lower"))
        out.append((f"{name}.hi_pct", "%", "higher"))
        out.append((f"{name}.samples", "count", "higher"))
    out.extend(RATIOS)
    out.append(("trace.overhead_s", "s", "lower"))
    return out


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def host_fingerprint(threads: int) -> dict:
    cpu_model = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads_set": threads,
        "cpu_model": cpu_model or platform.processor() or "unknown",
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def run_one(run_dir: Path, workload: str, seed: int, request: int, traced: bool,
            env: dict, deadline: float) -> dict:
    """One pipeline in a fresh interpreter; returns the worker's record."""
    rep_dir = run_dir / f"rep{request}"
    config = {**WORKLOADS[workload](seed), "seeds": [seed],
              "output_dir": str(rep_dir / "out")}
    rep_dir.mkdir(parents=True)
    config_path = rep_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    out_path = rep_dir / "result.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--config", str(config_path),
           "--out", str(out_path), "--request", str(request)]
    if "theory" in config:
        cmd.append("--theory")
    if traced:
        cmd.append("--trace")
    cmd += ["--spawned", repr(time.monotonic())]
    start = time.monotonic()
    # run() kills and reaps the worker if the timeout expires
    subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    record = json.loads(out_path.read_text(encoding="utf-8"))
    record["wall_s"] = time.monotonic() - start
    return record


def closed_loop(run_dir: Path, workload: str, seed: int, seconds: float, trace: bool,
                env: dict) -> list:
    """Pipelines back to back; traced ones alternate with untraced ones."""
    start = time.monotonic()
    hard_deadline = start + RUN_LIMIT_S
    reps = []
    while True:
        traced = trace and len(reps) % 2 == 1
        same = [r["wall_s"] for r in reps if r["traced"] == traced]
        minimum_met = any(not r["traced"] for r in reps) and (
            not trace or any(r["traced"] for r in reps))
        elapsed = time.monotonic() - start
        if minimum_met and (not same or elapsed + 0.5 * max(same) > seconds):
            break
        reps.append(run_one(run_dir, workload, seed, len(reps), traced, env, hard_deadline))
    return reps


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(untraced: list) -> dict:
    def med(fn):
        return statistics.median([fn(r) for r in untraced])

    first = untraced[0]["quality"]
    values = {
        "setup_s": med(lambda r: r["setup_s"]),
        "train_s": med(lambda r: r["stages"]["train"]),
        "eval_s": med(lambda r: r["stages"]["eval"]),
        "pipeline_s": med(lambda r: r["pipeline_s"]),
        "epochs_per_s": med(lambda r: r["epochs"] / r["stages"]["train"]),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"]),
        "tail_metric": first["tail_metric"],
        "cold_metric": first["cold_metric"],
    }
    if "theory" in untraced[0]["stages"]:
        values["theory_s"] = med(lambda r: r["stages"]["theory"])
        values["theory_violation_rate"] = first["theory_violation_rate"]
    return values


def per_layer(traced: list, untraced: list) -> dict:
    """Per-layer metrics as medians over the traced pipelines."""
    rows = []
    for r in traced:
        summary, wall = r["trace"], r["pipeline_s"]
        row = {}
        for name in spans.SPAN_NAMES:
            stats = summary["spans"][name]
            row[f"{name}.calls"] = stats["calls"]
            row[f"{name}.self_share"] = stats["self_s"] / wall
        for name in PER_UPDATE_GATED:
            stats = summary["spans"][name]
            if stats["hi_pct"] is None:
                raise RuntimeError(f"{name}: {stats['samples']} samples are too few "
                                   f"for a percentile with {spans.MIN_BEYOND} beyond")
            row[f"{name}.ms_p50"] = stats["ms_p50"]
            row[f"{name}.ms_hi"] = stats["ms_hi"]
            row[f"{name}.hi_pct"] = stats["hi_pct"]
            row[f"{name}.samples"] = stats["samples"]
        row.update({k: summary["ratios"][k] for k, _, _ in RATIOS})
        rows.append(row)
    out = {k: statistics.median([row[k] for row in rows]) for k in rows[0]}
    out["trace.overhead_s"] = (statistics.median([r["pipeline_s"] for r in traced])
                               - statistics.median([r["pipeline_s"] for r in untraced]))
    return out


def cross_checks(untraced: list, traced: list) -> list:
    """Reruns and traced runs of one seed must write bit-identical results."""
    reference = untraced[0]["digest"]
    ops = [{"op": f"rerun:{r['request']}", "ok": r["digest"] == reference,
            "detail": r["digest"][:16]} for r in untraced[1:]]
    ops += [{"op": f"traced-equals-untraced:{r['request']}", "ok": r["digest"] == reference,
             "detail": r["digest"][:16]} for r in traced]
    return ops


def print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit, better in rows:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<48} {text:>14} {unit:<9} {better}")


def span_table(summary: dict) -> None:
    print("spans (traced pipeline, first):")
    print(f"  {'span':<34} {'calls':>7} {'self_s':>9} {'total_s':>9} {'ms_p50':>8} "
          f"{'hi':>12}")
    for name in spans.SPAN_NAMES:
        s = summary["spans"][name]
        p50 = "" if s.get("ms_p50") is None else f"{s['ms_p50']:.3f}"
        hi = ("" if s.get("hi_pct") is None
              else f"p{s['hi_pct']:g}={s['ms_hi']:.3f}({s['hi_beyond']})")
        print(f"  {name:<34} {s['calls']:>7} {s['self_s']:>9.4f} {s['total_s']:>9.4f} "
              f"{p50:>8} {hi:>12}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = ROOT / "src"
    if not (src / "tailkit" / "__init__.py").is_file():
        print(f"error: tailkit sources not found under {src}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(BENCH)])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / f"{stem}-{os.getpid()}"
    results = WORK / "results"
    try:
        reps = closed_loop(run_dir, args.workload, args.seed, args.seconds,
                           bool(args.trace), env)
        traced_spans = sorted(run_dir.glob("rep*/result.spans.jsonl"))
        results.mkdir(parents=True, exist_ok=True)
        if traced_spans:
            shutil.copyfile(traced_spans[0], results / f"{stem}.spans.jsonl")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: pipeline failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    ops = [op for r in reps for op in r["ops"]] + cross_checks(untraced, traced)
    failed = [op for op in ops if not op["ok"]]
    e2e = end_to_end(untraced)
    e2e["error_rate"] = len(failed) / len(ops)
    env_record = {**host_fingerprint(BLAS_THREADS), **untraced[0]["env"]}

    if args.trace:
        layers = per_layer(traced, untraced)
        metrics = {n: {"value": layers[n], "unit": u} for n, u, _ in per_layer_spec()}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u, _ in END_TO_END}
    (results / f"{stem}.json").write_text(json.dumps({
        "args": vars(args), "env": env_record, "end_to_end": e2e,
        "metrics": metrics, "ops": ops, "reps": reps}, indent=1), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced pipelines in a closed loop, one at a time")
    print("env " + json.dumps(env_record, sort_keys=True))
    for op in failed:
        print(f"FAILED {op['op']}: {op['detail']}")
    print_table("end-to-end (median over untraced pipelines):",
                [(n, e2e[n], u, b) for n, u, b in END_TO_END + REPORTED_ONLY if n in e2e])
    if args.trace:
        span_table(traced[0]["trace"])
        print_table("per-layer (median over traced pipelines):",
                    [(n, layers[n], u, b) for n, u, b in per_layer_spec()])
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
