"""Command line interface for the experiment pipeline.

Subcommands mirror the pipeline stages: generate, split, train, eval,
theory, and report. Every stage reads one JSON config (``--config``), with
``--seed`` and ``--out`` overriding the seed list and output directory.
Exit codes: 0 on success, 2 for config schema violations (reported with the
JSON path of the offending field) and for any other input the library
refuses (a :class:`TailkitError`), 3 when a required earlier stage output
is missing or unusable, by the one rule that also makes the stage owning it
recompute it (``report`` included).

Every subcommand runs BLAS on one thread, whatever the environment says: a
product's bits can depend on how many threads share it, and runs must be
byte-identical. Where numpy's BLAS cannot be pinned, the command says so on
stderr and runs with the thread count it has.
"""
from __future__ import annotations

import argparse
import ctypes
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import TailkitError
from .experiment import (
    ConfigError,
    ExperimentConfig,
    MissingInputError,
    cmd_eval,
    cmd_generate,
    cmd_report,
    cmd_split,
    cmd_theory,
    cmd_train,
    load_config,
    render_report_table,
)


def _parse_seeds(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError("$.seeds", f"bad --seed value {text!r}") from exc


def _load(args) -> ExperimentConfig:
    seeds = _parse_seeds(args.seed) if args.seed else None
    return load_config(args.config, seeds=seeds, output_dir=args.out)


def _run_generate(args) -> int:
    config = _load(args)
    manifest = cmd_generate(config)
    print(f"generate: {manifest['num_nodes']} nodes, "
          f"{manifest['num_edges']} edges -> {config.run_dir / 'dataset.json'}")
    return 0


def _run_split(args) -> int:
    written = cmd_split(_load(args))
    for seed, path in written.items():
        print(f"split: seed {seed} -> {path}")
    return 0


def _run_train(args) -> int:
    results = cmd_train(_load(args))
    for seed, payload in results.items():
        methods = ", ".join(payload["methods"])
        print(f"train: seed {seed} [{methods}]")
    return 0


def _run_eval(args) -> int:
    config = _load(args)
    cmd_eval(config)
    for seed in config.seeds:
        print(f"eval: seed {seed} -> {config.seed_dir(seed) / 'eval.json'}")
    return 0


def _run_theory(args) -> int:
    config = _load(args)
    payload = cmd_theory(config, csv=args.csv)
    summary = payload["summary"]
    print(f"theory: {summary['trials']} trials")
    for method, rate in summary["violation_rate"].items():
        print(f"  {method}: violation rate {rate:.3f}, "
              f"mean gap {summary['mean_gap'][method]:.4f}, "
              f"mean bound {summary['mean_bound'][method]:.4f}")
    return 0


def _run_report(args) -> int:
    if args.run_dir is not None:
        run_path = args.run_dir
    elif args.config is not None:
        config = _load(args)
        run_path = config.run_dir
    else:
        raise MissingInputError("report needs a run directory or --config")
    report = cmd_report(run_path, csv=args.csv)
    print(render_report_table(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailkit",
        description="Train, evaluate, and compare tail-aware GNN methods.")
    sub = parser.add_subparsers(dest="command", required=True)

    def stage(name, func, help_text, *, config_required=True):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=config_required,
                        help="path to the experiment JSON config")
        sp.add_argument("--seed", help="comma-separated seed override")
        sp.add_argument("--out", help="output directory override")
        sp.set_defaults(func=func)
        return sp

    stage("generate", _run_generate, "materialize the dataset")
    stage("split", _run_split, "build per-seed data splits")
    stage("train", _run_train, "train all configured methods")
    stage("eval", _run_eval, "evaluate trained checkpoints")
    theory = stage("theory", _run_theory, "validate the generalization bound")
    theory.add_argument("--csv", action="store_true",
                        help="also write per-trial rows as CSV")
    report = stage("report", _run_report, "aggregate evaluations into a table",
                   config_required=False)
    report.add_argument("run_dir", nargs="?",
                        help="run directory (<out>/<config-hash>)")
    report.add_argument("--csv", action="store_true",
                        help="also write the table as CSV")
    return parser


def _blas_thread_calls():
    """``(get, set)`` for the thread count of the OpenBLAS that numpy wheels
    bundle (scipy-openblas), or None for any other BLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*scipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        put.argtypes, put.restype = (ctypes.c_int,), None
        return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Run BLAS on one thread inside the block and restore the count after it,
    so that a program calling :func:`main` keeps its own setting."""
    calls = _blas_thread_calls()
    if calls is None:
        print("note: cannot pin BLAS to one thread; results may differ between "
              "BLAS thread counts", file=sys.stderr)
        yield
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _one_blas_thread():
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MissingInputError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return 3
    except TailkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
