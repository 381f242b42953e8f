"""Span recording around calls into tailkit, and the arithmetic on spans.

The tracer never edits tailkit's source. :func:`install` replaces module
attributes with timing wrappers, on the attribute each caller resolves at
call time (``ad.spmm`` resolves ``tailkit.autodiff.spmm``; ``training.py``
imported ``drop_edges`` by name, so its copy is ``tailkit.training.drop_edges``).
Spans stay in memory until the pipeline ends.
"""
from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict
from fractions import Fraction

# (span name, module path, attribute path) in the order reports list them.
# The attribute is the one the caller looks up, which is not always the
# module that defines the function.
SPAN_SITES = (
    ("experiment.cmd_generate", None, None),
    ("experiment.cmd_split", None, None),
    ("experiment.cmd_train", None, None),
    ("experiment.cmd_eval", None, None),
    ("experiment.cmd_theory", None, None),
    ("experiment.cmd_report", None, None),
    ("generators.generate_scale_free", "tailkit.experiment", "generate_scale_free"),
    ("data.make_classification_bundle", "tailkit.experiment", "make_classification_bundle"),
    ("data.make_link_bundle", "tailkit.experiment", "make_link_bundle"),
    ("training.run_ablation", "tailkit.experiment", "run_ablation"),
    ("training.pseudo_label", "tailkit.training", "pseudo_label"),
    ("experiment.validation_metric", "tailkit.experiment", "validation_metric"),
    ("graph.drop_edges", "tailkit.training", "drop_edges"),
    ("graph.normalize_adjacency", "tailkit.models", "normalize_adjacency"),
    ("models.encode", "tailkit.training", "encode"),
    ("autodiff.spmm", "tailkit.autodiff", "spmm"),
    ("autodiff.row_max_pool", "tailkit.autodiff", "row_max_pool"),
    ("autodiff.gather_rows", "tailkit.autodiff", "gather_rows"),
    ("autodiff.Tape.backward", "tailkit.autodiff", "Tape.backward"),
    ("autodiff.adam_step", "tailkit.autodiff", "adam_step"),
    ("losses.sample_negatives", "tailkit.training", "sample_negatives"),
    ("evaluation.recall_per_source", "tailkit.evaluation", "recall_per_source"),
    ("evaluation.evaluate_setting", "tailkit.experiment", "evaluate_setting"),
    ("theory.sample_world", "tailkit.theory", "sample_world"),
    ("theory.train_theory_model", "tailkit.theory", "train_theory_model"),
)
SPAN_NAMES = tuple(name for name, _, _ in SPAN_SITES)

# Spans entered once per training update; their per-call latency
# distribution is reported next to the totals.
PER_UPDATE_SPANS = (
    "graph.drop_edges",
    "graph.normalize_adjacency",
    "models.encode",
    "autodiff.Tape.backward",
    "autodiff.adam_step",
    "losses.sample_negatives",
)

PERCENTILE_GRID = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


class Tracer:
    """In-memory span log for one pipeline (one request)."""

    def __init__(self, request: int = 0):
        self.request = request
        # each span: [name, start, end, parent index or -1, request]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.graph_hashes: set[str] = set()

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` recording one span per call; ``after(tracer, args,
        result)`` runs once the span has closed, to update counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.request]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# counters taken where the work happens
# ---------------------------------------------------------------------------

def _after_normalize(tracer, args, result):
    tracer.graph_hashes.add(args[0].edge_hash())


def _after_drop(tracer, args, result):
    tracer.counts["drop_edges.edges_in"] += args[0].num_edges
    tracer.counts["drop_edges.edges_kept"] += result.num_edges


def _after_spmm(tracer, args, result):
    adj, x = args[0], args[1]
    n, d = x.value.shape
    tracer.counts["spmm.flop"] += 2.0 * adj.nnz * d
    # computed, not measured: gathered neighbor rows read plus output written
    tracer.counts["spmm.bytes"] += 8.0 * (adj.nnz * d + n * d)


def _after_recall(tracer, args, result):
    tracer.counts["recall_per_source.sources"] += len(args[1])


_AFTER = {
    "graph.normalize_adjacency": _after_normalize,
    "graph.drop_edges": _after_drop,
    "autodiff.spmm": _after_spmm,
    "evaluation.recall_per_source": _after_recall,
}


def install(tracer: Tracer) -> None:
    """Put a wrapper on every traced attribute of the imported tailkit."""
    for name, module_path, attr_path in SPAN_SITES:
        if module_path is None:
            continue
        owner = importlib.import_module(module_path)
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), _AFTER.get(name)))


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its direct children cover.

    ``spans`` rows are ``(name, start, end, parent, ...)`` with ``parent``
    the row index of the enclosing span or -1. Children that overlap each
    other are counted once; a child reaching outside its parent only
    covers the part inside.
    """
    children: dict[int, list] = defaultdict(list)
    for row in spans:
        if row[3] >= 0:
            children[row[3]].append((row[1], row[2]))
    return [
        (row[2] - row[1]) - covered_length(children.get(i, ()), row[1], row[2])
        for i, row in enumerate(spans)
    ]


def _rank(p: float, n: int) -> int:
    """Nearest rank ``ceil(p/100 * n)``, at least 1, in exact arithmetic
    (``99.9 / 100 * 20000`` is not 19980 in floating point)."""
    return max(1, math.ceil(Fraction(repr(p)) * n / 100))


def percentile(samples, p: float):
    """Nearest-rank percentile: the sample at rank ``ceil(p/100 * n)``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(samples, grid=PERCENTILE_GRID, min_beyond: int = MIN_BEYOND):
    """Highest percentile of ``grid`` with at least ``min_beyond`` samples
    above its rank, as ``(percentile, value, samples_beyond)``.

    Ranks are nearest-rank as in :func:`percentile`; the samples after that
    rank lie beyond it. Returns None when even the lowest grid percentile
    has too few samples beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in grid:
        rank = _rank(p, n)
        if n - rank >= min_beyond:
            best = (p, ordered[rank - 1], n - rank)
    return best


def summarize(tracer: Tracer) -> dict:
    """Per-span stats plus the ratios and counts the report names.

    Every name in :data:`SPAN_NAMES` appears, with zero calls when the
    workload never entered it.
    """
    selfs = self_times(tracer.spans)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    total_s = dict.fromkeys(SPAN_NAMES, 0.0)
    durations: dict[str, list] = defaultdict(list)
    for row, own in zip(tracer.spans, selfs):
        name = row[0]
        calls[name] += 1
        self_s[name] += own
        total_s[name] += row[2] - row[1]
        if name in PER_UPDATE_SPANS:
            durations[name].append(1e3 * (row[2] - row[1]))

    spans = {}
    for name in SPAN_NAMES:
        entry = {"calls": calls[name], "self_s": self_s[name], "total_s": total_s[name]}
        if name in PER_UPDATE_SPANS:
            samples = durations[name]
            entry["samples"] = len(samples)
            entry["ms_p50"] = percentile(samples, 50) if samples else None
            hi = tail_percentile(samples)
            entry["hi_pct"], entry["ms_hi"], entry["hi_beyond"] = hi if hi else (None, None, 0)
        spans[name] = entry

    c = tracer.counts
    distinct = len(tracer.graph_hashes)
    recall_s = total_s["evaluation.recall_per_source"]
    ratios = {
        "graph.normalize_adjacency.reuse_ratio":
            calls["graph.normalize_adjacency"] / distinct if distinct else 0.0,
        "graph.normalize_adjacency.distinct_graphs": distinct,
        "graph.drop_edges.kept_frac":
            c["drop_edges.edges_kept"] / c["drop_edges.edges_in"]
            if c["drop_edges.edges_in"] else 0.0,
        "autodiff.spmm.gflop_computed": c["spmm.flop"] / 1e9,
        "autodiff.spmm.gb_computed": c["spmm.bytes"] / 1e9,
        "training.validation_share":
            total_s["experiment.validation_metric"] / total_s["experiment.cmd_train"]
            if total_s["experiment.cmd_train"] else 0.0,
        "evaluation.recall_per_source.sources_per_s":
            c["recall_per_source.sources"] / recall_s if recall_s else 0.0,
    }
    return {"spans": spans, "ratios": ratios}
