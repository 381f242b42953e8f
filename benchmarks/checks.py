"""Correctness checks on a finished pipeline, each one counted operation.

The oracles recompute a kernel's result the slow, obvious way from tailkit's
public functions and compare it with what the kernel returned on the
trained model's real inputs. Each check returns ``(name, ok, detail)``.
"""
from __future__ import annotations

import math

import numpy as np

from tailkit import autodiff as ad
from tailkit.evaluation import parse_setting, ranking_score_fn, recall_per_source
from tailkit.models import encode

# Largest relative error allowed between a reordered float64 sum and the
# kernel's: a few hundred terms per row, each rounding by at most 2**-53.
SUM_RTOL = 1e-10


def _capture(module, attr: str, model, graph) -> list:
    """Run ``encode(model, graph)`` while recording every call of
    ``module.attr`` as ``(args, output value)``."""
    original = getattr(module, attr)
    calls = []

    def recording(*args):
        out = original(*args)
        calls.append((args, out.value.copy()))
        return out

    setattr(module, attr, recording)
    try:
        encode(model, graph)
    finally:
        setattr(module, attr, original)
    return calls


def check_training(train_payload: dict) -> list:
    """One op per trained method: losses finite and at least one epoch run."""
    out = []
    for method, report in train_payload["methods"].items():
        losses = [x for stage in report["stages"] for x in stage["losses"]]
        epochs = sum(stage["epochs_run"] for stage in report["stages"])
        ok = epochs > 0 and all(math.isfinite(x) for x in losses)
        out.append((f"train:{method}", ok, f"{epochs} epochs, {len(losses)} losses"))
    return out


def _in_unit(value) -> bool:
    return value is None or (math.isfinite(value) and 0.0 <= value <= 1.0)


def check_evaluations(eval_payload: dict) -> list:
    """One op per (method, setting): the metric and every bucket in [0, 1]."""
    out = []
    for method, per_setting in eval_payload["reports"].items():
        for setting, report in per_setting.items():
            values = [report["value"]] + [b["mean"] for b in report["buckets"]]
            ok = report["value"] is not None and all(_in_unit(v) for v in values)
            out.append((f"eval:{method}/{setting}", ok, f"value {report['value']!r}"))
    return out


def check_theory(theory_payload: dict) -> list:
    summary = theory_payload["summary"]
    rates = list(summary["violation_rate"].values())
    finite = [*summary["mean_gap"].values(), *summary["mean_bound"].values()]
    ok = all(_in_unit(r) for r in rates) and all(math.isfinite(x) for x in finite)
    return [("theory", ok, f"violation rates {rates}")]


def check_above_chance(eval_payload: dict, bundle, k: int) -> tuple:
    """tuneup's transductive metric beats a model that learned nothing.

    Only the transductive setting is checked: it scores hundreds of nodes or
    sources, while the inductive settings score about 100, too few to tell
    a weak model from chance. Chance is the majority-class share of the
    scored nodes for accuracy, and ``k`` over the smallest possible candidate
    list for recall@k (a random ranking's expected recall is at most that).
    """
    value = eval_payload["reports"]["tuneup"]["transductive"]["value"]
    if bundle.task == "classification":
        labels = bundle.label_set
        chance = float(np.bincount(labels.labels[labels.unlabeled]).max()
                       / len(labels.unlabeled))
    else:
        max_degree = int(bundle.train_graph.degrees().max())
        chance = min(1.0, k / (len(bundle.v_train) - max_degree))
    return ("quality:transductive", bool(value > chance),
            f"tuneup {value:.4f} vs chance {chance:.4f}")


def check_spmm(model, graph, seed: int) -> tuple:
    """A sampled ``spmm`` call against a dense ``A @ X``."""
    calls = _capture(ad, "spmm", model, graph)
    if not calls:
        return ("oracle:spmm", False, "encode made no spmm call")
    (adj, x), got = calls[seed % len(calls)]
    n = adj.num_nodes
    dense = np.zeros((n, n))
    rows = np.repeat(np.arange(n), np.diff(adj.offsets))
    np.add.at(dense, (rows, adj.targets), adj.weights)
    want = dense @ x.value
    scale = np.abs(dense) @ np.abs(x.value)
    ok = bool(np.all(np.abs(got - want) <= SUM_RTOL * scale + 1e-300))
    err = float(np.max(np.abs(got - want)))
    return ("oracle:spmm", ok, f"call {seed % len(calls)} of {len(calls)}, max abs error {err:.3g}")


def check_row_max_pool(model, graph, seed: int) -> tuple:
    """A sampled ``row_max_pool`` call against a per-node numpy max."""
    calls = _capture(ad, "row_max_pool", model, graph)
    if not calls:
        return ("oracle:row_max_pool", False, "encode made no row_max_pool call")
    (x, g), got = calls[seed % len(calls)]
    off, tgt = g.csr_offsets, g.csr_targets
    want = np.zeros_like(got)
    for i in range(g.num_nodes):
        neighbors = tgt[off[i]:off[i + 1]]
        if neighbors.size:
            want[i] = x.value[neighbors].max(axis=0)
    ok = bool(np.array_equal(got, want))
    return ("oracle:row_max_pool", ok,
            f"call {seed % len(calls)} of {len(calls)}, {g.num_nodes} nodes")


def _positives(edges) -> dict:
    table: dict[int, set] = {}
    for u, v in np.asarray(edges, dtype=np.int64).reshape(-1, 2).tolist():
        table.setdefault(u, set()).add(v)
        table.setdefault(v, set()).add(u)
    return table


def _full_sort_recall(scores, candidates, positives: set, k: int) -> float:
    ranked = sorted(zip((-s for s in scores.tolist()), candidates.tolist()))
    top = {c for _, c in ranked[:k]}
    return len(top & positives) / len(positives)


def check_recall(model, bundle, settings, k: int, seed: int, sample: int = 50) -> list:
    """Per setting, recall@k of sampled sources by a full sort of every
    candidate, against ``recall_per_source`` on the same inputs."""
    rng = np.random.default_rng(seed)
    out = []
    for setting in settings:
        kind, ratio = parse_setting(setting)
        graph = bundle.inference_graph(kind, ratio)
        score_fn = ranking_score_fn(model, encode(model, graph).value)
        if kind == "transductive":
            positives = _positives(bundle.trans_test_edges)
            eligible = set(_positives(bundle.trans_val_edges)) & set(positives)
            pool = np.asarray(bundle.v_train, dtype=np.int64)
        else:
            positives = _positives(bundle.new_test_edges)
            eligible = set(bundle.v_new.tolist()) & set(positives)
            pool = np.arange(bundle.num_nodes, dtype=np.int64)
        eligible = np.array(sorted(eligible), dtype=np.int64)
        chosen = np.sort(rng.choice(eligible, size=min(sample, eligible.size), replace=False))
        exclude = {int(s): graph.neighbors(int(s)) for s in chosen}
        got = recall_per_source(
            score_fn, chosen, {s: np.array(sorted(p)) for s, p in positives.items()},
            pool, k, exclude)
        want = []
        for s in chosen.tolist():
            candidates = pool[~np.isin(pool, exclude[s])]
            want.append(_full_sort_recall(score_fn(s, candidates), candidates, positives[s], k))
        ok = bool(np.array_equal(got, np.array(want)))
        out.append((f"oracle:recall/{setting}", ok, f"{chosen.size} sources"))
    return out
