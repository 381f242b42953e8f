"""Acceptance gate: ten checks, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete. Each check prints its verdict before asserting, so the line
appears whether or not the criterion holds.
"""
import math
import time

import numpy as np
import pytest

import tailkit.autodiff as ad
from tailkit.autodiff import Tape, Tensor
from tailkit.data import (
    edge_split_transductive,
    label_split,
    make_classification_bundle,
    make_link_bundle,
    make_recsys_bundle,
    node_split,
    recsys_split,
)
from tailkit.evaluation import recall_per_source
from tailkit.experiment import (
    ExperimentConfig,
    cmd_eval,
    cmd_generate,
    cmd_report,
    cmd_split,
    cmd_theory,
    cmd_train,
)
from tailkit.generators import generate_bipartite, generate_scale_free
from tailkit.graph import build_graph, drop_edges, normalize_adjacency
from tailkit.losses import SupervisionSet, bpr_loss, cross_entropy
from tailkit.models import (
    TASKS,
    VARIANTS,
    EncoderConfig,
    classify_embeddings,
    encode,
    init_model,
    score_pairs,
)
from tailkit.theory import METHODS, MonteCarloConfig, monte_carlo_validate, theorem_bound


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:02d} {name}: {detail}", flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

def _max_gradient_error(model, loss_fn, h=1e-5):
    model.zero_grad()
    with Tape() as tape:
        tape.backward(loss_fn())
    worst = 0.0
    for p in model.parameters():
        grads = p.grad.reshape(-1).copy()
        flat = p.value.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            with Tape():
                up = float(loss_fn().value)
            flat[i] = orig - h
            with Tape():
                down = float(loss_fn().value)
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            err = abs(fd - grads[i]) / max(abs(fd) + abs(grads[i]), 1e-6)
            worst = max(worst, err)
    return worst


def test_criterion_01_gradients_match_finite_differences():
    start = time.time()
    rng = np.random.default_rng(0)
    plain_edges = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7),
                   (6, 8), (7, 9), (1, 9), (2, 8)]
    plain = build_graph(plain_edges, 10, features=rng.standard_normal((10, 5)))
    bip_edges = [(0, 6), (0, 7), (1, 7), (2, 8), (3, 9), (4, 6), (5, 8), (5, 9)]
    bipartite = build_graph(bip_edges, 10, bipartite=(6, 4))

    sup = SupervisionSet.classification([0, 2, 4, 5], [0, 2, 1, 2],
                                        num_classes=3, num_nodes=10)
    link_pairs = np.array(plain_edges[:4])
    link_negs = np.array([[0, 8], [0, 5], [1, 6], [2, 9]])
    rec_pairs = np.array(bip_edges[:4])
    rec_negs = np.array([[0, 8], [0, 9], [1, 6], [2, 7]])

    worst = 0.0
    for variant in VARIANTS:
        config = EncoderConfig(variant, input_dim=5, hidden_dim=4,
                               output_dim=3, num_layers=2)
        for task in TASKS:
            graph = bipartite if task == "recsys" else plain
            model = init_model(
                config, task,
                num_classes=3 if task == "classification" else None,
                num_nodes=10, featureless=task == "recsys", seed=7)
            if task == "classification":
                def loss_fn(model=model, graph=graph):
                    return cross_entropy(classify_embeddings(model, encode(model, graph)), sup)
            else:
                pos = link_pairs if task == "link" else rec_pairs
                neg = link_negs if task == "link" else rec_negs
                def loss_fn(model=model, graph=graph, pos=pos, neg=neg):
                    emb = encode(model, graph)
                    return bpr_loss(score_pairs(model, emb, pos),
                                    score_pairs(model, emb, neg))
            worst = max(worst, _max_gradient_error(model, loss_fn))

    elapsed = time.time() - start
    ok = worst < 1e-4 and elapsed < 60
    verdict(1, "gradients", ok,
            f"max relative error {worst:.2e} over "
            f"{len(VARIANTS)}x{len(TASKS)} models in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. normalization oracle
# ---------------------------------------------------------------------------

def _densify(adj):
    dense = np.zeros((adj.num_nodes, adj.num_nodes))
    for i in range(adj.num_nodes):
        lo, hi = adj.offsets[i], adj.offsets[i + 1]
        dense[i, adj.targets[lo:hi]] = adj.weights[lo:hi]
    return dense


def test_criterion_02_renormalized_adjacency_oracle():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 201))
        density = rng.uniform(0.0, 0.15)
        mask = np.triu(rng.random((n, n)) < density, k=1)
        edges = np.argwhere(mask)
        graph = build_graph(edges, n)
        dense = _densify(normalize_adjacency(graph, "renormalized"))
        a_hat = np.zeros((n, n))
        for u, v in graph.edges:
            a_hat[u, v] = a_hat[v, u] = 1.0
        a_hat += np.eye(n)
        inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
        oracle = a_hat * np.outer(inv_sqrt, inv_sqrt)
        worst = max(worst, float(np.abs(dense - oracle).max()))
    ok = worst < 1e-10
    verdict(2, "renormalized adjacency", ok,
            f"max deviation {worst:.2e} over 100 graphs up to 200 nodes")


# ---------------------------------------------------------------------------
# 3. ranking oracle
# ---------------------------------------------------------------------------

def test_criterion_03_recall_matches_exhaustive_oracle():
    rng = np.random.default_rng(2)
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(2, 51))
        k = int(rng.integers(1, 11))
        # coarse integer scores force plenty of ties
        table = rng.integers(0, max(2, n // 3), size=n).astype(np.float64)
        pool = np.arange(n)
        source = int(rng.integers(0, n))
        num_pos = int(rng.integers(1, n + 1))
        positives = rng.choice(n, size=num_pos, replace=False)

        def score_fn(src, candidates, table=table):
            return table[candidates]

        ours = recall_per_source(score_fn, [source], {source: positives},
                                 pool, k=k)[0]
        ranked = sorted(pool.tolist(), key=lambda c: (-table[c], c))[:k]
        oracle = len(set(ranked) & set(positives.tolist())) / num_pos
        mismatches += ours != oracle
    ok = mismatches == 0
    verdict(3, "recall oracle", ok,
            f"{mismatches} mismatches over 500 tie-heavy instances")


# ---------------------------------------------------------------------------
# 4. DropEdge contract
# ---------------------------------------------------------------------------

def test_criterion_04_dropedge_counts_and_retention():
    rng = np.random.default_rng(3)
    edges = set()
    while len(edges) < 57:
        u, v = rng.integers(0, 30, size=2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    big = build_graph(sorted(edges), 30)
    count_ok = True
    for alpha in (0.0, 0.1, 1.0 / 3.0, 0.5, 0.75, 0.999):
        for seed in range(20):
            kept = drop_edges(big, alpha, seed=seed).edges.shape[0]
            count_ok &= kept == 57 - math.floor(alpha * 57)

    ten = build_graph([(i, i + 1) for i in range(10)], 11)
    worst = 0.0
    for alpha in (0.3, 0.5):
        hits = {tuple(e): 0 for e in ten.edges.tolist()}
        for seed in range(10_000):
            for e in drop_edges(ten, alpha, seed=seed).edges.tolist():
                hits[tuple(e)] += 1
        for count in hits.values():
            worst = max(worst, abs(count / 10_000 - (1.0 - alpha)))
    ok = count_ok and worst < 0.02
    verdict(4, "dropedge", ok,
            f"exact retained counts {count_ok}, max per-edge frequency "
            f"deviation {worst:.4f} over 10,000 seeds")


# ---------------------------------------------------------------------------
# 5. split contracts
# ---------------------------------------------------------------------------

def _pair_set(edges) -> set:
    return {tuple(e) for e in np.asarray(edges).reshape(-1, 2).tolist()}


def test_criterion_05_split_ratios_and_leakage():
    graph, labels = generate_scale_free(2000, 2, seed=4)
    split = node_split(graph, 0.05, seed=0)
    ratio_ok = split.v_new.size == 100 and split.v_train.size == 1900

    lab = label_split(split.v_train, 0.10, seed=0)
    ratio_ok &= len(lab[0]) == 95 and len(lab[1]) == 95 and len(lab[2]) == 1710

    e = graph.edges.shape[0]
    train_g, va, te = edge_split_transductive(graph, (0.5, 0.2, 0.3), seed=0)
    ratio_ok &= (train_g.edges.shape[0] == math.floor(0.5 * e)
                 and va.shape[0] == math.floor(0.2 * e)
                 and te.shape[0] == e - train_g.edges.shape[0] - va.shape[0])

    bip = generate_bipartite(300, 150, seed=4)
    be = bip.edges.shape[0]
    btr, bva, bte = recsys_split(bip, (0.10, 0.05, 0.85), seed=0)
    ratio_ok &= (btr.edges.shape[0] == math.floor(0.10 * be)
                 and bva.shape[0] == math.floor(0.05 * be)
                 and bte.shape[0] == be - btr.edges.shape[0] - bva.shape[0])

    cls_bundle = make_classification_bundle(graph, labels, seed=0)
    cold_ok = True
    owners = {}
    new_set = set(cls_bundle.v_new.tolist())
    for u, v in cls_bundle.new_input_edges.tolist():
        owner = min(u, v) if (u in new_set and v in new_set) else (u if u in new_set else v)
        owners.setdefault(owner, []).append((u, v))
    for ratio in (0.3, 0.6, 0.9):
        kept = cls_bundle.cold_input_edges[ratio]
        kept_sets = {}
        for u, v in kept.tolist():
            owner = min(u, v) if (u in new_set and v in new_set) else (u if u in new_set else v)
            kept_sets.setdefault(owner, []).append((u, v))
        for owner, edge_list in owners.items():
            expected = len(edge_list) - math.floor(ratio * len(edge_list))
            cold_ok &= len(kept_sets.get(owner, [])) == expected
            cold_ok &= set(kept_sets.get(owner, [])) <= set(edge_list)

    link_graph, _ = generate_scale_free(150, 2, seed=5)
    rec_graph = generate_bipartite(150, 80, seed=5)
    leaks = 0
    for seed in range(50):
        bundle = make_link_bundle(link_graph, seed=seed)
        tests = _pair_set(bundle.trans_test_edges) | _pair_set(bundle.new_test_edges)
        inputs = [bundle.train_graph,
                  bundle.inference_graph("transductive"),
                  bundle.inference_graph("inductive")]
        inputs += [bundle.inference_graph("inductive-cold", r)
                   for r in (0.3, 0.6, 0.9)]
        for g in inputs:
            leaks += len(tests & _pair_set(g.edges))
    for seed in range(50):
        bundle = make_recsys_bundle(rec_graph, seed=seed)
        tests = _pair_set(bundle.trans_test_edges)
        leaks += len(tests & _pair_set(bundle.train_graph.edges))
        leaks += len(tests & _pair_set(bundle.inference_graph("transductive").edges))

    ok = ratio_ok and cold_ok and leaks == 0
    verdict(5, "split contracts", ok,
            f"ratio counts exact {ratio_ok}, per-node cold removal exact "
            f"{cold_ok}, {leaks} leaked test edges over 100 seeded splits")


# ---------------------------------------------------------------------------
# 6. trend reproduction
# ---------------------------------------------------------------------------

def _tail_metric(report: dict):
    num = den = 0.0
    for row in report["buckets"]:
        if row["bucket"] in ("0", "1", "2") and row["mean"] is not None:
            num += row["mean"] * row["count"]
            den += row["count"]
    return num / den if den else None


def _run_pipeline(payload):
    config = ExperimentConfig.from_dict(payload)
    cmd_generate(config)
    cmd_split(config)
    cmd_train(config)
    return config, cmd_eval(config)


def test_criterion_06_trend_reproduction(tmp_path):
    start = time.time()
    cls_payload = {
        "task": "classification",
        "dataset": {"num_nodes": 2000, "m_attach": 2, "feat_dim": 16,
                    "num_classes": 2, "separation": 1.5, "feature_noise": 1.0,
                    "community_bias": 4.0, "label_noise": 0.0, "seed": 0},
        "model": {"variant": "gcn", "hidden_dim": 32, "output_dim": 32,
                  "num_layers": 2},
        "train": {"stage1_epochs": 300, "stage2_epochs": 200,
                  "stage1_lr": 0.01, "alpha": 0.5, "eval_every": 10,
                  "patience": 10},
        "methods": ["base", "tuneup", "no-curriculum", "no-pseudo",
                    "no-syntails"],
        "settings": ["transductive", "inductive-cold(0.9)"],
        "seeds": [0, 1, 2, 3, 4],
        "output_dir": str(tmp_path / "cls"),
    }
    config, evals = _run_pipeline(cls_payload)
    tail_wins = cold_wins = 0
    cold_means = {m: 0.0 for m in cls_payload["methods"]}
    for seed in config.seeds:
        reports = evals[seed]["reports"]
        tail_wins += (_tail_metric(reports["tuneup"]["transductive"])
                      >= _tail_metric(reports["base"]["transductive"]))
        cold_wins += (reports["tuneup"]["inductive-cold(0.9)"]["value"]
                      >= reports["base"]["inductive-cold(0.9)"]["value"])
        for method in cold_means:
            cold_means[method] += (
                reports[method]["inductive-cold(0.9)"]["value"] / len(config.seeds))
    ablations_ok = all(
        cold_means["tuneup"] >= cold_means[m]
        for m in ("no-curriculum", "no-pseudo", "no-syntails"))
    cls_time = time.time() - start

    rec_start = time.time()
    rec_payload = {
        "task": "recsys",
        "dataset": {"num_users": 600, "num_items": 300, "exponent": 1.8,
                    "min_interactions": 2, "num_clusters": 4,
                    "affinity": 6.0, "seed": 0},
        "model": {"hidden_dim": 32, "output_dim": 32, "num_layers": 2},
        "train": {"stage1_epochs": 300, "stage2_epochs": 150,
                  "stage1_lr": 0.01, "alpha": 0.5, "eval_every": 10,
                  "patience": 10},
        "methods": ["base", "tuneup"],
        "settings": ["transductive"],
        "seeds": [0, 1, 2, 3, 4],
        "output_dir": str(tmp_path / "rec"),
    }
    rec_config, rec_evals = _run_pipeline(rec_payload)
    rec_wins = 0
    for seed in rec_config.seeds:
        reports = rec_evals[seed]["reports"]
        rec_wins += (_tail_metric(reports["tuneup"]["transductive"])
                     >= _tail_metric(reports["base"]["transductive"]))
    rec_time = time.time() - rec_start

    ok = (tail_wins >= 4 and cold_wins >= 4 and ablations_ok
          and rec_wins >= 4 and cls_time < 1200 and rec_time < 1200)
    verdict(6, "trend reproduction", ok,
            f"classification tail {tail_wins}/5, cold-0.9 {cold_wins}/5, "
            f"tuneup >= ablations on cold {ablations_ok}, recsys tail "
            f"{rec_wins}/5 ({cls_time:.0f}s + {rec_time:.0f}s)")


# ---------------------------------------------------------------------------
# 7. theory formula checks
# ---------------------------------------------------------------------------

def _bound_reference(method, m, d, delta, Q, tau, R, T):
    log_m = math.log(16.0 * math.e * m / delta)
    inside = (8.0 * (d - 1) * log_m if method == "M1" else 0.0) + 8.0 * log_m
    value = math.sqrt(inside / m)
    value += Q if method != "M1" else 0.0
    value += tau if method == "M3" else 0.0
    g = math.sqrt(8.0 * d * math.log(16.0 * math.e * R / delta) / R)
    g += math.sqrt(math.log(4.0 / delta) / (2.0 * T))
    return value + g


def test_criterion_07_theorem_bound_formula():
    grid = [
        (100, 16, 0.1, 0.0, 0.5, 1000, 1000),
        (10, 2, 0.05, 0.3, -0.2, 50, 20),
        (500, 64, 0.5, 0.01, 0.0, 2000, 5000),
        (1, 1, 0.9, 1.0, 1.0, 1, 1),
        (250, 8, 0.25, 0.15, 0.33, 700, 300),
    ]
    worst = 0.0
    for m, d, delta, q, tau, big_r, big_t in grid:
        for method in METHODS:
            ours = theorem_bound(method, m, d, delta, q, tau, big_r, big_t)
            ref = _bound_reference(method, m, d, delta, q, tau, big_r, big_t)
            worst = max(worst, abs(ours - ref))
    ordering_ok = all(
        theorem_bound("M2", 100, d, 0.1, 0.0, 0.0, 1000, 1000)
        < theorem_bound("M1", 100, d, 0.1, 0.0, 0.0, 1000, 1000)
        for d in (2, 3, 8, 64))
    tau_ok = all(
        abs(theorem_bound("M3", 100, 16, 0.1, q, tau, 1000, 1000)
            - theorem_bound("M2", 100, 16, 0.1, q, tau, 1000, 1000) - tau) < 1e-12
        for tau in (-0.3, 0.0, 0.2, 0.9) for q in (0.0, 0.4))
    ok = worst < 1e-12 and ordering_ok and tau_ok
    verdict(7, "theory formulas", ok,
            f"reimplementation deviation {worst:.2e}, M2<M1 at Q=0 "
            f"{ordering_ok}, M3-M2=tau {tau_ok}")


# ---------------------------------------------------------------------------
# 8. theory Monte Carlo
# ---------------------------------------------------------------------------

def test_criterion_08_monte_carlo_bound_validation():
    start = time.time()
    trials = 200
    result = monte_carlo_validate(MonteCarloConfig(), trials)
    summary = result["summary"]
    slack = 0.1 + 2.0 * math.sqrt(0.1 * 0.9 / trials)
    rates_ok = all(rate <= slack for rate in summary["violation_rate"].values())

    by_method = {m: [] for m in METHODS}
    for row in result["rows"]:
        if row["q"] == 0.0:
            by_method[row["method"]].append(row["gap"])
    gap_ok = (len(by_method["M1"]) > 0
              and float(np.mean(by_method["M2"])) <= float(np.mean(by_method["M1"])) + 1e-12)
    elapsed = time.time() - start
    ok = rates_ok and gap_ok and elapsed < 600
    rates = {m: round(r, 3) for m, r in summary["violation_rate"].items()}
    verdict(8, "theory Monte Carlo", ok,
            f"violation rates {rates} (allowed {slack:.3f}), "
            f"separable mean gap M2 {float(np.mean(by_method['M2'])):.4f} <= "
            f"M1 {float(np.mean(by_method['M1'])):.4f} over "
            f"{len(by_method['M1'])} Q=0 trials in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. determinism
# ---------------------------------------------------------------------------

def test_criterion_09_byte_identical_reruns(tmp_path):
    def payload(out):
        return {
            "task": "classification",
            "dataset": {"num_nodes": 150, "m_attach": 2, "feat_dim": 6,
                        "seed": 1},
            "model": {"variant": "gcn", "hidden_dim": 8, "output_dim": 8},
            "train": {"stage1_epochs": 10, "stage2_epochs": 5,
                      "stage1_lr": 0.02, "eval_every": 5, "patience": 3},
            "methods": ["base", "tuneup"],
            "settings": ["transductive", "inductive"],
            "seeds": [0, 1],
            "theory": {"N": 500, "T": 120, "R": 100, "m": 20, "d": 4,
                       "trials": 2},
            "output_dir": str(out),
        }

    runs = []
    for out in (tmp_path / "one", tmp_path / "two"):
        config = ExperimentConfig.from_dict(payload(out))
        cmd_generate(config)
        cmd_split(config)
        cmd_train(config)
        cmd_eval(config)
        cmd_theory(config)
        cmd_report(config.run_dir)
        runs.append(config.run_dir)

    files = sorted(p.relative_to(runs[0])
                   for p in runs[0].rglob("*.json") if p.is_file())
    differing = [str(rel) for rel in files
                 if (runs[0] / rel).read_bytes() != (runs[1] / rel).read_bytes()]
    ok = not differing and len(files) >= 10
    verdict(9, "determinism", ok,
            f"{len(files)} JSON artifacts byte-identical across fresh reruns"
            + (f"; differing: {differing}" if differing else ""))


# ---------------------------------------------------------------------------
# 10. closed-form loss values
# ---------------------------------------------------------------------------

def test_criterion_10_closed_form_losses():
    with Tape():
        log_probs = ad.log_softmax(Tensor(np.zeros((4, 7))))
        sup = SupervisionSet.classification([0, 1, 2, 3], [0, 3, 6, 2],
                                            num_classes=7, num_nodes=4)
        ce = float(cross_entropy(log_probs, sup).value)
        scores = Tensor(np.array([[0.3], [-1.2], [2.0], [0.0], [5.5]]))
        bpr = float(bpr_loss(scores, Tensor(scores.value.copy())).value)
    ce_err = abs(ce - math.log(7.0))
    bpr_err = abs(bpr - math.log(2.0))
    ok = ce_err < 1e-12 and bpr_err < 1e-12
    verdict(10, "closed-form losses", ok,
            f"uniform cross-entropy off by {ce_err:.2e}, zero-margin "
            f"pairwise loss off by {bpr_err:.2e}")
