"""Training loops: convergence, determinism, curriculum structure, ablations."""
import json
import tracemalloc
import weakref
from dataclasses import asdict

import numpy as np
import pytest

import tailkit.models as models
import tailkit.training as training
from dense_oracle import dense_chain
from tailkit import autodiff as ad
from tailkit.autodiff import AdamState, Tape
from tailkit.data import make_classification_bundle, make_link_bundle, make_recsys_bundle
from tailkit.evaluation import predict_classes, validation_metric
from tailkit.generators import generate_bipartite, generate_scale_free
from tailkit.graph import LabelSet, build_graph, drop_edges
from tailkit.losses import SupervisionSet, cross_entropy, sample_negatives
from tailkit.models import EncoderConfig, classify_embeddings, encode, init_model, save_model
from tailkit.training import (
    METHODS,
    PRESETS,
    TrainConfig,
    TrainError,
    TrainReport,
    pseudo_label,
    run_ablation,
)


def param_bytes(model):
    """Every parameter's raw bytes, keyed by name: equal iff bitwise equal."""
    return {k: v.tobytes() for k, v in model.copy_values().items()}


def two_clique_instance(per_side=10, feat_dim=4, seed=0):
    """Two disjoint cliques with well-separated features; trivially separable."""
    n = 2 * per_side
    edges = []
    for base in (0, per_side):
        for i in range(per_side):
            for j in range(i + 1, per_side):
                edges.append((base + i, base + j))
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, feat_dim)) * 0.1
    feats[:per_side, 0] += 3.0
    feats[per_side:, 0] -= 3.0
    labels = np.repeat([0, 1], per_side)
    graph = build_graph(edges, n, features=feats)
    sup = SupervisionSet.classification(np.arange(n), labels, 2, n)
    return graph, sup, labels


def train_alone(method, model, graph, sup, cfg, **kwargs):
    """``method``'s (model, report) when it is the only method trained."""
    return run_ablation([method], model, graph, sup, cfg, **kwargs)[method]


def small_model(graph, task="classification", hidden=8, seed=0, variant="gcn"):
    config = EncoderConfig(variant, graph.features.shape[1], hidden, hidden)
    return init_model(config, task, num_classes=2, seed=seed)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(TrainError):
            TrainConfig("nope")
        with pytest.raises(TrainError):
            TrainConfig("classification", alpha=1.0)
        with pytest.raises(TrainError):
            TrainConfig("classification", stage1_epochs=-1)
        with pytest.raises(TrainError):
            TrainConfig("classification", stage1_lr=0.0)
        with pytest.raises(TrainError):
            TrainConfig("classification", patience=0)

    def test_stage2_lr_resolution(self):
        assert TrainConfig("classification").resolved_stage2_lr == 0.01
        assert TrainConfig("recsys").resolved_stage2_lr == 1e-4
        assert TrainConfig("recsys", stage2_lr=0.5).resolved_stage2_lr == 0.5

    def test_presets_reflect_published_schedules(self):
        full = PRESETS["full-classification"]
        assert (full.stage1_epochs, full.stage2_epochs, full.stage1_lr) == (1500, 1500, 0.001)
        link = PRESETS["full-link"]
        assert (link.stage1_epochs, link.stage1_lr) == (1000, 1e-4)
        rec = PRESETS["full-recsys"]
        assert (rec.stage1_epochs, rec.stage2_epochs) == (2000, 500)
        assert rec.resolved_stage2_lr == 1e-4

    def test_config_echo_serializes(self):
        echo = asdict(TrainConfig("link", seed=3))
        assert json.loads(json.dumps(echo)) == echo


class TestTrainBase:
    def test_zero_epochs_keeps_initialization(self):
        graph, sup, _ = two_clique_instance()
        model = small_model(graph)
        before = model.copy_values()
        cfg = TrainConfig("classification", stage1_epochs=0)
        trained, report = train_alone("base", model, graph, sup, cfg)
        for name, value in trained.copy_values().items():
            assert np.array_equal(value, before[name])
        assert report.stages[0].epochs_run == 0

    def test_separable_instance_reaches_full_accuracy(self):
        graph, sup, labels = two_clique_instance()
        model = small_model(graph)
        cfg = TrainConfig("classification", stage1_epochs=200, stage1_lr=0.05)
        model, _ = train_alone("base", model, graph, sup, cfg)
        preds = predict_classes(model, graph)
        assert (preds == labels).all()

    def test_first_epoch_matches_hand_stepped_adam(self):
        graph, sup, _ = two_clique_instance(seed=1)
        model_a = small_model(graph, seed=2)
        model_b = small_model(graph, seed=2)
        lr = 0.01

        cfg = TrainConfig("classification", stage1_epochs=1, stage1_lr=lr)
        model_a, report = train_alone("base", model_a, graph, sup, cfg)

        model_b.zero_grad()
        with Tape() as tape:
            loss = cross_entropy(classify_embeddings(model_b, encode(model_b, graph)), sup)
            tape.backward(loss)
        ad.adam_step(model_b.parameters(), AdamState(model_b.parameters()), lr)

        assert report.stages[0].losses[0] == float(loss.value)
        for pa, pb in zip(model_a.parameters(), model_b.parameters()):
            assert np.array_equal(pa.value, pb.value)

    def test_empty_supervision_rejected(self):
        graph, _, _ = two_clique_instance()
        model = small_model(graph)
        empty = SupervisionSet.classification(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64), 2, graph.num_nodes
        )
        with pytest.raises(TrainError):
            train_alone("base", model, graph, empty, TrainConfig("classification"))

    def test_task_mismatch_rejected(self):
        graph, sup, _ = two_clique_instance()
        model = small_model(graph)
        with pytest.raises(TrainError):
            train_alone("base", model, graph, sup, TrainConfig("link"))

    def test_bitwise_deterministic(self):
        graph, sup, _ = two_clique_instance()
        cfg = TrainConfig("classification", stage1_epochs=20)
        runs = []
        for _ in range(2):
            model = small_model(graph, seed=4)
            model, report = train_alone("base", model, graph, sup, cfg)
            runs.append((report.stages[0].losses, param_bytes(model)))
        assert runs[0] == runs[1]


class TestEarlyStopping:
    def test_stops_after_patience_and_restores_best(self):
        graph, sup, _ = two_clique_instance()
        model = small_model(graph)
        scripted = iter([0.3, 0.8, 0.5, 0.4, 0.2, 0.1, 0.05])
        hashes = []

        def fake_validation(m):
            hashes.append(param_bytes(m))
            return next(scripted)

        cfg = TrainConfig(
            "classification", stage1_epochs=100, eval_every=1, patience=3
        )
        model, report = train_alone("base", model, graph, sup, cfg,
                                    validation_fn=fake_validation)
        stage = report.stages[0]
        assert stage.epochs_run == 5  # best at epoch 2, then 3 stalls
        assert stage.best_epoch == 2
        assert max(stage.val_values) == stage.val_values[1]
        assert param_bytes(model) == hashes[1]

    def test_best_metric_equals_trace_max_on_real_run(self):
        graph, labels = generate_scale_free(120, 2, seed=6)
        bundle = make_classification_bundle(graph, labels, seed=6)
        model = small_model(graph, seed=6)
        sup = SupervisionSet.classification(
            bundle.label_set.train_labeled,
            labels.labels[bundle.label_set.train_labeled],
            2,
            graph.num_nodes,
        )
        cfg = TrainConfig("classification", stage1_epochs=60, eval_every=5, patience=4)
        model, report = train_alone(
            "base", model, bundle.train_graph, sup, cfg,
            validation_fn=lambda m: validation_metric(m, bundle),
        )
        stage = report.stages[0]
        idx = stage.val_values.index(max(stage.val_values))
        assert stage.best_epoch == stage.val_epochs[idx]
        # restored snapshot reproduces the best recorded metric
        assert validation_metric(model, bundle) == max(stage.val_values)

    def test_no_validation_keeps_final_epoch(self):
        graph, sup, _ = two_clique_instance()
        model = small_model(graph)
        cfg = TrainConfig("classification", stage1_epochs=7)
        _, report = train_alone("base", model, graph, sup, cfg)
        assert report.stages[0].best_epoch == 7


class TestPseudoLabel:
    def setup_instance(self):
        # nodes 0-5 in a path, 6 and 7 isolated
        edges = [(i, i + 1) for i in range(5)]
        graph = build_graph(edges, 8, features=np.random.default_rng(0).standard_normal((8, 3)))
        labels = LabelSet(
            np.array([0, 1, 0, 1, -1, -1, -1, -1]), 2
        ).with_splits([0, 1], [2, 3], [4, 5, 6, 7])
        return graph, labels

    def test_counts_and_flags(self):
        graph, labels = self.setup_instance()
        model = small_model(graph)
        sup = pseudo_label(model, graph, labels)
        # 2 labeled train + unlabeled {4,5} non-isolated; {6,7} isolated, skipped
        assert sup.size == 4
        assert sup.nodes.tolist() == [0, 1, 4, 5]
        # the labeled training nodes first, with their observed classes
        assert sup.size - labels.train_labeled.size == 2
        assert sup.classes[:2].tolist() == [0, 1]

    def test_constant_model_assigns_class_zero(self):
        graph, labels = self.setup_instance()
        model = small_model(graph)
        for p in model.parameters():
            p.value[:] = 0.0  # all logits equal; argmax picks class 0
        sup = pseudo_label(model, graph, labels)
        assert (sup.classes[labels.train_labeled.size:] == 0).all()

    def test_all_isolated_unlabeled_leaves_supervision_unchanged(self):
        edges = [(0, 1), (1, 2), (2, 3)]
        graph = build_graph(edges, 6, features=np.zeros((6, 3)))
        labels = LabelSet(np.array([0, 1, 0, 1, -1, -1]), 2).with_splits([0, 1], [2, 3], [4, 5])
        model = small_model(graph)
        sup = pseudo_label(model, graph, labels)
        assert sup.nodes.tolist() == [0, 1]
        assert sup.size == labels.train_labeled.size

    def test_count_identity_on_random_instance(self):
        graph, labels = generate_scale_free(150, 2, seed=7)
        bundle = make_classification_bundle(graph, labels, seed=7)
        model = small_model(graph, seed=7)
        ls = bundle.label_set
        sup = pseudo_label(model, bundle.train_graph, ls)
        degs = bundle.train_graph.degrees()
        expected = ls.train_labeled.size + int((degs[ls.unlabeled] >= 1).sum())
        assert sup.size == expected

    def test_rejects_ranking_model(self):
        graph, labels = self.setup_instance()
        model = init_model(EncoderConfig("gcn", 3, 4, 4), "link", seed=0)
        with pytest.raises(TrainError):
            pseudo_label(model, graph, labels)

    def test_does_not_mutate_label_set(self):
        graph, labels = self.setup_instance()
        before = labels.labels.copy()
        model = small_model(graph)
        pseudo_label(model, graph, labels)
        assert np.array_equal(labels.labels, before)


def curriculum_fixture(seed=0):
    graph, labels = generate_scale_free(120, 2, seed=seed)
    bundle = make_classification_bundle(graph, labels, seed=seed)
    ls = bundle.label_set
    sup = SupervisionSet.classification(
        ls.train_labeled, ls.labels[ls.train_labeled], 2, graph.num_nodes
    )
    model = small_model(graph, seed=seed)
    return bundle, model, sup


class TestTuneup:
    def test_two_stages_with_configured_budgets(self):
        bundle, model, sup = curriculum_fixture()
        cfg = TrainConfig("classification", stage1_epochs=12, stage2_epochs=8, alpha=0.5)
        _, report = train_alone(
            "tuneup", model, bundle.train_graph, sup, cfg, label_set=bundle.label_set
        )
        assert [s.name for s in report.stages] == ["base", "finetune"]
        assert report.stages[0].epochs_run == 12
        assert report.stages[1].epochs_run == 8
        assert report.stage_boundaries == [12, 20]

    def test_pseudo_labels_produced_exactly_once(self, monkeypatch):
        bundle, model, sup = curriculum_fixture()
        calls = []
        original = training.pseudo_label

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(training, "pseudo_label", counted)
        cfg = TrainConfig("classification", stage1_epochs=5, stage2_epochs=15)
        train_alone("tuneup", model, bundle.train_graph, sup, cfg, label_set=bundle.label_set)
        assert len(calls) == 1

    def test_supervision_and_labels_untouched(self):
        bundle, model, sup = curriculum_fixture()
        nodes_before = sup.nodes.copy()
        labels_before = bundle.label_set.labels.copy()
        cfg = TrainConfig("classification", stage1_epochs=6, stage2_epochs=6)
        train_alone("tuneup", model, bundle.train_graph, sup, cfg, label_set=bundle.label_set)
        assert np.array_equal(sup.nodes, nodes_before)
        assert np.array_equal(bundle.label_set.labels, labels_before)

    def test_missing_label_set_rejected(self):
        bundle, model, sup = curriculum_fixture()
        cfg = TrainConfig("classification", stage1_epochs=2, stage2_epochs=2)
        with pytest.raises(TrainError):
            train_alone("tuneup", model, bundle.train_graph, sup, cfg)

    def test_alpha_zero_no_pseudo_is_continued_conventional_training(self):
        bundle, model_a, sup = curriculum_fixture(seed=3)
        cfg = TrainConfig("classification", stage1_epochs=15, stage2_epochs=10, alpha=0.0)
        model_a, report_a = train_alone("no-pseudo", model_a, bundle.train_graph, sup, cfg)

        _, model_b, _ = curriculum_fixture(seed=3)
        stage1_cfg = TrainConfig("classification", stage1_epochs=15)
        model_b, _ = train_alone("base", model_b, bundle.train_graph, sup, stage1_cfg)
        stage2_cfg = TrainConfig("classification", stage1_epochs=10)
        model_b, report_b = train_alone("base", model_b, bundle.train_graph, sup, stage2_cfg)

        assert param_bytes(model_a) == param_bytes(model_b)
        assert report_a.stages[1].losses == report_b.stages[0].losses

    def test_bitwise_deterministic_with_dropedge(self):
        runs = []
        for _ in range(2):
            bundle, model, sup = curriculum_fixture(seed=5)
            cfg = TrainConfig("classification", stage1_epochs=8, stage2_epochs=8, alpha=0.5)
            model, report = train_alone(
                "tuneup", model, bundle.train_graph, sup, cfg, label_set=bundle.label_set
            )
            runs.append(
                (report.stages[0].losses, report.stages[1].losses, param_bytes(model))
            )
        assert runs[0] == runs[1]

    def test_link_task_trains_and_improves(self):
        rng = np.random.default_rng(11)
        upper = np.triu(rng.random((60, 60)) < 0.12, k=1)
        graph = build_graph(np.argwhere(upper), 60, features=rng.standard_normal((60, 4)))
        bundle = make_link_bundle(graph, seed=11)
        sup = SupervisionSet.ranking("link", bundle.train_graph)
        model = init_model(EncoderConfig("gcn", 4, 8, 8), "link", seed=11)
        cfg = TrainConfig("link", stage1_epochs=40, stage2_epochs=10, stage1_lr=0.02)
        _, report = train_alone("tuneup", model, bundle.train_graph, sup, cfg)
        losses = report.stages[0].losses
        assert losses[-1] < losses[0]
        assert np.isfinite(losses).all()

    def test_recsys_task_trains(self):
        graph = generate_bipartite(20, 25, seed=12)
        sup = SupervisionSet.ranking("recsys", graph)
        model = init_model(
            EncoderConfig("gcn", 8, 8, 8), "recsys",
            num_nodes=graph.num_nodes, featureless=True, seed=12,
        )
        cfg = TrainConfig("recsys", stage1_epochs=30, stage2_epochs=5, stage1_lr=0.05)
        _, report = train_alone("tuneup", model, graph, sup, cfg)
        losses = report.stages[0].losses
        assert losses[-1] < losses[0]
        # fine-tuning stage ran at the dedicated low learning rate
        assert report.stages[1].epochs_run == 5


# method -> [(stage name, configured epoch budget)], spelled out independently
# of the METHODS table so that a wrong row fails here
EXPECTED_STAGES = {
    "base": [("base", 7)],
    "dropedge": [("dropedge", 7)],
    "tuneup": [("base", 7), ("finetune", 3)],
    "no-curriculum": [("no-curriculum", 7)],
    "no-pseudo": [("base", 7), ("finetune", 3)],
    "no-syntails": [("base", 7), ("finetune", 3)],
}


class TestAblations:
    def test_unknown_tag(self):
        bundle, model, sup = curriculum_fixture()
        with pytest.raises(TrainError):
            train_alone("mystery", model, bundle.train_graph, sup,
                         TrainConfig("classification"))

    @pytest.mark.parametrize("method", METHODS)
    def test_all_variants_complete_with_comparable_reports(self, method):
        bundle, model, sup = curriculum_fixture(seed=8)
        cfg = TrainConfig(
            "classification", stage1_epochs=7, stage2_epochs=3, alpha=0.25
        )
        _, report = train_alone(
            method, model, bundle.train_graph, sup, cfg, label_set=bundle.label_set
        )
        assert isinstance(report, TrainReport)
        json.dumps(report.to_dict())
        assert [(s.name, s.epochs_run) for s in report.stages] == EXPECTED_STAGES[method]
        assert all(np.isfinite(s.losses).all() for s in report.stages)

    def test_single_stage_tags_use_default_training_budget(self):
        bundle, _, sup = curriculum_fixture(seed=9)
        cfg = TrainConfig("classification", stage1_epochs=7, stage2_epochs=3)
        for method in ("no-curriculum", "dropedge"):
            model = curriculum_fixture(seed=9)[1]
            _, report = train_alone(
                method, model, bundle.train_graph, sup, cfg, label_set=bundle.label_set
            )
            assert report.stages[0].epochs_run == 7
            assert report.stages[0].name == method

    def test_no_curriculum_loss_is_sum_of_two_terms(self):
        # with alpha=0 the dropped graph equals the clean graph, so the
        # combined per-update loss is exactly twice the single-graph loss
        bundle, model_a, sup = curriculum_fixture(seed=10)
        cfg = TrainConfig("classification", stage1_epochs=1, stage2_epochs=1, alpha=0.0)
        _, rep_a = train_alone(
            "no-curriculum", model_a, bundle.train_graph, sup, cfg,
            label_set=bundle.label_set,
        )
        _, model_b, _ = curriculum_fixture(seed=10)
        _, rep_b = train_alone("base", model_b, bundle.train_graph, sup, cfg)
        assert rep_a.stages[0].losses[0] == pytest.approx(
            2.0 * rep_b.stages[0].losses[0], rel=1e-12
        )

    def test_no_syntails_ranking_is_two_clean_stages(self):
        rng = np.random.default_rng(13)
        upper = np.triu(rng.random((40, 40)) < 0.15, k=1)
        graph = build_graph(np.argwhere(upper), 40, features=rng.standard_normal((40, 4)))
        sup = SupervisionSet.ranking("link", graph)
        model = init_model(EncoderConfig("gcn", 4, 6, 6), "link", seed=13)
        cfg = TrainConfig("link", stage1_epochs=4, stage2_epochs=4)
        _, report = train_alone("no-syntails", model, graph, sup, cfg)
        assert [s.name for s in report.stages] == ["base", "finetune"]
        assert report.stages[1].epochs_run == 4


def run_one_method(method, model, graph, supervision, config, *, label_set=None,
                   validation_fn=None):
    """The one-method-at-a-time loop that ``run_ablation`` replaced, kept as its
    oracle: ``model`` is trained in place through the method's own stage 1."""
    stage1_mode, stage2_mode, pseudo = METHODS[method]
    stages = [training._run_stage(
        model, graph, supervision, config,
        name="base" if stage2_mode else method, stage_index=0,
        epochs=config.stage1_epochs, lr=config.stage1_lr, mode=stage1_mode,
        validation_fn=validation_fn,
    )]
    if stage2_mode:
        if pseudo and config.task == "classification":
            supervision = pseudo_label(model, graph, label_set)
        stages.append(training._run_stage(
            model, graph, supervision, config,
            name="finetune", stage_index=1, epochs=config.stage2_epochs,
            lr=config.resolved_stage2_lr, mode=stage2_mode,
            validation_fn=validation_fn,
        ))
    return model, TrainReport(stages, asdict(config), config.seed)


def oracle_case(case):
    """(make_model, graph, supervision, config, label_set, validation_fn) of a
    small instance on which early stopping restores a snapshot in some stage."""
    if case in ("gcn", "sage-max"):
        graph, labels = generate_scale_free(120, 2, feat_dim=4, seed=21)
        bundle = make_classification_bundle(graph, labels, seed=21)
        ls = bundle.label_set
        sup = SupervisionSet.classification(
            ls.train_labeled, ls.labels[ls.train_labeled], 2, graph.num_nodes)
        encoder = EncoderConfig(case, 4, 8, 8, num_layers=2)
        make = lambda: init_model(encoder, "classification", num_classes=2, seed=21)  # noqa: E731
        cfg = TrainConfig("classification", stage1_epochs=12, stage2_epochs=8,
                          eval_every=2, patience=2, seed=21)
        return make, bundle.train_graph, sup, cfg, ls, lambda m: validation_metric(m, bundle)
    if case == "link":
        rng = np.random.default_rng(22)
        upper = np.triu(rng.random((60, 60)) < 0.12, k=1)
        graph = build_graph(np.argwhere(upper), 60, features=rng.standard_normal((60, 4)))
        bundle = make_link_bundle(graph, seed=22)
        encoder = EncoderConfig("sage-mean", 4, 8, 8, num_layers=2)
        make = lambda: init_model(encoder, "link", seed=22)  # noqa: E731
    else:
        graph = generate_bipartite(30, 25, seed=23)
        bundle = make_recsys_bundle(graph, seed=23)
        encoder = EncoderConfig("gcn", 8, 8, 8, num_layers=2)
        make = lambda: init_model(  # noqa: E731
            encoder, "recsys", num_nodes=graph.num_nodes, featureless=True, seed=23)
    sup = SupervisionSet.ranking(case, bundle.train_graph)
    cfg = TrainConfig(case, stage1_epochs=10, stage2_epochs=6, stage1_lr=0.02,
                      eval_every=2, patience=2, seed=22)
    return make, bundle.train_graph, sup, cfg, None, lambda m: validation_metric(m, bundle, k=10)


class TestSharedStageOne:
    @pytest.mark.parametrize("case", ["gcn", "sage-max", "link", "recsys"])
    def test_matches_one_method_at_a_time(self, tmp_path, case):
        make, graph, sup, cfg, label_set, validate = oracle_case(case)
        shared = run_ablation(list(METHODS), make(), graph, sup, cfg,
                              label_set=label_set, validation_fn=validate)
        assert list(shared) == list(METHODS)
        for method, (model, report) in shared.items():
            expected_model, expected_report = run_one_method(
                method, make(), graph, sup, cfg,
                label_set=label_set, validation_fn=validate)
            save_model(model, tmp_path / "shared.json")
            save_model(expected_model, tmp_path / "alone.json")
            assert ((tmp_path / "shared.json").read_bytes()
                    == (tmp_path / "alone.json").read_bytes()), method
            assert report.to_dict() == expected_report.to_dict(), method

    def test_every_model_owns_its_parameters(self):
        make, graph, sup, cfg, label_set, validate = oracle_case("gcn")
        model = make()
        initial = param_bytes(model)
        shared = run_ablation(list(METHODS), model, graph, sup, cfg, label_set=label_set)
        assert param_bytes(model) == initial
        for changed, (trained, _) in shared.items():
            others = {m: param_bytes(o) for m, (o, _) in shared.items() if m != changed}
            for p in trained.parameters():
                p.value += 1.0
            assert others == {
                m: param_bytes(o) for m, (o, _) in shared.items() if m != changed}, changed
            assert param_bytes(model) == initial

    def test_stage_one_runs_once_per_distinct_row(self, monkeypatch):
        make, graph, sup, cfg, label_set, _ = oracle_case("gcn")
        stages, labelled = [], []
        run_stage, label = training._run_stage, training.pseudo_label

        def counted_stage(*args, **kwargs):
            stages.append((kwargs["stage_index"], kwargs["mode"], kwargs["name"]))
            return run_stage(*args, **kwargs)

        def counted_label(*args, **kwargs):
            labelled.append(1)
            return label(*args, **kwargs)

        monkeypatch.setattr(training, "_run_stage", counted_stage)
        monkeypatch.setattr(training, "pseudo_label", counted_label)
        run_ablation(list(METHODS), make(), graph, sup, cfg, label_set=label_set)
        assert sorted(s for s in stages if s[0] == 0) == [
            (0, "both", "no-curriculum"), (0, "clean", "base"), (0, "dropped", "dropedge")]
        # tuneup, no-pseudo and no-syntails each fine-tune once
        assert sorted(s for s in stages if s[0] == 1) == [
            (1, "clean", "finetune"), (1, "dropped", "finetune"), (1, "dropped", "finetune")]
        # tuneup and no-syntails share the snapshot's pseudo-labels
        assert len(labelled) == 1

    @pytest.mark.parametrize("case,runs", [("gcn", 6), ("link", 5)])
    def test_six_methods_share_equal_stages(self, monkeypatch, case, runs):
        # on ranking tasks tuneup and no-pseudo are the same stage 2
        make, graph, sup, cfg, label_set, _ = oracle_case(case)
        calls = []
        run_stage = training._run_stage

        def counted_stage(*args, **kwargs):
            calls.append(1)
            return run_stage(*args, **kwargs)

        monkeypatch.setattr(training, "_run_stage", counted_stage)
        shared = run_ablation(list(METHODS), make(), graph, sup, cfg, label_set=label_set)
        assert len(calls) == runs
        tuneup, no_pseudo = shared["tuneup"][0], shared["no-pseudo"][0]
        assert not any(np.shares_memory(a.value, b.value) for a, b in
                       zip(tuneup.parameters(), no_pseudo.parameters()))


class TestOperatorReuse:
    def test_each_graph_is_normalized_once(self, monkeypatch):
        # stage 1, validation, pseudo-labelling and the clean passes share the
        # intact graph's operator; each dropped-graph update builds its own
        make, graph, sup, cfg, label_set, validate = oracle_case("gcn")
        built = []
        normalize = models.normalize_adjacency

        def counted(g, mode):
            built.append(g)
            return normalize(g, mode)

        monkeypatch.setattr(models, "normalize_adjacency", counted)
        shared = run_ablation(["base", "tuneup"], make(), graph, sup, cfg,
                              label_set=label_set, validation_fn=validate)
        finetune = shared["tuneup"][1].stages[1]
        assert finetune.epochs_run > 0 and shared["base"][1].stages[0].val_epochs
        assert len(built) == 1 + finetune.epochs_run
        assert built[0] is graph
        assert len({id(g) for g in built}) == len(built)

    def test_features_are_pooled_once_per_graph(self, monkeypatch):
        # sage-max's first layer pools the constant features: once on the
        # intact graph for stage 1, validation and pseudo-labelling, and once
        # on each dropped-graph update's own graph
        make, graph, sup, cfg, label_set, validate = oracle_case("sage-max")
        first_layer, later_layers = [], []
        pool = ad.row_max_pool

        def counted(x, g):
            (first_layer if x.value is graph.features else later_layers).append(g)
            return pool(x, g)

        monkeypatch.setattr(ad, "row_max_pool", counted)
        shared = run_ablation(["base", "tuneup"], make(), graph, sup, cfg,
                              label_set=label_set, validation_fn=validate)
        finetune = shared["tuneup"][1].stages[1]
        assert finetune.epochs_run > 0 and shared["base"][1].stages[0].val_epochs
        assert len(first_layer) == 1 + finetune.epochs_run
        assert first_layer[0] is graph
        assert len({id(g) for g in first_layer}) == len(first_layer)
        stage1 = shared["base"][1].stages[0]
        assert len(later_layers) > stage1.epochs_run + finetune.epochs_run


def backward_walk_reference(tape, loss):
    """Reference oracle: the non-consuming walk that ``Tape.backward`` replaced.

    It leaves every record on the tape and every op output's ``.grad`` set.
    """
    loss.grad = np.ones_like(loss.value)
    for out, vjps in reversed(tape._records):
        upstream = out.grad
        if upstream is None:
            continue
        for inp, vjp in vjps:
            g = vjp(upstream)
            assert g.shape == inp.value.shape
            if inp.grad is None:
                inp.grad = g.copy() if g.base is not None or g is upstream else g
            else:
                inp.grad = inp.grad + g


UPDATE_CASES = [(variant, task) for task in ("classification", "link")
                for variant in ("gcn", "gat", "sage-max", "sage-mean")]


def update_case(variant, task, seed=31):
    """(model, training graph, supervision, config) of a small ``task`` instance;
    the config's l2 term makes the embeddings feed two ops."""
    graph, labels = generate_scale_free(120, 2, feat_dim=4, seed=seed)
    encoder = EncoderConfig(variant, 4, 8, 8, num_layers=2)
    if task == "classification":
        ls = make_classification_bundle(graph, labels, seed=seed).label_set
        sup = SupervisionSet.classification(
            ls.train_labeled, ls.labels[ls.train_labeled], 2, graph.num_nodes)
        model = init_model(encoder, task, num_classes=2, seed=seed)
    else:
        graph = make_link_bundle(graph, seed=seed).train_graph
        sup = SupervisionSet.ranking(task, graph)
        model = init_model(encoder, task, seed=seed)
    return model, graph, sup, TrainConfig(task, l2_weight=1e-3, seed=seed)


class TestBackwardAgainstNonConsumingWalk:
    @pytest.mark.parametrize("variant, task", UPDATE_CASES)
    def test_one_update_bitwise(self, monkeypatch, variant, task):
        # mode "both" sums the losses on the intact and an edge-dropped graph
        model, graph, sup, cfg = update_case(variant, task)
        reference, consumed = model.copy(), model.copy()
        stage = dict(name="both", stage_index=1, epochs=1, lr=0.01, mode="both")
        with monkeypatch.context() as patched:
            patched.setattr(Tape, "backward", backward_walk_reference)
            training._run_stage(reference, graph, sup, cfg, **stage)
        training._run_stage(consumed, graph, sup, cfg, **stage)
        for name, p in reference.params.items():
            assert p.grad is not None, name
            assert consumed.params[name].grad.tobytes() == p.grad.tobytes(), name
        assert param_bytes(consumed) == param_bytes(reference)


class TestBackwardReleases:
    @pytest.mark.parametrize("variant, task", UPDATE_CASES)
    def test_tape_and_op_outputs_released(self, monkeypatch, variant, task):
        model, graph, sup, cfg = update_case(variant, task)
        dropped = drop_edges(graph, cfg.alpha, seed=5)
        negatives = None
        if task != "classification":
            negatives = sample_negatives(sup, sup.positive_pairs[:, 0], 6)
        op_values = []
        for name in ("relu", "dense"):
            def watched(*args, op=getattr(ad, name), **kwargs):
                out = op(*args, **kwargs)
                op_values.append(weakref.ref(out.value))
                return out

            monkeypatch.setattr(ad, name, watched)
        with Tape() as tape:
            loss = training._task_loss(model, dropped, sup, cfg, negatives)
        outputs = [out for out, _ in tape._records]
        tape.backward(loss)
        assert tape._records == []
        assert all(out.grad is None for out in outputs)
        assert all(p.grad is not None for p in model.parameters())
        assert op_values and all(r() is not None for r in op_values)
        del outputs
        assert not any(r() is not None for r in op_values)


SAGE_CASES = [(variant, task) for task in ("classification", "link")
              for variant in ("sage-max", "sage-mean", "sage-sum")]


class TestDenseAgainstConcatChain:
    @pytest.mark.parametrize("variant, task", SAGE_CASES)
    def test_one_update_bitwise(self, monkeypatch, variant, task):
        # the oracle runs every sage layer and head as the chain dense replaced
        model, graph, sup, cfg = update_case(variant, task)
        reference, fused = model.copy(), model.copy()
        stage = dict(name="both", stage_index=1, epochs=1, lr=0.01, mode="both")
        chains = []

        def counted_chain(*args, **kwargs):
            chains.append(args[0])
            return dense_chain(*args, **kwargs)

        with monkeypatch.context() as patched:
            patched.setattr(ad, "dense", counted_chain)
            training._run_stage(reference, graph, sup, cfg, **stage)
        assert any(len(parts) == 2 for parts in chains)
        training._run_stage(fused, graph, sup, cfg, **stage)
        for name, p in reference.params.items():
            assert p.grad is not None, name
            assert fused.params[name].grad.tobytes() == p.grad.tobytes(), name
        assert param_bytes(fused) == param_bytes(reference)


class TestSageMemory:
    @pytest.mark.parametrize("variant", ["sage-max", "sage-mean", "sage-sum"])
    def test_concatenation_freed_by_forward(self, monkeypatch, variant):
        model, graph, _, _ = update_case(variant, "classification")
        concatenate, built = np.concatenate, []

        def watched(arrays, *args, **kwargs):
            out = concatenate(arrays, *args, **kwargs)
            if out.ndim == 2 and out.shape[0] == graph.num_nodes:
                built.append(weakref.ref(out))
            return out

        monkeypatch.setattr(np, "concatenate", watched)
        with Tape():
            emb = encode(model, graph)
            assert len(built) == model.config.num_layers
            assert not any(r() is not None for r in built)
        assert emb.requires_grad

    def test_update_peak_bounded(self):
        # one clean update of a 2,000-node sage-max classifier peaked at 6.7 MB
        # with the four-op chain that dense replaced, and at 4.1 MB with dense
        graph, labels = generate_scale_free(2000, 2, feat_dim=16, seed=3)
        ls = make_classification_bundle(graph, labels, seed=3).label_set
        sup = SupervisionSet.classification(
            ls.train_labeled, ls.labels[ls.train_labeled], 2, graph.num_nodes)
        model = init_model(EncoderConfig("sage-max", 16, 32, 32, num_layers=2),
                           "classification", num_classes=2, seed=3)
        cfg = TrainConfig("classification", seed=3)
        tracemalloc.start()
        try:
            training._run_stage(model, graph, sup, cfg, name="base", stage_index=0,
                                epochs=1, lr=0.01, mode="clean")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5e6
