"""Tests for the finite-population theory module."""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tailkit.experiment import canonical_json
from tailkit.theory import (
    METHODS,
    _logistic_fit,
    LossProfile,
    MonteCarloConfig,
    TheoryError,
    bound_g_term,
    compute_gaps,
    monte_carlo_validate,
    sample_world,
    stage2_supervision,
    theorem_bound,
    train_theory_model,
)


def small_world(**overrides):
    kwargs = dict(N=400, T=120, R=100, m=20, d=6, delta=0.1,
                  separation=8.0, seed=3)
    kwargs.update(overrides)
    return sample_world(**kwargs)


def make_profile(*, ell_b, big_ell_a, big_ell_b=None, ell_tilde_b=None,
                 big_ell_tilde_b=None, stage1_b=None, s_mask=None):
    """Build a profile with sensible defaults for fields a test ignores."""
    ell_b = np.asarray(ell_b, dtype=np.float64)
    n = ell_b.size
    if s_mask is None:
        s_mask = np.zeros(n, dtype=bool)
        s_mask[0] = True
    else:
        s_mask = np.asarray(s_mask, dtype=bool)
    if ell_tilde_b is None:
        ell_tilde_b = ell_b.copy()
    else:
        ell_tilde_b = np.asarray(ell_tilde_b, dtype=np.float64)
    return LossProfile(
        ell_b=ell_b,
        big_ell_a=np.asarray(big_ell_a, dtype=np.float64),
        big_ell_b=np.zeros(n) if big_ell_b is None else np.asarray(big_ell_b, dtype=np.float64),
        ell_tilde_b=ell_tilde_b,
        big_ell_tilde_b=np.zeros(n) if big_ell_tilde_b is None else np.asarray(big_ell_tilde_b, dtype=np.float64),
        stage1_b=np.zeros(n) if stage1_b is None else np.asarray(stage1_b, dtype=np.float64),
        s_mask=s_mask,
    )


class TestSampleWorld:
    def test_index_sizes(self):
        world = small_world()
        assert world.a_idx.size == 120
        assert world.b_idx.size == 100
        assert world.s_idx.size == 20
        assert world.features.shape == (400, 6)

    def test_index_sets_disjoint_and_duplicate_free(self):
        world = small_world()
        assert np.intersect1d(world.a_idx, world.b_idx).size == 0
        assert np.unique(world.a_idx).size == world.a_idx.size
        assert np.unique(world.b_idx).size == world.b_idx.size
        assert np.isin(world.s_idx, world.b_idx).all()
        assert np.unique(world.s_idx).size == world.s_idx.size

    def test_labels_are_signs_and_balanced(self):
        world = sample_world(10_000, 100, 100, 10, 4, 0.1, 2.0, seed=0)
        assert np.isin(world.labels, (-1.0, 1.0)).all()
        positive_fraction = (world.labels > 0).mean()
        assert abs(positive_fraction - 0.5) < 0.05

    def test_feature_means_separated_by_label(self):
        world = sample_world(20_000, 100, 100, 10, 3, 0.1, 6.0, seed=1)
        pos = world.features[world.labels > 0]
        neg = world.features[world.labels < 0]
        assert pos[:, 0].mean() == pytest.approx(3.0, abs=0.1)
        assert neg[:, 0].mean() == pytest.approx(-3.0, abs=0.1)
        # remaining coordinates are centered noise
        assert abs(pos[:, 1].mean()) < 0.1
        assert abs(neg[:, 2].mean()) < 0.1

    def test_deterministic_in_seed(self):
        first = small_world(seed=9)
        second = small_world(seed=9)
        assert np.array_equal(first.features, second.features)
        assert np.array_equal(first.labels, second.labels)
        assert np.array_equal(first.s_idx, second.s_idx)
        assert not np.array_equal(first.features, small_world(seed=10).features)

    def test_aggregated_inputs_add_block_sum(self):
        world = small_world()
        block_sum = world.features[world.b_idx].sum(axis=0)
        expected = world.features[world.s_idx] + block_sum
        assert np.allclose(world.aggregated(world.s_idx), expected)
        assert np.array_equal(world.raw(world.a_idx), world.features[world.a_idx])

    def test_rejects_oversized_populations(self):
        with pytest.raises(TheoryError):
            sample_world(100, 60, 60, 10, 3, 0.1, 1.0)
        with pytest.raises(TheoryError):
            sample_world(100, 10, 20, 30, 3, 0.1, 1.0)

    def test_rejects_bad_delta_and_sizes(self):
        with pytest.raises(TheoryError):
            sample_world(100, 10, 20, 5, 3, 0.0, 1.0)
        with pytest.raises(TheoryError):
            sample_world(100, 10, 20, 5, 3, 1.0, 1.0)
        with pytest.raises(TheoryError):
            sample_world(100, 0, 20, 5, 3, 0.1, 1.0)
        with pytest.raises(TheoryError):
            sample_world(100, 10, 20, 5, 0, 0.1, 1.0)


def logistic_fit_by_mean(inputs, targets, steps, lr, w0=None, b0=0.0):
    """The fit with ``ndarray.mean`` gradients, kept as the oracle of the
    ``np.add.reduce`` form."""
    center = inputs.mean(axis=0)
    x = inputs - center
    w = np.zeros(x.shape[1]) if w0 is None else w0.copy()
    b = float(b0)
    for _ in range(steps):
        margins = targets * (x @ w + b)
        slope = -targets / (1.0 + np.exp(margins))  # d softplus(-m)/d f
        w -= lr * (x * slope[:, None]).mean(axis=0)
        b -= lr * slope.mean()
    final = float(np.mean(np.logaddexp(0.0, -(targets * (x @ w + b)))))
    return w, b, center, final


class TestLogisticFitAgainstMeanOracle:
    @pytest.mark.parametrize("steps", [0, 1, 200])
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_bytes(self, seed, warm, steps):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(5, 300)), int(rng.integers(1, 9))
        inputs = rng.standard_normal((n, d)) * 3.0 + rng.standard_normal(d)
        targets = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        start = dict(w0=rng.standard_normal(d), b0=float(rng.standard_normal())) if warm else {}
        w0 = start["w0"].copy() if warm else None
        got = _logistic_fit(inputs, targets, steps, 0.5, **start)
        want = logistic_fit_by_mean(inputs, targets, steps, 0.5, **start)
        assert [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in want]
        assert [type(v) for v in got] == [type(v) for v in want]
        if warm:
            assert np.array_equal(start["w0"], w0)  # the warm start is copied, not updated

    def test_same_bytes_on_a_theory_world(self):
        world = small_world()
        inputs, targets = world.aggregated(world.s_idx), world.labels[world.s_idx]
        for start in ({}, {"w0": np.full(inputs.shape[1], 0.1), "b0": -0.2}):
            got = _logistic_fit(inputs, targets, 300, 0.1, **start)
            want = logistic_fit_by_mean(inputs, targets, 300, 0.1, **start)
            assert [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in want]


class TestTraining:
    def test_separable_world_reaches_zero_stage1_loss(self):
        world = small_world(separation=8.0)
        _, _, q = train_theory_model(world, "M1")
        assert q == 0.0

    def test_unseparated_world_predicts_at_chance(self):
        world = sample_world(6_000, 2_000, 1_000, 100, 8, 0.1, 0.0, seed=5)
        _, profile, _ = train_theory_model(world, "M2")
        accuracy = 1.0 - profile.big_ell_a.mean()
        assert accuracy == pytest.approx(0.5, abs=0.05)

    def test_stage2_supervision_coverage(self):
        world = small_world()
        pseudo = np.ones(world.b_idx.size)
        inputs_m1, targets_m1 = stage2_supervision(world, "M1", pseudo)
        inputs_m2, targets_m2 = stage2_supervision(world, "M2", pseudo)
        inputs_m3, targets_m3 = stage2_supervision(world, "M3", pseudo)
        assert inputs_m1.shape == (20, 6)
        assert inputs_m2.shape == (100, 6)
        assert inputs_m3.shape == (100, 6)
        assert np.array_equal(targets_m1, world.labels[world.s_idx])
        assert np.array_equal(targets_m2, pseudo)
        assert np.array_equal(targets_m3, pseudo)
        # M2 reads bare features, M3 the block-aggregated ones
        assert np.array_equal(inputs_m2, world.features[world.b_idx])
        block_sum = world.features[world.b_idx].sum(axis=0)
        assert np.allclose(inputs_m3, inputs_m2 + block_sum)
        with pytest.raises(TheoryError):
            stage2_supervision(world, "M9", pseudo)

    @pytest.mark.parametrize("method", METHODS)
    def test_profile_pseudo_labels_match_truth_on_s(self, method):
        world = small_world(separation=2.0, seed=11)
        _, profile, _ = train_theory_model(world, method)
        assert np.array_equal(
            profile.ell_tilde_b[profile.s_mask],
            profile.ell_b[profile.s_mask],
        )
        assert profile.s_mask.sum() == world.s_idx.size

    def test_q_matches_stage1_profile_on_s(self):
        world = small_world(separation=1.0, seed=7)
        _, profile, q = train_theory_model(world, "M1")
        assert q == profile.stage1_b[profile.s_mask].mean()

    def test_losses_are_binary(self):
        world = small_world(separation=1.0, seed=2)
        _, profile, _ = train_theory_model(world, "M3")
        for arr in (profile.ell_b, profile.big_ell_a, profile.big_ell_b,
                    profile.ell_tilde_b, profile.big_ell_tilde_b,
                    profile.stage1_b):
            assert np.isin(arr, (0.0, 1.0)).all()

    def test_deterministic(self):
        world = small_world(seed=4)
        first, profile_a, q_a = train_theory_model(world, "M2")
        second, profile_b, q_b = train_theory_model(world, "M2")
        assert np.array_equal(first.weights, second.weights)
        assert first.bias == second.bias
        assert q_a == q_b
        assert np.array_equal(profile_a.big_ell_a, profile_b.big_ell_a)

    def test_unknown_method_rejected(self):
        with pytest.raises(TheoryError):
            train_theory_model(small_world(), "M4")

    def test_profile_rejects_pseudo_mismatch_on_s(self):
        with pytest.raises(TheoryError):
            make_profile(ell_b=[0, 1], big_ell_a=[0],
                         ell_tilde_b=[1, 1], s_mask=[True, False])

    def test_profile_rejects_non_binary_losses(self):
        with pytest.raises(TheoryError):
            make_profile(ell_b=[0.5, 0], big_ell_a=[0])


class TestComputeGaps:
    def test_all_zero_losses_give_zero_gaps(self):
        world = small_world()
        n = world.b_idx.size
        profile = make_profile(
            ell_b=np.zeros(n), big_ell_a=np.zeros(world.a_idx.size),
            s_mask=np.isin(world.b_idx, world.s_idx),
        )
        assert compute_gaps(world, profile) == (0.0, 0.0, 0.0, 0.0)

    def test_hand_computed_gaps(self):
        # Two isolated nodes with intact-graph losses [1, 0]; the labeled
        # member of B has dropped-edge loss 0 while pseudo-label losses over
        # the block are [0, 1]. The labeled-subset gap is then 0.5 - 0 and
        # the pseudo-label gap 0.5 - 0.5.
        world = small_world(T=2, R=2, m=1, N=10)
        profile = make_profile(
            ell_b=[0, 1],
            big_ell_a=[1, 0],
            ell_tilde_b=[0, 1],
            big_ell_tilde_b=[0, 0],
            big_ell_b=[0, 1],
            s_mask=[True, False],
        )
        gap_m1, gap_m2, gap_m3, tau = compute_gaps(world, profile)
        assert gap_m1 == 0.5
        assert gap_m2 == 0.0
        assert gap_m3 == 0.5
        assert tau == 0.0

    def test_tau_zero_when_dropping_changes_nothing(self):
        world = small_world()
        n = world.b_idx.size
        losses = (np.arange(n) % 2).astype(np.float64)
        profile = make_profile(
            ell_b=losses, big_ell_a=np.zeros(world.a_idx.size),
            big_ell_b=losses.copy(),
            s_mask=np.isin(world.b_idx, world.s_idx),
        )
        assert compute_gaps(world, profile)[3] == 0.0

    def test_tau_counts_excess_of_dropped_loss(self):
        world = small_world()
        n = world.b_idx.size
        profile = make_profile(
            ell_b=np.ones(n), big_ell_a=np.zeros(world.a_idx.size),
            big_ell_b=np.zeros(n),
            ell_tilde_b=np.ones(n),
            s_mask=np.isin(world.b_idx, world.s_idx),
        )
        assert compute_gaps(world, profile)[3] == 1.0

    def test_requires_nonempty_populations(self):
        world = small_world()
        n = world.b_idx.size
        profile = make_profile(
            ell_b=np.zeros(n), big_ell_a=np.zeros(0),
            s_mask=np.isin(world.b_idx, world.s_idx),
        )
        with pytest.raises(TheoryError):
            compute_gaps(world, profile)
        empty_s = make_profile(
            ell_b=np.zeros(n), big_ell_a=np.zeros(3),
            s_mask=np.zeros(n, dtype=bool),
        )
        with pytest.raises(TheoryError):
            compute_gaps(world, empty_s)


def bound_oracle(method, m, d, delta, Q, tau, R, T):
    """Independent reimplementation using the math module and naive order."""
    log_m = math.log(16.0 * math.e * m / delta)
    complexity = 8.0 * log_m
    if method == "M1":
        complexity = 8.0 * (d - 1) * log_m + complexity
    value = math.sqrt(complexity / m)
    if method != "M1":
        value += Q
    if method == "M3":
        value += tau
    g = math.sqrt(8.0 * d * math.log(16.0 * math.e * R / delta) / R)
    g += math.sqrt(math.log(4.0 / delta) / (2.0 * T))
    return value + g


class TestTheoremBound:
    def test_matches_independent_reimplementation(self):
        grid = [
            dict(m=100, d=16, delta=0.1, Q=0.0, tau=0.5, R=1000, T=1000),
            dict(m=10, d=2, delta=0.05, Q=0.3, tau=-0.2, R=50, T=20),
            dict(m=500, d=64, delta=0.5, Q=0.01, tau=0.0, R=2000, T=5000),
            dict(m=1, d=1, delta=0.9, Q=1.0, tau=1.0, R=1, T=1),
        ]
        for params in grid:
            for method in METHODS:
                ours = theorem_bound(method, **params)
                oracle = bound_oracle(method, **params)
                assert ours == pytest.approx(oracle, abs=1e-12)

    def test_pseudo_label_bound_smaller_when_q_zero(self):
        for d in (2, 4, 16, 64):
            m1 = theorem_bound("M1", 100, d, 0.1, 0.0, 0.0, 1000, 1000)
            m2 = theorem_bound("M2", 100, d, 0.1, 0.0, 0.0, 1000, 1000)
            assert m2 < m1

    def test_dimension_one_removes_the_advantage(self):
        m1 = theorem_bound("M1", 100, 1, 0.1, 0.0, 0.0, 1000, 1000)
        m2 = theorem_bound("M2", 100, 1, 0.1, 0.0, 0.0, 1000, 1000)
        assert m1 == pytest.approx(m2, abs=1e-12)

    def test_m3_minus_m2_equals_tau_exactly(self):
        for tau in (-0.4, -0.1, 0.0, 0.25, 0.9):
            for q in (0.0, 0.2):
                m2 = theorem_bound("M2", 100, 16, 0.1, q, tau, 1000, 1000)
                m3 = theorem_bound("M3", 100, 16, 0.1, q, tau, 1000, 1000)
                assert m3 - m2 == pytest.approx(tau, abs=1e-12)

    def test_q_zero_m2_closed_form(self):
        m, d, delta, R, T = 100, 16, 0.1, 1000, 1000
        bound = theorem_bound("M2", m, d, delta, 0.0, 0.7, R, T)
        expected = math.sqrt(8.0 * math.log(16.0 * math.e * m / delta) / m)
        expected += bound_g_term(d, R, T, delta)
        assert bound == pytest.approx(expected, abs=1e-12)

    def test_m1_ignores_q_and_tau(self):
        base = theorem_bound("M1", 50, 8, 0.2, 0.0, 0.0, 500, 500)
        assert theorem_bound("M1", 50, 8, 0.2, 0.9, 0.7, 500, 500) == base

    def test_decreasing_in_m(self):
        values = [
            theorem_bound("M1", m, 16, 0.1, 0.0, 0.0, 1000, 1000)
            for m in (10, 30, 100, 300, 1000)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_decreasing_in_r_and_t(self):
        by_r = [bound_g_term(16, r, 1000, 0.1) for r in (100, 1000, 10_000)]
        assert all(a > b for a, b in zip(by_r, by_r[1:]))
        by_t = [bound_g_term(16, 1000, t, 0.1) for t in (100, 1000, 10_000)]
        assert all(a > b for a, b in zip(by_t, by_t[1:]))

    def test_m1_bound_grows_with_dimension(self):
        values = [
            theorem_bound("M1", 100, d, 0.1, 0.0, 0.0, 1000, 1000)
            for d in (1, 2, 8, 32)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    @given(
        m=st.integers(min_value=1, max_value=10_000),
        d=st.integers(min_value=1, max_value=512),
        q=st.floats(min_value=0.0, max_value=1.0),
        tau=st.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_bound_algebra_properties(self, m, d, q, tau):
        m1 = theorem_bound("M1", m, d, 0.1, q, tau, 1000, 1000)
        m2 = theorem_bound("M2", m, d, 0.1, q, tau, 1000, 1000)
        m3 = theorem_bound("M3", m, d, 0.1, q, tau, 1000, 1000)
        assert m3 - m2 == pytest.approx(tau, abs=1e-9)
        assert m2 <= m1 + q + 1e-12
        for value in (m1, m2):
            assert value > 0.0

    def test_invalid_arguments(self):
        with pytest.raises(TheoryError):
            theorem_bound("M5", 100, 16, 0.1, 0.0, 0.0, 1000, 1000)
        with pytest.raises(TheoryError):
            theorem_bound("M1", 100, 16, 1.5, 0.0, 0.0, 1000, 1000)
        with pytest.raises(TheoryError):
            theorem_bound("M1", 0, 16, 0.1, 0.0, 0.0, 1000, 1000)
        with pytest.raises(TheoryError):
            theorem_bound("M2", 100, 16, 0.1, -0.1, 0.0, 1000, 1000)
        with pytest.raises(TheoryError):
            bound_g_term(16, 1000, 1000, 0.0)


class TestMonteCarlo:
    def test_smoke_run_structure(self):
        config = MonteCarloConfig(N=600, T=150, R=120, m=25, d=6, seed=1)
        result = monte_carlo_validate(config, trials=4)
        summary = result["summary"]
        assert summary["trials"] == 4
        assert set(summary["violation_rate"]) == set(METHODS)
        for rate in summary["violation_rate"].values():
            assert 0.0 <= rate <= 1.0
        assert len(result["rows"]) == 12
        row = result["rows"][0]
        for key in ("trial", "method", "gap", "bound", "q", "tau",
                    "g_term", "violated"):
            assert key in row

    def test_rows_are_deterministic(self):
        config = MonteCarloConfig(N=500, T=100, R=100, m=20, d=4, seed=8)
        first = monte_carlo_validate(config, trials=3)
        second = monte_carlo_validate(config, trials=3)
        assert first["rows"] == second["rows"]
        assert first["summary"] == second["summary"]

    def test_shared_stage1_matches_training_each_method(self):
        """A trial fits stage 1 once for all methods; its rows must equal
        what train_theory_model gives for each method on its own."""
        config = MonteCarloConfig(N=500, T=100, R=100, m=20, d=4, separation=2.0,
                                  seed=5)
        rows = iter(monte_carlo_validate(config, trials=2)["rows"])
        for seq in np.random.SeedSequence(config.seed).spawn(2):
            world = sample_world(config.N, config.T, config.R, config.m, config.d,
                                 config.delta, config.separation,
                                 seed=int(seq.generate_state(1, dtype=np.uint64)[0]))
            for index, method in enumerate(METHODS):
                clf, profile, q = train_theory_model(world, method)
                gaps = compute_gaps(world, profile)
                row = next(rows)
                assert (row["method"], row["q"], row["gap"], row["tau"]) == (
                    method, q, gaps[index], gaps[3])
                assert row["stage1_surrogate"] == clf.stage1_surrogate
                assert row["stage2_surrogate"] == clf.stage2_surrogate

    def test_gap_never_exceeds_bound_on_separable_worlds(self):
        config = MonteCarloConfig(N=800, T=200, R=150, m=30, d=6,
                                  separation=8.0, seed=2)
        result = monte_carlo_validate(config, trials=5)
        for row in result["rows"]:
            assert row["gap"] <= row["bound"]
            assert not row["violated"]

    def test_mean_gap_ordering_on_separable_worlds(self):
        config = MonteCarloConfig(N=1200, T=300, R=200, m=30, d=8,
                                  separation=8.0, seed=6)
        summary = monte_carlo_validate(config, trials=8)["summary"]
        assert summary["mean_gap"]["M2"] <= summary["mean_gap"]["M1"] + 1e-9

    def test_default_campaign_is_pinned(self):
        """Three default trials, rows and summary (each mean summed in trial
        order), as canonical JSON."""
        result = monte_carlo_validate(MonteCarloConfig(), 3)
        digest = hashlib.sha256(canonical_json(result).encode()).hexdigest()
        assert digest == "4aa2b0bc931f6047c8f969be65bad3fb4f3e6bb740717d7c1bdda6d671464d6a"

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(TheoryError):
            monte_carlo_validate(MonteCarloConfig(), trials=0)
