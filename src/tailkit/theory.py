"""Finite-population model of tail-node fine-tuning and its generalization bound.

A population Z of labeled Gaussian feature points is split into isolated
nodes A (the tail extreme: degree zero) and a fully connected block B. A
one-layer network reads either the raw feature (edges dropped) or the
block-aggregated feature (edges kept) and predicts with a sign readout;
training minimizes a logistic surrogate by plain gradient descent while every
reported quantity uses the 0-1 loss. Three fine-tuning methods differ only in
stage 2: M1 keeps the labeled subset S with edges dropped, M2 widens
supervision to all of B via stage-1 pseudo-labels with edges dropped, M3 uses
the pseudo-labels but keeps edges intact. The module measures their
generalization gaps onto A and checks them against the closed-form
high-probability bound.

Aggregation on B is reflexive: node i reads x_i plus the sum over the whole
block (its own feature included). Dropping the self-term would give every B
node an identical input, collapsing the block to a single effective sample;
the reflexive form keeps per-node identity while preserving the constant
shift that distinguishes edges-kept from edges-dropped inputs.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import TailkitError, check_fields, positive

__all__ = [
    "LossProfile",
    "METHODS",
    "MonteCarloConfig",
    "TheoryClassifier",
    "TheoryError",
    "TheoryWorld",
    "bound_g_term",
    "compute_gaps",
    "monte_carlo_validate",
    "sample_world",
    "stage2_supervision",
    "theorem_bound",
    "train_theory_model",
]

METHODS = ("M1", "M2", "M3")


class TheoryError(TailkitError):
    """Invalid world parameters or profile contents."""


def _check_delta(delta) -> None:
    if not 0.0 < delta < 1.0:
        raise TheoryError(f"confidence level must be in (0, 1), got {delta}")


# ---------------------------------------------------------------------------
# world
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoryWorld:
    """Finite population with its index structure.

    ``features`` is (N, d); ``labels`` holds +-1. ``a_idx`` are the isolated
    nodes (size T), ``b_idx`` the fully connected block (size R), and
    ``s_idx`` the labeled subset of B (size m). ``delta`` is the confidence
    level the bound will be evaluated at.
    """

    features: np.ndarray
    labels: np.ndarray
    a_idx: np.ndarray
    b_idx: np.ndarray
    s_idx: np.ndarray
    delta: float
    separation: float
    seed: int

    def __post_init__(self) -> None:
        _check_delta(self.delta)
        if self.features.ndim != 2:
            raise TheoryError("features must be 2-d")
        if not np.isin(self.labels, (-1, 1)).all():
            raise TheoryError("labels must be +-1")
        for name in ("a_idx", "b_idx", "s_idx"):
            idx = getattr(self, name)
            if np.unique(idx).size != idx.size:
                raise TheoryError(f"{name} contains duplicates")
        if np.intersect1d(self.a_idx, self.b_idx).size:
            raise TheoryError("A and B overlap")
        if not np.isin(self.s_idx, self.b_idx).all():
            raise TheoryError("S must be a subset of B")

    @property
    def block_sum(self) -> np.ndarray:
        """Sum of all block features: the shared aggregation term on B."""
        return self.features[self.b_idx].sum(axis=0)

    def aggregated(self, idx) -> np.ndarray:
        """Edges-kept inputs for block members: own feature plus block sum."""
        return self.features[idx] + self.block_sum

    def raw(self, idx) -> np.ndarray:
        """Edges-dropped inputs: the bare feature."""
        return self.features[idx]


def sample_world(
    N: int,
    T: int,
    R: int,
    m: int,
    d: int,
    delta: float,
    separation: float,
    seed: int = 0,
) -> TheoryWorld:
    """Draw a population and its index sets, all without replacement.

    Labels are balanced coin flips; features are unit Gaussians whose mean
    sits at +-separation/2 along the first coordinate according to the label.
    """
    if min(N, T, R, m, d) < 1:
        raise TheoryError("N, T, R, m, d must all be positive")
    if T + R > N:
        raise TheoryError(f"T + R = {T + R} exceeds N = {N}")
    if m > R:
        raise TheoryError(f"m = {m} exceeds R = {R}")
    rng = np.random.default_rng(seed)
    labels = rng.choice(np.array([-1.0, 1.0]), size=N)
    features = rng.standard_normal((N, d))
    features[:, 0] += labels * (separation / 2.0)
    perm = rng.permutation(N)
    a_idx = np.sort(perm[:T])
    b_idx = np.sort(perm[T:T + R])
    s_idx = np.sort(rng.choice(b_idx, size=m, replace=False))
    return TheoryWorld(features, labels, a_idx, b_idx, s_idx, delta, separation, seed)


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoryClassifier:
    """Linear score with sign readout; inputs are centered by the training mean."""

    weights: np.ndarray
    bias: float
    center: np.ndarray
    stage1_surrogate: float = np.nan
    stage2_surrogate: float = np.nan

    def scores(self, inputs: np.ndarray) -> np.ndarray:
        return (inputs - self.center) @ self.weights + self.bias

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        return np.where(self.scores(inputs) >= 0.0, 1.0, -1.0)


def _logistic_fit(inputs, targets, steps, lr, w0=None, b0=0.0):
    """Full-batch gradient descent on mean softplus(-y f(x)); returns (w, b,
    center, final surrogate loss)."""
    center = inputs.mean(axis=0)
    x = inputs - center
    n = x.shape[0]
    w = np.zeros(x.shape[1]) if w0 is None else w0.copy()
    b = float(b0)
    for _ in range(steps):
        margins = targets * (x @ w + b)
        slope = -targets / (1.0 + np.exp(margins))  # d softplus(-m)/d f
        # the means as ndarray.mean computes them, without its Python wrapper
        w -= lr * (np.add.reduce(x * slope[:, None], axis=0) / n)
        b -= lr * (np.add.reduce(slope) / n)
    final = float(np.mean(np.logaddexp(0.0, -(targets * (x @ w + b)))))
    return w, b, center, final


def _zero_one(predictions, targets) -> np.ndarray:
    return (predictions != targets).astype(np.float64)


# ---------------------------------------------------------------------------
# loss profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LossProfile:
    """Per-node 0-1 losses of one trained model over A and B.

    Arrays are aligned to the world's ``a_idx`` / ``b_idx`` order. The tilde
    variants measure against pseudo-labels; ``stage1_b`` records the stage-1
    model's loss on the intact graph. ``s_mask`` flags the positions of S
    inside ``b_idx``.
    """

    ell_b: np.ndarray            # dropped-edge loss on B, true labels
    big_ell_a: np.ndarray        # intact-graph loss on A (isolated inputs)
    big_ell_b: np.ndarray        # intact-graph loss on B (aggregated inputs)
    ell_tilde_b: np.ndarray      # dropped-edge loss on B, pseudo-labels
    big_ell_tilde_b: np.ndarray  # intact-graph loss on B, pseudo-labels
    stage1_b: np.ndarray         # stage-1 model, intact graph, true labels
    s_mask: np.ndarray

    def __post_init__(self) -> None:
        for name in (
            "ell_b", "big_ell_a", "big_ell_b",
            "ell_tilde_b", "big_ell_tilde_b", "stage1_b",
        ):
            values = getattr(self, name)
            if not np.isin(values, (0.0, 1.0)).all():
                raise TheoryError(f"{name} must contain only 0-1 losses")
        n = self.ell_b.size
        if not all(
            arr.size == n
            for arr in (self.big_ell_b, self.ell_tilde_b, self.big_ell_tilde_b,
                        self.stage1_b, self.s_mask)
        ):
            raise TheoryError("B-aligned arrays disagree in length")
        if not np.array_equal(
            self.ell_tilde_b[self.s_mask], self.ell_b[self.s_mask]
        ):
            raise TheoryError("pseudo-labels must agree with true labels on S")


def stage2_supervision(world: TheoryWorld, method: str, pseudo_b: np.ndarray):
    """Stage-2 training set for a method: (inputs, targets).

    M1: the labeled subset S, edges dropped, true labels. M2: all of B, edges
    dropped, pseudo-labels. M3: all of B, edges kept, pseudo-labels.
    """
    if method == "M1":
        return world.raw(world.s_idx), world.labels[world.s_idx]
    if method == "M2":
        return world.raw(world.b_idx), pseudo_b
    if method == "M3":
        return world.aggregated(world.b_idx), pseudo_b
    raise TheoryError(f"unknown method {method!r}; expected one of {METHODS}")


def train_theory_model(
    world: TheoryWorld,
    method: str,
    *,
    stage1_steps: int = 300,
    stage2_steps: int = 300,
    lr: float = 0.5,
) -> tuple[TheoryClassifier, LossProfile, float]:
    """Two-stage training for one method; returns (classifier, profile, Q).

    Stage 1 fits the labeled subset S on the intact graph (aggregated
    inputs). Q is its mean 0-1 training loss, measured after training.
    Pseudo-labels for B are the stage-1 sign predictions on the intact graph,
    overridden by the true labels on S. Stage 2 starts from the stage-1
    weights and fits the method's supervision (see
    :func:`stage2_supervision`). The returned profile records the final
    model's 0-1 losses in every (population, graph, label) combination the
    gap formulas read. Gradient descent starts from zeros, so the procedure
    is deterministic given the world.
    """
    if method not in METHODS:
        raise TheoryError(f"unknown method {method!r}; expected one of {METHODS}")
    return _fit_stage2(world, method, _fit_stage1(world, stage1_steps, lr), stage2_steps, lr)


def _fit_stage1(world: TheoryWorld, steps: int, lr: float) -> tuple:
    """The method-independent stage 1: (classifier, Q, pseudo-labels on B, S mask in B)."""
    z_s = world.aggregated(world.s_idx)
    y_s = world.labels[world.s_idx]
    w1, b1, c1, stage1_loss = _logistic_fit(z_s, y_s, steps, lr)
    stage1 = TheoryClassifier(w1, b1, c1, stage1_surrogate=stage1_loss)
    q = float(_zero_one(stage1.predict(z_s), y_s).mean())
    pseudo_b = stage1.predict(world.aggregated(world.b_idx))
    s_mask = np.isin(world.b_idx, world.s_idx)
    pseudo_b[s_mask] = world.labels[world.b_idx][s_mask]
    return stage1, q, pseudo_b, s_mask


def _fit_stage2(world: TheoryWorld, method: str, fit1: tuple, steps: int, lr: float):
    """Stage 2 of ``method`` from a :func:`_fit_stage1` result; returns
    (classifier, profile, Q) like :func:`train_theory_model`."""
    stage1, q, pseudo_b, s_mask = fit1
    inputs, targets = stage2_supervision(world, method, pseudo_b)
    w2, b2, c2, stage2_loss = _logistic_fit(
        inputs, targets, steps, lr, w0=stage1.weights, b0=stage1.bias
    )
    final = TheoryClassifier(
        w2, b2, c2, stage1_surrogate=stage1.stage1_surrogate, stage2_surrogate=stage2_loss
    )

    z_b = world.aggregated(world.b_idx)
    x_a = world.raw(world.a_idx)
    x_b = world.raw(world.b_idx)
    y_a = world.labels[world.a_idx]
    y_b = world.labels[world.b_idx]
    profile = LossProfile(
        ell_b=_zero_one(final.predict(x_b), y_b),
        big_ell_a=_zero_one(final.predict(x_a), y_a),
        big_ell_b=_zero_one(final.predict(z_b), y_b),
        ell_tilde_b=_zero_one(final.predict(x_b), pseudo_b),
        big_ell_tilde_b=_zero_one(final.predict(z_b), pseudo_b),
        stage1_b=_zero_one(stage1.predict(z_b), y_b),
        s_mask=s_mask,
    )
    return final, profile, q


# ---------------------------------------------------------------------------
# gaps and bound
# ---------------------------------------------------------------------------

def compute_gaps(world: TheoryWorld, profile: LossProfile):
    """(gap_m1, gap_m2, gap_m3, tau) per the defining formulas.

    Each gap is the mean intact-graph loss on A minus the method's stage-2
    training loss: over S with dropped edges (M1), over B against
    pseudo-labels with dropped edges (M2), or with edges kept (M3). tau is
    the mean excess of the dropped-edge loss over the intact-graph loss on B.
    """
    if profile.big_ell_a.size == 0:
        raise TheoryError("A is empty")
    if not profile.s_mask.any():
        raise TheoryError("S is empty")
    target = float(profile.big_ell_a.mean())
    gap_m1 = target - float(profile.ell_b[profile.s_mask].mean())
    gap_m2 = target - float(profile.ell_tilde_b.mean())
    gap_m3 = target - float(profile.big_ell_tilde_b.mean())
    tau = float((profile.ell_b - profile.big_ell_b).mean())
    return gap_m1, gap_m2, gap_m3, tau


def bound_g_term(d: int, R: int, T: int, delta: float) -> float:
    """The shared sampling term G of the bound."""
    _check_delta(delta)
    if min(d, R, T) < 1:
        raise TheoryError("d, R, T must be positive")
    return float(
        np.sqrt(8.0 * d * np.log(16.0 * np.e * R / delta) / R)
        + np.sqrt(np.log(4.0 / delta) / (2.0 * T))
    )


def theorem_bound(
    method: str,
    m: int,
    d: int,
    delta: float,
    Q: float,
    tau: float,
    R: int,
    T: int,
) -> float:
    """High-probability upper bound on the generalization gap of a method.

    sqrt([1{M1} * 8(d-1) * ln(16 e m / delta) + 8 ln(16 e m / delta)] / m)
    + 1{not M1} * Q + 1{M3} * tau + G. The d-dependent factor burdens only
    M1; widening supervision with pseudo-labels (M2, M3) trades it for the
    stage-1 training loss Q, and keeping edges (M3) additionally pays the
    distribution-shift term tau, which enters signed exactly as measured.
    """
    if method not in METHODS:
        raise TheoryError(f"unknown method {method!r}; expected one of {METHODS}")
    _check_delta(delta)
    if min(m, d, R, T) < 1:
        raise TheoryError("m, d, R, T must be positive")
    if Q < 0:
        raise TheoryError(f"Q must be nonnegative, got {Q}")
    log_term = np.log(16.0 * np.e * m / delta)
    first = 8.0 * log_term
    if method == "M1":
        first += 8.0 * (d - 1) * log_term
    bound = float(np.sqrt(first / m))
    if method != "M1":
        bound += Q
    if method == "M3":
        bound += tau
    return bound + bound_g_term(d, R, T, delta)


# ---------------------------------------------------------------------------
# Monte Carlo validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonteCarloConfig:
    """World and training sizes for one validation campaign; each field's
    bounds are its metadata, which the config schema reads too."""

    N: int = field(default=10_000, metadata={"minimum": 1, "maximum": 2**24})
    T: int = field(default=1_000, metadata={"minimum": 1, "maximum": 2**24})
    R: int = field(default=1_000, metadata={"minimum": 1, "maximum": 2**24})
    m: int = field(default=100, metadata={"minimum": 1, "maximum": 2**24})
    d: int = field(default=16, metadata={"minimum": 1, "maximum": 2**16})
    delta: float = field(default=0.1, metadata={"check": _check_delta})
    separation: float = 8.0
    seed: int = field(default=0, metadata={"minimum": 0})
    stage1_steps: int = field(default=300, metadata={"minimum": 0})
    stage2_steps: int = field(default=300, metadata={"minimum": 0})
    lr: float = field(default=0.5, metadata={"check": positive})

    def __post_init__(self) -> None:
        check_fields(self, TheoryError)
        if self.T + self.R > self.N:
            raise TheoryError(f"T + R = {self.T + self.R} exceeds N = {self.N}")
        if self.m > self.R:
            raise TheoryError(f"m = {self.m} exceeds R = {self.R}")


def monte_carlo_validate(config: MonteCarloConfig, trials: int) -> dict:
    """Sample worlds, train every method, and tally bound violations.

    Returns a summary dict with per-method violation rates, mean gaps and
    bounds, plus one row per (trial, method) for CSV export. The violation
    rates are only statistically meaningful with at least ~100 trials (the
    acceptance check uses two-sigma binomial slack around delta).
    """
    if trials < 1:
        raise TheoryError("trials must be positive")
    seeds = [
        int(s.generate_state(1, dtype=np.uint64)[0])
        for s in np.random.SeedSequence(config.seed).spawn(trials)
    ]
    rows = []
    g_value = bound_g_term(config.d, config.R, config.T, config.delta)
    for trial, world_seed in enumerate(seeds):
        world = sample_world(
            config.N, config.T, config.R, config.m, config.d,
            config.delta, config.separation, seed=world_seed,
        )
        fit1 = _fit_stage1(world, config.stage1_steps, config.lr)
        for method_index, method in enumerate(METHODS):
            clf, profile, q = _fit_stage2(world, method, fit1, config.stage2_steps, config.lr)
            gaps = compute_gaps(world, profile)
            gap = gaps[method_index]
            tau = gaps[3]
            bound = theorem_bound(
                method, config.m, config.d, config.delta, q, tau,
                config.R, config.T,
            )
            rows.append(
                {
                    "trial": trial,
                    "method": method,
                    "gap": gap,
                    "bound": bound,
                    "q": q,
                    "tau": tau,
                    "g_term": g_value,
                    "stage1_surrogate": clf.stage1_surrogate,
                    "stage2_surrogate": clf.stage2_surrogate,
                    "violated": bool(gap > bound),
                }
            )

    def mean(key):
        """Per method, ``key`` summed over its rows in trial order, over ``trials``.

        A plain loop: the builtin ``sum`` compensates floats from Python 3.12 on.
        """
        sums = dict.fromkeys(METHODS, 0.0)
        for row in rows:
            sums[row["method"]] += row[key]
        return {m: total / trials for m, total in sums.items()}

    summary = {
        "trials": trials,
        "config": asdict(config),
        "violation_rate": mean("violated"),
        "mean_gap": mean("gap"),
        "mean_bound": mean("bound"),
        "g_term": g_value,
    }
    return {"summary": summary, "rows": rows}
