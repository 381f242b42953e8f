"""tailkit: two-stage GNN training that holds up on low-degree and cold-start nodes."""

# The version of the arithmetic behind the pipeline's outputs. Every JSON stage
# output records it, and one recorded under another value is recomputed; a
# change that alters any output's numbers bumps it (README, "Numerics versions").
NUMERICS = 3

from .errors import TailkitError
from .graph import (
    Graph,
    GraphError,
    LabelSet,
    NormalizedAdjacency,
    build_graph,
    drop_edges,
    normalize_adjacency,
)
from .generators import generate_bipartite, generate_scale_free
from .models import (
    EncoderConfig,
    Model,
    ModelError,
    TASKS,
    VARIANTS,
    encode,
    init_model,
    load_model,
    save_model,
    score_pairs,
)
from .losses import LossError, SupervisionSet, bpr_loss, cross_entropy, sample_negatives
from .data import (
    SplitBundle,
    SplitError,
    load_dataset,
    make_classification_bundle,
    make_link_bundle,
    make_recsys_bundle,
)
from .evaluation import (
    EvalError,
    MetricReport,
    evaluate_setting,
)
from .training import (
    PRESETS,
    TrainConfig,
    TrainError,
    TrainReport,
    pseudo_label,
    run_ablation,
)
from .theory import (
    MonteCarloConfig,
    TheoryError,
    monte_carlo_validate,
    sample_world,
    theorem_bound,
    train_theory_model,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    MissingInputError,
    load_config,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "EncoderConfig",
    "EvalError",
    "ExperimentConfig",
    "Graph",
    "GraphError",
    "LabelSet",
    "LossError",
    "MetricReport",
    "MissingInputError",
    "Model",
    "ModelError",
    "MonteCarloConfig",
    "NUMERICS",
    "NormalizedAdjacency",
    "PRESETS",
    "SplitBundle",
    "SplitError",
    "SupervisionSet",
    "TASKS",
    "TailkitError",
    "TheoryError",
    "TrainConfig",
    "TrainError",
    "TrainReport",
    "VARIANTS",
    "bpr_loss",
    "build_graph",
    "cross_entropy",
    "drop_edges",
    "encode",
    "evaluate_setting",
    "generate_bipartite",
    "generate_scale_free",
    "init_model",
    "load_config",
    "load_dataset",
    "load_model",
    "make_classification_bundle",
    "make_link_bundle",
    "make_recsys_bundle",
    "monte_carlo_validate",
    "normalize_adjacency",
    "pseudo_label",
    "run_ablation",
    "sample_negatives",
    "sample_world",
    "save_model",
    "score_pairs",
    "theorem_bound",
    "train_theory_model",
]
