"""Graph test-time adaptation laboratory.

A hop-aggregation GNN whose combination weights γ are adapted at test time
by descending an unsupervised prediction-informed clustering objective,
plus the synthetic-shift generators, closed-form accuracy oracle, and
experiment harness used to study it.
"""

from .adapt import (
    AdaptationDivergedError,
    AdaptConfig,
    AdaptResult,
    adapt,
    convergence_report,
)
from .csbm import (
    PRESETS,
    CsbmParams,
    attach_split_masks,
    edge_probs,
    generate,
    preset_params,
)
from .graph import (
    BACKEND,
    Dataset,
    Graph,
    PropagationOperator,
    build_graph,
    node_homophily,
)
from .harness import (
    ExperimentReport,
    GapDecomposition,
    ScenarioSpec,
    build_scenario_datasets,
    decompose_gap,
    fit_linear_head,
    run_scenario,
    scenario_seeds,
    sweep,
)
from .io import (
    FormatError,
    read_dataset,
    write_dataset,
    write_json_report,
)
from .losses import (
    LOSS_KINDS,
    DegenerateRepresentationError,
    surrogate_loss_and_grad_gamma,
)
from .model import (
    EpochRecord,
    GprModel,
    HopCache,
    SoftPrediction,
    StaleCacheError,
    aggregate,
    classify,
    featurize_hops,
    init_model,
    load_checkpoint,
    prediction_accuracy,
    save_checkpoint,
    softmax,
)
from .pretrain import TrainConfig, TrainDivergedError, pretrain_on, train_source
from .theory import (
    AttributeShiftAccuracy,
    TheoryPoint,
    attribute_shift_accuracy,
    closed_form_accuracy,
    gap_decomposition,
    monte_carlo_accuracy,
    optimal_gamma,
    representation_distribution,
)
from .tta import BaseTtaKind, base_predict

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "__version__",
    # graph
    "Graph",
    "Dataset",
    "PropagationOperator",
    "build_graph",
    "node_homophily",
    # csbm
    "CsbmParams",
    "PRESETS",
    "edge_probs",
    "generate",
    "preset_params",
    "attach_split_masks",
    # theory
    "TheoryPoint",
    "AttributeShiftAccuracy",
    "representation_distribution",
    "closed_form_accuracy",
    "optimal_gamma",
    "attribute_shift_accuracy",
    "monte_carlo_accuracy",
    "gap_decomposition",
    # model
    "EpochRecord",
    "GprModel",
    "HopCache",
    "SoftPrediction",
    "StaleCacheError",
    "init_model",
    "featurize_hops",
    "aggregate",
    "softmax",
    "classify",
    "prediction_accuracy",
    "save_checkpoint",
    "load_checkpoint",
    # losses
    "LOSS_KINDS",
    "DegenerateRepresentationError",
    "surrogate_loss_and_grad_gamma",
    # pretrain
    "TrainConfig",
    "TrainDivergedError",
    "train_source",
    "pretrain_on",
    # tta
    "BaseTtaKind",
    "base_predict",
    # adapt
    "AdaptConfig",
    "AdaptResult",
    "AdaptationDivergedError",
    "adapt",
    "convergence_report",
    # harness
    "ScenarioSpec",
    "ExperimentReport",
    "GapDecomposition",
    "scenario_seeds",
    "build_scenario_datasets",
    "run_scenario",
    "sweep",
    "fit_linear_head",
    "decompose_gap",
    # io
    "FormatError",
    "read_dataset",
    "write_dataset",
    "write_json_report",
]
