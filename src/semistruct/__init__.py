"""Semi-supervised structured output prediction with neighbor-graph
regularization over the structured output space."""

from .core import (
    DataPoint,
    Dataset,
    OutputSpace,
    ValidationReport,
    loss_augmented_value,
    matching_score,
    slack_objective_value,
    validate_dataset,
)
from .errors import (
    ContractViolation,
    DataFormatError,
    Diverged,
    SemistructError,
    UnsupportedConfiguration,
)
from .evaluate import (
    EvalReport,
    asl,
    run_baseline_supervised,
    run_cv,
    sweep,
    trace_csv,
)
from .graph import NeighborGraph, build_knn_graph, manifold_term, neighbor_terms_for
from .solver import (
    SolverConfig,
    SolverState,
    fit,
    initialize,
    load_model,
    objective,
    save_model,
    update_slack,
    update_upsilon,
    update_weights,
)
from .spaces import (
    ChainSequenceSpace,
    MulticlassSpace,
    Taxonomy,
    TaxonomySpace,
    space_from_config,
    three_level_taxonomy,
)

__version__ = "0.1.0"

__all__ = [
    "ChainSequenceSpace",
    "ContractViolation",
    "DataFormatError",
    "DataPoint",
    "Dataset",
    "Diverged",
    "EvalReport",
    "MulticlassSpace",
    "NeighborGraph",
    "OutputSpace",
    "SemistructError",
    "SolverConfig",
    "SolverState",
    "Taxonomy",
    "TaxonomySpace",
    "UnsupportedConfiguration",
    "ValidationReport",
    "asl",
    "build_knn_graph",
    "fit",
    "initialize",
    "load_model",
    "loss_augmented_value",
    "manifold_term",
    "matching_score",
    "neighbor_terms_for",
    "objective",
    "run_baseline_supervised",
    "run_cv",
    "save_model",
    "slack_objective_value",
    "space_from_config",
    "sweep",
    "three_level_taxonomy",
    "trace_csv",
    "update_slack",
    "update_upsilon",
    "update_weights",
    "validate_dataset",
]
