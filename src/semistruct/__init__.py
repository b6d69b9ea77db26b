"""Semi-supervised structured output prediction with neighbor-graph
regularization over the structured output space."""

from .core import (
    DataPoint,
    Dataset,
    OutputSpace,
    ValidationReport,
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
from .graph import NeighborGraph, build_knn_graph, manifold_term
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
    "manifold_term",
    "objective",
    "run_baseline_supervised",
    "run_cv",
    "save_model",
    "space_from_config",
    "sweep",
    "three_level_taxonomy",
    "trace_csv",
    "update_slack",
    "update_upsilon",
    "update_weights",
    "validate_dataset",
]
