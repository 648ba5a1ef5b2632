"""Kernelized multiview subspace analysis.

Learns per-view low-dimensional embeddings for multiview data via kernelized
graph embedding with automatically learned view weights and a pairwise
subspace-alignment regularizer, plus evaluation helpers for classification
and retrieval.
"""

from .data_io import (
    generate_synthetic,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
)
from .errors import (
    ConfigError,
    ConvergenceWarning,
    DimensionError,
    EvalError,
    FormatError,
    GraphError,
    IoError,
    KmsaError,
    NonMonotoneWarning,
    NumericError,
    VersionError,
    WeightDomainWarning,
)
from .evaluation import knn_classify, retrieval_metrics
from .kernels import build_kernel, median_heuristic_bandwidth
from .optimizer import fit, transform
from .types import (
    GraphRecipe,
    KernelSpec,
    KmsaConfig,
    KmsaModel,
    MultiviewDataset,
    validate_config,
)

__all__ = [
    "ConfigError",
    "ConvergenceWarning",
    "DimensionError",
    "EvalError",
    "FormatError",
    "GraphRecipe",
    "GraphError",
    "IoError",
    "KernelSpec",
    "KmsaConfig",
    "KmsaError",
    "KmsaModel",
    "MultiviewDataset",
    "NonMonotoneWarning",
    "NumericError",
    "VersionError",
    "WeightDomainWarning",
    "build_kernel",
    "fit",
    "generate_synthetic",
    "knn_classify",
    "load_dataset",
    "load_model",
    "median_heuristic_bandwidth",
    "retrieval_metrics",
    "save_dataset",
    "save_model",
    "transform",
    "validate_config",
]

__version__ = "0.1.0"
