"""Mixed-membership community detection in overlapping weighted networks.

The package covers the full loop: a distribution-free generative model for
weighted (including signed) networks with per-node degree scales, spectral
membership estimators built on cone-corner finding, permutation-minimized
error metrics, a sweep/benchmark harness, and readers for common edge-list
formats.
"""

from .corners import (
    CornerFindingError,
    CornerSet,
    MarginSolution,
    one_class_margin,
    spa_corners,
    spherical_kmeans,
    svm_cone_corners,
)
from .estimators import EstimationError, EstimationResult, dfsp, ideal_scd, scd
from .harness import (
    ExperimentConfig,
    SweepResult,
    experiment_config,
    run_setup,
    run_setup_replicates,
    run_sweep,
    scaling_check,
)
from .metrics import ErrorReport, highly_mixed, home_base, l1_error_rate, miscluster_count
from .model import (
    EdgeDistribution,
    InvariantError,
    SupportError,
    build_omega,
    make_synthetic_membership,
    make_theta,
    sample_adjacency,
)
from .netio import fit_network, load_edge_list, save_edge_list, scree_report
from .spectral import NormalizedRows, SpectralPair, row_normalize, top_k_eigs, top_singular_values

__version__ = "0.1.0"

__all__ = [
    "CornerFindingError", "CornerSet", "MarginSolution", "one_class_margin",
    "spa_corners", "spherical_kmeans", "svm_cone_corners",
    "EstimationError", "EstimationResult", "dfsp", "ideal_scd", "scd",
    "ExperimentConfig", "SweepResult", "experiment_config", "run_setup",
    "run_setup_replicates", "run_sweep", "scaling_check",
    "ErrorReport", "highly_mixed", "home_base", "l1_error_rate", "miscluster_count",
    "EdgeDistribution", "InvariantError", "SupportError", "build_omega",
    "make_synthetic_membership", "make_theta", "sample_adjacency",
    "fit_network", "load_edge_list", "save_edge_list", "scree_report",
    "NormalizedRows", "SpectralPair", "row_normalize", "top_k_eigs",
    "top_singular_values",
]
