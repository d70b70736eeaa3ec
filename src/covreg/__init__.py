"""Covariance regularization toolkit.

Sample covariance construction, shrinkage toward factor-model targets
(with the shrunk matrix rewritten exactly as a factor model with
block-diagonal factor covariance), and a truncated principal-component
regularizer that preserves the diagonal via per-asset rescaling.
"""

from .covariance import (
    LowRank,
    SampleCovariance,
    root_pcs,
    sample_covariance,
    spectral_decompose,
)
from .factors import FactorModel, dense, invert, min_variance_weights
from .harness import (
    BaiYinReport,
    MethodConfig,
    StabilityReport,
    SyntheticSpec,
    bai_yin_check,
    generate_panel,
    grid_search_q,
    stability_experiment,
)
from .panels import ReturnsPanel, demean, load_panel, loads_panel
from .regularizers import (
    build_target,
    constant_correlation_target,
    diagonal_target,
    estimate_rho,
    shrink_as_factor_model,
    shrink_dense,
    truncated_pc_model,
)

__all__ = [
    "BaiYinReport",
    "FactorModel",
    "LowRank",
    "MethodConfig",
    "ReturnsPanel",
    "SampleCovariance",
    "StabilityReport",
    "SyntheticSpec",
    "bai_yin_check",
    "build_target",
    "constant_correlation_target",
    "demean",
    "dense",
    "diagonal_target",
    "estimate_rho",
    "generate_panel",
    "grid_search_q",
    "invert",
    "load_panel",
    "loads_panel",
    "min_variance_weights",
    "root_pcs",
    "sample_covariance",
    "shrink_as_factor_model",
    "shrink_dense",
    "spectral_decompose",
    "stability_experiment",
    "truncated_pc_model",
]

__version__ = "0.1.0"
