"""Local power of the gradient, likelihood ratio, Wald, and score tests.

The package computes the four classic large-sample test statistics for
one-parameter exponential families, their second-order local power under
root-n drifting alternatives via noncentral chi-square mixtures, pairwise
power ordering certificates, the general composite-hypothesis expansion from
numeric cumulant tensors, and a seeded Monte Carlo oracle that checks the
expansions empirically.
"""

from .errors import ConvergenceError, DomainError, EstimationError, GradpowerError
from .expfam import (
    CATALOG_NAMES,
    CumulantSet,
    ExpFamModel,
    Support,
    catalog_model,
    cumulants,
    load_data,
    mle,
    sample,
)
from .expansion import (
    ClampedProbability,
    CumulantTensors,
    MomentSet,
    PowerExpansion,
    cdf_expansion,
    composite_coefficients,
    load_tensor_file,
    scalar_coefficients,
    simple_coefficients,
    st_moments,
)
from .localpower import (
    SOURCE_CHAIN,
    SOURCE_TABLE,
    CoefficientTable,
    OrderingReport,
    PowerQuery,
    local_power,
    power_coefficients,
    power_difference,
    power_ordering,
)
from .montecarlo import (
    SimulationConfig,
    SimulationReport,
    adjudicate_gradient_sources,
    adjudicate_mean_expansion,
    simulate,
)
from .specfun import (
    ChiSquareParams,
    central_chisq_cdf,
    central_chisq_quantile,
    central_chisq_sf,
    nc_chisq_cdf,
    nc_chisq_pdf,
)
from .teststats import TestKind, TestResult, compute_statistics

__version__ = "0.1.0"

__all__ = [
    "CATALOG_NAMES",
    "ChiSquareParams",
    "ClampedProbability",
    "CoefficientTable",
    "ConvergenceError",
    "CumulantSet",
    "CumulantTensors",
    "DomainError",
    "EstimationError",
    "ExpFamModel",
    "GradpowerError",
    "MomentSet",
    "OrderingReport",
    "PowerExpansion",
    "PowerQuery",
    "SOURCE_CHAIN",
    "SOURCE_TABLE",
    "SimulationConfig",
    "SimulationReport",
    "Support",
    "TestKind",
    "TestResult",
    "adjudicate_gradient_sources",
    "adjudicate_mean_expansion",
    "catalog_model",
    "cdf_expansion",
    "central_chisq_cdf",
    "central_chisq_quantile",
    "central_chisq_sf",
    "composite_coefficients",
    "compute_statistics",
    "cumulants",
    "load_data",
    "load_tensor_file",
    "local_power",
    "mle",
    "nc_chisq_cdf",
    "nc_chisq_pdf",
    "power_coefficients",
    "power_difference",
    "power_ordering",
    "sample",
    "scalar_coefficients",
    "simple_coefficients",
    "simulate",
    "st_moments",
]
