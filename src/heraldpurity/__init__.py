"""Heralded-photon purity and heralding statistics for filtered pair sources.

The package models the joint spectral amplitude of a parametric photon-pair
source, applies spectral filters to either arm, and computes the heralded
single-photon purity, the heralding probability, the Schmidt mode structure,
and two-source interference, through three mutually checking routes: closed
forms, direct quadrature, and mode decomposition.

Modules log to the ``heraldpurity`` logger, which is silent unless the
application configures logging.
"""

import logging

from .analytic import (
    ClosedFormReport,
    closed_form_purity,
    closed_form_report,
    closed_form_success,
    hom_dip_analytic,
    mode_scales,
    schmidt_mode_analytic,
    schmidt_number,
    thermal_schmidt_coefficients,
    visibility,
)
from .core import (
    ConvergenceError,
    DoubleGaussianJsa,
    GaussianFilter,
    GridCoverageError,
    GriddedJsa,
    HomCurve,
    NumericalError,
    SourcePhysicalParams,
    TabulatedFilter,
    discretize,
    eval_double_gaussian,
    filter_amplitude,
    filter_from_dict,
    filter_transmission,
    from_physical,
    jsa_from_dict,
    parse_angle,
    recommended_grid,
)
from .quadrature import (
    DEFAULT_SPEC,
    HeraldingReport,
    QuadratureSpec,
    filtered_purity,
    herald_success,
    heralding_report,
    hom_dip,
    two_filter_quantities,
    unfiltered_purity,
)
from .schmidt import (
    ModeProjection,
    OverlapMatrix,
    SchmidtDecomposition,
    decompose,
    export_modes_csv,
    hom_dip_schmidt,
    mode_projection_herald,
    overlap_matrix,
    schmidt_quantities,
    two_filter_schmidt,
)
from .sweep import (
    FilterSolution,
    SweepGrid,
    TradeoffPoint,
    solve_filter_for_target,
    sweep_aspect_ratio,
    sweep_orientation,
    tradeoff_curve,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "__version__",
    # core
    "NumericalError",
    "ConvergenceError",
    "GridCoverageError",
    "DoubleGaussianJsa",
    "GriddedJsa",
    "GaussianFilter",
    "TabulatedFilter",
    "SourcePhysicalParams",
    "HomCurve",
    "eval_double_gaussian",
    "filter_transmission",
    "filter_amplitude",
    "discretize",
    "recommended_grid",
    "from_physical",
    "parse_angle",
    "jsa_from_dict",
    "filter_from_dict",
    # quadrature
    "QuadratureSpec",
    "HeraldingReport",
    "DEFAULT_SPEC",
    "unfiltered_purity",
    "herald_success",
    "filtered_purity",
    "two_filter_quantities",
    "hom_dip",
    "heralding_report",
    # analytic
    "ClosedFormReport",
    "closed_form_success",
    "closed_form_purity",
    "closed_form_report",
    "schmidt_number",
    "thermal_schmidt_coefficients",
    "schmidt_mode_analytic",
    "mode_scales",
    "hom_dip_analytic",
    "visibility",
    # schmidt
    "SchmidtDecomposition",
    "OverlapMatrix",
    "ModeProjection",
    "decompose",
    "overlap_matrix",
    "schmidt_quantities",
    "two_filter_schmidt",
    "hom_dip_schmidt",
    "mode_projection_herald",
    "export_modes_csv",
    # sweep
    "TradeoffPoint",
    "SweepGrid",
    "FilterSolution",
    "sweep_aspect_ratio",
    "sweep_orientation",
    "tradeoff_curve",
    "solve_filter_for_target",
]
