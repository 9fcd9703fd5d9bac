"""Bergman kernels of generalized complex ellipsoids.

Closed-form kernel evaluation for domains sum_j ||z_j||^(2/p_j) < 1 built
from three composition principles (deflation, inflation, folding), plus
location and certification of kernel zeros on the tractable slices, a
formula-independent series/Monte Carlo oracle, and a command-line front end.
"""

from .domains import (
    Block,
    DomainSpec,
    MultiIndex,
    contains,
    diagonal_domain,
    monomial_norm_sq,
    parse_domain_spec,
    phi,
    volume,
)
from .errors import (
    BergmanError,
    ContourThroughZero,
    DimensionMismatch,
    InvalidOrder,
    NoConvergence,
    NonIntegerFold,
    OutsideDomain,
    PoleHit,
    PreconditionViolated,
    SchemaError,
    UnsupportedDomain,
)
from .jets import (
    Jet1,
    Jet2,
    derivative_extract,
    jet1_const,
    jet1_variable,
    jet_rpow,
    partial_extract,
)
from .kernels import (
    CircularKernelProfile,
    KernelPoint,
    KernelValue,
    axis_limit_kernel,
    ball_kernel,
    deflation_constant,
    deflation_pair,
    disc_profile,
    evaluate,
    fold,
    general_folded_kernel,
    hartogs2_kernel,
    hartogs_profile,
    inflate,
    k2_closed_form,
    mixed_family_kernel,
    pairing,
    pflate_kernel,
    simplex_restricted_kernel,
    simplex_restriction_constant,
    slice_kernel_kp,
)
from .oracle import (
    ReproducingResidual,
    SeriesConfig,
    mc_volume,
    reproducing_check,
    series_kernel,
)
from .zeros import (
    SliceFunction,
    TwoVarSlice,
    Zero,
    ZeroReport,
    axis1_slice,
    axis1_zero_locus,
    axis2_slice,
    axis2_zero_locus,
    count_zeros_winding,
    grid_zero_scan,
    k2_axis_slice,
    k2_interior_positivity,
    k2_pair_slice,
    mixed_slice,
    newton_refine,
    simplex_slice,
)

__version__ = "0.1.0"

__all__ = [
    "Block", "DomainSpec", "MultiIndex", "contains", "diagonal_domain",
    "monomial_norm_sq", "parse_domain_spec", "phi", "volume",
    "BergmanError", "ContourThroughZero", "DimensionMismatch", "InvalidOrder",
    "NoConvergence", "NonIntegerFold", "OutsideDomain", "PoleHit",
    "PreconditionViolated", "SchemaError", "UnsupportedDomain",
    "Jet1", "Jet2", "derivative_extract", "jet1_const", "jet1_variable",
    "jet_rpow", "partial_extract",
    "CircularKernelProfile", "KernelPoint", "KernelValue",
    "axis_limit_kernel", "ball_kernel", "deflation_constant", "deflation_pair",
    "disc_profile", "evaluate", "fold", "general_folded_kernel", "hartogs2_kernel",
    "hartogs_profile", "inflate", "k2_closed_form", "mixed_family_kernel",
    "pairing", "pflate_kernel", "simplex_restricted_kernel",
    "simplex_restriction_constant", "slice_kernel_kp",
    "ReproducingResidual", "SeriesConfig", "mc_volume", "reproducing_check",
    "series_kernel",
    "SliceFunction", "TwoVarSlice", "Zero", "ZeroReport", "axis1_slice",
    "axis1_zero_locus", "axis2_slice", "axis2_zero_locus",
    "count_zeros_winding", "grid_zero_scan", "k2_axis_slice",
    "k2_interior_positivity", "k2_pair_slice", "mixed_slice", "newton_refine",
    "simplex_slice",
    "__version__",
]
