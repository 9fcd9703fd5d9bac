"""Bergman kernels of generalized complex ellipsoids.

Closed-form kernel evaluation for domains sum_j ||z_j||^(2/p_j) < 1 built
from three composition principles (deflation, inflation, folding), plus
location and certification of kernel zeros on the tractable slices, a
formula-independent series/Monte Carlo oracle, and a command-line front end.
"""

from .domains import (
    Block,
    DomainSpec,
    contains,
    diagonal_domain,
    parse_domain_spec,
    phi,
    volume,
)
from .errors import (
    BergmanError,
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
    simplex_restriction_constant,
    slice_kernel_kp,
)
# oracle and zeros, and the names they define, load on first access (PEP 562)
_LAZY = dict.fromkeys(("ReproducingResidual", "SeriesConfig", "mc_volume",
                       "reproducing_check", "series_kernel"), "oracle")
_LAZY.update(dict.fromkeys((
    "SliceFunction", "TwoVarSlice", "Zero", "ZeroReport", "axis1_slice",
    "axis1_zero_locus", "axis2_slice", "axis2_zero_locus",
    "count_zeros_winding", "grid_zero_scan", "k2_axis_slice",
    "k2_interior_positivity", "k2_pair_slice", "mixed_slice", "newton_refine",
    "odd_quotient_zero_locus", "simplex_slice"), "zeros"))


def __getattr__(name):
    home = _LAZY.get(name, name if name in ("oracle", "zeros") else None)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{home}", __name__)
    return module if home == name else getattr(module, name)


__version__ = "0.1.0"

__all__ = [
    "Block", "DomainSpec", "contains", "diagonal_domain",
    "parse_domain_spec", "phi", "volume",
    "BergmanError", "DimensionMismatch", "InvalidOrder",
    "NoConvergence", "NonIntegerFold", "OutsideDomain", "PoleHit",
    "PreconditionViolated", "SchemaError", "UnsupportedDomain",
    "Jet1", "derivative_extract", "jet1_const", "jet1_variable",
    "jet_rpow", "partial_extract",
    "CircularKernelProfile", "KernelPoint", "KernelValue",
    "axis_limit_kernel", "ball_kernel", "deflation_constant", "deflation_pair",
    "disc_profile", "evaluate", "fold", "general_folded_kernel", "hartogs2_kernel",
    "hartogs_profile", "inflate", "k2_closed_form", "mixed_family_kernel",
    "pairing", "pflate_kernel", "simplex_restriction_constant",
    "slice_kernel_kp",
    *_LAZY,
    "__version__",
]
