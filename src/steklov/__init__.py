"""Steklov eigenvalues of the unit ball and their mass-concentration limits.

The Steklov spectrum of the ball with a uniform boundary density arises as
the limit of Neumann eigenvalues when the total mass M concentrates in a
shell of width eps at the boundary. This package computes the limit
spectrum in closed form, traces the Neumann branches lambda_l(eps) through
a Bessel cross-product characteristic equation, verifies the first-order
slope of each branch at eps = 0 two independent ways, checks the
small-argument remainder scaling empirically, and cross-validates every
eigenvalue against a Bessel-free ODE shooting oracle.
"""

from .bessel import (
    BesselEval,
    BesselKind,
    bessel,
    bessel_deriv,
    derivatives_up_to,
)
from .branch import (
    DEFAULT_ROOT_TOL,
    BranchPoint,
    BranchTable,
    CharacteristicKernel,
    IntervalKernel,
    RadialProfile,
    continue_branch,
    find_root,
    radial_profile,
    remainder_scaling,
    scan_roots,
    sidecar_metadata,
    slope_estimate,
    slope_from_truncated,
    trace_family,
    truncated_characteristic,
    write_points_csv,
)
from .crossprod import (
    CrossKind,
    Family,
    LaurentForm,
    closed_form,
    derivative,
    direct_cross_product,
    evaluate,
    recursive_form,
)
from .errors import (
    BracketError,
    IterationLimitError,
    UnsupportedOrderError,
)
from .model import DensityParams, ProblemConfig, density_params, unit_ball_volume, wave_arguments
from .shooting import ShootingResult, eigenvalue_by_shooting, shoot
from .spectrum import SteklovEigenvalue, multiplicity, slope_at_zero, steklov_eigenvalue

__version__ = "0.1.0"

__all__ = [
    "BesselEval",
    "BesselKind",
    "BracketError",
    "BranchPoint",
    "BranchTable",
    "CharacteristicKernel",
    "CrossKind",
    "DEFAULT_ROOT_TOL",
    "DensityParams",
    "Family",
    "IntervalKernel",
    "IterationLimitError",
    "LaurentForm",
    "ProblemConfig",
    "RadialProfile",
    "ShootingResult",
    "SteklovEigenvalue",
    "UnsupportedOrderError",
    "bessel",
    "bessel_deriv",
    "closed_form",
    "continue_branch",
    "density_params",
    "derivative",
    "derivatives_up_to",
    "direct_cross_product",
    "eigenvalue_by_shooting",
    "evaluate",
    "find_root",
    "multiplicity",
    "radial_profile",
    "recursive_form",
    "remainder_scaling",
    "scan_roots",
    "shoot",
    "sidecar_metadata",
    "slope_at_zero",
    "slope_estimate",
    "slope_from_truncated",
    "steklov_eigenvalue",
    "trace_family",
    "truncated_characteristic",
    "unit_ball_volume",
    "wave_arguments",
    "write_points_csv",
]
