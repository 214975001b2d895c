"""Criticality analysis and spectrum-shaping flows for deformed i.i.d. matrices."""

from .criticality import (
    CriticalityReport,
    alpha_from_chi,
    chi,
    density_quadratic,
    hessian_at_origin,
    scaling_gamma,
    shape_alpha,
    verify_criticality,
)
from .dyson import (
    FlowScalings,
    cubic_residual,
    flow_scalings,
    rescaled_cubic_residual,
    solve_mde_full,
    solve_v_scalar,
)
from .flow import (
    FlowConfig,
    FlowPath,
    derive_b0,
    finite_support_flow,
    fix_spectrum_flow,
    hermitian_flow,
    independent_count_target,
    lift_to_deformation,
    validate_assumption,
)
from .spectra import (
    CorrelationEstimate,
    estimate_statistic,
    girko_check,
    log_det_statistic,
    sample_matrix,
    smallest_sv_tail,
)
from .spectrum import DeformationSpectrum

__version__ = "0.1.0"

__all__ = [
    "CorrelationEstimate",
    "CriticalityReport",
    "DeformationSpectrum",
    "FlowConfig",
    "FlowPath",
    "FlowScalings",
    "alpha_from_chi",
    "chi",
    "cubic_residual",
    "density_quadratic",
    "derive_b0",
    "estimate_statistic",
    "finite_support_flow",
    "fix_spectrum_flow",
    "flow_scalings",
    "girko_check",
    "hermitian_flow",
    "hessian_at_origin",
    "independent_count_target",
    "lift_to_deformation",
    "log_det_statistic",
    "rescaled_cubic_residual",
    "sample_matrix",
    "scaling_gamma",
    "shape_alpha",
    "smallest_sv_tail",
    "solve_mde_full",
    "solve_v_scalar",
    "validate_assumption",
    "verify_criticality",
    "__version__",
]
