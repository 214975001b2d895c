"""Criticality-preserving deformation flows on the inverse side."""

from .construct import (
    FlowConfig,
    finite_support_flow,
    fix_spectrum_flow,
    half_plane_mass_constant,
    hermitian_flow,
    independent_count_target,
    shrink_clusters,
)
from .ift import IftCertificate, IftProblem, IftSolution, quantitative_ift
from .maps import check_z1z2, f_chi_p
from .partition import PartitionMatching, match_partitions
from .paths import (
    AssumptionReport,
    FlowPath,
    derive_b0,
    lift_to_deformation,
    validate_assumption,
)

__all__ = [
    "AssumptionReport",
    "FlowConfig",
    "FlowPath",
    "IftCertificate",
    "IftProblem",
    "IftSolution",
    "PartitionMatching",
    "check_z1z2",
    "derive_b0",
    "f_chi_p",
    "finite_support_flow",
    "fix_spectrum_flow",
    "half_plane_mass_constant",
    "hermitian_flow",
    "independent_count_target",
    "lift_to_deformation",
    "match_partitions",
    "quantitative_ift",
    "shrink_clusters",
    "validate_assumption",
]
