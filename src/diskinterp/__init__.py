"""Cluster interpolation schemes, density functionals and d-bar numerics
for analytic function spaces on the unit disk."""

from .density import (
    DensityReport,
    density_quotient,
    default_density_report,
    estimate_upper_densities,
    k_hat,
    k_weight,
    local_mean,
)
from .dbar import (
    GridFunction,
    PolarGridSpec,
    TauSpec,
    cauchy_transform,
    dbar_residual,
    green_potential,
    invariant_laplacian,
    tau_eval,
    tau_smooth,
    weighted_space_norm,
)
from .geometry import (
    DiskPoint,
    EuclideanDisk,
    PseudoDisk,
    hyp_sum,
    invariant_area_weight,
    moebius,
    pseudo_to_euclidean,
    psi,
    rho,
)
from .interpolation import (
    JetConstraint,
    JetTargets,
    SolveReport,
    blaschke_bound_check,
    example1_norm,
    example2_norm,
    example3_norm,
    example3_representative,
    interpolation_constant_p2,
    interpolation_constant_probe,
    lagrange_cluster_interpolant,
    o_interp_weight,
    quotient_norm_general,
    quotient_norm_p2,
    solve_p2,
    target_norm,
    two_point_probe_constant,
    weighted_norms,
)
from .schemes import (
    AdmissibilityReport,
    Cluster,
    Domain,
    InterpolationScheme,
    PointSequence,
    auto_epsilon,
    bounded_density,
    build_maximal_scheme,
    build_minimal_scheme,
    check_admissibility,
    overlap_bound,
)

__version__ = "0.1.0"
