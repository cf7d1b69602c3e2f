"""Continuous-time walks among heavy-tailed random conductances.

Tools for the killed walk on finite lattice domains whose i.i.d. edge weights
have the lower tail exp(-dcoef * x**-eta): exact simulation, occupation and
environment rate functions, the domain's variational constant, the Dirichlet
spectrum with exact non-exit probabilities, pathwise changes of measure, and
annealed rare-event estimators.
"""

__version__ = "0.1.0"

from .conductance import (
    ConductanceField,
    field_from_json,
    field_to_json,
    log_prior_density,
    optimal_profile,
    sample_field,
    scale_field,
    site_totals,
)
from .domain import (
    Domain,
    Edge,
    box_domain,
    build_domain,
    domain_from_json,
    domain_to_json,
)
from .errors import RwrcError
from .experiments import (
    AnnealedEstimate,
    ExperimentConfig,
    annealed_nonexit_is,
    annealed_nonexit_mc,
    annealed_nonexit_quadrature,
    ldp_point_check,
    run_cli,
    tauberian_check,
)
from .girsanov import (
    BoxSet,
    PointSet,
    VertexSet,
    comparison_bound_check,
    feynman_kac_upper_bound,
    girsanov_log_density,
    reweighted_probability,
)
from .profiles import ProbabilityProfile, delta_profile, edge_differences, uniform_profile
from .rates import check_infimum_identity, dv_rate_I, env_rate_H, joint_rate_J, k_const
from .spectral import (
    DirichletOperator,
    SpectralDecomposition,
    assemble,
    eigen,
    eigen_tail,
    sandwich_check,
    semigroup_nonexit,
)
from .tail_law import TailLaw, cdf, log_cdf, log_density, quantile, sample
from .transforms import log_laplace_transform, log_pair_sum_tail
from .variational import VariationalResult, brute_force_L, objective, solve_L
from .walk import PathRecord, nonexit_mc, occupation_mc, simulate
