"""Treatment targeting on social networks via equilibrium welfare.

Computes individualized binary-treatment allocations that maximize the
mean equilibrium outcome of a sequential binary-choice game on a network.
The stationary outcome law is a Gibbs distribution; the package evaluates
it exactly on small networks, approximates it by naive mean field or by
single-site simulation on large ones, optimizes allocations greedily under
a capacity constraint, and reports closed-form performance guarantees.
"""

from .allocate import GreedyStep, bfva, greedy, random_allocation_welfare
from .bounds import (
    BoundsReport,
    asymptotic_kl_constants,
    bounds_report,
    curvature_margin,
    guarantee_factor,
    kl_upper_bound,
    regret_upper_bound,
)
from .dynamics import mcmc_welfare, stationarity_check
from .exact import (
    ExactDistribution,
    ExactSizeError,
    brute_force_optimal,
    enumerate_gibbs,
    exact_kl,
    exact_welfare,
    welfare_of_allocations,
)
from .meanfield import (
    MeanFieldSolution,
    SolverSettings,
    approx_welfare,
    batch_fixed_point,
    contraction_certificate,
    fixed_point_solve,
    foc_residual,
    solve_allocation,
    variational_objective,
)
from .model import (
    Allocation,
    Instance,
    ThetaParams,
    WeightSystem,
    feasible_allocations,
    make_instance,
    potential,
    utility,
    weights,
)
from .network import (
    Network,
    SimilarityKernel,
    erdos_renyi,
    load_covariates,
    load_network,
    similarity_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "BoundsReport",
    "ExactDistribution",
    "ExactSizeError",
    "GreedyStep",
    "Instance",
    "MeanFieldSolution",
    "Network",
    "SimilarityKernel",
    "SolverSettings",
    "ThetaParams",
    "WeightSystem",
    "approx_welfare",
    "asymptotic_kl_constants",
    "batch_fixed_point",
    "bfva",
    "bounds_report",
    "brute_force_optimal",
    "contraction_certificate",
    "curvature_margin",
    "enumerate_gibbs",
    "erdos_renyi",
    "exact_kl",
    "exact_welfare",
    "feasible_allocations",
    "fixed_point_solve",
    "foc_residual",
    "greedy",
    "guarantee_factor",
    "kl_upper_bound",
    "load_covariates",
    "load_network",
    "make_instance",
    "mcmc_welfare",
    "potential",
    "random_allocation_welfare",
    "regret_upper_bound",
    "similarity_matrix",
    "solve_allocation",
    "stationarity_check",
    "utility",
    "variational_objective",
    "weights",
    "welfare_of_allocations",
]
