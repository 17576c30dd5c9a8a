"""mfgkit: variational solvers for crowd-interaction games on the torus.

The package is organized around a single idea: both the equilibrium and
the planner version of the dynamic problem, the stationary congestion
problem, and the time-periodic branches are critical-point problems of
explicit payoff functionals, and every functional here returns its exact
discrete derivative fields alongside its value. Solvers are then just
root finders for those derivative fields, and the test suite holds the
whole chain to roundoff-level identities rather than eyeball tolerances.

Modules
-------
``grids`` / ``spectral``
    Uniform torus and cylinder grids with FFT-based calculus whose
    gradient/divergence pair is exactly skew-adjoint.
``hamiltonians``
    Separable and congestion Hamiltonian families with couplings,
    antiderivatives, Legendre transforms, and monotonicity probes.
``functionals``
    The two payoff forms and their stationary/multiplier variants, the
    convex congestion objectives, and the cost functionals.
``stationary``
    Solvers for the stationary congestion problem (flux form, 2-D stream
    form, and the concave-exponent potential route): a projected
    Barzilai-Borwein descent brings the state into Newton's basin, and a
    Newton-Krylov polish of the PDE rows produces the certified solution.
``dynamics``
    Matrix-free Newton-Krylov solvers, with Eisenstat-Walker forcing
    terms, for the finite-horizon equilibrium and planner systems on an
    implicit-midpoint time grid.
``bifurcation``
    Linearized analysis at the uniform state and amplitude continuation
    of time-periodic branches.
``cli``
    The ``mfgkit`` command line front end (JSON configs in,
    deterministic JSON/CSV/field files out).
"""

from .errors import (
    CheckError,
    ConfigError,
    CurlError,
    GridError,
    MFGKitError,
    ModelError,
    PositivityError,
    SolverError,
)
from .grids import SpaceTimeGrid, TorusGrid
from .fields import DensityField, ScalarField, VectorField, load_field, save_field
from .hamiltonians import (
    Coupling,
    CongestionHamiltonian,
    SeparableHamiltonian,
    SpatialTerm,
    check_monotonicity,
)
from .functionals import (
    FunctionalReport,
    GameState,
    StationaryState,
    a_cost,
    b_cost,
    hamiltonian_profile,
    j_functional,
    optimal_control,
    phi_bb,
    psi1,
    psi1_hat,
    psi1_tilde,
    psi2,
    psi2_hat,
    psi2_tilde,
    social_cost,
)
from .stationary import (
    StationaryResult,
    solve_bb,
    solve_bb_2d_stream,
    solve_potential_a_gt_1,
    u_from_w,
    w_from_u,
)
from .dynamics import (
    SolveResult,
    compare_equilibrium_vs_planner,
    solve_mfc,
    solve_mfg,
)
from .bifurcation import (
    BifurcationBranch,
    BranchPoint,
    KernelReport,
    PeriodicState,
    analytic_kernel_fields,
    continue_branch,
    critical_period,
    crossing_number,
    default_periodic_coupling,
    eval_G,
    eval_g,
    kernel_at,
    map_to_original,
    periodic_grid,
    sigma_from_operator,
    sigma_h_root,
    sigma_slope,
    sigma_slope_exact,
)
from .config import load_config

__version__ = "0.1.0"

__all__ = [
    "MFGKitError",
    "GridError",
    "PositivityError",
    "CurlError",
    "ModelError",
    "ConfigError",
    "SolverError",
    "CheckError",
    "TorusGrid",
    "SpaceTimeGrid",
    "ScalarField",
    "VectorField",
    "DensityField",
    "save_field",
    "load_field",
    "Coupling",
    "SpatialTerm",
    "SeparableHamiltonian",
    "CongestionHamiltonian",
    "check_monotonicity",
    "GameState",
    "StationaryState",
    "FunctionalReport",
    "psi1",
    "psi2",
    "psi1_hat",
    "psi2_hat",
    "psi1_tilde",
    "psi2_tilde",
    "phi_bb",
    "j_functional",
    "optimal_control",
    "social_cost",
    "a_cost",
    "b_cost",
    "hamiltonian_profile",
    "StationaryResult",
    "solve_bb",
    "solve_bb_2d_stream",
    "solve_potential_a_gt_1",
    "w_from_u",
    "u_from_w",
    "SolveResult",
    "solve_mfg",
    "solve_mfc",
    "compare_equilibrium_vs_planner",
    "PeriodicState",
    "BifurcationBranch",
    "BranchPoint",
    "KernelReport",
    "periodic_grid",
    "critical_period",
    "default_periodic_coupling",
    "eval_G",
    "eval_g",
    "kernel_at",
    "analytic_kernel_fields",
    "crossing_number",
    "sigma_h_root",
    "sigma_from_operator",
    "sigma_slope",
    "sigma_slope_exact",
    "continue_branch",
    "map_to_original",
    "load_config",
    "__version__",
]
