"""Numerical laboratory for parabolic-elliptic chemotaxis systems with
growth sources and nonlinear secretion: solvers, regime classifiers,
stability/bifurcation analysis, and comparison-ODE validators."""

__version__ = "0.1.0"

from .compare_ode import (EnvelopeTrajectories, SandwichTrajectory, check_sandwich,
                          envelope_odes, sandwich_contraction_rate, solve_sandwich)
from .diagnostics import SeriesFit, fit_exponential_decay
from .elliptic import elliptic_identity_residual, solve_helmholtz
from .evolve import RunReport, SimState, adapt_dt, run, step
from .grid import Field, Grid, make_grid
from .model import (Kinetics, ModelParams, RegimeReport, build_params, classify_regime,
                    growth_zeros, make_kinetics)
from .stability import (BifurcationRow, EquilibriumInfo, bifurcation_table, critical_chi,
                        equilibrium_info, linearization_eigenvalues, mode_eigenvalues,
                        pattern_intervals, singularity_scan)
from .steady import (Branch, SteadyState, ValidationReport, continuation, solve_stationary,
                     validate_steady)

# Every name imported above; the submodules stay reachable as attributes
# (chemolab.stability) but are not exported.
__all__ = [
    "EnvelopeTrajectories", "SandwichTrajectory", "check_sandwich", "envelope_odes",
    "sandwich_contraction_rate", "solve_sandwich",
    "SeriesFit", "fit_exponential_decay",
    "elliptic_identity_residual", "solve_helmholtz",
    "RunReport", "SimState", "adapt_dt", "run", "step",
    "Field", "Grid", "make_grid",
    "Kinetics", "ModelParams", "RegimeReport", "build_params", "classify_regime",
    "growth_zeros", "make_kinetics",
    "BifurcationRow", "EquilibriumInfo", "bifurcation_table", "critical_chi",
    "equilibrium_info", "linearization_eigenvalues", "mode_eigenvalues", "pattern_intervals",
    "singularity_scan",
    "Branch", "SteadyState", "ValidationReport", "continuation", "solve_stationary",
    "validate_steady",
]
