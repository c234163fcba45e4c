"""Parallel-in-time integration with a spectral collocation fine propagator.

The package combines a predictor-corrector iteration over a coarse time grid
(`parareal`), a Chebyshev-Gauss collocation solver used as the fine
propagator (`chebyshev`, `collocation`), a family of comparison integrators
with their linear stability functions (`propagators`), contraction-factor
analytics (`analysis`), a catalog of test problems (`problems`) and a CSV
emitting command-line driver (`cli`).
"""

from .analysis import (
    Branch,
    ContractionReport,
    MminResult,
    Z0_STAR,
    Z1_STAR,
    contraction,
    find_threshold_roots,
    m_min,
    rho_over_interval,
)
from .chebyshev import CgPointSet, CollocationOperator, build_operator, cg_points, chebyshev_eval
from .collocation import CollocationSolution, picard_sweep, solve_linear, solve_nonlinear
from .errors import (
    MaxIterationsError,
    NonConvergenceError,
    NonFiniteRhsError,
    PointSearchError,
    SingularSystemError,
    SolverError,
    SweepError,
)
from .parareal import ConvergenceRecord, PararealConfig, PararealState, initialize, iterate, run
from .problems import (
    BurgersProblem,
    IvpProblem,
    KeplerProblem,
    SpdLinearProblem,
    burgers_exact,
    kepler_reference,
    spd_catalog,
)
from .propagators import PropagatorKind, PropagatorSpec, advance, parse_spec, stability

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "BurgersProblem",
    "CgPointSet",
    "CollocationOperator",
    "CollocationSolution",
    "ContractionReport",
    "ConvergenceRecord",
    "IvpProblem",
    "KeplerProblem",
    "MaxIterationsError",
    "MminResult",
    "NonConvergenceError",
    "NonFiniteRhsError",
    "PararealConfig",
    "PararealState",
    "PointSearchError",
    "PropagatorKind",
    "PropagatorSpec",
    "SingularSystemError",
    "SolverError",
    "SpdLinearProblem",
    "SweepError",
    "Z0_STAR",
    "Z1_STAR",
    "advance",
    "build_operator",
    "burgers_exact",
    "cg_points",
    "chebyshev_eval",
    "contraction",
    "find_threshold_roots",
    "initialize",
    "iterate",
    "kepler_reference",
    "m_min",
    "parse_spec",
    "picard_sweep",
    "rho_over_interval",
    "run",
    "solve_linear",
    "solve_nonlinear",
    "spd_catalog",
    "stability",
]
