"""Optimal linear dynamic output feedback for discrete-time linear systems
with multiplicative (state-, input-, and output-dependent) noise.

The package solves the coupled control/estimation Riccati equations of the
jointly optimal linear compensator by policy iteration or value iteration,
evaluates policies through generalized Lyapunov equations, and ships a
benchmark CLI with Monte-Carlo cross-validation.
"""

from . import exceptions
from .bench import (
    ComparisonResult,
    ConvergenceRecord,
    RolloutEstimate,
    convergence_metric,
    monte_carlo_cost,
    pendulum_problem,
    random_problem,
    run_comparison,
)
from .model import (
    Controller,
    CostModel,
    NoiseModel,
    NoiseTerm,
    ProblemInstance,
    SystemModel,
    ValidationReport,
    Violation,
    load_controller,
    load_problem,
    save_controller,
    save_problem,
    validate,
)
from .moments import (
    AugmentedClosedLoop,
    ValueCovarianceTuple,
    build_augmented,
    build_second_moment_matrix,
    spectral_radius,
)
from .riccati import (
    HistoryEntry,
    QFunctionPair,
    SolveReport,
    gain_operators,
    noise_free_controller,
    open_loop_controller,
    policy_iteration_solve,
    q_operators,
    riccati_residual,
    stabilizing_initial_controller,
    value_iteration_solve,
)

__version__ = "0.1.0"

__all__ = [
    "exceptions",
    "__version__",
    # model
    "Controller",
    "CostModel",
    "NoiseModel",
    "NoiseTerm",
    "ProblemInstance",
    "SystemModel",
    "ValidationReport",
    "Violation",
    "load_controller",
    "load_problem",
    "save_controller",
    "save_problem",
    "validate",
    # moments
    "AugmentedClosedLoop",
    "ValueCovarianceTuple",
    "build_augmented",
    "build_second_moment_matrix",
    "spectral_radius",
    # riccati
    "HistoryEntry",
    "QFunctionPair",
    "SolveReport",
    "gain_operators",
    "noise_free_controller",
    "open_loop_controller",
    "policy_iteration_solve",
    "q_operators",
    "riccati_residual",
    "stabilizing_initial_controller",
    "value_iteration_solve",
    # bench
    "ComparisonResult",
    "ConvergenceRecord",
    "RolloutEstimate",
    "convergence_metric",
    "monte_carlo_cost",
    "pendulum_problem",
    "random_problem",
    "run_comparison",
]
