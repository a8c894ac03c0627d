"""Robust dynamic mean-variance portfolio engine.

Worst-case market scenarios over product uncertainty sets, explicit
time-consistent strategies under the worst case (with and without
jumps, constant and wealth-scaled risk aversion), numerical PDE
verification and Monte Carlo perturbation tests.
"""

import importlib

from .errors import (
    AssumptionViolated,
    BudgetExceeded,
    DerivativeFailure,
    DimensionMismatch,
    InvalidBounds,
    NonBankruptcyViolated,
    NotPositiveDefinite,
    RobustMVError,
    SchemaError,
)
from .model import (
    CompoundPoissonBounds,
    CompoundPoissonJumps,
    Criterion,
    DiscreteLevyBounds,
    DiscreteLevyJumps,
    JumpSizeLaw,
    Scenario,
    ScenarioArrays,
    UncertaintySet,
    WealthDynamics,
    adjusted_moments,
    build_covariance,
    nonbankruptcy_intervals,
    nonbankruptcy_violations,
)
# the solvers load on first use (PEP 562), so that importing the package
# and parsing a problem file compile none of them
_LAZY = {
    "worst_case": (
        "WorstCaseResult",
        "corner_scenarios",
        "find_worst_case",
        "premium_sharpe_form",
        "risk_premium",
        "sample_scenario_arrays",
        "sample_scenarios",
        "scenario_premium",
        "worst_case_numeric",
        "worst_case_optimality_slack",
        "worst_case_two_asset",
    ),
    "closed_form": (
        "ClosedFormSolution",
        "NonBankruptcyReport",
        "OdeGrids",
        "solve",
        "solve_compound_poisson",
        "solve_growth_factors",
        "solve_log_return",
        "solve_terminal_wealth",
        "solve_wealth_scaled",
    ),
    "pde_check": (
        "OperatorSet",
        "ResidualTable",
        "SaddleReport",
        "default_grid",
        "residual_grid",
        "saddle_check",
        "saddle_objective",
        "with_scaled_value",
    ),
    "simulate": (
        "RNG_LAYOUT",
        "ConstantStrategy",
        "JEstimate",
        "PathBatch",
        "PerturbationReport",
        "ShockCache",
        "SimConfig",
        "SolutionStrategy",
        "SplicedScenario",
        "SplicedStrategy",
        "estimate_J",
        "paired_difference",
        "perturb_equilibrium",
        "perturb_worst_case",
        "simulate_paths",
        "simulate_solution",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}
__all__ = sorted([name for name in globals() if not name.startswith("_")
                  and name not in ("importlib", "errors", "model")] + list(_HOME))


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_LAZY))


__version__ = "0.1.0"
