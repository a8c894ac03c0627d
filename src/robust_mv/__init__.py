"""Robust dynamic mean-variance portfolio engine.

Worst-case market scenarios over product uncertainty sets, explicit
time-consistent strategies under the worst case (with and without
jumps, constant and wealth-scaled risk aversion), numerical PDE
verification and Monte Carlo perturbation tests.
"""

from .errors import (
    AssumptionViolated,
    BudgetExceeded,
    DerivativeFailure,
    DimensionMismatch,
    InvalidBounds,
    NonBankruptcyViolated,
    NotPositiveDefinite,
    OdeBlowup,
    RobustMVError,
    SchemaError,
    StepTooLarge,
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
from .worst_case import (
    WorstCaseResult,
    corner_scenarios,
    find_worst_case,
    premium_sharpe_form,
    risk_premium,
    sample_scenario_arrays,
    sample_scenarios,
    scenario_premium,
    worst_case_numeric,
    worst_case_optimality_slack,
    worst_case_two_asset,
)
from .closed_form import (
    ClosedFormSolution,
    NonBankruptcyReport,
    OdeConfig,
    OdeGrids,
    solve,
    solve_compound_poisson,
    solve_growth_factors,
    solve_log_return,
    solve_terminal_wealth,
    solve_wealth_scaled,
)
from .pde_check import (
    OperatorSet,
    ResidualTable,
    SaddleReport,
    default_grid,
    residual_grid,
    saddle_check,
    saddle_objective,
    with_scaled_value,
)
from .simulate import (
    RNG_LAYOUT,
    ConstantStrategy,
    JEstimate,
    PathBatch,
    PerturbationReport,
    ShockCache,
    SimConfig,
    SolutionStrategy,
    SplicedScenario,
    SplicedStrategy,
    estimate_J,
    paired_difference,
    perturb_equilibrium,
    perturb_worst_case,
    simulate_paths,
    simulate_solution,
)

__version__ = "0.1.0"
