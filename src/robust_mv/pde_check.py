"""Numerical verification of the equilibrium PDE structure.

The solved strategies are certified by substitution: the generator of
the controlled state applied to the solution components must vanish at
the equilibrium pair, and the saddle objective

    F(alpha, theta) = (generator of V) - lam * (quadratic variation of g)

(equivalently, in objective form, A f + 2 lam g A g, which agrees with
the value form identically for constant aversion) must be nonpositive
in alpha at the worst case and nonnegative in theta at the equilibrium
strategy, vanishing at the pair.  `residual_grid` checks the equation
systems on a lattice; `saddle_check` samples the two inequalities.

Derivatives use the solutions' analytic partials when present and
fourth-order central differences otherwise.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DerivativeFailure
from .fields import ScalarField
from .model import (
    Criterion,
    Scenario,
    ScenarioArrays,
    UncertaintySet,
    WealthDynamics,
)
from .worst_case import sample_scenario_arrays

# widths of the fourth-order central stencils: the x step is
# _FD_X_REL (1 + |x|), the t step _FD_T_REL times the horizon length
_FD_X_REL = 1e-5
_FD_T_REL = 1e-6
# saddle_check draws strategies from a ball of _SADDLE_RADIUS |alpha_hat|
# around alpha_hat, with tolerance _SADDLE_EPS_REL (1 + premium)(1 + |x|)
_SADDLE_RADIUS = 10.0
_SADDLE_EPS_REL = 1e-9


def _fd4_first(f: Callable, z, h):
    return (-f(z + 2 * h) + 8 * f(z + h) - 8 * f(z - h) + f(z - 2 * h)) / (12.0 * h)


def _fd4_second(f: Callable, z, h):
    return (
        -f(z + 2 * h) + 16 * f(z + h) - 30 * f(z) + 16 * f(z - h) - f(z - 2 * h)
    ) / (12.0 * h * h)


def _out(value):
    """Numpy scalar for a 0-d result, the array otherwise."""
    return value[()] if isinstance(value, np.ndarray) else value


class OperatorSet:
    """Generator, quadratic-variation and jump operators for one dynamics.

    All operators evaluate scalar fields at points (t, x) for a given
    (alpha, theta) and broadcast over leading sample axes: t and x of
    shape (...), alpha (..., n), and theta a `Scenario` or a
    `ScenarioArrays` stack; scalar inputs give a scalar.  The jump
    integral runs over the finite atom table of the scenario (compound
    Poisson types are represented by their moment-preserving two-point
    surrogates).  The table is finite, so the generator is written
    uncompensated: the raw drift, plus w (psi(t, x + zeta) - psi(t, x))
    for every atom.
    """

    def __init__(self, dynamics: WealthDynamics, span: float, use_analytic: bool = True):
        self.dynamics = dynamics
        self.span = span
        self.use_analytic = use_analytic

    # --- derivatives --------------------------------------------------------

    def partials(self, field: ScalarField, t, x):
        """(psi_t, psi_x, psi_xx) at (t, x)."""
        if self.use_analytic and field.has_analytic:
            return field.dt(t, x), field.dx(t, x), field.dxx(t, x)
        h_x = _FD_X_REL * (1.0 + np.abs(x))
        h_t = _FD_T_REL * self.span
        if np.any(x + 2 * h_x == x) or np.any(t + 2 * h_t == t):
            raise DerivativeFailure(f"stencil width underflowed at (t={t}, x={x})")
        ft = _fd4_first(lambda s: field.value(s, x), t, h_t)
        fx = _fd4_first(lambda z: field.value(t, z), x, h_x)
        fxx = _fd4_second(lambda z: field.value(t, z), x, h_x)
        return ft, fx, fxx

    # --- operators ------------------------------------------------------------

    def jump_integral(self, field: ScalarField, alpha: np.ndarray, theta: Scenario | ScenarioArrays,
                      t, x):
        """Sum over atoms of weight (psi(t, x + zeta) - psi(t, x))."""
        arr = theta.arrays
        if arr.atom_weight.shape[0] == 0:
            return 0.0
        base = field.value(t, x)
        total = 0.0
        for vec, weight in zip(arr.atom_vec, arr.atom_weight):
            zeta = self.dynamics.jump_size(x, alpha, vec)
            total = total + weight * (field.value(t, x + zeta) - base)
        return _out(total)

    def generator(self, field: ScalarField, alpha: np.ndarray, theta: Scenario | ScenarioArrays,
                  t, x):
        """Full generator of the controlled state: psi_t + eta psi_x +
        ||xi||^2 psi_xx / 2 with the raw drift eta, plus the jump integral."""
        ft, fx, fxx = self.partials(field, t, x)
        dyn = self.dynamics
        val = ft + dyn.drift(alpha, theta) * fx + 0.5 * dyn.diffusion_sq(alpha, theta) * fxx
        return _out(val + self.jump_integral(field, alpha, theta, t, x))

    def quadratic_variation(self, field: ScalarField, alpha: np.ndarray,
                            theta: Scenario | ScenarioArrays, t, x):
        """Carried quadratic variation of the field: ||xi||^2 psi_x^2 plus
        the jump term sum_atoms w (psi(t, x + zeta) - psi(t, x))^2.

        The jump term is what makes the value-form and objective-form
        saddle objectives agree identically under jump dynamics.
        """
        fx = self.partials(field, t, x)[1]
        total = self.dynamics.diffusion_sq(alpha, theta) * fx * fx
        arr = theta.arrays
        if arr.atom_weight.shape[0]:
            base = field.value(t, x)
            for vec, weight in zip(arr.atom_vec, arr.atom_weight):
                zeta = self.dynamics.jump_size(x, alpha, vec)
                total = total + weight * (field.value(t, x + zeta) - base) ** 2
        return _out(total)


# ---------------------------------------------------------------------------
# solution adapters
# ---------------------------------------------------------------------------


class _SolutionView:
    """Light delegate allowing probe tests to swap individual fields."""

    def __init__(self, base, v_field=None, g_field=None):
        self.kind = base.kind
        self.criterion = base.criterion
        self.worst_case = base.worst_case
        self.premium = base.premium
        self.alpha_hat = base.alpha_hat
        self.V_field = v_field if v_field is not None else base.V_field
        self.g_field = g_field if g_field is not None else base.g_field
        self.f_field = base.f_field


def with_scaled_value(sol, factor: float) -> _SolutionView:
    """The same solution with V (and its partials) multiplied by a constant;
    a falsification probe for the residual and saddle checks."""
    return _SolutionView(sol, v_field=sol.V_field.scaled(factor))


def saddle_objective(sol, ops: OperatorSet, alpha: np.ndarray,
                     theta: Scenario | ScenarioArrays, t, x):
    """F(alpha, theta) at (t, x) for the solution's criterion; broadcasts
    over sample axes like the operators.

    Constant aversion: generator of V minus lam times the quadratic
    variation of g.  Wealth-scaled aversion: objective form
    A f^x + 2 lam(x) g A g with the aversion argument frozen at x.
    """
    lam = sol.criterion.lam
    if sol.kind == "wealth_scaled":
        f_field = sol.f_field(y=x)
        g_field = sol.g_field
        af = ops.generator(f_field, alpha, theta, t, x)
        ag = ops.generator(g_field, alpha, theta, t, x)
        return af + 2.0 * (lam / x) * g_field.value(t, x) * ag
    av = ops.generator(sol.V_field, alpha, theta, t, x)
    hg = ops.quadratic_variation(sol.g_field, alpha, theta, t, x)
    return av - lam * hg


# ---------------------------------------------------------------------------
# residual grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualRow:
    t: float
    x: float
    eq_id: str
    residual: float


@dataclass(frozen=True)
class ResidualTable:
    rows: tuple[ResidualRow, ...]

    @property
    def max_abs(self) -> float:
        return max((abs(r.residual) for r in self.rows), default=0.0)

    def max_by_equation(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for r in self.rows:
            out[r.eq_id] = max(out.get(r.eq_id, 0.0), abs(r.residual))
        return out

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "eq_id", "residual"])
            for r in self.rows:
                writer.writerow([repr(float(r.t)), repr(float(r.x)), r.eq_id,
                                 repr(float(r.residual))])


def _x_window(criterion: Criterion, n: int = 2) -> np.ndarray:
    """n evenly spaced states from the low to the high end of the checked
    x-range: x0 [1/2, 2] for wealth-scaled aversion (strictly positive),
    x0 + (1 + |x0|) [-1/2, 1] otherwise."""
    if criterion.kind == "wealth_scaled":
        return criterion.x0 * np.linspace(0.5, 2.0, n)
    return criterion.x0 + (1.0 + abs(criterion.x0)) * np.linspace(-0.5, 1.0, n)


def default_grid(criterion: Criterion, nt: int = 10, nx: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """Interior (t, x) lattice: t away from both endpoints, x over `_x_window`."""
    t_nodes = criterion.t0 + criterion.span * np.linspace(0.05, 0.95, nt)
    return t_nodes, _x_window(criterion, nx)


def residual_grid(sol, t_nodes: Sequence[float] | None = None,
                  x_nodes: Sequence[float] | None = None,
                  nt: int = 10, nx: int = 10,
                  use_analytic: bool = True) -> ResidualTable:
    """Evaluate every equation of the applicable system at the equilibrium
    pair on a (t, x) lattice.

    Constant aversion checks both the value-form system (value equation
    plus the conditional-mean equation) and the objective-form system
    (objective equation, mean equation and their combination).  The
    wealth-scaled kind checks the objective-form system only, which is
    the one its solution solves.
    """
    criterion = sol.criterion
    if t_nodes is None or x_nodes is None:
        t_default, x_default = default_grid(criterion, nt, nx)
        t_nodes = t_default if t_nodes is None else t_nodes
        x_nodes = x_default if x_nodes is None else x_nodes
    dynamics = WealthDynamics.for_criterion(criterion)
    ops = OperatorSet(dynamics, criterion.span, use_analytic=use_analytic)
    theta = sol.worst_case.scenario

    # every lattice point at once: t outer, x inner
    t_nodes = np.asarray(t_nodes, dtype=float)
    x_nodes = np.asarray(x_nodes, dtype=float)
    t = np.repeat(t_nodes, x_nodes.size)
    x = np.tile(x_nodes, t_nodes.size)
    alpha = sol.alpha_hat(t, x)
    g_field = sol.g_field
    ag = ops.generator(g_field, alpha, theta, t, x)
    af = ops.generator(sol.f_field(y=x), alpha, theta, t, x)
    columns = {"mean_pde": ag}
    if sol.kind != "wealth_scaled":
        av = ops.generator(sol.V_field, alpha, theta, t, x)
        columns["hjb_value"] = av - criterion.lam * ops.quadratic_variation(g_field, alpha, theta, t, x)
    columns["objective_pde"] = af
    columns["hjb_objective"] = af + 2.0 * criterion.risk_aversion_at(x) * g_field.value(t, x) * ag
    values = {eq: v.tolist() for eq, v in columns.items()}
    return ResidualTable(tuple(
        ResidualRow(ti, xi, eq, values[eq][i])
        for i, (ti, xi) in enumerate(zip(t.tolist(), x.tolist()))
        for eq in columns
    ))


# ---------------------------------------------------------------------------
# saddle sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SaddleViolation:
    side: str
    value: float
    eps: float
    t: float
    x: float
    index: int


@dataclass(frozen=True)
class SaddleReport:
    """Sampled check of F(alpha, theta_hat) <= eps, F(alpha_hat, theta) >= -eps
    and |F(alpha_hat, theta_hat)| <= eps, with eps = 1e-9 scale."""

    samples: int
    seed: int
    saddle_value: float
    saddle_eps: float
    violations: tuple[SaddleViolation, ...]
    max_alpha_side: float
    min_theta_side: float

    @property
    def ok(self) -> bool:
        return not self.violations and abs(self.saddle_value) <= self.saddle_eps


def saddle_check(sol, uset: UncertaintySet, samples: int = 1000, seed: int = 0) -> SaddleReport:
    """Randomized saddle-structure verification.

    Strategies are drawn from a ball of radius 10 |alpha_hat| around
    alpha_hat, scenarios uniformly from the set (the worst case's own
    jump spec is attached when the set itself carries no jump
    ambiguity).  Points (t, x) are sampled per draw; the tolerance is
    1e-9 (1 + premium)(1 + |x|).
    """
    criterion = sol.criterion
    rng = np.random.default_rng([int(seed), 0x5A])
    dynamics = WealthDynamics.for_criterion(criterion)
    ops = OperatorSet(dynamics, criterion.span)
    theta_hat = sol.worst_case.scenario
    fixed_jump = theta_hat.jump if uset.jump_bounds is None else None
    thetas = sample_scenario_arrays(uset, samples, rng, fixed_jump=fixed_jump)

    t_lo = criterion.t0 + 0.02 * criterion.span
    t_hi = criterion.horizon - 0.02 * criterion.span
    x_lo, x_hi = _x_window(criterion).tolist()

    def eps_at(x):
        return _SADDLE_EPS_REL * (1.0 + sol.premium) * (1.0 + np.abs(x))

    t_mid = 0.5 * (t_lo + t_hi)
    x_mid = 0.5 * (x_lo + x_hi)
    a_mid = np.atleast_1d(sol.alpha_hat(t_mid, x_mid))
    saddle_value = float(saddle_objective(sol, ops, a_mid, theta_hat, t_mid, x_mid))
    saddle_eps = float(eps_at(x_mid))

    # the draws stay one sample at a time, interleaved as (t, x, direction,
    # radius), so every seed keeps its stream
    n = a_mid.size
    t = np.empty(samples)
    x = np.empty(samples)
    unit = np.zeros((samples, n))
    shrink = np.zeros(samples)
    for i in range(samples):
        t[i] = rng.uniform(t_lo, t_hi)
        x[i] = rng.uniform(x_lo, x_hi)
        direction = rng.standard_normal(n)
        norm = float(np.linalg.norm(direction))
        if norm != 0:
            unit[i] = direction / norm
            shrink[i] = rng.random() ** (1.0 / n)

    eps = eps_at(x)
    a_hat = np.reshape(sol.alpha_hat(t, x), (samples, n))
    radius = _SADDLE_RADIUS * np.maximum(np.linalg.norm(a_hat, axis=1), 1e-12)
    alpha = a_hat + unit * radius[:, None] * shrink[:, None]
    f_alpha = saddle_objective(sol, ops, alpha, theta_hat, t, x)
    f_theta = saddle_objective(sol, ops, a_hat, thetas, t, x)

    violations: list[SaddleViolation] = []
    for i in np.flatnonzero((f_alpha > eps) | (f_theta < -eps)).tolist():
        point = (float(eps[i]), float(t[i]), float(x[i]), i)
        if f_alpha[i] > eps[i]:
            violations.append(SaddleViolation("alpha", float(f_alpha[i]), *point))
        if f_theta[i] < -eps[i]:
            violations.append(SaddleViolation("theta", float(f_theta[i]), *point))

    return SaddleReport(
        samples=samples,
        seed=seed,
        saddle_value=saddle_value,
        saddle_eps=saddle_eps,
        violations=tuple(violations),
        max_alpha_side=float(np.max(f_alpha, initial=-math.inf)),
        min_theta_side=float(np.min(f_theta, initial=math.inf)),
    )
