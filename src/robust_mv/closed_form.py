"""Explicit time-consistent strategies under the worst-case scenario.

Four solved cases, each returning a `ClosedFormSolution` bundling the
strategy alpha_hat, the value function V, the conditional-mean function
g (g(t, x) = E[X_T | X_t = x] under the equilibrium pair), and the
mean-minus-lambda-second-moment functional f, together with the worst
case they were built from:

* terminal wealth, constant risk aversion:
      V = x + P (T-t) / (4 lam),        alpha_hat = Sigma^{-1} b / (2 lam)
* log return, constant risk aversion:
      V = x + P (T-t) / (2 (1+2 lam)),  alpha_hat = Sigma^{-1} b / (1+2 lam)
* terminal wealth with compound Poisson jumps: the terminal-wealth
  formulas with (b, Sigma) replaced by the jump-adjusted (b_F, Sigma_F),
  plus a per-jump-type admissibility report (alpha.J_l must lie in [0,1]);
* wealth-scaled risk aversion lam(x) = lam / x with discrete Levy jumps:
      g = A(t) x,  f = A(t) x - lam B(t) x,  V = {A + lam (A^2 - B)} x,
      alpha_hat = Sigma_F^{-1} b_F (A + 2 lam (A^2 - B)) / (2 lam B) * x,
  where (A, B) solve a two-dimensional backward ODE system with
  A(T) = B(T) = 1, integrated by classical fourth-order Runge-Kutta.

Everywhere P denotes the worst-case risk premium b' Sigma^{-1} b (or its
jump-adjusted version).
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBounds, OdeBlowup, StepTooLarge
from .fields import ScalarField
from .model import (
    CompoundPoissonJumps,
    Criterion,
    DiscreteLevyJumps,
    JumpSpec,
    UncertaintySet,
    nonbankruptcy_intervals,
    nonbankruptcy_violations,
)
from .worst_case import WorstCaseResult, find_worst_case

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class NonBankruptcyReport:
    """Exposures alpha.J_l per jump type and the types breaching [0, 1]."""

    exposures: np.ndarray
    violating_types: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violating_types


@dataclass(frozen=True)
class OdeConfig:
    """Backward integrator settings.

    ``h_rel`` is the step as a fraction of the horizon; the integrator
    also runs at half the step and uses the node-wise discrepancy as an
    error estimate, rejected above ``step_tol``.
    """

    h_rel: float = 1e-4
    step_tol: float = 1e-8
    max_value: float = 1e6


@dataclass(frozen=True)
class OdeGrids:
    """RK4 grids of the backward system, ascending in t up to T.

    ``a`` is the mean growth factor (g = A x), ``b`` the second-moment
    growth factor (E[X_T^2 | X_t = x] = B x^2); slopes are the exact ODE
    right-hand sides at the nodes, reused for cubic Hermite
    interpolation between nodes.
    """

    t: np.ndarray
    a: np.ndarray
    b: np.ndarray
    a_slope: np.ndarray
    b_slope: np.ndarray
    step_error: float

    def __post_init__(self) -> None:
        for name in ("t", "a", "b", "a_slope", "b_slope"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        # imported here: scipy.interpolate costs a third of a second at import
        from scipy.interpolate import CubicHermiteSpline

        a_spl = CubicHermiteSpline(self.t, self.a, self.a_slope)
        b_spl = CubicHermiteSpline(self.t, self.b, self.b_slope)
        object.__setattr__(self, "_a_spline", a_spl)
        object.__setattr__(self, "_b_spline", b_spl)
        object.__setattr__(self, "_a_slope_spline", a_spl.derivative())
        object.__setattr__(self, "_b_slope_spline", b_spl.derivative())

    def mean_factor(self, t):
        return self._a_spline(t)

    def second_factor(self, t):
        return self._b_spline(t)

    def mean_factor_slope(self, t):
        return self._a_slope_spline(t)

    def second_factor_slope(self, t):
        return self._b_slope_spline(t)


def _integrate_backward(lam: float, premium: float, t0: float, horizon: float,
                        n_steps: int, max_value: float):
    """Classical RK4 from the terminal condition A(T) = B(T) = 1 down to t0.

    The right-hand sides (dA/dt, dB/dt) of the backward system, written
    out at each of the four stages, are, with m = A + 2 lam (A^2 - B) and
    q = m / (2 lam B),
        A_t = -q P A,
        B_t = -(2 q P + q^2 P) B.
    """
    lam, premium = float(lam), float(premium)
    two_lam = 2.0 * lam
    h = -(horizon - t0) / n_steps
    half_h = 0.5 * h
    a, b = 1.0, 1.0
    t_nodes = np.empty(n_steps + 1)
    a_nodes = np.empty(n_steps + 1)
    b_nodes = np.empty(n_steps + 1)
    t_nodes[0], a_nodes[0], b_nodes[0] = horizon, a, b
    for i in range(1, n_steps + 1):
        # stage 1 needs no guard: b passed the range check of the last step
        q = (a + two_lam * (a * a - b)) / (two_lam * b)
        c = q * premium
        k1a = -c * a
        k1b = -(2.0 * c + q * q * premium) * b
        sa = a + half_h * k1a
        sb = b + half_h * k1b
        if sb <= 0.0:
            raise OdeBlowup("second-moment factor left (0, max] during integration")
        q = (sa + two_lam * (sa * sa - sb)) / (two_lam * sb)
        c = q * premium
        k2a = -c * sa
        k2b = -(2.0 * c + q * q * premium) * sb
        sa = a + half_h * k2a
        sb = b + half_h * k2b
        if sb <= 0.0:
            raise OdeBlowup("second-moment factor left (0, max] during integration")
        q = (sa + two_lam * (sa * sa - sb)) / (two_lam * sb)
        c = q * premium
        k3a = -c * sa
        k3b = -(2.0 * c + q * q * premium) * sb
        sa = a + h * k3a
        sb = b + h * k3b
        if sb <= 0.0:
            raise OdeBlowup("second-moment factor left (0, max] during integration")
        q = (sa + two_lam * (sa * sa - sb)) / (two_lam * sb)
        c = q * premium
        k4a = -c * sa
        k4b = -(2.0 * c + q * q * premium) * sb
        a += h * (k1a + 2.0 * k2a + 2.0 * k3a + k4a) / 6.0
        b += h * (k1b + 2.0 * k2b + 2.0 * k3b + k4b) / 6.0
        t = horizon + i * h
        if not (0.0 < a <= max_value) or not (0.0 < b <= max_value):
            raise OdeBlowup(f"growth factors left (0, {max_value}] at t = {t}")
        t_nodes[i], a_nodes[i], b_nodes[i] = t, a, b
    # ascending t, exact endpoints
    t_nodes[-1] = t0
    return t_nodes[::-1].copy(), a_nodes[::-1].copy(), b_nodes[::-1].copy()


def solve_growth_factors(lam: float, premium: float, t0: float, horizon: float,
                         ode: OdeConfig = OdeConfig()) -> OdeGrids:
    """Integrate the backward system and attach Hermite interpolation.

    The full-step and half-step runs are compared node-wise; their
    maximal discrepancy is recorded as ``step_error`` and must not
    exceed ``ode.step_tol``.  Each solve logs one DEBUG line.
    """
    tic = time.perf_counter()
    n = max(1, round(1.0 / ode.h_rel))
    t_c, a_c, b_c = _integrate_backward(lam, premium, t0, horizon, n, ode.max_value)
    t_f, a_f, b_f = _integrate_backward(lam, premium, t0, horizon, 2 * n, ode.max_value)
    err = max(
        float(np.max(np.abs(a_c - a_f[::2]))),
        float(np.max(np.abs(b_c - b_f[::2]))),
    )
    if err > ode.step_tol:
        raise StepTooLarge(
            f"step-halving estimate {err:.3e} exceeds tolerance {ode.step_tol:.3e}; "
            "reduce h_rel"
        )
    # the right-hand sides at the nodes, as in `_integrate_backward`
    two_lam, premium = 2.0 * float(lam), float(premium)
    q = (a_c + two_lam * (a_c * a_c - b_c)) / (two_lam * b_c)
    c = q * premium
    a_slope = -c * a_c
    b_slope = -(2.0 * c + q * q * premium) * b_c
    _log.debug("ODE solve: %d + %d RK4 steps, step_error %.3g, %.4f s",
               n, 2 * n, err, time.perf_counter() - tic)
    return OdeGrids(t_c, a_c, b_c, a_slope, b_slope, err)


# ---------------------------------------------------------------------------
# the solution object
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedFormSolution:
    """Evaluable strategy/value bundle for one solved case.

    The identity V = f + lam(x) g^2 holds pointwise by construction.
    For the constant-aversion kinds the strategy is constant in (t, x);
    for the wealth-scaled kind it is proportional to wealth with a
    time-varying coefficient read off the ODE grids.
    """

    kind: str
    criterion: Criterion
    worst_case: WorstCaseResult
    premium: float
    direction: np.ndarray
    ode: OdeGrids | None = None
    nonbankruptcy: NonBankruptcyReport | None = None

    def __post_init__(self) -> None:
        d = np.array(self.direction, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "direction", d)

    # --- strategy ---------------------------------------------------------

    @property
    def alpha_coef(self) -> np.ndarray:
        """Constant strategy vector (constant-aversion kinds only: the
        wealth-scaled strategy depends on (t, x), see `alpha_hat`)."""
        if self.kind == "wealth_scaled":
            raise InvalidBounds("the wealth-scaled strategy is not constant; use alpha_hat(t, x)")
        if self.kind == "log_return":
            return self.direction / (1.0 + 2.0 * self.criterion.lam)
        return self.direction / (2.0 * self.criterion.lam)

    def strategy_scale(self, t):
        """Scalar multiplier on `direction`; x-proportional for wealth-scaled."""
        lam = self.criterion.lam
        if self.kind == "wealth_scaled":
            a = self.ode.mean_factor(t)
            b = self.ode.second_factor(t)
            m = a + 2.0 * lam * (a * a - b)
            return m / (2.0 * lam * b)
        if self.kind == "log_return":
            return 1.0 / (1.0 + 2.0 * lam)
        return 1.0 / (2.0 * lam)

    def alpha_hat(self, t: float, x=1.0) -> np.ndarray:
        if self.kind == "wealth_scaled":
            scale = self.strategy_scale(t)
            x_arr = np.asarray(x, dtype=float)
            if x_arr.ndim == 0:
                return self.direction * (scale * float(x_arr))
            return np.outer(scale * x_arr, self.direction)
        coef = self.alpha_coef
        x_arr = np.asarray(x, dtype=float)
        if x_arr.ndim == 0:
            return coef
        return np.broadcast_to(coef, (x_arr.size, coef.size)).copy()

    # --- value / mean / objective functions ---------------------------------

    def _coeffs(self) -> tuple[float, float]:
        """(value slope, mean slope) per unit time-to-go, constant kinds."""
        lam, p = self.criterion.lam, self.premium
        if self.kind == "log_return":
            return p / (2.0 * (1.0 + 2.0 * lam)), (2.0 * lam + 0.5) * p / (1.0 + 2.0 * lam) ** 2
        return p / (4.0 * lam), p / (2.0 * lam)

    def V(self, t, x):
        lam = self.criterion.lam
        if self.kind == "wealth_scaled":
            a = self.ode.mean_factor(t)
            b = self.ode.second_factor(t)
            return (a + lam * (a * a - b)) * x
        a_v, _ = self._coeffs()
        return x + a_v * (self.criterion.horizon - t)

    def g(self, t, x):
        if self.kind == "wealth_scaled":
            return self.ode.mean_factor(t) * x
        _, a_g = self._coeffs()
        return x + a_g * (self.criterion.horizon - t)

    def f(self, t, x, y=None):
        """Mean-minus-lambda-second-moment functional.

        For the wealth-scaled kind the aversion argument y (defaulting
        to x) is kept separate from the state, matching the two-argument
        definition f(t, x, y) = A x - (lam / y) B x^2.
        """
        lam, p = self.criterion.lam, self.premium
        tau = self.criterion.horizon - t
        if self.kind == "wealth_scaled":
            yy = x if y is None else y
            a = self.ode.mean_factor(t)
            b = self.ode.second_factor(t)
            return a * x - (lam / yy) * b * x * x
        if self.kind == "log_return":
            c = 1.0 + 2.0 * lam
            lead = (1.0 - (4.0 * lam * lam + lam) / c**2 * p * tau) * x - lam * x * x
            tail = (p * tau / c) * (0.5 - lam * (2.0 * lam + 0.5) ** 2 / c**3 * p * tau)
            return lead + tail
        return (1.0 - p * tau) * (x + p * tau / (4.0 * lam)) - lam * x * x

    # --- analytic fields for the PDE checker --------------------------------

    @property
    def V_field(self) -> ScalarField:
        lam = self.criterion.lam
        if self.kind == "wealth_scaled":
            ode = self.ode

            def v_t(t, x):
                a, b = ode.mean_factor(t), ode.second_factor(t)
                at, bt = ode.mean_factor_slope(t), ode.second_factor_slope(t)
                return (at + lam * (2.0 * a * at - bt)) * x

            def v_x(t, x):
                a = ode.mean_factor(t)
                return a + lam * (a ** 2 - ode.second_factor(t))

            return ScalarField(
                value=self.V,
                dt=v_t,
                dx=v_x,
                dxx=lambda t, x: 0.0,
            )
        a_v, _ = self._coeffs()
        return ScalarField(
            value=self.V,
            dt=lambda t, x: -a_v,
            dx=lambda t, x: 1.0,
            dxx=lambda t, x: 0.0,
        )

    @property
    def g_field(self) -> ScalarField:
        if self.kind == "wealth_scaled":
            ode = self.ode
            return ScalarField(
                value=self.g,
                dt=lambda t, x: ode.mean_factor_slope(t) * x,
                dx=lambda t, x: ode.mean_factor(t),
                dxx=lambda t, x: 0.0,
            )
        _, a_g = self._coeffs()
        return ScalarField(
            value=self.g,
            dt=lambda t, x: -a_g,
            dx=lambda t, x: 1.0,
            dxx=lambda t, x: 0.0,
        )

    def f_field(self, y=None) -> ScalarField:
        """f as a field in (t, x); for the wealth-scaled kind the aversion
        argument y stays frozen while differentiating (y may be an array
        matching the points the field is evaluated at)."""
        lam = self.criterion.lam
        if self.kind == "wealth_scaled":
            if y is None:
                raise InvalidBounds("wealth-scaled f-field needs an explicit aversion argument y")
            ode = self.ode
            return ScalarField(
                value=lambda t, x: self.f(t, x, y),
                dt=lambda t, x: ode.mean_factor_slope(t) * x
                - (lam / y) * ode.second_factor_slope(t) * x * x,
                dx=lambda t, x: ode.mean_factor(t)
                - (2.0 * lam / y) * ode.second_factor(t) * x,
                dxx=lambda t, x: -(2.0 * lam / y) * ode.second_factor(t),
            )
        v, g = self.V_field, self.g_field
        # f = V - lam g^2 holds exactly, so partials follow the identity
        return ScalarField(
            value=lambda t, x: self.f(t, x),
            dt=lambda t, x: v.dt(t, x) - 2.0 * lam * g.value(t, x) * g.dt(t, x),
            dx=lambda t, x: v.dx(t, x) - 2.0 * lam * g.value(t, x) * g.dx(t, x),
            dxx=lambda t, x: v.dxx(t, x)
            - 2.0 * lam * (g.dx(t, x) ** 2 + g.value(t, x) * g.dxx(t, x)),
        )

    # --- serialization -------------------------------------------------------

    def to_json_dict(self, ode_stride: int = 1) -> dict:
        scen = self.worst_case.scenario
        out = {
            "kind": self.kind,
            "criterion": {
                "kind": self.criterion.kind,
                "lambda": self.criterion.lam,
                "T": self.criterion.horizon,
                "t0": self.criterion.t0,
                "x0": self.criterion.x0,
            },
            "premium": self.premium,
            "direction": self.direction.tolist(),
            "worst_case": {
                "case": self.worst_case.case_label,
                "risk_premium": self.worst_case.risk_premium,
                "manifold": self.worst_case.manifold,
                "drift": scen.drift.tolist(),
                "cov": scen.cov.tolist(),
            },
        }
        if self.worst_case.gap is not None:
            out["worst_case"]["gap"] = self.worst_case.gap
        if scen.jump is not None:
            b_f, sigma_f = self.worst_case.adjusted
            out["worst_case"]["adjusted_drift"] = b_f.tolist()
            out["worst_case"]["adjusted_cov"] = sigma_f.tolist()
        if self.kind == "wealth_scaled":
            s = max(1, int(ode_stride))
            idx = list(range(0, self.ode.t.size - 1, s)) + [self.ode.t.size - 1]
            out["alpha_hat"] = {
                "form": "direction * (A + 2 lam (A^2 - B)) / (2 lam B) * x",
            }
            out["ode"] = {
                "t": self.ode.t[idx].tolist(),
                "A": self.ode.a[idx].tolist(),
                "B": self.ode.b[idx].tolist(),
                "step_error": self.ode.step_error,
            }
        else:
            a_v, a_g = self._coeffs()
            out["alpha_hat"] = self.alpha_coef.tolist()
            out["value_slope"] = a_v
            out["mean_slope"] = a_g
        if self.nonbankruptcy is not None:
            out["nonbankruptcy"] = {
                "exposures": self.nonbankruptcy.exposures.tolist(),
                "violating_types": list(self.nonbankruptcy.violating_types),
                "ok": self.nonbankruptcy.ok,
            }
        return out


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def _resolve_worst(uset, criterion, jump, worst):
    if worst is not None:
        return worst
    return find_worst_case(uset, criterion, jump=jump)


def solve_terminal_wealth(uset: UncertaintySet, criterion: Criterion,
                          worst: WorstCaseResult | None = None) -> ClosedFormSolution:
    """Constant-aversion terminal-wealth strategy under the worst case."""
    if criterion.kind != "terminal_wealth":
        raise InvalidBounds("criterion kind must be terminal_wealth")
    wc = _resolve_worst(uset, criterion, None, worst)
    return ClosedFormSolution(
        kind="terminal_wealth",
        criterion=criterion,
        worst_case=wc,
        premium=wc.risk_premium,
        direction=wc.alpha_direction(),
    )


def solve_log_return(uset: UncertaintySet, criterion: Criterion,
                     worst: WorstCaseResult | None = None) -> ClosedFormSolution:
    """Constant-aversion log-return strategy under the worst case."""
    if criterion.kind != "log_return":
        raise InvalidBounds("criterion kind must be log_return")
    wc = _resolve_worst(uset, criterion, None, worst)
    return ClosedFormSolution(
        kind="log_return",
        criterion=criterion,
        worst_case=wc,
        premium=wc.risk_premium,
        direction=wc.alpha_direction(),
    )


def solve_compound_poisson(uset: UncertaintySet, criterion: Criterion,
                           jump: CompoundPoissonJumps,
                           worst: WorstCaseResult | None = None) -> ClosedFormSolution:
    """Terminal-wealth strategy with compound Poisson jumps.

    Identical functional form to the no-jump case with (b, Sigma)
    replaced by (b_F, Sigma_F).  The per-type exposures alpha.J_l are
    checked against [0, 1]; violations are reported (and warned about),
    not fatal - the closed form stays well defined, but the simulator
    will refuse the strategy under jump dynamics.
    """
    if criterion.kind != "terminal_wealth":
        raise InvalidBounds("jump strategies are solved for the terminal-wealth criterion")
    if not isinstance(jump, CompoundPoissonJumps):
        raise InvalidBounds("expected a compound Poisson jump spec")
    jump.validate_compensation()
    wc = _resolve_worst(uset, criterion, jump, worst)
    direction = wc.alpha_direction()
    alpha = direction / (2.0 * criterion.lam)
    report = NonBankruptcyReport(
        exposures=nonbankruptcy_intervals(alpha, jump),
        violating_types=tuple(nonbankruptcy_violations(alpha, jump)),
    )
    if not report.ok:
        warnings.warn(
            f"strategy exposure alpha.J outside [0, 1] for jump types {report.violating_types}; "
            "wealth paths may hit zero under jump dynamics",
            stacklevel=2,
        )
    return ClosedFormSolution(
        kind="terminal_wealth",
        criterion=criterion,
        worst_case=wc,
        premium=wc.risk_premium,
        direction=direction,
        nonbankruptcy=report,
    )


def solve_wealth_scaled(uset: UncertaintySet, criterion: Criterion,
                        jump: DiscreteLevyJumps | None = None,
                        ode: OdeConfig = OdeConfig(),
                        worst: WorstCaseResult | None = None) -> ClosedFormSolution:
    """Wealth-scaled aversion lam(x) = lam / x, optionally with discrete
    Levy jumps; the growth factors A, B come from the backward RK4 grids."""
    if criterion.kind != "wealth_scaled":
        raise InvalidBounds("criterion kind must be wealth_scaled")
    if jump is not None and not isinstance(jump, DiscreteLevyJumps):
        raise InvalidBounds("wealth-scaled strategies take a discrete Levy jump spec or none")
    wc = _resolve_worst(uset, criterion, jump, worst)
    grids = solve_growth_factors(criterion.lam, wc.risk_premium,
                                 criterion.t0, criterion.horizon, ode)
    return ClosedFormSolution(
        kind="wealth_scaled",
        criterion=criterion,
        worst_case=wc,
        premium=wc.risk_premium,
        direction=wc.alpha_direction(),
        ode=grids,
    )


def solve(uset: UncertaintySet, criterion: Criterion, jump: JumpSpec | None = None,
          ode: OdeConfig = OdeConfig(),
          worst: WorstCaseResult | None = None) -> ClosedFormSolution:
    """Dispatch on the criterion kind (and jump spec type)."""
    if criterion.kind == "terminal_wealth":
        if jump is None:
            return solve_terminal_wealth(uset, criterion, worst)
        return solve_compound_poisson(uset, criterion, jump, worst)
    if criterion.kind == "log_return":
        if jump is not None:
            raise InvalidBounds(
                "log-return with jumps has no closed form; it is supported "
                "only by the simulator"
            )
        return solve_log_return(uset, criterion, worst)
    return solve_wealth_scaled(uset, criterion, jump, ode, worst)
