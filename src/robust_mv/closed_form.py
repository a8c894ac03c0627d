"""Explicit time-consistent strategies under the worst-case scenario.

Four solved cases, each returning a `ClosedFormSolution` bundling the
strategy alpha_hat, the value function V, the conditional-mean function
g(t, x) = E[X_T | X_t = x] under the equilibrium pair and the objective
f(t, x, y) = E[X_T] - lam(y) E[X_T^2], tied by V = f + lam(x) g^2, together
with the worst case they were built from.

In every case g is affine and E[X_T^2] quadratic in the state, so each of
V, g and f is c0 + c1 x + c2 x^2.  One coefficient table per kind gives
the rows (c0, c1, c2) at time t, and every value and partial is read
from it (tau = T - t, g0 = a_g tau):

* constant aversion lam (terminal wealth, log return, compound Poisson):
      V: (a_v tau, 1, 0),  g: (g0, 1, 0),  f: (a_v tau - lam g0^2, 1 - 2 lam g0, -lam)
  - terminal wealth: a_v = P / (4 lam), a_g = P / (2 lam),
        alpha_hat = Sigma^{-1} b / (2 lam);
  - log return: a_v = P / (2 (1+2 lam)), a_g = (2 lam + 1/2) P / (1+2 lam)^2,
        alpha_hat = Sigma^{-1} b / (1+2 lam);
  - terminal wealth with compound Poisson jumps: the terminal-wealth
    table with (b, Sigma) replaced by the jump-adjusted (b_F, Sigma_F),
    plus a per-jump-type admissibility report (alpha.J_l must lie in [0,1]);
* wealth-scaled risk aversion lam(x) = lam / x with discrete Levy jumps:
      V: (0, A + lam (A^2 - B), 0),  g: (0, A, 0),  f: (0, A, -(lam / y) B),
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
from dataclasses import dataclass, replace

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
    interpolation between nodes.  One piecewise polynomial holds A, B
    and their derivatives as four columns, so a single search of the
    nodes reads all four at once.
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
        from scipy.interpolate import CubicHermiteSpline, PPoly

        spl = CubicHermiteSpline(self.t, np.stack([self.a, self.b], axis=-1),
                                 np.stack([self.a_slope, self.b_slope], axis=-1))
        # the derivative's quadratics get a zero cubic coefficient: it adds
        # +0.0 to their value, so A' and B' keep the derivative spline's bits
        coef = np.zeros(spl.c.shape[:2] + (4,))
        coef[:, :, :2] = spl.c
        coef[1:, :, 2:] = spl.derivative().c
        object.__setattr__(self, "_spline", PPoly(coef, spl.x))

    def _at(self, t):
        """(A, B, A', B') at t."""
        out = self._spline(t)
        return out[..., 0], out[..., 1], out[..., 2], out[..., 3]


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

    V, g and f are rows of the kind's coefficient table (`_table`), read
    through one field builder (`_field`) that also gives their analytic
    partials, so V = f + lam(x) g^2 holds pointwise up to rounding.  For
    the constant-aversion kinds the strategy is constant in (t, x); for
    the wealth-scaled kind it is proportional to wealth with a
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

    def alpha_hat(self, t: float, x=1.0) -> np.ndarray:
        x_arr = np.asarray(x, dtype=float)
        if self.kind == "wealth_scaled":
            lam, (a, b, _, _) = self.criterion.lam, self.ode._at(t)
            scale = (a + 2.0 * lam * (a * a - b)) / (2.0 * lam * b)
            if x_arr.ndim == 0:
                return self.direction * (scale * float(x_arr))
            return np.outer(scale * x_arr, self.direction)
        coef = self.alpha_coef
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

    def _table(self, row: int, t, lam_y, slopes: bool = False):
        """Row ``row`` of the kind's coefficient table at t: (c0, c1, c2)
        of V (row 0), g (row 1) or f(., ., y) (row 2), each field being
        c0 + c1 x + c2 x^2, with lam_y = lam(y); with ``slopes``, the
        t-derivatives of the three coefficients."""
        lam = self.criterion.lam
        if self.kind == "wealth_scaled":
            # V = (A + lam (A^2 - B)) x, g = A x, f = A x - lam_y B x^2
            a, b, at, bt = self.ode._at(t)
            if row == 0:
                return 0.0, (at + lam * (2.0 * a * at - bt) if slopes else a + lam * (a * a - b)), 0.0
            if slopes:
                a, b = at, bt
            return 0.0, a, (-lam_y * b if row == 2 else 0.0)
        # V = x + a_v tau, g = x + a_g tau with tau = T - t, f = V - lam g^2
        a_v, a_g = self._coeffs()
        tau = self.criterion.horizon - t
        if row < 2:
            a = (a_v, a_g)[row]
            return (-a, 0.0, 0.0) if slopes else (a * tau, 1.0, 0.0)
        g0 = a_g * tau
        if slopes:
            return 2.0 * lam_y * g0 * a_g - a_v, 2.0 * lam_y * a_g, 0.0
        return a_v * tau - lam_y * g0 * g0, 1.0 - 2.0 * lam_y * g0, -lam_y

    def _field(self, row: int, lam_y) -> ScalarField:
        """Row ``row`` of `_table` as a field with its analytic partials."""

        def value(t, x, slopes=False):
            c0, c1, c2 = self._table(row, t, lam_y, slopes)
            return c0 + c1 * x + c2 * x * x

        def dx(t, x):
            _, c1, c2 = self._table(row, t, lam_y)
            return c1 + 2.0 * c2 * x

        return ScalarField(value, lambda t, x: value(t, x, slopes=True), dx,
                           lambda t, x: 2.0 * self._table(row, t, lam_y)[2])

    def V(self, t, x):
        return self.V_field(t, x)

    def g(self, t, x):
        return self.g_field(t, x)

    def f(self, t, x, y=None):
        """f(t, x, y) = E[X_T] - lam(y) E[X_T^2 | X_t = x], with the
        aversion argument y defaulting to x (only the wealth-scaled kind
        depends on it)."""
        return self.f_field(x if y is None else y)(t, x)

    # --- analytic fields for the PDE checker --------------------------------

    @property
    def V_field(self) -> ScalarField:
        return self._field(0, self.criterion.lam)

    @property
    def g_field(self) -> ScalarField:
        return self._field(1, self.criterion.lam)

    def f_field(self, y=None) -> ScalarField:
        """f as a field in (t, x); for the wealth-scaled kind the aversion
        argument y stays frozen while differentiating (y may be an array
        matching the points the field is evaluated at)."""
        if y is None and self.kind == "wealth_scaled":
            raise InvalidBounds("wealth-scaled f-field needs an explicit aversion argument y")
        return self._field(2, self.criterion.lam if y is None else self.criterion.risk_aversion_at(y))

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


def _solved(kind: str, uset: UncertaintySet, criterion: Criterion, jump: JumpSpec | None,
            worst: WorstCaseResult | None) -> ClosedFormSolution:
    """The ``kind`` solution under ``worst``, or under the worst case of the
    set when none is given."""
    if criterion.kind != kind:
        raise InvalidBounds(f"criterion kind must be {kind}")
    wc = worst if worst is not None else find_worst_case(uset, criterion, jump=jump)
    return ClosedFormSolution(kind=kind, criterion=criterion, worst_case=wc,
                              premium=wc.risk_premium, direction=wc.alpha_direction())


def solve_terminal_wealth(uset: UncertaintySet, criterion: Criterion,
                          worst: WorstCaseResult | None = None) -> ClosedFormSolution:
    """Constant-aversion terminal-wealth strategy under the worst case."""
    return _solved("terminal_wealth", uset, criterion, None, worst)


def solve_log_return(uset: UncertaintySet, criterion: Criterion,
                     worst: WorstCaseResult | None = None) -> ClosedFormSolution:
    """Constant-aversion log-return strategy under the worst case."""
    return _solved("log_return", uset, criterion, None, worst)


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
    sol = _solved("terminal_wealth", uset, criterion, jump, worst)
    alpha = sol.alpha_coef
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
    return replace(sol, nonbankruptcy=report)


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
    sol = _solved("wealth_scaled", uset, criterion, jump, worst)
    return replace(sol, ode=solve_growth_factors(criterion.lam, sol.premium,
                                                 criterion.t0, criterion.horizon, ode))


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
