"""Explicit time-consistent strategies under the worst-case scenario.

`solve` returns a `ClosedFormSolution`: a criterion and the worst case
theta_hat it is solved under.  It gives the strategy alpha_hat, the value
function V, the conditional mean g(t, x) = E[X_T | X_t = x] under the
equilibrium pair and the objective f(t, x, y) = E[X_T] - lam(y) E[X_T^2],
tied by V = f + lam(x) g^2.

The jump law is theta_hat's own, fixed or chosen from jump bounds, and
enters only through the adjusted moments (b_F, Sigma_F).  One rule admits
it: terminal wealth takes compound Poisson jumps (exposures alpha.J_l
reported against [0, 1]), wealth-scaled discrete Levy jumps, and every
kind no jumps.  Anything else raises `InvalidBounds` (CLI exit 3):
terminal wealth under Levy jumps, wealth-scaled under compound Poisson
and log return under any jumps, fixed or bounded.

In every case g is affine and E[X_T^2] quadratic in the state, so each of
V, g and f is c0 + c1 x + c2 x^2.  One coefficient table per kind gives
the rows (c0, c1, c2) at time t, and every value and partial is read
from it (tau = T - t, g0 = a_g tau):

* constant aversion lam (terminal wealth, log return):
      V: (a_v tau, 1, 0),  g: (g0, 1, 0),  f: (a_v tau - lam g0^2, 1 - 2 lam g0, -lam)
  - terminal wealth: a_v = P / (4 lam), a_g = P / (2 lam),
        alpha_hat = Sigma_F^{-1} b_F / (2 lam);
  - log return: a_v = P / (2 (1+2 lam)), a_g = (2 lam + 1/2) P / (1+2 lam)^2,
        alpha_hat = Sigma^{-1} b / (1+2 lam);
* wealth-scaled risk aversion lam(x) = lam / x:
      V: (0, A + lam (A^2 - B), 0),  g: (0, A, 0),  f: (0, A, -(lam / y) B),
      alpha_hat = Sigma_F^{-1} b_F (A + 2 lam (A^2 - B)) / (2 lam B) * x,
  where (A, B) solve a two-dimensional backward ODE system with
  A(T) = B(T) = 1, reduced exactly to B = A^2 + A ln A / (2 lam) and one
  scalar equation for A, solved by Newton at every node at once.

P is the worst-case risk premium b_F' Sigma_F^{-1} b_F (b' Sigma^{-1} b without jumps).
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidBounds, RobustMVError
from .fields import ScalarField
from .model import (
    CompoundPoissonJumps,
    Criterion,
    DiscreteLevyJumps,
    JumpSpec,
    UncertaintySet,
    nonbankruptcy_intervals,
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
class OdeGrids:
    """Grids of the backward system, ascending in t up to T.

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


# nodes of the growth-factor grids: T, T - h, ..., t0 with h = (T - t0) / _NODES
_NODES = 10_000
# Newton stops once every step is below _NEWTON_TOL (1 + s); past the root
# the steps are rounding noise of at most about 6 eps (1 + s)
_NEWTON_TOL = 32.0 * np.finfo(float).eps
_NEWTON_CAP = 50


def solve_growth_factors(lam: float, premium: float, t0: float, horizon: float) -> OdeGrids:
    """Growth factors on the node grid from the exact reduction of the
    backward system, with Hermite interpolation attached.

    The system A_t = -q P A, B_t = -(2 q + q^2) P B with
    q = (A + 2 lam (A^2 - B)) / (2 lam B) and A(T) = B(T) = 1 keeps
    u = B / A^2 on du / d ln A = 1 / (2 lam A) + 1 - u, so
        B = A^2 + A ln A / (2 lam),
    and y = ln A, s = -ln(1 - y) solve the separable equation
        Phi(s) = 2 lam e (E1(e^-s) - E1(1)) + s - (1 - e^-s) = P (T - t).
    Phi is convex and increasing with Phi' = 2 lam A + y in [2 lam, 2 lam e + 1],
    so Newton from s0 = min(P tau / (2 lam), P tau + 1), which lies above the
    root because Phi(s) >= 2 lam s and Phi(s) >= s - 1, falls monotonically
    onto it at every node at once.  Then
    A = e^y lies in [1, e], B = A (A + y / (2 lam)) >= A^2, and
    q = (1 - y) / (2 lam A + y).  Each solve logs one DEBUG line.
    """
    # imported here: `import robust_mv` loads no scipy
    from scipy.special import exp1

    tic = time.perf_counter()
    lam, premium = float(lam), float(premium)
    two_lam = 2.0 * lam
    h = -(horizon - t0) / _NODES
    t = horizon + np.arange(_NODES + 1) * h
    # ascending t, exact endpoints
    t[-1] = t0
    t = t[::-1].copy()
    target = premium * (horizon - t)
    s = np.minimum(target / two_lam, target + 1.0)
    e1_one = exp1(1.0)
    for steps in range(1, _NEWTON_CAP + 1):
        w = np.exp(-s)
        y = -np.expm1(-s)
        # E1(w) = -gamma - ln w + O(w), and w < 5e-18 from s = 40 on, before
        # e^-s turns subnormal and loses the bits exp1 would need
        e1 = np.where(s < 40.0, exp1(w), s - np.euler_gamma)
        step = (two_lam * np.e * (e1 - e1_one) + s - y - target) / (two_lam * np.exp(y) + y)
        s -= step
        if np.all(np.abs(step) <= _NEWTON_TOL * (1.0 + s)):
            break
    else:
        raise RobustMVError(f"growth-factor Newton solve did not settle in {_NEWTON_CAP} steps")
    y = -np.expm1(-s)
    a = np.exp(y)
    b = a * (a + y / two_lam)
    # 1 - y = e^-s, taken without the cancellation
    q = np.exp(-s) / (two_lam * a + y)
    a_slope = -q * premium * a
    b_slope = -(2.0 * q + q * q) * premium * b
    _log.debug("ODE solve: %d nodes, %d Newton steps, %.4f s",
               t.size, steps, time.perf_counter() - tic)
    return OdeGrids(t, a, b, a_slope, b_slope)


# ---------------------------------------------------------------------------
# the solution object
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedFormSolution:
    """One solved case: its criterion and the worst case it is solved
    under, from which ``kind``, ``premium`` and ``direction`` are read.

    V, g and f are rows of the kind's coefficient table (`_table`), read
    through one field builder (`_field`) with their analytic partials, so
    V = f + lam(x) g^2 holds pointwise up to rounding.  The constant-
    aversion strategy is constant in (t, x); the wealth-scaled one is
    proportional to wealth with a coefficient read off the ODE grids.
    """

    criterion: Criterion
    worst_case: WorstCaseResult
    ode: OdeGrids | None = None
    nonbankruptcy: NonBankruptcyReport | None = None

    @property
    def kind(self) -> str:
        return self.criterion.kind

    @property
    def premium(self) -> float:
        """The worst case's (jump-adjusted) risk premium."""
        return self.worst_case.risk_premium

    @property
    def direction(self) -> np.ndarray:
        """Sigma_F^{-1} b_F at the worst case, read-only."""
        return self._direction

    def __post_init__(self) -> None:
        d = self.worst_case.alpha_direction()
        d.setflags(write=False)
        object.__setattr__(self, "_direction", d)

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
        return coef if x_arr.ndim == 0 else np.broadcast_to(coef, (x_arr.size, coef.size)).copy()

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
        scen, crit = self.worst_case.scenario, self.criterion
        out = {
            "kind": self.kind,
            "criterion": {"kind": crit.kind, "lambda": crit.lam, "T": crit.horizon,
                          "t0": crit.t0, "x0": crit.x0},
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
            }
        else:
            a_v, a_g = self._coeffs()
            out["alpha_hat"] = self.alpha_coef.tolist()
            out["value_slope"] = a_v
            out["mean_slope"] = a_g
        rep = self.nonbankruptcy
        if rep is not None:
            out["nonbankruptcy"] = {"exposures": rep.exposures.tolist(), "ok": rep.ok,
                                    "violating_types": list(rep.violating_types)}
        return out


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

# the jump class each criterion kind has a closed form for, besides no jumps
_SOLVED_JUMPS = {"terminal_wealth": CompoundPoissonJumps, "log_return": (),
                 "wealth_scaled": DiscreteLevyJumps}


def admitted(kind: str, law: JumpSpec | None) -> JumpSpec | None:
    """``law`` if the ``kind`` criterion has a closed form with it."""
    if law is not None and not isinstance(law, _SOLVED_JUMPS[kind]):
        raise InvalidBounds(f"no closed form for the {kind} criterion with {type(law).__name__}")
    return law


def solve(uset: UncertaintySet, criterion: Criterion, jump: JumpSpec | None = None,
          worst: WorstCaseResult | None = None) -> ClosedFormSolution:
    """The solved case of ``criterion.kind`` under ``worst``, or under the
    worst case of the set for the fixed ``jump`` when none is given.

    The jump law is ``worst.scenario.jump``: ``jump`` only feeds the search
    (it is checked first, as a fixed law is the worst case's), and one
    other than the worst case's is refused.  Under terminal wealth the
    law's flow must stay below one per asset; exposures alpha.J_l outside
    [0, 1] are reported and warned about, not fatal: the simulator
    refuses them.
    """
    if worst is None:
        worst = find_worst_case(uset, criterion, jump=admitted(criterion.kind, jump))
    elif jump is not None and worst.scenario.jump is not jump:
        raise InvalidBounds("the jump spec is not the worst case's jump law")
    law = admitted(criterion.kind, worst.scenario.jump)
    if criterion.kind == "wealth_scaled":
        return ClosedFormSolution(criterion, worst, ode=solve_growth_factors(
            criterion.lam, worst.risk_premium, criterion.t0, criterion.horizon))
    sol = ClosedFormSolution(criterion, worst)
    if law is None:
        return sol
    law.validate_compensation()
    alpha = sol.alpha_coef
    report = NonBankruptcyReport(exposures=nonbankruptcy_intervals(alpha, law),
                                 violating_types=tuple(law.exposure_violations(alpha)))
    if not report.ok:
        warnings.warn(f"strategy exposure alpha.J outside [0, 1] for jump types "
                      f"{report.violating_types}; wealth paths may hit zero under jump dynamics",
                      stacklevel=2)
    return replace(sol, nonbankruptcy=report)
