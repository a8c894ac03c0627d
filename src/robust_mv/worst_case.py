"""Worst-case market scenarios over product uncertainty sets.

Nature picks the scenario minimizing the squared generalized Sharpe
ratio b' Sigma^{-1} b (jump-adjusted to b_F' Sigma_F^{-1} b_F when jumps
are present).  Two solvers are provided:

* `worst_case_two_asset` - the explicit case split for two assets under
  the asset-ordering assumption, returning one of three regimes:
  short the second asset, long both, or ignore the second asset (where
  the minimizer is a whole manifold and a canonical point is returned);
* `worst_case_numeric` - a grid search with coordinate-box refinement
  over drifts, volatilities, correlation (interval or hull weights) and
  optional jump-ambiguity coordinates.

The minimizer never depends on the risk-aversion level or on whether
the criterion targets wealth or log return; solvers accept the
criterion argument only for interface symmetry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_triangular
from scipy.stats import qmc

from .errors import (
    BudgetExceeded,
    InvalidBounds,
    NotPositiveDefinite,
)
from .model import (
    _MOMENT_TOL,
    CompoundPoissonBounds,
    Criterion,
    DiscreteLevyBounds,
    JumpSpec,
    Scenario,
    ScenarioArrays,
    UncertaintySet,
    adjusted_moments,
    atom_arrays,
    build_covariance,
    cholesky_or_raise,
    factorizes,
)

SHORT_SECOND = "ShortSecond"
LONG_BOTH = "LongBoth"
IGNORE_SECOND = "IgnoreSecond"
NUMERIC = "Numeric"
DEGENERATE = "Degenerate"

DEFAULT_RESOLUTION = 21
DEFAULT_REFINEMENTS = 2
DEFAULT_MAX_EVALS = 6_000_000
_CHUNK = 1 << 20


def risk_premium(b: np.ndarray, sigma: np.ndarray) -> float:
    """Quadratic form b' Sigma^{-1} b, via Cholesky.

    Nonnegative, zero exactly when b = 0; dimensionless per unit time.
    """
    b = np.asarray(b, dtype=float)
    chol = cholesky_or_raise(np.asarray(sigma, dtype=float), "risk-premium covariance")
    y = solve_triangular(chol, b, lower=True)
    return float(y @ y)


def premium_sharpe_form(b1, b2, s1, s2, rho):
    """Two-asset premium written in Sharpe ratios:
    ((b1/s1)^2 + (b2/s2)^2 - 2 rho (b1/s1)(b2/s2)) / (1 - rho^2).

    Accepts scalars or broadcasting arrays.
    """
    r1 = b1 / s1
    r2 = b2 / s2
    return (r1 * r1 + r2 * r2 - 2.0 * rho * r1 * r2) / (1.0 - rho * rho)


def scenario_premium(scenario: Scenario) -> float:
    """Risk premium of a scenario after jump adjustment."""
    b_f, sigma_f = adjusted_moments(scenario)
    return risk_premium(b_f, sigma_f)


@dataclass(frozen=True)
class WorstCaseResult:
    """Outcome of a worst-case search.

    ``manifold`` marks the regime where the minimizer is non-unique and
    ``scenario`` is a canonical representative attaining the same
    premium.  ``evaluations``/``skipped`` report numeric-search effort
    (skipped = grid points whose covariance failed factorization).
    """

    scenario: Scenario
    risk_premium: float
    case_label: str
    manifold: bool = False
    evaluations: int = 0
    skipped: int = 0

    @property
    def adjusted(self) -> tuple[np.ndarray, np.ndarray]:
        return adjusted_moments(self.scenario)

    def alpha_direction(self) -> np.ndarray:
        """Sigma_F^{-1} b_F at the worst case; strategies scale this vector."""
        b_f, sigma_f = self.adjusted
        return np.linalg.solve(sigma_f, b_f)


def worst_case_optimality_slack(theta_hat: Scenario, theta: Scenario) -> float:
    """Signed slack of the cross-scenario optimality inequality.

    With H(b, S) = b' Shat^{-1} S Shat^{-1} bhat (jump-adjusted moments
    throughout), a true minimizer theta_hat satisfies

        H(bhat, Shat) - 2 H(b, Shat) + H(bhat, S) <= 0

    for every theta in the same product set, with equality at
    theta = theta_hat.  Positive slack certifies that theta_hat is not
    the minimizer.
    """
    bh, sh = adjusted_moments(theta_hat)
    b, s = adjusted_moments(theta)
    w = np.linalg.solve(sh, bh)
    return float(bh @ w - 2.0 * (b @ w) + w @ s @ w)


# ---------------------------------------------------------------------------
# two-asset case solver
# ---------------------------------------------------------------------------


def _two_asset_scenario(uset: UncertaintySet, b, vols, rho) -> Scenario:
    cov = build_covariance(np.asarray(vols, dtype=float), np.array([[1.0, rho], [rho, 1.0]]))
    return Scenario(np.asarray(b, dtype=float), cov)


def _degenerate_result(uset: UncertaintySet, jump: JumpSpec | None) -> WorstCaseResult:
    if jump is None and uset.jump_bounds is not None:
        jb = uset.jump_bounds
        if isinstance(jb, CompoundPoissonBounds):
            jump = jb.spec_at(jb.intensity_lo, jb.mean_lo, jb.second_lo)
        else:
            jump = jb.spec_at(jb.weight_lo)
    scen = _singleton_scenario(uset).with_jump(jump)
    return WorstCaseResult(scen, scenario_premium(scen), DEGENERATE)


def _singleton_scenario(uset: UncertaintySet) -> Scenario:
    if uset.n == 1:
        cov = np.array([[float(uset.vol_lo[0]) ** 2]])
        return Scenario(uset.drift_lo, cov)
    if uset.n == 2:
        return _two_asset_scenario(uset, uset.drift_lo, uset.vol_lo, uset.rho_lo)
    cov = build_covariance(uset.vol_lo, uset.corr_vertices[0])
    return Scenario(uset.drift_lo, cov)


def worst_case_two_asset(uset: UncertaintySet, criterion: Criterion | None = None) -> WorstCaseResult:
    """Explicit two-asset worst case under the asset-ordering assumption.

    Writing s1 = drift_lo[0]/vol_hi[0] for the worst Sharpe ratio of the
    first asset, the split is driven by how the correlation interval
    sits relative to the band of attainable second-asset Sharpe ratios
    scaled by s1:

    * rho_lo above the band: nature sets the second asset's Sharpe ratio
      as high as possible with minimal correlation (``ShortSecond``);
    * rho_hi below the band: nature floors both Sharpe ratios at maximal
      correlation (``LongBoth``);
    * otherwise the infimum sits on the manifold b2/s2 = rho * s1 and
      equals s1^2; a canonical representative is returned with the
      ``manifold`` flag set (``IgnoreSecond``).

    Purely nonpositive correlation intervals collapse to the long-both
    regime at the interval's upper end.  When the interval straddles
    zero, both the nonpositive-correlation optimum and the positive-
    correlation case analysis are evaluated and the smaller kept.
    """
    uset.check_two_asset_ordering()
    if uset.jump_bounds is not None:
        raise InvalidBounds("the case solver covers diffusion ambiguity only; "
                            "use the numeric search for jump ambiguity")
    if uset.is_singleton:
        return _degenerate_result(uset, None)

    b1l, b2l = float(uset.drift_lo[0]), float(uset.drift_lo[1])
    b1h, b2h = float(uset.drift_hi[0]), float(uset.drift_hi[1])
    v1l, v2l = float(uset.vol_lo[0]), float(uset.vol_lo[1])
    v1h, v2h = float(uset.vol_hi[0]), float(uset.vol_hi[1])
    rho_lo, rho_hi = float(uset.rho_lo), float(uset.rho_hi)

    if rho_hi <= 0.0:
        # premium falls in every drift (down), vol (up) and rho (up) direction here
        scen = _two_asset_scenario(uset, (b1l, b2l), (v1h, v2h), rho_hi)
        return WorstCaseResult(scen, risk_premium(scen.drift, scen.cov), LONG_BOTH)

    s1 = b1l / v1h
    if s1 == 0.0:
        # ordering forces drift_lo = 0 for both assets; the infimum is 0 on
        # the whole manifold b2 = 0
        rho_hat = min(max(0.5 * (rho_lo + rho_hi), rho_lo), rho_hi)
        scen = _two_asset_scenario(uset, (0.0, 0.0), (v1h, v2h), rho_hat)
        return WorstCaseResult(scen, 0.0, IGNORE_SECOND, manifold=True)

    th_hi = (b2h / v2l) / s1
    th_lo = (b2l / v2h) / s1

    if rho_lo > th_hi:
        scen = _two_asset_scenario(uset, (b1l, b2h), (v1h, v2l), rho_lo)
        positive = WorstCaseResult(scen, risk_premium(scen.drift, scen.cov), SHORT_SECOND)
    elif rho_hi < th_lo:
        scen = _two_asset_scenario(uset, (b1l, b2l), (v1h, v2h), rho_hi)
        positive = WorstCaseResult(scen, risk_premium(scen.drift, scen.cov), LONG_BOTH)
    else:
        positive = _manifold_result(b1l, b2l, b2h, v1h, v2l, v2h, rho_lo, rho_hi, th_lo, th_hi, s1)

    if rho_lo <= 0.0:
        # straddling interval: compare against the rho <= 0 optimum at rho = 0
        neg = premium_sharpe_form(b1l, b2l, v1h, v2h, 0.0)
        if neg < positive.risk_premium:
            scen = _two_asset_scenario(uset, (b1l, b2l), (v1h, v2h), 0.0)
            return WorstCaseResult(scen, neg, LONG_BOTH)
    return positive


def _manifold_result(b1l, b2l, b2h, v1h, v2l, v2h, rho_lo, rho_hi, th_lo, th_hi, s1) -> WorstCaseResult:
    # canonical representative: midpoint correlation clamped into the
    # manifold-feasible range, second-asset coordinates solved from
    # b2/sigma2 = rho * s1 (preferring sigma2 at its upper bound)
    lo_m = max(rho_lo, th_lo)
    hi_m = min(rho_hi, th_hi)
    rho_hat = min(max(0.5 * (rho_lo + rho_hi), lo_m), hi_m)
    ratio = rho_hat * s1
    sigma2 = v2h
    b2 = ratio * sigma2
    if b2 > b2h:
        b2 = b2h
        sigma2 = b2h / ratio
    cov = build_covariance(np.array([v1h, sigma2]), np.array([[1.0, rho_hat], [rho_hat, 1.0]]))
    scen = Scenario(np.array([b1l, b2]), cov)
    return WorstCaseResult(scen, s1 * s1, IGNORE_SECOND, manifold=True)


# ---------------------------------------------------------------------------
# coordinate boxes for the numeric search, sampling and corner enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CoordBox:
    """Flat coordinate view of an uncertainty set (plus jump ambiguity).

    Layout: n drifts, n vols, correlation block (one rho, or m-1
    stick-breaking weights for a hull), then jump coordinates.
    """

    uset: UncertaintySet
    fixed_jump: JumpSpec | None
    lo: np.ndarray
    hi: np.ndarray
    n_corr: int

    @classmethod
    def build(cls, uset: UncertaintySet, fixed_jump: JumpSpec | None) -> "_CoordBox":
        if fixed_jump is not None and uset.jump_bounds is not None:
            raise InvalidBounds("a fixed jump spec and jump ambiguity bounds are exclusive")
        lo = [uset.drift_lo, uset.vol_lo]
        hi = [uset.drift_hi, uset.vol_hi]
        if uset.n == 2:
            n_corr = 1
            lo.append([uset.rho_lo])
            hi.append([uset.rho_hi])
        elif uset.n > 2:
            n_corr = len(uset.corr_vertices) - 1
            lo.append(np.zeros(n_corr))
            hi.append(np.ones(n_corr))
        else:
            n_corr = 0
        jb = uset.jump_bounds
        if isinstance(jb, CompoundPoissonBounds):
            lo += [jb.intensity_lo, jb.mean_lo, jb.second_lo]
            hi += [jb.intensity_hi, jb.mean_hi, jb.second_hi]
        elif isinstance(jb, DiscreteLevyBounds):
            lo.append(jb.weight_lo)
            hi.append(jb.weight_hi)
        return cls(uset, fixed_jump,
                   np.concatenate([np.atleast_1d(np.asarray(a, dtype=float)) for a in lo]),
                   np.concatenate([np.atleast_1d(np.asarray(a, dtype=float)) for a in hi]),
                   n_corr)

    @property
    def dim(self) -> int:
        return self.lo.size

    def split(self, pts: np.ndarray):
        """(drift, vols, corr-coords, jump-coords) views of (batch, dim) points."""
        n = self.uset.n
        i = 2 * n + self.n_corr
        return pts[:, :n], pts[:, n:2 * n], pts[:, 2 * n:i], pts[:, i:]

    def hull_weights(self, u: np.ndarray) -> np.ndarray:
        """Stick-breaking map from the unit cube onto the weight simplex."""
        batch = u.shape[0]
        m = self.n_corr + 1
        w = np.empty((batch, m))
        rem = np.ones(batch)
        for j in range(self.n_corr):
            w[:, j] = rem * u[:, j]
            rem = rem * (1.0 - u[:, j])
        w[:, m - 1] = rem
        return w

    def _jump_terms(self, jpts: np.ndarray, n: int):
        """Per-point drift shift (batch, n) and covariance shift (batch, n, n)."""
        jb = self.uset.jump_bounds
        batch = jpts.shape[0]
        if self.fixed_jump is not None:
            d = np.broadcast_to(self.fixed_jump.drift_adjustment(), (batch, n))
            m = np.broadcast_to(self.fixed_jump.covariance_adjustment(), (batch, n, n))
            return d, m, None
        if jb is None:
            return np.zeros((batch, n)), np.zeros((batch, n, n)), None
        if isinstance(jb, CompoundPoissonBounds):
            k = jb.loadings.shape[1]
            mu, mean, second = jpts[:, :k], jpts[:, k:2 * k], jpts[:, 2 * k:3 * k]
            d = (mu * mean) @ jb.loadings.T
            m = np.einsum("bl,il,jl->bij", mu * second, jb.loadings, jb.loadings)
            ok = np.all(second >= mean * mean - 1e-15, axis=1)
            return d, m, ok
        d = jpts @ jb.atoms
        m = np.einsum("bj,ji,jk->bik", jpts, jb.atoms, jb.atoms)
        return d, m, None

    def premiums(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Jump-adjusted premiums of (batch, dim) points plus a validity mask."""
        n = self.uset.n
        drift, vols, corr, jpts = self.split(pts)
        d, m, jump_ok = self._jump_terms(jpts, n)
        b = drift + d
        if n == 1:
            s11 = vols[:, 0] ** 2 + m[:, 0, 0]
            valid = s11 > 0
            if jump_ok is not None:
                valid = valid & jump_ok
            with np.errstate(divide="ignore", invalid="ignore"):
                prem = b[:, 0] ** 2 / s11
            return prem, valid
        if n == 2:
            rho = corr[:, 0]
            s11 = vols[:, 0] ** 2 + m[:, 0, 0]
            s22 = vols[:, 1] ** 2 + m[:, 1, 1]
            s12 = vols[:, 0] * vols[:, 1] * rho + m[:, 0, 1]
            det = s11 * s22 - s12 * s12
            valid = (s11 > 0) & (det > 0)
            if jump_ok is not None:
                valid = valid & jump_ok
            with np.errstate(divide="ignore", invalid="ignore"):
                prem = (s22 * b[:, 0] ** 2 + s11 * b[:, 1] ** 2
                        - 2.0 * s12 * b[:, 0] * b[:, 1]) / det
            return prem, valid
        w = self.hull_weights(corr)
        corr_mats = np.einsum("bm,mij->bij", w, np.stack(self.uset.corr_vertices))
        sig = corr_mats * vols[:, :, None] * vols[:, None, :] + m
        valid = np.ones(pts.shape[0], dtype=bool)
        if jump_ok is not None:
            valid = valid & jump_ok
        prem = np.empty(pts.shape[0])
        try:
            x = np.linalg.solve(sig, b[..., None])[..., 0]
            prem = np.einsum("bi,bi->b", b, x)
        except np.linalg.LinAlgError:
            for i in range(pts.shape[0]):
                try:
                    prem[i] = risk_premium(b[i], sig[i])
                except NotPositiveDefinite:
                    valid[i] = False
                    prem[i] = np.inf
        return prem, valid

    def premiums_broadcast(self, axes: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Premiums over the full grid product, one broadcast axis per
        coordinate (n <= 2 only).  Returns flat C-order arrays, matching
        the lexicographic tie-break of the chunked path."""
        d = len(axes)
        shape = tuple(len(a) for a in axes)

        def bc(c: int) -> np.ndarray:
            shp = [1] * d
            shp[c] = len(axes[c])
            return axes[c].reshape(shp)

        n = self.uset.n
        jb = self.uset.jump_bounds
        off = 2 * n + self.n_corr
        jump_ok = None
        if self.fixed_jump is not None:
            dvec = self.fixed_jump.drift_adjustment()
            mmat = self.fixed_jump.covariance_adjustment()
            d1, d2 = dvec[0], (dvec[1] if n == 2 else 0.0)
            m11, m12, m22 = mmat[0, 0], (mmat[0, 1] if n == 2 else 0.0), (mmat[1, 1] if n == 2 else 0.0)
        elif isinstance(jb, CompoundPoissonBounds):
            k = jb.loadings.shape[1]
            d1 = d2 = m11 = m12 = m22 = 0.0
            for l in range(k):
                flow = bc(off + l) * bc(off + k + l)
                quad = bc(off + l) * bc(off + 2 * k + l)
                consistent = bc(off + 2 * k + l) >= bc(off + k + l) ** 2 - 1e-15
                jump_ok = consistent if jump_ok is None else (jump_ok & consistent)
                d1 = d1 + jb.loadings[0, l] * flow
                m11 = m11 + jb.loadings[0, l] ** 2 * quad
                if n == 2:
                    d2 = d2 + jb.loadings[1, l] * flow
                    m12 = m12 + jb.loadings[0, l] * jb.loadings[1, l] * quad
                    m22 = m22 + jb.loadings[1, l] ** 2 * quad
        elif isinstance(jb, DiscreteLevyBounds):
            d1 = d2 = m11 = m12 = m22 = 0.0
            for j in range(jb.atoms.shape[0]):
                w = bc(off + j)
                d1 = d1 + w * jb.atoms[j, 0]
                m11 = m11 + w * jb.atoms[j, 0] ** 2
                if n == 2:
                    d2 = d2 + w * jb.atoms[j, 1]
                    m12 = m12 + w * jb.atoms[j, 0] * jb.atoms[j, 1]
                    m22 = m22 + w * jb.atoms[j, 1] ** 2
        else:
            d1 = d2 = m11 = m12 = m22 = 0.0

        if n == 1:
            b1 = bc(0) + d1
            s11 = bc(1) ** 2 + m11
            with np.errstate(divide="ignore", invalid="ignore"):
                prem = b1 * b1 / s11
            valid = s11 > 0
        else:
            b1 = bc(0) + d1
            b2 = bc(1) + d2
            s11 = bc(2) ** 2 + m11
            s22 = bc(3) ** 2 + m22
            s12 = bc(2) * bc(3) * bc(4) + m12
            det = s11 * s22 - s12 * s12
            valid = (s11 > 0) & (det > 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                prem = (s22 * b1 * b1 + s11 * b2 * b2 - 2.0 * s12 * b1 * b2) / det
        if jump_ok is not None:
            valid = valid & jump_ok
        prem = np.broadcast_to(prem, shape)
        valid = np.broadcast_to(valid, shape)
        return prem.ravel(), valid.ravel()

    def stack(self, pts: np.ndarray) -> tuple[ScenarioArrays, np.ndarray]:
        """Scenarios at (k, dim) points as one `ScenarioArrays` stack plus a
        validity mask.  A point is valid when its correlation matrix is
        symmetric with unit diagonal, its covariance passes a Cholesky
        factorization and its jump moments are consistent, the checks
        `build_covariance` and the jump-spec constructors apply one
        scenario at a time."""
        n = self.uset.n
        k = pts.shape[0]
        drift, vols, corr, jpts = self.split(pts)
        if n == 1:
            corr_mat = np.ones((k, 1, 1))
        elif n == 2:
            corr_mat = np.empty((k, 2, 2))
            corr_mat[:, 0, 0] = corr_mat[:, 1, 1] = 1.0
            corr_mat[:, 0, 1] = corr_mat[:, 1, 0] = corr[:, 0]
        else:
            corr_mat = self.uset.corr_matrix_from_weights(self.hull_weights(corr))
        cov = vols[:, :, None] * vols[:, None, :] * corr_mat
        valid = (
            np.all(np.abs(corr_mat - corr_mat.swapaxes(1, 2))
                   <= 1e-12 + 1e-5 * np.abs(corr_mat.swapaxes(1, 2)), axis=(1, 2))
            & np.all(np.abs(np.diagonal(corr_mat, axis1=1, axis2=2) - 1.0) <= 1e-12 + 1e-5, axis=1)
        )
        valid[valid] = factorizes(cov[valid])

        jb = self.uset.jump_bounds
        if self.fixed_jump is not None or jb is None:
            vec, weight, small = atom_arrays(self.fixed_jump, n)
            m = weight.size
            vec = np.broadcast_to(vec[:, None, :], (m, k, n))
            weight = np.broadcast_to(weight[:, None], (m, k))
            small = np.broadcast_to(small[:, None], (m, k))
        elif isinstance(jb, CompoundPoissonBounds):
            # per type the moment-matching two-point surrogate (mean -+ s,
            # probability 1/2 each), as `atom_table` builds it
            n_types = jb.loadings.shape[1]
            mu, mean, second = (jpts[:, :n_types], jpts[:, n_types:2 * n_types],
                                jpts[:, 2 * n_types:3 * n_types])
            var = second - mean * mean
            s = np.sqrt(np.maximum(var, 0.0))
            valid &= np.all((var >= -_MOMENT_TOL) & (mean - s > -1.0), axis=1)
            sizes = np.stack([mean - s, mean + s], axis=-1).reshape(k, 2 * n_types).T
            types = np.repeat(np.arange(n_types), 2)
            vec = sizes[:, :, None] * jb.loadings.T[types][:, None, :]
            weight = np.repeat(mu.T * 0.5, 2, axis=0)
            small = np.abs(sizes) < 1.0
        else:
            m = jb.atoms.shape[0]
            vec = np.broadcast_to(jb.atoms[:, None, :], (m, k, n))
            weight = jpts.T
            small = np.broadcast_to((np.linalg.norm(jb.atoms, axis=1) < 1.0)[:, None], (m, k))
        return ScenarioArrays(drift, cov, vec, weight, small), valid

    def jump_at(self, point: np.ndarray) -> JumpSpec | None:
        jb = self.uset.jump_bounds
        if jb is None:
            return self.fixed_jump
        j = self.split(np.asarray(point, dtype=float)[None, :])[3][0]
        if isinstance(jb, CompoundPoissonBounds):
            k = jb.loadings.shape[1]
            return jb.spec_at(j[:k], j[k:2 * k], j[2 * k:3 * k])
        return jb.spec_at(j)

    def scenarios(self, pts: np.ndarray) -> list[Scenario]:
        """Scenario objects at the valid rows of (k, dim) points, in order."""
        arr, valid = self.stack(pts)
        return [Scenario(arr.drift[i], arr.cov[i], self.jump_at(pts[i]))
                for i in np.flatnonzero(valid)]

    def scenario_at(self, point: np.ndarray) -> Scenario:
        out = self.scenarios(np.asarray(point, dtype=float)[None, :])
        if not out:
            raise NotPositiveDefinite(
                "no valid scenario at this point: covariance not positive definite "
                "or jump moments inconsistent")
        return out[0]

    def _draw(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """k candidate points, uniform on the box (hull weights uniform on
        the simplex).  Consumes the generator exactly as k successive
        single-point draws would."""
        if self.uset.n <= 2:
            return rng.uniform(self.lo, self.hi, size=(k, self.dim))
        pts = np.empty((k, self.dim))
        i0 = 2 * self.uset.n
        for pt in pts:
            pt[:] = rng.uniform(self.lo, self.hi)
            # overwrite stick coordinates with a uniform simplex draw
            w = rng.dirichlet(np.ones(self.n_corr + 1))
            rem = 1.0
            for j in range(self.n_corr):
                pt[i0 + j] = 0.0 if rem <= 0 else min(max(w[j] / rem, 0.0), 1.0)
                rem -= w[j]
        return pts

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` valid points, (count, dim).  Invalid candidates are
        redrawn in chunks of exactly the number still missing, so the
        generator stops where a one-at-a-time rejection loop would."""
        budget = 100 * count + 100
        accepted = [np.empty((0, self.dim))]
        missing = count
        while missing:
            chunk = min(missing, budget)
            if chunk == 0:
                raise NotPositiveDefinite("scenario sampling kept hitting non-PD draws")
            budget -= chunk
            pts = self._draw(chunk, rng)
            pts = pts[self.stack(pts)[1]]
            accepted.append(pts)
            missing -= pts.shape[0]
        return np.concatenate(accepted)


def _as_generator(rng: np.random.Generator | int) -> np.random.Generator:
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    return rng


def sample_scenarios(uset: UncertaintySet, count: int,
                     rng: np.random.Generator | int,
                     fixed_jump: JumpSpec | None = None) -> list[Scenario]:
    """Uniform draws from the set's bounds (hull weights uniform on the
    simplex), re-drawn in the rare event a covariance fails to factor."""
    box = _CoordBox.build(uset, fixed_jump)
    return box.scenarios(box.sample(count, _as_generator(rng)))


def sample_scenario_arrays(uset: UncertaintySet, count: int,
                           rng: np.random.Generator | int,
                           fixed_jump: JumpSpec | None = None) -> ScenarioArrays:
    """The draws of `sample_scenarios` (same generator, same values) as one
    `ScenarioArrays` stack with sample axis ``count``."""
    box = _CoordBox.build(uset, fixed_jump)
    return box.stack(box.sample(count, _as_generator(rng)))[0]


def corner_scenarios(uset: UncertaintySet, fixed_jump: JumpSpec | None = None,
                     cap: int = 4096) -> list[Scenario]:
    """Scenarios at every corner of the coordinate box (hull corners are
    the vertices themselves).  Deduplicated, deterministic order."""
    box = _CoordBox.build(uset, fixed_jump)
    axes = []
    for lo, hi in zip(box.lo, box.hi):
        axes.append((lo,) if lo == hi else (lo, hi))
    total = math.prod(len(a) for a in axes)
    if total > cap:
        raise BudgetExceeded(f"{total} corners exceed the cap of {cap}")
    pts = np.array(list(itertools.product(*axes)), dtype=float)
    if uset.n > 2:
        # stick-breaking corners map several-to-one onto the hull vertices
        # (a weight coordinate of 1 uses up the stick): keep the first
        drift, vols, sticks, jumps = box.split(pts)
        keys = np.hstack([drift, vols, box.hull_weights(sticks), jumps])
        pts = pts[np.sort(np.unique(keys, axis=0, return_index=True)[1])]
    return box.scenarios(pts)


def sobol_scenarios(uset: UncertaintySet, count: int,
                    fixed_jump: JumpSpec | None = None) -> list[Scenario]:
    """Deterministic low-discrepancy interior fill of the coordinate box:
    the first ``count`` points of the unscrambled Sobol sequence, drawn as
    a power-of-two block so that scipy does not warn about balance."""
    box = _CoordBox.build(uset, fixed_jump)
    eng = qmc.Sobol(d=box.dim, scramble=False)
    u = eng.random_base2((count - 1).bit_length())[:count]
    return box.scenarios(box.lo + u * (box.hi - box.lo))


# ---------------------------------------------------------------------------
# numeric worst-case search
# ---------------------------------------------------------------------------


def worst_case_numeric(
    uset: UncertaintySet,
    criterion: Criterion | None = None,
    jump: JumpSpec | None = None,
    resolution: int = DEFAULT_RESOLUTION,
    refinements: int = DEFAULT_REFINEMENTS,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> WorstCaseResult:
    """Grid search plus box refinement for the minimal risk premium.

    Each pass lays `resolution` points per non-degenerate coordinate
    (auto-reduced to respect ``max_evals``), evaluates the jump-adjusted
    premium on the full grid, then shrinks every coordinate interval to
    a fifth of its width around the incumbent and repeats.  Ties keep
    the lexicographically smallest grid index; the incumbent is only
    replaced by a strictly better point, so results are deterministic.
    """
    box = _CoordBox.build(uset, jump)
    if uset.is_singleton:
        return _degenerate_result(uset, jump)
    free = box.hi > box.lo
    d = int(np.count_nonzero(free))
    res = resolution
    if res < 2:
        raise InvalidBounds("grid resolution must be at least 2")
    while res > 3 and res**d > max_evals:
        res -= 1
    if res**d > max_evals:
        raise BudgetExceeded(
            f"{d} free coordinates need {res**d} evaluations even at resolution {res} "
            f"(cap {max_evals})"
        )

    lo = box.lo.copy()
    hi = box.hi.copy()
    best_pt: np.ndarray | None = None
    best_val = np.inf
    evals = 0
    skipped = 0

    for _ in range(refinements + 1):
        axes = [np.linspace(a, b, res) if a < b else np.array([a]) for a, b in zip(lo, hi)]
        shape = tuple(len(a) for a in axes)
        total = math.prod(shape)
        if uset.n <= 2:
            prem, valid = box.premiums_broadcast(axes)
            evals += total
            skipped += int(np.count_nonzero(~valid))
            prem = np.where(valid, prem, np.inf)
            j = int(np.argmin(prem))
            if prem[j] < best_val:
                best_val = float(prem[j])
                at = np.unravel_index(j, shape)
                best_pt = np.array([axes[c][at[c]] for c in range(box.dim)])
        else:
            for start in range(0, total, _CHUNK):
                idx = np.arange(start, min(start + _CHUNK, total))
                unraveled = np.unravel_index(idx, shape)
                pts = np.stack([axes[c][unraveled[c]] for c in range(box.dim)], axis=1)
                prem, valid = box.premiums(pts)
                evals += pts.shape[0]
                skipped += int(np.count_nonzero(~valid))
                prem = np.where(valid, prem, np.inf)
                j = int(np.argmin(prem))
                if prem[j] < best_val:
                    best_val = float(prem[j])
                    best_pt = pts[j]
        if best_pt is None:
            raise NotPositiveDefinite("every grid point failed factorization")
        width = (hi - lo) / 5.0
        lo = np.maximum(box.lo, best_pt - 0.5 * width)
        hi = np.minimum(box.hi, best_pt + 0.5 * width)

    scen = box.scenario_at(best_pt)
    return WorstCaseResult(scen, best_val, NUMERIC, evaluations=evals, skipped=skipped)


def find_worst_case(
    uset: UncertaintySet,
    criterion: Criterion | None = None,
    jump: JumpSpec | None = None,
    resolution: int = DEFAULT_RESOLUTION,
    refinements: int = DEFAULT_REFINEMENTS,
) -> WorstCaseResult:
    """Dispatch to the cheapest exact solver available.

    Singletons short-circuit; two-asset diffusion sets satisfying the
    ordering assumption use the explicit case split (a jump spec with
    exactly zero moment adjustments is dropped first); everything else
    runs the numeric search.
    """
    if jump is not None and uset.jump_bounds is not None:
        raise InvalidBounds("a fixed jump spec and jump ambiguity bounds are exclusive")
    jump_null = jump is not None and (
        not np.any(jump.drift_adjustment()) and not np.any(jump.covariance_adjustment())
    )
    effective_jump = None if jump_null else jump
    if uset.is_singleton:
        return _degenerate_result(uset, jump)
    if (
        uset.n == 2
        and effective_jump is None
        and uset.jump_bounds is None
        and uset.two_asset_ordering_holds()
    ):
        res = worst_case_two_asset(uset, criterion)
        if jump is not None:
            # re-attach the null jump so downstream simulation still jumps
            return replace(res, scenario=res.scenario.with_jump(jump))
        return res
    res = worst_case_numeric(uset, criterion, jump=effective_jump,
                             resolution=resolution, refinements=refinements)
    if jump is not None and jump_null:
        return replace(res, scenario=res.scenario.with_jump(jump))
    return res
