"""Worst-case market scenarios over product uncertainty sets.

Nature picks the scenario minimizing the squared generalized Sharpe
ratio b' Sigma^{-1} b (jump-adjusted to b_F' Sigma_F^{-1} b_F when jumps
are present).  Three solvers are provided:

* `worst_case_two_asset` - the explicit case split for two assets under
  the asset-ordering assumption, returning one of three regimes:
  short the second asset, long both, or ignore the second asset (where
  the minimizer is a whole manifold and a canonical point is returned);
* `worst_case_numeric` on a diffusion-only set (no jump ambiguity, no
  fixed jump), any asset count - an exact convex program.  With
  s = b / vol and C the correlation matrix, b' Sigma^{-1} b = s' C^{-1} s,
  the matrix-fractional function, which is jointly convex in (s, C)
  (Boyd & Vandenberghe, Convex Optimization, 3.1.7).  Each s_i ranges
  over an interval and C over the hull of the correlation vertices, so
  the minimum is found by Newton steps on the active face and certified
  by the Frank-Wolfe duality gap (Jaggi, ICML 2013);
* `worst_case_numeric` with jump ambiguity or a fixed jump - a grid
  search with coordinate-box refinement over drifts, volatilities,
  correlation hull weights and jump coordinates.  One kernel serves every
  asset count: the covariance is factored and inverted once per point of
  its own (vol, correlation, jump) axes, and the quadratic form is summed
  over cache-sized blocks of the grid, whose running minimum is the pass
  minimum; no array spans the whole grid.  A grid column (every drift
  point at one covariance point) whose convex lower bound exceeds the
  running minimum is skipped: no point there can reach it, so the result
  keeps every bit.

Every solver except the case split reads the correlation family in one
normal form, `UncertaintySet.corr_hull`: the hull of m correlation
matrices ([[1]] for one asset, the two interval ends for two), reached
through m - 1 stick-breaking weights, and jump bounds through their own
coordinate box, moment terms and atom tables (`model.py`).

The minimizer never depends on the risk-aversion level or on whether
the criterion targets wealth or log return; solvers accept the
criterion argument only for interface symmetry.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from collections.abc import Generator
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BudgetExceeded,
    InvalidBounds,
    NotPositiveDefinite,
)
from .model import (
    DEFAULT_REFINEMENTS,
    DEFAULT_RESOLUTION,
    Criterion,
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

_log = logging.getLogger(__name__)

SHORT_SECOND = "ShortSecond"
LONG_BOTH = "LongBoth"
IGNORE_SECOND = "IgnoreSecond"
NUMERIC = "Numeric"
DEGENERATE = "Degenerate"

DEFAULT_MAX_EVALS = 6_000_000
_CORNER_CAP = 4096  # most corners `corner_scenarios` enumerates
_GAP_RTOL = 1e-10  # a convex result is certified when gap <= _GAP_RTOL (1 + premium)
_POLISH_RTOL = 1e-13  # Newton polish stops once gap <= _POLISH_RTOL (1 + premium)
_POLISH_STEPS = 50
_BLOCK = 1 << 15  # elements per block of the grid reduction, small enough to stay in cache


def risk_premium(b: np.ndarray, sigma: np.ndarray) -> float:
    """Quadratic form b' Sigma^{-1} b, via Cholesky.

    Nonnegative, zero exactly when b = 0; dimensionless per unit time.
    """
    # imported here: scipy.linalg costs about a third of a second at import
    from scipy.linalg import solve_triangular

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
    premium.  ``evaluations``/``skipped`` report numeric-search effort:
    objective evaluations of the convex solver, or grid points (skipped =
    grid points whose covariance failed factorization or whose
    compound-Poisson jump moments are invalid, see `surrogate_atoms`).
    Every grid point counts as evaluated, also one in a column that the
    grid's lower bound rules out without computing its premium
    (`_premium_blocks`).
    ``gap`` is the Frank-Wolfe duality gap of a diffusion-only result
    (`_frank_wolfe_gap`), an upper bound on premium - minimum; it is None
    for grid and degenerate results.
    """

    scenario: Scenario
    risk_premium: float
    case_label: str
    manifold: bool = False
    evaluations: int = 0
    skipped: int = 0
    gap: float | None = None

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
    throughout), the slack at theta is

        H(bhat, Shat) - 2 H(b, Shat) + H(bhat, S),

    linear in (b, S) and zero at theta_hat.  It is the theta side of the
    saddle: F(alpha_hat, theta) - F(alpha_hat, theta_hat) is
    -slack / (4 lam) for terminal wealth, -slack / (2 (1 + 2 lam)) for
    log return.  Slack <= 0 on a set is the first-order condition of the
    premium minimum only where the reachable (b, S) are convex; over
    ambiguous vols they are not, a premium minimizer need not be nature's
    best response to alpha_hat, and it may have positive slack on the
    set.  The certificate of the premium minimum is the convex solver's
    `gap`.
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
        jump = uset.jump_bounds.spec_at(uset.jump_bounds.box[0])
    scen = Scenario(uset.drift_lo, build_covariance(uset.vol_lo, uset.corr_hull[0]), jump)
    return WorstCaseResult(scen, scenario_premium(scen), DEGENERATE)


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
    res = _case_split(uset)
    return replace(res, gap=_frank_wolfe_gap(uset, res.scenario))


def _case_split(uset: UncertaintySet) -> WorstCaseResult:
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

    Layout: n drifts, n vols, m - 1 stick-breaking weights of the m
    matrices of `UncertaintySet.corr_hull`, then the jump bounds' own
    coordinates (their ``box``).  The layout does not depend on the asset
    count; two assets put their correlation interval on one stick
    coordinate u, with rho = u rho_hi + (1 - u) rho_lo.
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
        n_corr = len(uset.corr_hull) - 1
        jb = uset.jump_bounds
        j_lo, j_hi = (np.zeros(0), np.zeros(0)) if jb is None else jb.box
        return cls(uset, fixed_jump,
                   np.concatenate([uset.drift_lo, uset.vol_lo, np.zeros(n_corr), j_lo]),
                   np.concatenate([uset.drift_hi, uset.vol_hi, np.ones(n_corr), j_hi]),
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
        """Stick-breaking map from the unit cube onto the weight simplex,
        over (..., n_corr) stick coordinates."""
        m = self.n_corr + 1
        w = np.empty(u.shape[:-1] + (m,))
        rem = np.ones(u.shape[:-1])
        for j in range(self.n_corr):
            w[..., j] = rem * u[..., j]
            rem = rem * (1.0 - u[..., j])
        w[..., m - 1] = rem
        return w

    def corr_matrices(self, corr: np.ndarray) -> np.ndarray:
        """Correlation matrices (..., n, n) at (..., n_corr) stick coordinates."""
        return self.uset.corr_matrix_from_weights(self.hull_weights(corr))

    def _jump_shifts(self, jc: list[np.ndarray]):
        """Drift shift (..., n), covariance shift (..., n, n) and moment
        validity mask (...) or None from broadcasting jump coordinates,
        one array per coordinate (the bounds' `moment_terms`); each result
        spans only the coordinates it depends on.  The shifts are constant
        without jump ambiguity."""
        jump, n = self.fixed_jump, self.uset.n
        if self.uset.jump_bounds is not None:
            return self.uset.jump_bounds.moment_terms(jc)
        if jump is None:
            return np.zeros(n), np.zeros((n, n)), None
        return jump.drift_adjustment(), jump.covariance_adjustment(), None

    def grid_premiums(self, axes: list[np.ndarray]) -> tuple[int, Generator]:
        """Jump-adjusted premiums b_F' Sigma_F^{-1} b_F on the grid product
        of ``axes`` (one per coordinate, so C order is the lexicographic
        order of grid indices), computed block by block.

        Each factor spans only the grid axes it depends on: b_i = drift_i
        + d_i its drift axis and the jump-flow axes, Sigma_ij = vol_i vol_j
        C_ij + M_ij the vol, correlation and jump-moment axes.  Sigma is
        factored and inverted once per point of its own axes.  A point is
        valid when Sigma factorizes and its jump coordinates are valid
        (compound-Poisson moments must pass `surrogate_atoms`).

        The grid is then laid out as (axes shared by b and the Sigma side)
        x (b-only axes) x (Sigma-side-only axes), where the Sigma side is
        P = Sigma^{-1} and the validity mask.  The premium
        sum_{i<=j} c_ij (b_i b_j) P_ij, with c_ii = 1 and c_ij = 2, is
        summed into a buffer of about `_BLOCK` elements, diagonal terms
        first: b_i b_j scalars times whole contiguous Sigma-side rows.
        Every premium takes the same operations in the same order as on
        the whole grid at once, so its bits do not depend on the blocks.

        Returns the number of invalid grid points and a generator of
        blocks ``(prem, (i_s, i_b, i_g))``: ``prem`` (len(i_s), len(i_b),
        len(i_g)) is overwritten by the next block, and the point at
        prem[s, b, g] has flat C-order index i_s[s] + i_b[b] + i_g[g] in
        the grid.  Invalid points are left out or read +inf.  A consumer
        that sends the running minimum back after each block has the
        columns skipped that a lower bound shows cannot reach it
        (`_premium_blocks`); one that sends nothing gets every valid point.
        """
        n = self.uset.n
        dim = len(axes)
        shape = tuple(len(a) for a in axes)

        def coord(c: int) -> np.ndarray:
            return axes[c].reshape((1,) * c + (shape[c],) + (1,) * (dim - c - 1))

        def group(c0: int, c1: int) -> np.ndarray:
            # coordinates c0..c1-1 stacked on a last axis, (..., c1 - c0)
            cols = np.broadcast_arrays(*(coord(c) for c in range(c0, c1)))
            return np.stack(cols, axis=-1) if cols else np.empty((1,) * dim + (0,))

        i0, i1 = 2 * n, 2 * n + self.n_corr
        d, m, jump_ok = self._jump_shifts([coord(c) for c in range(i1, dim)])
        b = [coord(i) + d[..., i] for i in range(n)]
        vols = group(n, i0)
        sigma = vols[..., :, None] * vols[..., None, :] * self.corr_matrices(group(i0, i1)) + m
        valid = factorizes(sigma)
        sigma[~valid] = np.eye(n)  # a stand-in; these points are left out or read +inf
        p = np.linalg.inv(sigma)
        del sigma
        if jump_ok is not None:
            valid = valid & jump_ok
        # each point of the mask's own axes stands for the same number of grid points
        invalid = int(np.count_nonzero(~valid)) * (math.prod(shape) // valid.size)

        on_b = np.broadcast_shapes(*(x.shape for x in b))
        on_p = np.broadcast_shapes(p.shape[:-2], valid.shape)
        shared = [c for c in range(dim) if on_b[c] > 1 and on_p[c] > 1]
        b_only = [c for c in range(dim) if on_b[c] > 1 and on_p[c] == 1]
        p_only = [c for c in range(dim) if on_b[c] == 1]
        strides = [math.prod(shape[c + 1:]) for c in range(dim)]

        def lay(x: np.ndarray, *groups: list[int]) -> np.ndarray:
            # x, which varies only along the axes in ``groups``, as a
            # C-contiguous array with one axis per group
            order = [c for g in groups for c in g]
            full = tuple(shape[c] if c in order else 1 for c in range(dim))
            x = np.broadcast_to(x, full).transpose(order + [c for c in range(dim) if c not in order])
            return np.ascontiguousarray(x.reshape([math.prod(shape[c] for c in g) for g in groups]))

        def flat_index(axs: list[int]) -> np.ndarray:
            return lay(sum((np.arange(shape[c]).reshape(coord(c).shape) * strides[c] for c in axs),
                           np.zeros((1,) * dim, dtype=np.intp)), axs)

        pairs = _pairs(n)
        bb = [lay(b[i] * b[j], shared, b_only) for i, j in pairs]
        pp = [lay(p[..., i, j] if i == j else 2.0 * p[..., i, j], shared, p_only) for i, j in pairs]
        bad = lay(~valid, shared, p_only) if invalid else None
        drift = [lay(x, shared, b_only) for x in b]
        index = (flat_index(shared), flat_index(b_only), flat_index(p_only))
        return invalid, _premium_blocks(bb, pp, bad, drift, index)

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
        corr_mat = self.corr_matrices(corr)
        cov = vols[:, :, None] * vols[:, None, :] * corr_mat
        valid = (
            np.all(np.abs(corr_mat - corr_mat.swapaxes(1, 2)) <= 1e-12, axis=(1, 2))
            & np.all(np.abs(np.diagonal(corr_mat, axis1=1, axis2=2) - 1.0) <= 1e-12, axis=1)
        )
        valid[valid] = factorizes(cov[valid])

        jb = self.uset.jump_bounds
        if jb is not None:
            vec, weight, ok = jb.atom_stack(jpts)
            valid &= ok
        else:
            vec, weight = atom_arrays(self.fixed_jump, n)
            vec = np.broadcast_to(vec[:, None, :], (weight.size, k, n))
            weight = np.broadcast_to(weight[:, None], (weight.size, k))
        return ScenarioArrays(drift, cov, vec, weight), valid

    def jump_at(self, point: np.ndarray) -> JumpSpec | None:
        jb = self.uset.jump_bounds
        if jb is None:
            return self.fixed_jump
        return jb.spec_at(self.split(np.asarray(point, dtype=float)[None, :])[3][0])

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
        the simplex; with at most two hull matrices the one stick
        coordinate already is).  Consumes the generator exactly as k
        successive single-point draws would."""
        if self.n_corr <= 1:
            return rng.uniform(self.lo, self.hi, size=(k, self.dim))
        # point by point, the raw draws of rng.uniform(lo, hi) and of
        # rng.dirichlet(ones(m + 1)), which normalizes m + 1 unit
        # exponentials: an exponential takes a varying number of raw draws
        m, i0 = self.n_corr, 2 * self.uset.n
        u, e = np.empty((k, self.dim)), np.empty((k, m + 1))
        for i in range(k):
            u[i], e[i] = rng.random(self.dim), rng.standard_exponential(m + 1)
        pts = self.lo + (self.hi - self.lo) * u
        w = e[:, :m] * (1.0 / np.add.accumulate(e, axis=1)[:, -1:])
        # stick j: w_j over what is left of the unit stick, in [0, 1]
        rem = np.subtract.accumulate(np.hstack([np.ones((k, 1)), w]), axis=1)[:, :m]
        pts[:, i0:i0 + m] = np.where(rem > 0, np.clip(w / np.where(rem > 0, rem, 1.0), 0, 1), 0.0)
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


def _pairs(n: int) -> list[tuple[int, int]]:
    """Index pairs (i, j) of the premium's terms: the diagonal, then i < j."""
    return [(i, i) for i in range(n)] + list(itertools.combinations(range(n), 2))


def _column_bound(q: list, lo: list, hi: list, sweep: bool) -> np.ndarray:
    """Lower bound on z'Qz over the box lo <= z <= hi, less a margin.

    ``q`` holds the terms c_ij Q_ij in `_pairs` order (c_ii = 1, c_ij = 2
    for i < j), ``lo`` and ``hi`` the n ends of the box; all broadcast
    together, one bound per point.  For positive semidefinite Q, z'Qz lies
    above its tangent plane at any x of the box, z'Qz >= 2 y.z - x'y with
    y = Qx, whose minimum over the box is
    sum_i y_i (lo_i + hi_i - x_i) - |y_i| (hi_i - lo_i).  x is the point of
    the box nearest 0, moved by one sweep of exact minimization along each
    coordinate in turn (projected coordinate descent) when ``sweep`` is
    set.  The margin is 1e-9 (1 + n sum_i Q_ii M_i^2) with
    M_i = max(|lo_i|, |hi_i|): as |Q_ij| <= sqrt(Q_ii Q_jj), the sum bounds
    the absolute terms of z'Qz anywhere in the box, so the margin is far
    above the rounding of the bound and of the quadratic.
    """
    n = len(lo)
    off = dict(zip(_pairs(n)[n:], q[n:]))

    def grad(i: int) -> np.ndarray:  # (Qx)_i
        g = q[i] * x[i]
        for j in range(n):
            if j != i:
                g += off[min(i, j), max(i, j)] * (0.5 * x[j])
        return g

    x = [np.clip(0.0, a, b) for a, b in zip(lo, hi)]
    if sweep:
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(n):
                x[i] = np.clip(x[i] - grad(i) / q[i], lo[i], hi[i])
    # accumulated in place: the temporaries stay few
    bound = np.full(np.broadcast_shapes(*(a.shape for a in q + x)), -1e-9)
    for i in range(n):
        y = grad(i)
        bound += y * (lo[i] + hi[i] - x[i])
        np.abs(y, out=y)
        y *= hi[i] - lo[i]
        bound -= y
        ends = np.maximum(np.abs(lo[i]), np.abs(hi[i]))
        bound -= q[i] * (1e-9 * n * ends * ends)
        del y
    return bound


def _premium_blocks(bb, pp, bad, drift, index) -> Generator:
    """The blocks of `_CoordBox.grid_premiums`: ``bb`` and ``pp`` hold
    b_i b_j (shared, b-only) and c_ij P_ij (shared, Sigma-side) per term,
    ``bad`` the invalid points (shared, Sigma-side) or None, and ``drift``
    each b_i (shared, b-only).

    A column is one shared point times one Sigma-side point, over every
    b-only row; there the premium is z'Pz, z = b in the box of the
    column's rows.  Columns go in chunks of about half a block.  In a
    chunk that spans more than one block, `_column_bound` bounds every
    column at the box corner nearest 0, the valid column with the least
    bound is evaluated first, and a coordinate sweep sharpens the bounds
    that its premium does not rule out.  Then, group by group of shared
    points, each valid column is evaluated unless its bound (which holds
    a margin for rounding) exceeds t + 1e-9 |t|, t the running minimum
    that the consumer sends back after each block.  A skipped column
    holds no point at or below t, so every point that ties the minimum is
    evaluated.  A consumer that sends nothing gets every valid column,
    the first column of a chunk possibly twice.

    Evaluated columns are whole Sigma-side rows, gathered when a group
    skips some; invalid points among them read +inf.  Returns (columns
    evaluated, columns).
    """
    i_s, i_b, i_g = index
    n_s, n_b, n_g = i_s.size, i_b.size, i_g.size
    # whole Sigma-side rows: part of the b-only rows of one shared point,
    # or all of them for several shared points
    rows = max(1, _BLOCK // n_g)
    step_s = rows // n_b if rows >= n_b else 1
    cap = step_s * min(rows, n_b) * n_g
    buf = np.empty(2 * cap)
    t = np.inf
    columns = 0

    def over(lead: np.ndarray) -> np.ndarray:
        return lead > t + 1e-9 * abs(t)

    def group(s0: int, s1: int, g: np.ndarray) -> Generator:
        # the premiums of columns g at shared points s0 .. s1 - 1
        nonlocal t, columns
        whole = g.size == n_g
        py = [y[s0:s1] if whole else y[s0:s1, g] for y in pp]
        stale = None if bad is None else bad[s0:s1] if whole else bad[s0:s1, g]
        if stale is not None and not stale.any():
            stale = None
        columns += (s1 - s0) * g.size
        step_b = min(n_b, max(1, cap // ((s1 - s0) * g.size)))
        for b0 in range(0, n_b, step_b):
            b1 = min(b0 + step_b, n_b)
            size = (s1 - s0) * (b1 - b0) * g.size
            prem = buf[:size].reshape(s1 - s0, b1 - b0, g.size)
            term = buf[size:2 * size].reshape(prem.shape)
            for k, (x, y) in enumerate(zip(bb, py)):
                np.multiply(x[s0:s1, b0:b1, None], y[:, None, :], out=term if k else prem)
                if k:
                    np.add(prem, term, out=prem)
            if stale is not None:
                np.copyto(prem, np.inf, where=stale[:, None, :])
            sent = yield prem, (i_s[s0:s1], i_b[b0:b1], i_g[g])
            if sent is not None:
                t = sent

    # half a block of columns per chunk: the bound's few temporaries of
    # that size stay within the two block buffers
    chunk = max(step_s, rows // 2)
    for c0 in range(0, n_s, chunk):
        c1 = min(c0 + chunk, n_s)
        ok = np.ones((c1 - c0, n_g), bool) if bad is None else ~bad[c0:c1]
        lead = None
        # a chunk that fits in one block is evaluated whole: a bound
        # could not save a block there
        if (c1 - c0) * n_b * n_g > cap and ok.any():
            q = [y[c0:c1] for y in pp]
            lo = [x[c0:c1].min(axis=1) for x in drift]
            hi = [x[c0:c1].max(axis=1) for x in drift]
            lead = _column_bound(q, [x[:, None] for x in lo], [x[:, None] for x in hi], sweep=False)
            lead[~ok] = np.inf
            s, g = divmod(int(np.argmin(lead)), n_g)
            if not over(lead[s, g]):
                yield from group(c0 + s, c0 + s + 1, np.array([g]))
                ok[s, g] = False
            s, g = np.nonzero(ok & ~over(lead))
            if s.size:
                lead[s, g] = np.maximum(lead[s, g], _column_bound(
                    [y[s, g] for y in q], [x[s] for x in lo], [x[s] for x in hi], sweep=True))
        for s0 in range(c0, c1, step_s):
            s1 = min(s0 + step_s, c1)
            keep = ok[s0 - c0:s1 - c0]
            if lead is not None:
                keep = keep & ~over(lead[s0 - c0:s1 - c0])
            g = np.flatnonzero(keep.any(axis=0))
            if g.size:
                yield from group(s0, s1, g)
    return columns, n_s * n_g


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


def corner_scenarios(uset: UncertaintySet, fixed_jump: JumpSpec | None = None) -> list[Scenario]:
    """Scenarios at every corner of the coordinate box (hull corners are
    the vertices themselves).  Deduplicated, deterministic order."""
    box = _CoordBox.build(uset, fixed_jump)
    axes = []
    for lo, hi in zip(box.lo, box.hi):
        axes.append((lo,) if lo == hi else (lo, hi))
    total = math.prod(len(a) for a in axes)
    if total > _CORNER_CAP:
        raise BudgetExceeded(f"{total} corners exceed the cap of {_CORNER_CAP}")
    pts = np.array(list(itertools.product(*axes)), dtype=float)
    # stick-breaking corners map several-to-one onto the hull matrices
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
    # imported here: scipy.stats costs about a second at import
    from scipy.stats import qmc

    box = _CoordBox.build(uset, fixed_jump)
    eng = qmc.Sobol(d=box.dim, scramble=False)
    u = eng.random_base2((count - 1).bit_length())[:count]
    return box.scenarios(box.lo + u * (box.hi - box.lo))


# ---------------------------------------------------------------------------
# convex worst case for diffusion-only sets
# ---------------------------------------------------------------------------


def _sharpe_box(uset: UncertaintySet) -> tuple[np.ndarray, np.ndarray]:
    """Range [lo, hi] of each Sharpe ratio s_i = b_i / vol_i over the set:
    the smallest and largest of the four corner ratios."""
    r = np.stack([uset.drift_lo / uset.vol_lo, uset.drift_lo / uset.vol_hi,
                  uset.drift_hi / uset.vol_lo, uset.drift_hi / uset.vol_hi])
    return r.min(axis=0), r.max(axis=0)


def _gap(s: np.ndarray, corr: np.ndarray, lo: np.ndarray, hi: np.ndarray,
         verts: np.ndarray) -> float:
    """Frank-Wolfe duality gap of s' C^{-1} s at (s, C = corr) over the
    Sharpe box [lo, hi] times the hull of ``verts``.

    With y = C^{-1} s the gradient is (2y, -y'V_k y); the linear
    minimizer takes the box corner s_lin picked by the sign of y and the
    vertex with the largest y'V_k y, so the gap is
    2y.(s - s_lin) + max_k y'V_k y - y'Cy.  By convexity it bounds the
    distance of s' C^{-1} s to the minimum from above.
    """
    y = np.linalg.solve(corr, s)
    s_lin = np.where(y > 0.0, lo, hi)
    q = np.einsum("i,kij,j->k", y, verts, y)
    return float(2.0 * y @ (s - s_lin) + q.max() - y @ corr @ y)


def _frank_wolfe_gap(uset: UncertaintySet, scenario: Scenario) -> float:
    """`_gap` at a diffusion scenario of the set, in its Sharpe and
    correlation coordinates."""
    lo, hi = _sharpe_box(uset)
    return _gap(scenario.drift / scenario.vols, scenario.corr, lo, hi, uset.corr_hull)


def _scenario_from_sharpe(uset: UncertaintySet, s: np.ndarray, corr: np.ndarray) -> Scenario:
    """Canonical scenario of the set with Sharpe ratios ``s``: each vol at
    its upper bound when b = s vol stays in the drift box, else b clamped
    to the bound it crosses and vol = b / s (the `IgnoreSecond` rule).
    s_i = 0 gives b_i = 0 at the upper vol."""
    vols = uset.vol_hi.copy()
    b = s * vols
    out = (b < uset.drift_lo) | (b > uset.drift_hi)
    b = np.clip(b, uset.drift_lo, uset.drift_hi)
    vols[out] = np.clip(b[out] / s[out], uset.vol_lo[out], uset.vol_hi[out])
    return Scenario(b, build_covariance(vols, corr))


def _worst_case_convex(uset: UncertaintySet) -> WorstCaseResult:
    """Certified minimum of s' C^{-1} s over the Sharpe box times the
    correlation hull, for a diffusion-only set of any size.

    The variables are s and the weights w of C = sum_k w_k V_k on the
    simplex.  From s at the box point nearest 0 and uniform weights,
    Newton steps on the active face (free s coordinates and the weights in
    the support, or tied with the largest y'V_k y) run until the
    Frank-Wolfe gap stops falling or drops below `_POLISH_RTOL`
    (1 + premium).  A run that ends above `_GAP_RTOL` (1 + premium) is
    repeated once from all weight on the vertex of least s' V_k^{-1} s;
    when that is not certified either, `BudgetExceeded` is raised: no
    uncertified answer is returned.
    """
    lo, hi = _sharpe_box(uset)
    # the distinct hull matrices, in first-occurrence order
    verts = uset.corr_hull[np.sort(np.unique(uset.corr_hull, axis=0, return_index=True)[1])]
    m = len(verts)
    s0 = np.clip(0.0, lo, hi)
    evals = 0

    def value(s, w):
        nonlocal evals
        evals += 1
        corr = np.tensordot(w, verts, axes=1)
        y = np.linalg.solve(corr, s)
        return float(s @ y), corr, y

    def polish(w: np.ndarray) -> tuple[Scenario, float, float]:
        # the scenario, premium and gap reached from (s0, w)
        s = s0
        f, corr, y = value(s, w)
        gap = _gap(s, corr, lo, hi, verts)
        for _ in range(_POLISH_STEPS):
            if gap <= _POLISH_RTOL * (1.0 + f):
                break
            ds, dw = _face_newton_step(s, w, corr, y, lo, hi, verts)
            # the longest feasible step along the Newton direction, halved
            # until it lowers the premium, or lowers the gap with the premium
            # unchanged to rounding (near the minimum the premium moves with
            # the square of the step, the gap linearly)
            with np.errstate(divide="ignore", invalid="ignore"):
                reach = np.concatenate([np.where(ds > 0, hi - s, lo - s) / ds, -w / dw])
            alpha = min(1.0, reach[np.concatenate([ds != 0, dw < 0])].min(initial=1.0))
            for _ in range(40):
                s_new = np.clip(s + alpha * ds, lo, hi)
                w_new = np.maximum(w + alpha * dw, 0.0)
                w_new /= w_new.sum()
                f_new, corr_new, y_new = value(s_new, w_new)
                gap_new = _gap(s_new, corr_new, lo, hi, verts)
                if f_new < f or (f_new <= f + 1e-15 * (1.0 + f) and gap_new < gap):
                    break
                alpha *= 0.5
            else:
                break
            s, w, f, corr, y, gap = s_new, w_new, f_new, corr_new, y_new, gap_new

        corr = corr.copy()
        np.fill_diagonal(corr, 1.0)
        scen = _scenario_from_sharpe(uset, s, corr)
        return scen, scenario_premium(scen), _frank_wolfe_gap(uset, scen)

    scen, premium, gap = polish(np.full(m, 1.0 / m))
    if not gap <= _GAP_RTOL * (1.0 + premium) and m > 1:
        least = np.argmin([s0 @ np.linalg.solve(v, s0) for v in verts])
        scen, premium, gap = polish(np.eye(m)[least])
    if not gap <= _GAP_RTOL * (1.0 + premium):
        raise BudgetExceeded(
            f"convex worst case not certified: Frank-Wolfe gap {gap:.3g} above "
            f"{_GAP_RTOL:g} (1 + premium) after {_POLISH_STEPS} polish steps")
    return WorstCaseResult(scen, premium, NUMERIC, evaluations=evals, gap=gap)


def _face_newton_step(s, w, corr, y, lo, hi, verts):
    """Newton direction (ds, dw) for s' C^{-1} s on the active face at
    (s, w), with C = corr = sum_k w_k V_k and y = C^{-1} s.

    s_i is held when it sits (within 1e-9) on a bound that its gradient
    2 y_i pushes against, w_k when it is below 1e-12 and its y'V_k y is
    below the largest; a free coordinate on its bound whose Newton step
    points outward is held too, and the step solved again.  A held
    coordinate steps onto its bound (or to zero weight).  On the free
    variables the KKT system of the Hessian
        [[2 C^{-1}, -2 C^{-1} V_k y], [., 2 y'V_k C^{-1} V_l y]]
    with sum(dw) = 0 is solved, the Hessian block shifted by 1e-12 of its
    mean diagonal: flat directions (a manifold of minimizers) then stay
    put, and directions of linear descent run to a bound.
    """
    n = s.size
    vy = verts @ y  # (m, n): V_k y
    q = vy @ y
    ci_vy = np.linalg.solve(corr, vy.T)  # (n, m): C^{-1} V_k y
    hess = 2.0 * np.block([[np.linalg.inv(corr), -ci_vy], [-ci_vy.T, vy @ ci_vy]])
    grad = np.concatenate([2.0 * y, -q])

    x = np.concatenate([s, w])
    x_lo = np.concatenate([lo, np.zeros(w.size)])
    x_hi = np.concatenate([hi, np.zeros(w.size)])
    width = hi - lo
    at_lo = np.concatenate([s - lo <= 1e-9 * (1.0 + width), w <= 1e-12])
    at_hi = np.concatenate([hi - s <= 1e-9 * (1.0 + width), np.zeros(w.size, bool)])
    hold_lo = at_lo & np.concatenate([(y >= 0.0) | (width == 0.0),
                                      q < q.max() - 1e-12 * (1.0 + abs(q.max()))])
    hold_hi = at_hi & np.concatenate([y <= 0.0, np.zeros(w.size, bool)]) & ~hold_lo
    d = np.zeros(x.size)
    while not (hold_lo | hold_hi).all():
        idx = np.flatnonzero(~(hold_lo | hold_hi))
        k = idx.size
        kkt = np.zeros((k + 1, k + 1))
        h = hess[np.ix_(idx, idx)]
        kkt[:k, :k] = h + 1e-12 * np.trace(h) / k * np.eye(k)
        kkt[:k, k] = kkt[k, :k] = idx >= n
        d[:] = 0.0
        d[idx] = np.linalg.solve(kkt, np.concatenate([-grad[idx], [0.0]]))[:k]
        out_lo = at_lo & (d < 0.0) & ~hold_lo
        out_hi = at_hi & (d > 0.0) & ~hold_hi
        if not (out_lo.any() or out_hi.any()):
            break
        hold_lo |= out_lo
        hold_hi |= out_hi
    # held coordinates move onto their bound (or to zero weight)
    d = np.where(hold_lo, x_lo - x, np.where(hold_hi, x_hi - x, d))
    return d[:n], d[n:]


# ---------------------------------------------------------------------------
# numeric worst-case search
# ---------------------------------------------------------------------------


def worst_case_numeric(
    uset: UncertaintySet,
    criterion: Criterion | None = None,
    jump: JumpSpec | None = None,
    resolution: int = DEFAULT_RESOLUTION,
    refinements: int = DEFAULT_REFINEMENTS,
) -> WorstCaseResult:
    """Minimal risk premium over any set, by the cheapest exact method.

    A diffusion-only set (no jump ambiguity, and no fixed jump or an
    inert one, see `_inert`) goes to the certified convex solver
    `_worst_case_convex`, for any asset count; ``resolution`` and
    ``refinements`` then play no part, and an inert jump is put back on
    the result.  A set with jump ambiguity or a fixed jump that moves the
    moments runs the grid search `_worst_case_grid`, which evaluates only
    the grid columns that a convex lower bound leaves in play and returns
    the bits of the whole grid.  The grid arguments are checked on every
    call.
    """
    if resolution < 2:
        raise InvalidBounds("grid resolution must be at least 2")
    if refinements < 0:
        raise InvalidBounds("refinements must be at least 0")
    box = _CoordBox.build(uset, jump)
    if uset.is_singleton:
        return _degenerate_result(uset, jump)
    if uset.jump_bounds is None and _inert(jump):
        return _with_jump(_worst_case_convex(uset), jump)
    return _worst_case_grid(box, resolution, refinements)


def _inert(jump: JumpSpec | None) -> bool:
    """No fixed jump, or one whose drift and covariance adjustments are all
    zero: every premium is then the diffusion premium."""
    return jump is None or not (np.any(jump.drift_adjustment())
                                or np.any(jump.covariance_adjustment()))


def _with_jump(res: WorstCaseResult, jump: JumpSpec | None) -> WorstCaseResult:
    """``res`` with an inert jump put back, so that simulation still jumps."""
    return res if jump is None else replace(res, scenario=res.scenario.with_jump(jump))


def _worst_case_grid(box: _CoordBox, resolution: int = DEFAULT_RESOLUTION,
                     refinements: int = DEFAULT_REFINEMENTS) -> WorstCaseResult:
    """Grid search plus box refinement for the minimal risk premium.

    Each pass lays `resolution` points per non-degenerate coordinate
    (auto-reduced to respect `DEFAULT_MAX_EVALS`) and takes the minimum of the
    jump-adjusted premium over the grid, for any asset count, as a
    running minimum over the blocks of `_CoordBox.grid_premiums`, which
    skip the columns that a lower bound shows cannot reach it; it then
    shrinks every coordinate interval to a fifth of its width around the
    incumbent and repeats, ``refinements`` times.  Within a pass, ties
    keep the lexicographically smallest grid index whatever the blocks;
    the incumbent is only replaced by a strictly better point, so results
    are deterministic.  ``evaluations`` counts every grid point, skipped
    columns included.  Each pass logs one DEBUG line with its points,
    invalid points, blocks, columns evaluated out of all, minimum and
    seconds.
    """
    free = box.hi > box.lo
    d = int(np.count_nonzero(free))
    max_evals = DEFAULT_MAX_EVALS
    res = resolution
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

    for k in range(refinements + 1):
        tic = time.perf_counter()
        axes = [np.linspace(a, b, res) if a < b else np.array([a]) for a, b in zip(lo, hi)]
        shape = tuple(len(a) for a in axes)
        invalid, blocks = box.grid_premiums(axes)
        val, j, n_blocks, (kept, columns) = _pass_minimum(blocks)
        evals += math.prod(shape)
        skipped += invalid
        if val < best_val:
            best_val = val
            at = np.unravel_index(j, shape)
            best_pt = np.array([axes[c][at[c]] for c in range(box.dim)])
        _log.debug("grid pass %d: %d points, %d invalid, %d blocks, %d of %d columns, "
                   "minimum %.17g, %.4f s", k, math.prod(shape), invalid, n_blocks, kept,
                   columns, val, time.perf_counter() - tic)
        if best_pt is None:
            raise NotPositiveDefinite(
                "every grid point failed factorization or has invalid jump moments")
        width = (hi - lo) / 5.0
        lo = np.maximum(box.lo, best_pt - 0.5 * width)
        hi = np.minimum(box.hi, best_pt + 0.5 * width)

    scen = box.scenario_at(best_pt)
    return WorstCaseResult(scen, best_val, NUMERIC, evaluations=evals, skipped=skipped)


def _pass_minimum(blocks: Generator) -> tuple[float, int, int, tuple[int, int] | None]:
    """Smallest premium over the blocks of `_CoordBox.grid_premiums`, the
    smallest flat grid index attaining it (-1 when every point reads
    +inf), the number of blocks, and the value the generator returns: the
    (evaluated, total) column counts.  The running minimum is sent back
    after each block."""
    val, at, n_blocks = np.inf, -1, 0
    try:
        block = next(blocks)
        while True:
            prem, (i_s, i_b, i_g) = block
            n_blocks += 1
            v = float(prem.min())
            if v < val or (v == val < np.inf):
                s, b, g = np.nonzero(prem == v)
                j = int((i_s[s] + i_b[b] + i_g[g]).min())
                if v < val or j < at:
                    val, at = v, j
            block = blocks.send(val)
    except StopIteration as stop:
        return val, at, n_blocks, stop.value


def find_worst_case(
    uset: UncertaintySet,
    criterion: Criterion | None = None,
    jump: JumpSpec | None = None,
    resolution: int = DEFAULT_RESOLUTION,
    refinements: int = DEFAULT_REFINEMENTS,
) -> WorstCaseResult:
    """Dispatch to the cheapest exact solver available.

    Singletons short-circuit; two-asset diffusion sets satisfying the
    ordering assumption use the explicit case split (an inert jump spec,
    see `_inert`, is dropped first and put back on the result);
    everything else runs `worst_case_numeric`: the certified convex
    solver without jumps, the grid search with them.
    """
    if jump is not None and uset.jump_bounds is not None:
        raise InvalidBounds("a fixed jump spec and jump ambiguity bounds are exclusive")
    if uset.is_singleton:
        return _degenerate_result(uset, jump)
    if (
        uset.n == 2
        and uset.jump_bounds is None
        and _inert(jump)
        and uset.two_asset_ordering_holds()
    ):
        return _with_jump(worst_case_two_asset(uset, criterion), jump)
    return worst_case_numeric(uset, criterion, jump=jump,
                              resolution=resolution, refinements=refinements)
