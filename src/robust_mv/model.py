"""Domain types for the robust mean-variance engine.

Uncertainty sets, market scenarios, jump specifications, optimization
criteria and wealth dynamics.  Everything downstream (worst-case search,
closed-form strategies, PDE verification, Monte Carlo) consumes these
types.  All instances are immutable after construction and safe to share
across threads; arrays are stored read-only.

Conventions
-----------
* drifts are per unit time, volatilities per square-root unit time;
* a scenario is a pair (b, Sigma) of drift vector and covariance matrix,
  optionally extended with a jump specification;
* jump sizes Y live on (-1, inf) so a fully invested position cannot
  lose more than its value in a single jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Sequence

import numpy as np

from .errors import (
    AssumptionViolated,
    DimensionMismatch,
    InvalidBounds,
    NonBankruptcyViolated,
    NotPositiveDefinite,
)

CriterionKind = Literal["terminal_wealth", "log_return", "wealth_scaled"]

CRITERION_KINDS: tuple[str, ...] = ("terminal_wealth", "log_return", "wealth_scaled")

# the worst-case grid search's defaults, here so that a problem file's
# ``worst_case`` block parses without loading the solvers
DEFAULT_RESOLUTION = 21
DEFAULT_REFINEMENTS = 2

_MOMENT_TOL = 1e-12


def _ro(values, dtype=float) -> np.ndarray:
    """Copy into a read-only ndarray (dataclasses here are frozen)."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _require_finite(what: str, *values) -> None:
    for v in values:
        if v is not None and not np.all(np.isfinite(np.asarray(v, dtype=float))):
            raise InvalidBounds(f"{what} must be finite")


def cholesky_or_raise(mat: np.ndarray, what: str = "matrix") -> np.ndarray:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{what} is not positive definite") from exc


def factorizes(mats: np.ndarray) -> np.ndarray:
    """Per-matrix mask over a (..., n, n) stack: does a Cholesky
    factorization succeed?  One batched call; the per-matrix retry runs
    only when some matrix in the stack fails."""
    try:
        np.linalg.cholesky(mats)
        return np.ones(mats.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:
        flat = mats.reshape((-1,) + mats.shape[-2:])
        ok = np.ones(flat.shape[0], dtype=bool)
        for i, m in enumerate(flat):
            try:
                np.linalg.cholesky(m)
            except np.linalg.LinAlgError:
                ok[i] = False
        return ok.reshape(mats.shape[:-2])


def build_covariance(vols: Sequence[float], corr: np.ndarray) -> np.ndarray:
    """Assemble Sigma_ij = sigma_i sigma_j rho_ij and verify it factorizes.

    `corr` must be symmetric with unit diagonal; positive definiteness of
    the result is equivalent to positive definiteness of `corr` and is
    checked by attempting a Cholesky factorization.
    """
    v = np.asarray(vols, dtype=float)
    c = np.asarray(corr, dtype=float)
    if v.ndim != 1 or c.shape != (v.size, v.size):
        raise DimensionMismatch(
            f"vols has length {v.size} but corr has shape {c.shape}"
        )
    if np.any(v <= 0):
        raise InvalidBounds("volatilities must be strictly positive")
    if not np.allclose(c, c.T, atol=1e-12):
        raise NotPositiveDefinite("correlation matrix is not symmetric")
    if not np.allclose(np.diag(c), 1.0, atol=1e-12):
        raise NotPositiveDefinite("correlation matrix must have unit diagonal")
    sigma = np.outer(v, v) * c
    cholesky_or_raise(sigma, "covariance built from vols/corr")
    return sigma


def corr_from_cov(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a covariance matrix into (vols, correlation matrix)."""
    v = np.sqrt(np.diag(cov))
    corr = cov / np.outer(v, v)
    return v, corr


# ---------------------------------------------------------------------------
# jump-size laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpSizeLaw:
    """One-dimensional jump-size distribution with support in (-1, inf).

    The analytic first and second moments are exposed because the closed
    forms depend on the law only through them, while the simulator draws
    exact sizes by inverting the CDF at uniforms (``quantile``), so one
    uniform per event keeps the sizes coupled across runs whose jump
    intensities differ.  Supported samplers:

    * ``two-point``: values (a, b) with P(a) = p; the quantile is a
      comparison against the probability of the smaller value;
    * ``uniform``: uniform on (lo, hi) with lo > -1; the quantile is affine;
    * ``shifted-lognormal``: exp(Z) - 1 with Z ~ N(m, s^2); the quantile is
      exp(m + s ndtri(u)) - 1.
    """

    sampler: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        _require_finite("jump-size law parameters", self.params)
        if self.sampler == "two-point":
            a, b, p = self.params
            if not (0.0 <= p <= 1.0):
                raise InvalidBounds("two-point probability must lie in [0, 1]")
            if min(a, b) <= -1.0:
                raise InvalidBounds("jump sizes must stay above -1")
        elif self.sampler == "uniform":
            lo, hi = self.params
            if lo <= -1.0 or hi < lo:
                raise InvalidBounds("uniform jump support must be an interval in (-1, inf)")
        elif self.sampler == "shifted-lognormal":
            _, s = self.params
            if s < 0:
                raise InvalidBounds("lognormal scale must be nonnegative")
        else:
            raise InvalidBounds(f"unknown jump-size sampler {self.sampler!r}")

    # --- constructors -----------------------------------------------------

    @classmethod
    def two_point(cls, a: float, b: float, p: float) -> "JumpSizeLaw":
        return cls("two-point", (float(a), float(b), float(p)))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "JumpSizeLaw":
        return cls("uniform", (float(lo), float(hi)))

    @classmethod
    def shifted_lognormal(cls, m: float, s: float) -> "JumpSizeLaw":
        return cls("shifted-lognormal", (float(m), float(s)))

    @classmethod
    def two_point_from_moments(cls, mean: float, second_moment: float) -> "JumpSizeLaw":
        """Symmetric-probability two-point law matching both moments exactly."""
        var = second_moment - mean * mean
        if var < -_MOMENT_TOL:
            raise InvalidBounds("second moment below squared mean")
        s = math.sqrt(max(var, 0.0))
        return cls.two_point(mean - s, mean + s, 0.5)

    # --- analytic moments ---------------------------------------------------

    @property
    def mean(self) -> float:
        if self.sampler == "two-point":
            a, b, p = self.params
            return p * a + (1.0 - p) * b
        if self.sampler == "uniform":
            lo, hi = self.params
            return 0.5 * (lo + hi)
        m, s = self.params
        return math.exp(m + 0.5 * s * s) - 1.0

    @property
    def second_moment(self) -> float:
        if self.sampler == "two-point":
            a, b, p = self.params
            return p * a * a + (1.0 - p) * b * b
        if self.sampler == "uniform":
            lo, hi = self.params
            return (lo * lo + lo * hi + hi * hi) / 3.0
        m, s = self.params
        return math.exp(2.0 * m + 2.0 * s * s) - 2.0 * math.exp(m + 0.5 * s * s) + 1.0

    def check_stated_moments(self, mean: float, second_moment: float) -> None:
        """Reject stated moments that disagree with the sampler's analytic ones."""
        if abs(self.mean - mean) > _MOMENT_TOL or abs(self.second_moment - second_moment) > _MOMENT_TOL:
            raise InvalidBounds(
                "stated jump moments do not match the sampler: "
                f"analytic ({self.mean!r}, {self.second_moment!r}) vs stated ({mean!r}, {second_moment!r})"
            )

    # --- sampling -----------------------------------------------------------

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.quantile(rng.random(size))

    def quantile(self, u) -> np.ndarray:
        """Inverse CDF at uniforms u in [0, 1): nondecreasing in u."""
        u = np.asarray(u, dtype=float)
        if self.sampler == "two-point":
            a, b, p = self.params
            if a > b:
                a, b, p = b, a, 1.0 - p
            return np.where(u < p, a, b)
        if self.sampler == "uniform":
            lo, hi = self.params
            return lo + (hi - lo) * u
        # imported here: scipy.special costs about a third of a second at import
        from scipy.special import ndtri

        m, s = self.params
        return np.exp(m + s * ndtri(u)) - 1.0


# ---------------------------------------------------------------------------
# jump specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompoundPoissonJumps:
    """Multivariate compound Poisson jumps with per-type size laws.

    Stocks load on k independent Poisson streams through the
    ``loadings`` matrix (n x k, entries in [0, 1]); stream l fires with
    intensity ``intensity[l]`` and multiplies each loading by an
    independent draw from ``size_laws[l]``.
    """

    loadings: np.ndarray
    intensity: np.ndarray
    size_laws: tuple[JumpSizeLaw, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "loadings", _ro(self.loadings))
        object.__setattr__(self, "intensity", _ro(self.intensity))
        J, mu = self.loadings, self.intensity
        if J.ndim != 2:
            raise DimensionMismatch("loadings must be an n x k matrix")
        k = J.shape[1]
        if mu.shape != (k,) or len(self.size_laws) != k:
            raise DimensionMismatch("intensity and size_laws must have one entry per jump type")
        _require_finite("jump loadings and intensities", J, mu)
        if np.any(mu <= 0):
            raise InvalidBounds("jump intensities must be strictly positive")
        if np.any(J < 0) or np.any(J > 1):
            raise InvalidBounds("jump loadings must lie in [0, 1]")
        if np.linalg.matrix_rank(J) != k:
            raise InvalidBounds("jump loading matrix must have full column rank")
        for law in self.size_laws:
            if law.second_moment < law.mean**2 - _MOMENT_TOL:
                raise InvalidBounds("jump-size law with inconsistent moments")

    @property
    def n_assets(self) -> int:
        return self.loadings.shape[0]

    @property
    def n_types(self) -> int:
        return self.loadings.shape[1]

    def mean_sizes(self) -> np.ndarray:
        return np.array([law.mean for law in self.size_laws])

    def second_moments(self) -> np.ndarray:
        return np.array([law.second_moment for law in self.size_laws])

    def drift_adjustment(self) -> np.ndarray:
        """J E[Y] mu, the expected relative jump flow per asset per unit time."""
        return self.loadings @ (self.intensity * self.mean_sizes())

    def covariance_adjustment(self) -> np.ndarray:
        """sum_l mu_l E[Y_l^2] J_l J_l^T, positive semidefinite by construction."""
        w = self.intensity * self.second_moments()
        return (self.loadings * w) @ self.loadings.T

    def compensation_within_unit(self) -> bool:
        """Whether sum_l |mu_l E[Y_l] J_il| < 1 for every asset i.

        The expected jump flow is only a small correction to the drift
        when this holds; configurations violating it are rejected by
        `validate_compensation`.
        """
        per_asset = np.abs(self.loadings) @ np.abs(self.intensity * self.mean_sizes())
        return bool(np.all(per_asset < 1.0))

    def validate_compensation(self) -> None:
        if not self.compensation_within_unit():
            raise InvalidBounds(
                "expected jump flow |mu E[Y]| J exceeds 1 for some asset; "
                "reduce intensities or mean jump sizes"
            )


@dataclass(frozen=True)
class DiscreteLevyJumps:
    """Finite atom list {(z_j, f_j)} standing in for a Levy measure.

    Continuous measures must be pre-discretized; the closed forms depend on
    the measure only through sum f_j z_j and sum f_j z_j z_j^T.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", _ro(np.atleast_2d(self.atoms)))
        object.__setattr__(self, "weights", _ro(self.weights))
        z, f = self.atoms, self.weights
        if f.ndim != 1 or z.shape[0] != f.size:
            raise DimensionMismatch("need one weight per atom")
        if not np.all(np.isfinite(z)) or not np.all(np.isfinite(f)):
            raise InvalidBounds("atoms and weights must be finite")
        if np.any(f <= 0):
            raise InvalidBounds("atom weights must be strictly positive")

    @property
    def n_assets(self) -> int:
        return self.atoms.shape[1]

    def drift_adjustment(self) -> np.ndarray:
        return self.weights @ self.atoms

    def covariance_adjustment(self) -> np.ndarray:
        return (self.atoms.T * self.weights) @ self.atoms


JumpSpec = CompoundPoissonJumps | DiscreteLevyJumps


def surrogate_atoms(loadings, intensity, mean, second):
    """Moment-matching two-point surrogate of compound-Poisson jumps.

    Each jump type l becomes two atoms, the sizes mean_l -+ s_l with
    s_l = sqrt(second_l - mean_l^2), each firing at intensity mu_l / 2:
    solved strategies depend on a size law only through its first two
    moments, which the surrogate reproduces exactly.  ``intensity``,
    ``mean`` and ``second`` broadcast over leading sample axes ``...``
    with the type axis last, (..., k); ``loadings`` is (n, k).

    Returns, atom axis first in the order (type 0 lower, type 0 upper,
    type 1 lower, ...): the sizes (2k, ...), the per-asset jumps vec
    (2k, ..., n), the weights (2k, ...) and the validity mask (...).  A
    point is valid when every type has variance second - mean^2 >=
    -_MOMENT_TOL and a lower atom above -1.
    """
    intensity, mean, second = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                                    for a in (intensity, mean, second)))
    var = second - mean * mean
    s = np.sqrt(np.maximum(var, 0.0))
    valid = np.all((var >= -_MOMENT_TOL) & (mean - s > -1.0), axis=-1)
    size = np.moveaxis(np.stack([mean - s, mean + s], axis=-1).reshape(mean.shape[:-1] + (-1,)), -1, 0)
    weight = np.moveaxis(np.repeat(intensity * 0.5, 2, axis=-1), -1, 0)
    cols = np.asarray(loadings, dtype=float).T[np.repeat(np.arange(mean.shape[-1]), 2)]
    vec = size[..., None] * cols.reshape((cols.shape[0],) + (1,) * (size.ndim - 1) + cols.shape[1:])
    return size, vec, weight, valid


def atom_arrays(jump: JumpSpec | None, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Finite atom table of a jump spec: vec (m, n) and weight (m,).
    Compound-Poisson types become their `surrogate_atoms`."""
    if jump is None:
        return np.zeros((0, n)), np.zeros(0)
    if isinstance(jump, CompoundPoissonJumps):
        return surrogate_atoms(jump.loadings, jump.intensity, jump.mean_sizes(), jump.second_moments())[1:3]
    return jump.atoms, jump.weights


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One market scenario theta = (b, Sigma [, jumps]).

    The covariance must pass a Cholesky factorization; jump dimensions
    must match the asset count.
    """

    drift: np.ndarray
    cov: np.ndarray
    jump: JumpSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "drift", _ro(self.drift))
        object.__setattr__(self, "cov", _ro(self.cov))
        b, s = self.drift, self.cov
        if b.ndim != 1 or s.shape != (b.size, b.size):
            raise DimensionMismatch(f"drift has length {b.size} but cov has shape {s.shape}")
        _require_finite("scenario drift and covariance", b, s)
        if not np.allclose(s, s.T, atol=1e-10):
            raise NotPositiveDefinite("covariance is not symmetric")
        cholesky_or_raise(s, "scenario covariance")
        if self.jump is not None and self.jump.n_assets != b.size:
            raise DimensionMismatch("jump spec asset count differs from drift length")

    @property
    def n(self) -> int:
        return self.drift.size

    @property
    def vols(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov))

    @property
    def corr(self) -> np.ndarray:
        return corr_from_cov(self.cov)[1]

    def chol(self) -> np.ndarray:
        return self._chol

    @cached_property
    def _chol(self) -> np.ndarray:
        return _ro(np.linalg.cholesky(self.cov))

    def with_jump(self, jump: JumpSpec | None) -> "Scenario":
        return Scenario(self.drift, self.cov, jump)

    @cached_property
    def arrays(self) -> "ScenarioArrays":
        """This scenario as a `ScenarioArrays` with no sample axis."""
        return ScenarioArrays(self.drift, self.cov, *atom_arrays(self.jump, self.n))


@dataclass(frozen=True)
class ScenarioArrays:
    """Scenarios as stacked arrays over leading sample axes ``...``.

    drift (..., n), cov (..., n, n), and the atom table (`atom_arrays`)
    with the atom axis first: vec (m, ..., n) and weight (m, ...).  The
    table is finite, so no atom is compensated and ``drift`` is the raw
    drift.  This is the form the wealth dynamics and the PDE operators
    broadcast over; a `Scenario` is the case with no sample axis.
    Validation happens where the stack is built.
    """

    drift: np.ndarray
    cov: np.ndarray
    atom_vec: np.ndarray
    atom_weight: np.ndarray

    @property
    def arrays(self) -> "ScenarioArrays":
        return self


def adjusted_moments(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Jump-adjusted drift and second-moment matrix (b_F, Sigma_F).

    Without jumps this returns (b, Sigma) unchanged; the jump adjustment
    adds the expected jump flow to the drift and a positive semidefinite
    term to the covariance, so positive definiteness is preserved.
    """
    if scenario.jump is None:
        return np.array(scenario.drift), np.array(scenario.cov)
    b_f = scenario.drift + scenario.jump.drift_adjustment()
    sigma_f = scenario.cov + scenario.jump.covariance_adjustment()
    return b_f, sigma_f


# ---------------------------------------------------------------------------
# jump ambiguity bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompoundPoissonBounds:
    """Boxes for the adversary's jump choice: intensity and the first two
    size moments per jump type, with fixed loadings."""

    loadings: np.ndarray
    intensity_lo: np.ndarray
    intensity_hi: np.ndarray
    mean_lo: np.ndarray
    mean_hi: np.ndarray
    second_lo: np.ndarray
    second_hi: np.ndarray

    def __post_init__(self) -> None:
        names = ("loadings", "intensity_lo", "intensity_hi", "mean_lo", "mean_hi", "second_lo", "second_hi")
        for name in names:
            object.__setattr__(self, name, _ro(getattr(self, name)))
        _require_finite("jump bounds", *(getattr(self, name) for name in names))
        if self.loadings.ndim != 2:
            raise DimensionMismatch("loadings must be an n x k matrix")
        k = self.loadings.shape[1]
        for lo, hi, what in (
            (self.intensity_lo, self.intensity_hi, "intensity"),
            (self.mean_lo, self.mean_hi, "mean"),
            (self.second_lo, self.second_hi, "second moment"),
        ):
            if lo.shape != (k,) or hi.shape != (k,):
                raise DimensionMismatch(f"jump {what} bounds need one entry per type")
            if np.any(lo > hi):
                raise InvalidBounds(f"jump {what} bounds are unordered")
        if np.any(self.intensity_lo <= 0):
            raise InvalidBounds("jump intensities must stay strictly positive")
        if np.any(self.loadings < 0) or np.any(self.loadings > 1):
            raise InvalidBounds("jump loadings must lie in [0, 1]")
        if np.linalg.matrix_rank(self.loadings) != k:
            raise InvalidBounds("jump loading matrix must have full column rank")

    def spec_at(self, intensity, means, seconds) -> CompoundPoissonJumps:
        laws = tuple(
            JumpSizeLaw.two_point_from_moments(m, s) for m, s in zip(means, seconds)
        )
        return CompoundPoissonJumps(self.loadings, np.asarray(intensity, dtype=float), laws)


@dataclass(frozen=True)
class DiscreteLevyBounds:
    """Weight intervals per atom of a discrete Levy measure."""

    atoms: np.ndarray
    weight_lo: np.ndarray
    weight_hi: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", _ro(np.atleast_2d(self.atoms)))
        object.__setattr__(self, "weight_lo", _ro(self.weight_lo))
        object.__setattr__(self, "weight_hi", _ro(self.weight_hi))
        _require_finite("jump bounds", self.atoms, self.weight_lo, self.weight_hi)
        m = self.atoms.shape[0]
        if self.weight_lo.shape != (m,) or self.weight_hi.shape != (m,):
            raise DimensionMismatch("need one weight interval per atom")
        if np.any(self.weight_lo > self.weight_hi) or np.any(self.weight_lo <= 0):
            raise InvalidBounds("atom weight intervals must be ordered and positive")

    def spec_at(self, weights) -> DiscreteLevyJumps:
        return DiscreteLevyJumps(self.atoms, np.asarray(weights, dtype=float))


JumpBounds = CompoundPoissonBounds | DiscreteLevyBounds


# ---------------------------------------------------------------------------
# uncertainty sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UncertaintySet:
    """Product uncertainty set: a drift box times a covariance family.

    The covariance family is given per asset count: nothing for one
    asset, a correlation interval [rho_lo, rho_hi] for two, and the convex
    hull of user-supplied positive definite correlation matrices for more.
    Downstream code reads one normal form, `corr_hull`: every family is
    the convex hull of a stack of correlation matrices, and each
    correlation is sampled as a convex combination of them, with
    volatilities from the marginal boxes.  Jump ambiguity enters through
    an optional box on intensities and size moments.
    """

    drift_lo: np.ndarray
    drift_hi: np.ndarray
    vol_lo: np.ndarray
    vol_hi: np.ndarray
    rho_lo: float | None = None
    rho_hi: float | None = None
    corr_vertices: tuple[np.ndarray, ...] | None = None
    jump_bounds: JumpBounds | None = None

    def __post_init__(self) -> None:
        for name in ("drift_lo", "drift_hi", "vol_lo", "vol_hi"):
            object.__setattr__(self, name, _ro(getattr(self, name)))
        _require_finite("drift and volatility bounds",
                        self.drift_lo, self.drift_hi, self.vol_lo, self.vol_hi)
        _require_finite("correlation bounds", self.rho_lo, self.rho_hi)
        n = self.drift_lo.size
        for name in ("drift_hi", "vol_lo", "vol_hi"):
            if getattr(self, name).shape != (n,):
                raise DimensionMismatch("bound vectors must share one length")
        if np.any(self.drift_lo > self.drift_hi) or np.any(self.vol_lo > self.vol_hi):
            raise InvalidBounds("lower bounds must not exceed upper bounds")
        if np.any(self.vol_lo <= 0):
            raise InvalidBounds("volatility lower bounds must be strictly positive")
        if n == 1:
            if self.rho_lo is not None or self.corr_vertices is not None:
                raise InvalidBounds("single-asset sets carry no correlation ambiguity")
        elif n == 2:
            if self.corr_vertices is not None:
                raise InvalidBounds("two-asset sets use a correlation interval, not a hull")
            if self.rho_lo is None or self.rho_hi is None:
                raise InvalidBounds("two-asset sets need a correlation interval")
            if not (-1.0 < self.rho_lo <= self.rho_hi < 1.0):
                raise InvalidBounds("correlation interval must satisfy -1 < lo <= hi < 1")
        else:
            if self.corr_vertices is None or len(self.corr_vertices) == 0:
                raise InvalidBounds("sets with n > 2 need correlation hull vertices")
            if self.rho_lo is not None or self.rho_hi is not None:
                raise InvalidBounds("hull sets do not take a correlation interval")
            verts = tuple(_ro(v) for v in self.corr_vertices)
            object.__setattr__(self, "corr_vertices", verts)
            _require_finite("correlation hull vertices", *verts)
            for v in verts:
                if v.shape != (n, n):
                    raise DimensionMismatch("correlation vertices must be n x n")
                build_covariance(np.ones(n), v)
        jb = self.jump_bounds
        if isinstance(jb, CompoundPoissonBounds) and jb.loadings.shape[0] != n:
            raise DimensionMismatch("jump bounds loadings row count must match assets")
        if isinstance(jb, DiscreteLevyBounds) and jb.atoms.shape[1] != n:
            raise DimensionMismatch("jump bounds atom column count must match assets")
        # every corner must factor: with |rho| < 1 (or PD vertices) any
        # vol corner yields a PD covariance, so only the hull needs work
        # and the loop above already did it.

    # --- constructors -----------------------------------------------------

    @classmethod
    def single_asset(cls, drift: tuple[float, float], vol: tuple[float, float],
                     jump_bounds: JumpBounds | None = None) -> "UncertaintySet":
        return cls([drift[0]], [drift[1]], [vol[0]], [vol[1]], jump_bounds=jump_bounds)

    @classmethod
    def two_asset(
        cls,
        drift1: tuple[float, float],
        drift2: tuple[float, float],
        vol1: tuple[float, float],
        vol2: tuple[float, float],
        rho: tuple[float, float],
        jump_bounds: JumpBounds | None = None,
        require_ordering: bool = True,
    ) -> "UncertaintySet":
        """Two-asset product set for the case-split worst-case solver.

        By construction asset 1 is the one with the (weakly) better drift
        and tighter volatility: the solver requires drift2 <= drift1 and
        vol2 >= vol1 bound-by-bound, plus nonnegative drift lower bounds.
        Pass ``require_ordering=False`` only for sets meant exclusively
        for the numeric search.
        """
        out = cls(
            [drift1[0], drift2[0]],
            [drift1[1], drift2[1]],
            [vol1[0], vol2[0]],
            [vol1[1], vol2[1]],
            rho_lo=float(rho[0]),
            rho_hi=float(rho[1]),
            jump_bounds=jump_bounds,
        )
        if require_ordering:
            out.check_two_asset_ordering()
        return out

    @classmethod
    def hull(cls, drift_lo, drift_hi, vol_lo, vol_hi, corr_vertices,
             jump_bounds: JumpBounds | None = None) -> "UncertaintySet":
        return cls(drift_lo, drift_hi, vol_lo, vol_hi,
                   corr_vertices=tuple(corr_vertices), jump_bounds=jump_bounds)

    @classmethod
    def point(cls, scenario: Scenario) -> "UncertaintySet":
        """Singleton set containing exactly one diffusion scenario."""
        v, corr = corr_from_cov(scenario.cov)
        n = scenario.n
        if n == 1:
            return cls(scenario.drift, scenario.drift, v, v)
        if n == 2:
            rho = float(corr[0, 1])
            return cls(scenario.drift, scenario.drift, v, v, rho_lo=rho, rho_hi=rho)
        return cls(scenario.drift, scenario.drift, v, v, corr_vertices=(corr,))

    # --- structure ----------------------------------------------------------

    @property
    def n(self) -> int:
        return self.drift_lo.size

    @cached_property
    def corr_hull(self) -> np.ndarray:
        """The correlation family as the hull of a read-only (m, n, n) stack.

        [[1]] for one asset; for two, (V(rho_hi), V(rho_lo)) with V(r) the
        matrix of correlation r, or one matrix when the ends are equal, so
        hull weights (u, 1 - u) give rho = u rho_hi + (1 - u) rho_lo; for
        more, the vertices as given (not deduplicated).
        """
        if self.n == 1:
            return _ro(np.ones((1, 1, 1)))
        if self.n == 2:
            return _ro([[[1.0, r], [r, 1.0]] for r in dict.fromkeys((self.rho_hi, self.rho_lo))])
        return _ro(self.corr_vertices)

    @property
    def is_singleton(self) -> bool:
        point = bool(
            np.all(self.drift_lo == self.drift_hi) and np.all(self.vol_lo == self.vol_hi)
            and len(self.corr_hull) == 1
        )
        if self.jump_bounds is not None:
            jb = self.jump_bounds
            if isinstance(jb, CompoundPoissonBounds):
                point = point and bool(
                    np.all(jb.intensity_lo == jb.intensity_hi)
                    and np.all(jb.mean_lo == jb.mean_hi)
                    and np.all(jb.second_lo == jb.second_hi)
                )
            else:
                point = point and bool(np.all(jb.weight_lo == jb.weight_hi))
        return point

    def check_two_asset_ordering(self) -> None:
        """Standing assumptions of the two-asset case solver.

        Asset ordering (drift2 bounds below drift1's, vol2 bounds above
        vol1's) plus nonnegative drift lower bounds and positive
        volatility lower bounds.  Raises AssumptionViolated naming the
        first inequality that fails.
        """
        if self.n != 2:
            raise AssumptionViolated("the case solver handles exactly two assets")
        b_lo, b_hi = self.drift_lo, self.drift_hi
        v_lo, v_hi = self.vol_lo, self.vol_hi
        checks = (
            (b_hi[1] <= b_hi[0], f"drift_hi[1] <= drift_hi[0] (got {b_hi[1]} > {b_hi[0]})"),
            (b_lo[1] <= b_lo[0], f"drift_lo[1] <= drift_lo[0] (got {b_lo[1]} > {b_lo[0]})"),
            (v_hi[1] >= v_hi[0], f"vol_hi[1] >= vol_hi[0] (got {v_hi[1]} < {v_hi[0]})"),
            (v_lo[1] >= v_lo[0], f"vol_lo[1] >= vol_lo[0] (got {v_lo[1]} < {v_lo[0]})"),
            (np.all(b_lo >= 0), f"drift_lo >= 0 elementwise (got {b_lo.tolist()})"),
        )
        for ok, msg in checks:
            if not ok:
                raise AssumptionViolated(f"two-asset ordering assumption violated: requires {msg}")

    def two_asset_ordering_holds(self) -> bool:
        try:
            self.check_two_asset_ordering()
        except AssumptionViolated:
            return False
        return True

    def corr_matrix_from_weights(self, weights: np.ndarray) -> np.ndarray:
        """sum_j w_j V_j over `corr_hull` for weights (..., m); returns (..., n, n)."""
        w = np.asarray(weights, dtype=float)
        return sum(w[..., j, None, None] * v for j, v in enumerate(self.corr_hull))

    def contains(self, scenario: Scenario, tol: float = 1e-9) -> bool:
        """Box containment of drift and vols plus hull containment of the
        correlation matrix."""
        if scenario.n != self.n:
            return False
        b, v = scenario.drift, scenario.vols
        if np.any(b < self.drift_lo - tol) or np.any(b > self.drift_hi + tol):
            return False
        if np.any(v < self.vol_lo - tol) or np.any(v > self.vol_hi + tol):
            return False
        # feasibility LP: corr = sum w_j V_j with w >= 0, sum w = 1
        from scipy.optimize import linprog

        m = len(self.corr_hull)
        iu = np.triu_indices(self.n)
        a_eq = np.vstack([self.corr_hull[:, iu[0], iu[1]].T, np.ones((1, m))])
        b_eq = np.concatenate([scenario.corr[iu], [1.0]])
        res = linprog(
            c=np.zeros(m),
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=[(0, None)] * m,
            method="highs",
        )
        if not res.success:
            return False
        return bool(np.max(np.abs(a_eq @ res.x - b_eq)) <= max(tol, 1e-8))


# ---------------------------------------------------------------------------
# criteria and wealth dynamics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Criterion:
    """Which mean-variance problem is being solved.

    ``lam`` is the risk-aversion level; for kind ``wealth_scaled`` the
    effective aversion is lam / x.  The state for ``log_return`` is the
    log of wealth, for the other kinds wealth itself.
    """

    kind: str
    lam: float
    horizon: float
    t0: float = 0.0
    x0: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in CRITERION_KINDS:
            raise InvalidBounds(f"unknown criterion kind {self.kind!r}")
        _require_finite("criterion lam, horizon, t0 and x0", self.lam, self.horizon, self.t0, self.x0)
        if self.lam <= 0:
            raise InvalidBounds("risk aversion must be strictly positive")
        if self.horizon <= self.t0:
            raise InvalidBounds("horizon must exceed the initial time")
        if self.kind == "wealth_scaled" and self.x0 <= 0:
            raise InvalidBounds("wealth-scaled aversion divides by wealth: x0 must be positive")

    @property
    def span(self) -> float:
        return self.horizon - self.t0

    def risk_aversion_at(self, x: float) -> float:
        if self.kind == "wealth_scaled":
            return self.lam / x
        return self.lam


@dataclass(frozen=True)
class WealthDynamics:
    """Drift, diffusion and jump maps of the controlled state.

    * terminal_wealth / wealth_scaled: state is wealth, control alpha is
      money in stocks; drift alpha.b, jump alpha.v per relative jump v.
    * log_return: state is log wealth, control is the fraction of wealth
      in stocks; drift alpha.b - alpha.Sigma.alpha / 2, jump log(1 + alpha.v).

    Every map broadcasts over leading sample axes: alpha (..., n) against
    a `Scenario` or a `ScenarioArrays` stack; scalar inputs give scalars.
    """

    kind: str

    @classmethod
    def for_criterion(cls, criterion: Criterion) -> "WealthDynamics":
        return cls(criterion.kind)

    @property
    def state_is_log(self) -> bool:
        return self.kind == "log_return"

    def drift(self, alpha: np.ndarray, scenario: Scenario | ScenarioArrays):
        base = np.einsum("...i,...i->...", alpha, scenario.arrays.drift)
        if self.state_is_log:
            base = base - 0.5 * self.diffusion_sq(alpha, scenario)
        return base

    def diffusion_sq(self, alpha: np.ndarray, scenario: Scenario | ScenarioArrays):
        return np.einsum("...i,...ij,...j->...", alpha, scenario.arrays.cov, alpha)

    def jump_size(self, alpha: np.ndarray, vec: np.ndarray):
        move = np.einsum("...i,...i->...", alpha, vec)
        if self.state_is_log:
            if np.any(move <= -1.0):
                worst = float(np.min(move))
                raise NonBankruptcyViolated(
                    f"log-state jump 1 + alpha.v = {1.0 + worst} is not positive"
                )
            return np.log1p(move)
        return move


def nonbankruptcy_intervals(alpha: np.ndarray, jump: CompoundPoissonJumps) -> np.ndarray:
    """Per-type exposures alpha.J_l; admissible strategies keep each in [0, 1]."""
    return np.asarray(alpha, dtype=float) @ jump.loadings


def nonbankruptcy_violations(alpha: np.ndarray, jump: CompoundPoissonJumps,
                             tol: float = 1e-12) -> list[int]:
    expo = nonbankruptcy_intervals(alpha, jump)
    return [int(l) for l, e in enumerate(expo) if e < -tol or e > 1.0 + tol]
