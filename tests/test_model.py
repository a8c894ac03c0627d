"""Domain types: covariance assembly, jump moments, set membership."""

import numpy as np
import pytest
from scipy import integrate, stats

import robust_mv as rm
from robust_mv.model import atom_arrays, surrogate_atoms


class TestBuildCovariance:
    def test_identity(self):
        sigma = rm.build_covariance([1.0, 1.0], np.eye(2))
        assert np.array_equal(sigma, np.eye(2))

    def test_direct_arithmetic(self):
        sigma = rm.build_covariance([0.2, 0.25], np.array([[1.0, 0.3], [0.3, 1.0]]))
        assert np.allclose(sigma, [[0.04, 0.015], [0.015, 0.0625]], atol=1e-15)

    def test_degenerate_correlation_rejected(self):
        with pytest.raises(rm.NotPositiveDefinite):
            rm.build_covariance([1.0, 1.0], np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(rm.DimensionMismatch):
            rm.build_covariance([1.0, 1.0, 1.0], np.eye(2))

    def test_nonunit_diagonal_rejected(self):
        with pytest.raises(rm.NotPositiveDefinite):
            rm.build_covariance([1.0, 1.0], np.array([[1.1, 0.0], [0.0, 1.0]]))


class TestJumpSizeLaws:
    def test_two_point_moments(self):
        law = rm.JumpSizeLaw.two_point(-0.1, 0.3, 0.25)
        assert law.mean == pytest.approx(0.25 * -0.1 + 0.75 * 0.3, abs=1e-15)
        assert law.second_moment == pytest.approx(0.25 * 0.01 + 0.75 * 0.09, abs=1e-15)

    def test_uniform_moments(self):
        law = rm.JumpSizeLaw.uniform(-0.2, 0.4)
        assert law.mean == pytest.approx(0.1, abs=1e-15)
        assert law.second_moment == pytest.approx((0.04 - 0.08 + 0.16) / 3.0, abs=1e-15)

    def test_lognormal_moments_match_samples(self):
        law = rm.JumpSizeLaw.shifted_lognormal(-0.1, 0.2)
        rng = np.random.default_rng(1)
        draws = law.sample(rng, 400_000)
        assert np.mean(draws) == pytest.approx(law.mean, abs=3e-3)
        assert np.mean(draws**2) == pytest.approx(law.second_moment, abs=3e-3)

    def test_from_moments_is_exact(self):
        law = rm.JumpSizeLaw.two_point_from_moments(0.1, 0.02)
        law.check_stated_moments(0.1, 0.02)
        assert law.mean == pytest.approx(0.1, abs=1e-15)
        assert law.second_moment == pytest.approx(0.02, abs=1e-15)

    def test_stated_moment_mismatch_rejected(self):
        law = rm.JumpSizeLaw.uniform(0.0, 0.2)
        with pytest.raises(rm.InvalidBounds):
            law.check_stated_moments(0.1, 0.05)

    def test_surrogate_preserves_moments(self):
        for law in (
            rm.JumpSizeLaw.uniform(-0.3, 0.5),
            rm.JumpSizeLaw.shifted_lognormal(0.05, 0.3),
            rm.JumpSizeLaw.two_point(-0.2, 0.6, 0.7),
        ):
            # one jump type of unit loading and intensity: the weights are
            # the atom probabilities
            size, _, weight, valid = surrogate_atoms([[1.0]], [1.0], [law.mean], [law.second_moment])
            assert valid and np.array_equal(weight, [0.5, 0.5])
            assert size @ weight == pytest.approx(law.mean, abs=1e-14)
            assert size**2 @ weight == pytest.approx(law.second_moment, abs=1e-14)

    def test_support_below_minus_one_rejected(self):
        with pytest.raises(rm.InvalidBounds):
            rm.JumpSizeLaw.two_point(-1.5, 0.2, 0.5)
        with pytest.raises(rm.InvalidBounds):
            rm.JumpSizeLaw.uniform(-1.2, 0.0)


_QUANTILE_LAWS = {
    "two-point": (rm.JumpSizeLaw.two_point(-0.1, 0.3, 0.25),
                  stats.rv_discrete(values=([-0.1, 0.3], [0.25, 0.75]))),
    "two-point-descending": (rm.JumpSizeLaw.two_point(0.3, -0.1, 0.75),
                             stats.rv_discrete(values=([-0.1, 0.3], [0.25, 0.75]))),
    "uniform": (rm.JumpSizeLaw.uniform(-0.2, 0.4), stats.uniform(loc=-0.2, scale=0.6)),
    "shifted-lognormal": (rm.JumpSizeLaw.shifted_lognormal(-0.1, 0.2),
                          stats.lognorm(0.2, loc=-1.0, scale=np.exp(-0.1))),
}


class TestJumpSizeQuantile:
    # a grid in (0, 1) that avoids the two-point atom's boundary u = 0.25
    U = (np.arange(1, 2000) + 0.5) / 2001.0

    @pytest.mark.parametrize("name", sorted(_QUANTILE_LAWS))
    def test_matches_scipy_ppf(self, name):
        law, ref = _QUANTILE_LAWS[name]
        assert np.allclose(law.quantile(self.U), ref.ppf(self.U), rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("name", sorted(_QUANTILE_LAWS))
    def test_monotone_in_u(self, name):
        law, _ = _QUANTILE_LAWS[name]
        u = np.concatenate([[0.0], self.U, [np.nextafter(1.0, 0.0)]])
        q = law.quantile(u)
        assert np.all(np.diff(q) >= 0.0)
        assert np.all(q >= -1.0)

    @pytest.mark.parametrize("name", sorted(_QUANTILE_LAWS))
    def test_moments_integrate_over_u(self, name):
        law, _ = _QUANTILE_LAWS[name]
        breaks = [0.25, 0.75] if name.startswith("two-point") else None
        for power, moment in ((1, law.mean), (2, law.second_moment)):
            value, _ = integrate.quad(lambda u: float(law.quantile(u)) ** power, 0.0, 1.0,
                                      points=breaks, epsabs=1e-13, epsrel=1e-11, limit=200)
            assert value == pytest.approx(moment, rel=1e-9, abs=1e-12)


class TestAdjustedMoments:
    def test_no_jump_unchanged(self):
        scen = rm.Scenario(np.array([0.1, 0.05]), np.diag([0.04, 0.0625]))
        b_f, sigma_f = rm.adjusted_moments(scen)
        assert np.array_equal(b_f, scen.drift)
        assert np.array_equal(sigma_f, scen.cov)

    def test_single_type_arithmetic(self, cp_jump):
        scen = rm.Scenario(np.array([0.1, 0.05]), np.diag([0.04, 0.0625]), jump=cp_jump)
        b_f, sigma_f = rm.adjusted_moments(scen)
        assert np.allclose(b_f, [0.15, 0.05], atol=1e-15)
        assert np.allclose(sigma_f, np.diag([0.05, 0.0625]), atol=1e-15)

    def test_discrete_levy_against_summation_oracle(self):
        atoms = np.array([[0.1, 0.0], [-0.05, 0.02]])
        weights = np.array([0.3, 0.2])
        jump = rm.DiscreteLevyJumps(atoms, weights)
        scen = rm.Scenario(np.array([0.1, 0.05]), np.diag([0.04, 0.0625]), jump=jump)
        b_f, sigma_f = rm.adjusted_moments(scen)
        # independent oracle: plain summation over atoms
        drift_shift = np.zeros(2)
        cov_shift = np.zeros((2, 2))
        for z, f in zip(atoms, weights):
            drift_shift += f * z
            cov_shift += f * np.outer(z, z)
        assert np.allclose(b_f, scen.drift + drift_shift, atol=1e-15)
        assert np.allclose(sigma_f, scen.cov + cov_shift, atol=1e-15)

    def test_zero_moment_jump_is_exact_identity(self):
        jump = rm.CompoundPoissonJumps(
            loadings=np.array([[1.0], [0.0]]),
            intensity=np.array([0.5]),
            size_laws=(rm.JumpSizeLaw.two_point(0.0, 0.0, 0.5),),
        )
        scen = rm.Scenario(np.array([0.1, 0.05]), np.diag([0.04, 0.0625]), jump=jump)
        b_f, sigma_f = rm.adjusted_moments(scen)
        assert np.array_equal(b_f, scen.drift)
        assert np.array_equal(sigma_f, scen.cov)

    def test_covariance_adjustment_is_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            loadings = rng.uniform(0.0, 1.0, (n + k, k))
            if np.linalg.matrix_rank(loadings) < k:
                continue
            laws = tuple(
                rm.JumpSizeLaw.uniform(float(-rng.uniform(0, 0.5)), float(rng.uniform(0, 0.5)))
                for _ in range(int(k))
            )
            jump = rm.CompoundPoissonJumps(loadings, rng.uniform(0.1, 2.0, int(k)), laws)
            adj = jump.covariance_adjustment()
            assert np.min(np.linalg.eigvalsh(adj)) >= -1e-12


class TestJumpSpecs:
    def test_rank_deficient_loadings_rejected(self):
        with pytest.raises(rm.InvalidBounds):
            rm.CompoundPoissonJumps(
                loadings=np.array([[1.0, 1.0], [0.5, 0.5]]),
                intensity=np.array([0.5, 0.5]),
                size_laws=(
                    rm.JumpSizeLaw.two_point_from_moments(0.1, 0.02),
                    rm.JumpSizeLaw.two_point_from_moments(0.1, 0.02),
                ),
            )

    def test_nonpositive_intensity_rejected(self):
        with pytest.raises(rm.InvalidBounds):
            rm.CompoundPoissonJumps(
                loadings=np.array([[1.0]]),
                intensity=np.array([0.0]),
                size_laws=(rm.JumpSizeLaw.two_point_from_moments(0.1, 0.02),),
            )

    def test_levy_weights_positive_finite(self):
        with pytest.raises(rm.InvalidBounds):
            rm.DiscreteLevyJumps(np.array([[0.1]]), np.array([-0.5]))
        with pytest.raises(rm.InvalidBounds):
            rm.DiscreteLevyJumps(np.array([[np.inf]]), np.array([0.5]))

    def test_compensation_indicator_validator(self):
        big = rm.CompoundPoissonJumps(
            loadings=np.array([[1.0]]),
            intensity=np.array([5.0]),
            size_laws=(rm.JumpSizeLaw.two_point(0.3, 0.3, 0.5),),
        )
        assert not big.compensation_within_unit()
        with pytest.raises(rm.InvalidBounds):
            big.validate_compensation()
        small = rm.CompoundPoissonJumps(
            loadings=np.array([[1.0]]),
            intensity=np.array([0.5]),
            size_laws=(rm.JumpSizeLaw.two_point(0.3, 0.3, 0.5),),
        )
        small.validate_compensation()

    def test_non_finite_intensity_rejected(self):
        with pytest.raises(rm.InvalidBounds, match="finite"):
            rm.CompoundPoissonJumps(
                loadings=np.array([[1.0]]),
                intensity=np.array([np.inf]),
                size_laws=(rm.JumpSizeLaw.two_point_from_moments(0.1, 0.02),),
            )

    def test_non_finite_two_point_value_rejected(self):
        with pytest.raises(rm.InvalidBounds, match="finite"):
            rm.JumpSizeLaw.two_point(np.nan, 0.1, 0.5)

    def test_non_finite_uniform_bound_rejected(self):
        with pytest.raises(rm.InvalidBounds, match="finite"):
            rm.JumpSizeLaw.uniform(0.0, np.inf)

    def test_non_finite_lognormal_location_rejected(self):
        with pytest.raises(rm.InvalidBounds, match="finite"):
            rm.JumpSizeLaw.shifted_lognormal(np.nan, 0.1)

    def test_atom_arrays_list_every_atom(self):
        jump = rm.DiscreteLevyJumps(np.array([[0.5, 0.0], [1.5, 0.2]]),
                                    np.array([0.3, 0.1]))
        vec, weight = atom_arrays(jump, 2)
        assert np.array_equal(vec, jump.atoms) and np.array_equal(weight, jump.weights)
        vec, weight = atom_arrays(None, 2)
        assert vec.shape == (0, 2) and weight.shape == (0,)
        # compound Poisson: the surrogate atoms, sizes 0.4 -+ 0.8 times
        # the loadings
        jump = rm.CompoundPoissonJumps(np.array([[1.0], [0.5]]), np.array([0.3]),
                                       (rm.JumpSizeLaw.two_point(-0.4, 1.2, 0.5),))
        vec, weight = atom_arrays(jump, 2)
        assert np.array_equal(weight, [0.15, 0.15])
        assert np.allclose(vec, [[-0.4, -0.2], [1.2, 0.6]], rtol=1e-15, atol=1e-16)

    def test_surrogate_atoms_broadcast_and_mask(self):
        loadings = np.array([[1.0, 0.3], [0.4, 1.0]])
        mu = np.array([[0.2, 0.5], [0.4, 0.1], [0.3, 0.3]])
        mean = np.array([[0.1, -0.2], [0.05, -0.6], [0.1, 0.0]])
        second = np.array([[0.02, 0.05], [0.01, 0.8], [0.005, 0.0]])
        size, vec, weight, valid = surrogate_atoms(loadings, mu, mean, second)
        assert size.shape == weight.shape == (4, 3) and vec.shape == (4, 3, 2)
        # row 1: lower atom -0.6 - sqrt(0.44) of type 1 below -1; row 2:
        # variance 0.005 - 0.01 below zero for type 0
        assert valid.tolist() == [True, False, False]
        # each point alone gives the same bits as the whole stack
        for i in range(3):
            one = surrogate_atoms(loadings, mu[i], mean[i], second[i])
            for a, b in zip(one, (size[:, i], vec[:, i], weight[:, i], valid[i])):
                assert np.array_equal(a, b)

    def test_zero_variance_gives_two_equal_atoms(self):
        size, _, weight, valid = surrogate_atoms([[1.0]], [0.6], [0.1], [0.01])
        assert valid and size.tolist() == [0.1, 0.1] and weight.tolist() == [0.3, 0.3]


class TestCorrHull:
    """`UncertaintySet.corr_hull`, the one correlation family of every set."""

    @staticmethod
    def _box(n):
        return dict(drift_lo=[0.05] * n, drift_hi=[0.08] * n, vol_lo=[0.2] * n, vol_hi=[0.3] * n)

    def test_one_asset(self):
        hull = rm.UncertaintySet(**self._box(1)).corr_hull
        assert hull.shape == (1, 1, 1) and hull[0, 0, 0] == 1.0
        assert not hull.flags.writeable

    def test_two_assets_upper_end_first(self):
        uset = rm.UncertaintySet(**self._box(2), rho_lo=-0.2, rho_hi=0.6)
        want = np.array([[[1.0, 0.6], [0.6, 1.0]], [[1.0, -0.2], [-0.2, 1.0]]])
        assert np.array_equal(uset.corr_hull, want)
        # stick weights (u, 1 - u) give rho = u rho_hi + (1 - u) rho_lo
        mats = uset.corr_matrix_from_weights(np.array([[1.0, 0.0], [0.0, 1.0], [0.25, 0.75]]))
        assert mats[:, 0, 1].tolist() == [0.6, -0.2, 0.25 * 0.6 + 0.75 * -0.2]

    def test_two_assets_equal_ends_is_one_matrix(self):
        uset = rm.UncertaintySet(**self._box(2), rho_lo=0.3, rho_hi=0.3)
        assert np.array_equal(uset.corr_hull, [[[1.0, 0.3], [0.3, 1.0]]])

    def test_hull_vertices_as_given(self):
        verts = (np.eye(3), np.eye(3), np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]]))
        uset = rm.UncertaintySet.hull(**self._box(3), corr_vertices=verts)
        # duplicates are kept, so the grid's stick coordinates do not move
        assert np.array_equal(uset.corr_hull, np.array(verts))

    def test_singleton_and_membership_read_the_hull(self):
        box = {**self._box(2), "drift_hi": [0.05] * 2, "vol_hi": [0.2] * 2}
        assert rm.UncertaintySet(**box, rho_lo=0.3, rho_hi=0.3).is_singleton
        assert not rm.UncertaintySet(**box, rho_lo=0.3, rho_hi=0.4).is_singleton
        uset = rm.UncertaintySet(**self._box(2), rho_lo=0.3, rho_hi=0.4)
        for rho, inside in ((0.3, True), (0.35, True), (0.4, True), (0.29, False), (0.41, False)):
            cov = rm.build_covariance([0.25, 0.25], np.array([[1.0, rho], [rho, 1.0]]))
            assert uset.contains(rm.Scenario(np.array([0.06, 0.06]), cov)) is inside
        one = rm.UncertaintySet(**self._box(1))
        assert one.contains(rm.Scenario(np.array([0.06]), np.array([[0.0625]])))


class TestScenarioAndSet:
    def test_scenario_requires_pd(self):
        with pytest.raises(rm.NotPositiveDefinite):
            rm.Scenario(np.array([0.1, 0.1]), np.array([[0.04, 0.05], [0.05, 0.04]]))

    def test_non_finite_drift_rejected(self):
        with pytest.raises(rm.InvalidBounds, match="finite"):
            rm.Scenario(np.array([np.nan]), np.array([[0.04]]))

    def test_non_finite_covariance_rejected(self):
        with pytest.raises(rm.InvalidBounds, match="finite"):
            rm.Scenario(np.array([0.1]), np.array([[np.inf]]))

    def test_membership_of_uniform_draws(self, short_second_set):
        scens = rm.sample_scenarios(short_second_set, 50, 123)
        assert all(short_second_set.contains(s) for s in scens)

    def test_membership_of_hull_draws(self):
        verts = (np.eye(3),
                 np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]]))
        uset = rm.UncertaintySet.hull([0.0] * 3, [0.1] * 3, [0.1] * 3, [0.2] * 3, verts)
        for s in rm.sample_scenarios(uset, 20, 5):
            assert uset.contains(s)

    def test_ordering_violation_names_inequality(self):
        with pytest.raises(rm.AssumptionViolated, match="vol_lo"):
            rm.UncertaintySet.two_asset(
                (0.1, 0.12), (0.02, 0.03), (0.25, 0.3), (0.2, 0.3), (0.4, 0.6)
            )

    def test_negative_drift_lower_bound_rejected(self):
        with pytest.raises(rm.AssumptionViolated, match="drift_lo >= 0"):
            rm.UncertaintySet.two_asset(
                (-0.05, 0.12), (-0.06, 0.03), (0.15, 0.2), (0.2, 0.3), (0.4, 0.6)
            )

    def test_ordering_escape_hatch(self):
        uset = rm.UncertaintySet.two_asset(
            (0.1, 0.12), (0.02, 0.03), (0.25, 0.3), (0.2, 0.3), (0.4, 0.6),
            require_ordering=False,
        )
        assert not uset.two_asset_ordering_holds()

    def test_correlation_interval_bounds(self):
        with pytest.raises(rm.InvalidBounds):
            rm.UncertaintySet.two_asset(
                (0.1, 0.12), (0.02, 0.03), (0.15, 0.2), (0.2, 0.3), (0.4, 1.0)
            )

    @pytest.mark.parametrize("field", ["drift_lo", "drift_hi", "vol_lo", "vol_hi"])
    def test_non_finite_box_bounds_rejected(self, field):
        bounds = {"drift_lo": [0.1, 0.02], "drift_hi": [0.12, 0.03],
                  "vol_lo": [0.15, 0.2], "vol_hi": [0.2, 0.3]}
        bounds[field] = [bounds[field][0], np.inf if field.endswith("hi") else np.nan]
        with pytest.raises(rm.InvalidBounds, match="finite"):
            rm.UncertaintySet(**bounds, rho_lo=0.4, rho_hi=0.6)

    def test_non_finite_rho_bound_rejected(self):
        with pytest.raises(rm.InvalidBounds, match="finite"):
            rm.UncertaintySet([0.1, 0.02], [0.12, 0.03], [0.15, 0.2], [0.2, 0.3],
                              rho_lo=np.nan, rho_hi=0.6)

    def test_non_finite_hull_vertex_rejected(self):
        bad = np.eye(3)
        bad[0, 1] = bad[1, 0] = np.nan
        with pytest.raises(rm.InvalidBounds, match="finite"):
            rm.UncertaintySet.hull([0.0] * 3, [0.1] * 3, [0.1] * 3, [0.2] * 3, (np.eye(3), bad))

    def test_non_finite_compound_poisson_bounds_rejected(self):
        with pytest.raises(rm.InvalidBounds, match="finite"):
            rm.CompoundPoissonBounds(
                loadings=np.array([[1.0], [0.0]]),
                intensity_lo=np.array([0.2]), intensity_hi=np.array([np.inf]),
                mean_lo=np.array([0.0]), mean_hi=np.array([0.1]),
                second_lo=np.array([0.01]), second_hi=np.array([0.02]),
            )

    def test_non_finite_levy_bounds_rejected(self):
        with pytest.raises(rm.InvalidBounds, match="finite"):
            rm.DiscreteLevyBounds(atoms=np.array([[np.nan]]),
                                  weight_lo=np.array([0.1]), weight_hi=np.array([0.2]))

    def test_compound_poisson_bounds_check_loadings(self):
        with pytest.raises(rm.InvalidBounds, match="loadings"):
            rm.CompoundPoissonBounds(
                loadings=np.array([[1.5], [0.0]]),
                intensity_lo=np.array([0.2]), intensity_hi=np.array([0.3]),
                mean_lo=np.array([0.0]), mean_hi=np.array([0.1]),
                second_lo=np.array([0.01]), second_hi=np.array([0.02]),
            )

    @pytest.mark.parametrize("columns", [1, 3])
    def test_levy_bounds_atom_width_must_match_assets(self, columns):
        bounds = rm.DiscreteLevyBounds(atoms=np.full((2, columns), 0.05),
                                       weight_lo=np.array([0.2, 0.1]), weight_hi=np.array([0.5, 0.4]))
        with pytest.raises(rm.DimensionMismatch, match="atom column count"):
            rm.UncertaintySet.two_asset((0.10, 0.12), (0.02, 0.03), (0.15, 0.2), (0.2, 0.3),
                                        (0.2, 0.6), jump_bounds=bounds)

    def test_singleton_detection(self, short_second_set):
        assert not short_second_set.is_singleton
        scen = rm.Scenario(np.array([0.08]), np.array([[0.04]]))
        assert rm.UncertaintySet.point(scen).is_singleton


class TestCriterionAndDynamics:
    def test_criterion_validation(self):
        with pytest.raises(rm.InvalidBounds):
            rm.Criterion("terminal_wealth", lam=0.0, horizon=1.0)
        with pytest.raises(rm.InvalidBounds):
            rm.Criterion("terminal_wealth", lam=1.0, horizon=0.0, t0=0.5)
        with pytest.raises(rm.InvalidBounds):
            rm.Criterion("wealth_scaled", lam=1.0, horizon=1.0, x0=0.0)
        with pytest.raises(rm.InvalidBounds):
            rm.Criterion("bogus", lam=1.0, horizon=1.0)

    @pytest.mark.parametrize("field", ["lam", "horizon", "t0", "x0"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_criterion_rejected(self, field, value):
        kwargs = {"lam": 1.0, "horizon": 1.0, "t0": 0.0, "x0": 1.0, field: value}
        with pytest.raises(rm.InvalidBounds, match="finite"):
            rm.Criterion("terminal_wealth", **kwargs)

    def test_dynamics_broadcast_over_samples(self):
        scen = rm.Scenario(np.array([0.1, 0.05]), np.diag([0.04, 0.0625]))
        alphas = np.array([[1.0, -0.5], [0.3, 2.0], [0.0, 0.0]])
        for kind in ("terminal_wealth", "log_return"):
            dyn = rm.WealthDynamics(kind)
            drift = dyn.drift(alphas, scen)
            diff = dyn.diffusion_sq(alphas, scen)
            assert drift.shape == diff.shape == (3,)
            for i, a in enumerate(alphas):
                assert np.ndim(dyn.drift(a, scen)) == 0
                assert drift[i] == pytest.approx(dyn.drift(a, scen), abs=1e-15)
                assert diff[i] == pytest.approx(dyn.diffusion_sq(a, scen), abs=1e-15)

    def test_wealth_scaled_aversion(self):
        crit = rm.Criterion("wealth_scaled", lam=2.0, horizon=1.0, x0=4.0)
        assert crit.risk_aversion_at(4.0) == 0.5

    def test_log_drift_has_variance_drag(self):
        scen = rm.Scenario(np.array([0.1, 0.05]), np.diag([0.04, 0.0625]))
        dyn = rm.WealthDynamics("log_return")
        rng = np.random.default_rng(2)
        for _ in range(20):
            alpha = rng.standard_normal(2)
            assert dyn.drift(alpha, scen) <= alpha @ scen.drift + 1e-15

    def test_terminal_wealth_maps_linear_in_alpha(self):
        scen = rm.Scenario(np.array([0.1, 0.05]), np.diag([0.04, 0.0625]))
        dyn = rm.WealthDynamics("terminal_wealth")
        a, b = np.array([1.0, -0.5]), np.array([0.3, 2.0])
        assert dyn.drift(a + b, scen) == pytest.approx(
            dyn.drift(a, scen) + dyn.drift(b, scen), abs=1e-15
        )
        # diffusion is quadratic: the squared norm of a linear map
        assert dyn.diffusion_sq(2 * a, scen) == pytest.approx(4 * dyn.diffusion_sq(a, scen))

    def test_nonbankruptcy_exposures(self, cp_jump):
        expo = rm.nonbankruptcy_intervals(np.array([0.5, 1.0]), cp_jump)
        assert np.allclose(expo, [0.5])
        assert rm.nonbankruptcy_violations(np.array([1.5, 0.0]), cp_jump) == [0]
        assert rm.nonbankruptcy_violations(np.array([0.9, 0.0]), cp_jump) == []
