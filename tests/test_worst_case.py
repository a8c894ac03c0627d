"""Worst-case solvers: case split, numeric search, optimality slack."""

import itertools
import logging
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import robust_mv as rm
from conftest import random_ordered_two_asset
from robust_mv import worst_case
from robust_mv.worst_case import (
    _CoordBox,
    _frank_wolfe_gap,
    _pass_minimum,
    _worst_case_grid,
    sobol_scenarios,
)
from scipy.stats import qmc


def two_by_two_premium_oracle(b, sigma):
    """Premium via the explicit 2x2 inverse, independent of the solver path."""
    det = sigma[0, 0] * sigma[1, 1] - sigma[0, 1] * sigma[1, 0]
    inv = np.array([[sigma[1, 1], -sigma[0, 1]], [-sigma[1, 0], sigma[0, 0]]]) / det
    return float(b @ inv @ b)


class TestRiskPremium:
    def test_identity_covariance(self):
        assert rm.risk_premium([1.0, 1.0], np.eye(2)) == pytest.approx(2.0, abs=1e-14)

    def test_diagonal_case(self):
        sigma = np.diag([0.04, 0.04])
        assert rm.risk_premium([0.1, 0.1], sigma) == pytest.approx(0.5, abs=1e-12)

    def test_against_inverse_oracle(self):
        b = np.array([0.1, 0.05])
        sigma = rm.build_covariance([0.2, 0.25], np.array([[1.0, 0.3], [0.3, 1.0]]))
        assert rm.risk_premium(b, sigma) == pytest.approx(
            two_by_two_premium_oracle(b, sigma), rel=1e-12
        )

    def test_sharpe_form_agreement(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            b = rng.uniform(0.0, 0.2, 2)
            vols = rng.uniform(0.05, 0.5, 2)
            rho = rng.uniform(-0.9, 0.9)
            sigma = rm.build_covariance(vols, np.array([[1.0, rho], [rho, 1.0]]))
            direct = rm.risk_premium(b, sigma)
            sharpe = rm.premium_sharpe_form(b[0], b[1], vols[0], vols[1], rho)
            assert abs(direct - sharpe) <= 1e-12 * (1.0 + direct)

    def test_zero_drift_gives_zero(self):
        assert rm.risk_premium([0.0, 0.0], np.eye(2)) == 0.0

    def test_non_pd_rejected(self):
        with pytest.raises(rm.NotPositiveDefinite):
            rm.risk_premium([0.1], np.array([[-1.0]]))


class TestTwoAssetCases:
    def test_short_second(self, short_second_set):
        res = rm.worst_case_two_asset(short_second_set)
        assert res.case_label == "ShortSecond"
        assert np.allclose(res.scenario.drift, [0.10, 0.03], atol=1e-15)
        assert np.allclose(res.scenario.vols, [0.2, 0.2], atol=1e-15)
        assert res.scenario.corr[0, 1] == pytest.approx(0.4, abs=1e-15)
        assert not res.manifold

    def test_long_both(self, long_both_set):
        res = rm.worst_case_two_asset(long_both_set)
        assert res.case_label == "LongBoth"
        assert np.allclose(res.scenario.drift, [0.10, 0.09], atol=1e-15)
        assert np.allclose(res.scenario.vols, [0.2, 0.25], atol=1e-15)
        assert res.scenario.corr[0, 1] == pytest.approx(0.3, abs=1e-15)

    def test_ignore_second_value_and_manifold(self, ignore_second_set):
        res = rm.worst_case_two_asset(ignore_second_set)
        assert res.case_label == "IgnoreSecond"
        assert res.manifold
        assert res.risk_premium == pytest.approx(0.25, abs=1e-15)
        # the canonical point actually attains the manifold value and the
        # identity ratio(b2, s2) = rho * ratio(b1, s1)
        scen = res.scenario
        assert rm.risk_premium(scen.drift, scen.cov) == pytest.approx(0.25, abs=1e-12)
        s2 = scen.vols[1]
        assert scen.drift[1] / s2 == pytest.approx(scen.corr[0, 1] * 0.10 / 0.2, abs=1e-12)
        assert ignore_second_set.contains(scen)

    def test_implied_strategy_vanishes_on_second_asset(self, ignore_second_set):
        res = rm.worst_case_two_asset(ignore_second_set)
        alpha = res.alpha_direction() / 2.0
        assert alpha[0] > 0
        assert abs(alpha[1]) <= 1e-12

    def test_boundary_tie_resolves_into_manifold_case(self):
        # rho_lo placed exactly at the upper threshold ratio
        uset = rm.UncertaintySet.two_asset(
            (0.10, 0.12), (0.02, 0.03), (0.15, 0.2), (0.2, 0.3), (0.3, 0.35)
        )
        res = rm.worst_case_two_asset(uset)
        assert res.case_label == "IgnoreSecond"
        assert res.risk_premium == pytest.approx(0.25, abs=1e-15)

    def test_nonpositive_interval(self):
        uset = rm.UncertaintySet.two_asset(
            (0.10, 0.12), (0.02, 0.03), (0.15, 0.2), (0.2, 0.3), (-0.5, -0.1)
        )
        res = rm.worst_case_two_asset(uset)
        assert res.case_label == "LongBoth"
        assert np.allclose(res.scenario.drift, [0.10, 0.02])
        assert np.allclose(res.scenario.vols, [0.2, 0.3])
        assert res.scenario.corr[0, 1] == pytest.approx(-0.1, abs=1e-15)

    def test_straddling_interval_matches_numeric(self):
        uset = rm.UncertaintySet.two_asset(
            (0.10, 0.12), (0.02, 0.03), (0.15, 0.2), (0.2, 0.3), (-0.4, 0.5)
        )
        closed = rm.worst_case_two_asset(uset)
        numeric = rm.worst_case_numeric(uset)
        assert abs(closed.risk_premium - numeric.risk_premium) <= 1e-6 * (1 + closed.risk_premium)

    def test_ordering_violation_raises(self):
        uset = rm.UncertaintySet([0.10, 0.02], [0.12, 0.03], [0.25, 0.2], [0.3, 0.3],
                                 rho_lo=0.4, rho_hi=0.6)
        with pytest.raises(rm.AssumptionViolated):
            rm.worst_case_two_asset(uset)

    def test_singleton_is_degenerate(self):
        scen = rm.Scenario(np.array([0.1, 0.05]),
                           rm.build_covariance([0.2, 0.25], np.array([[1, 0.3], [0.3, 1]])))
        res = rm.worst_case_two_asset(rm.UncertaintySet.point(scen))
        assert res.case_label == "Degenerate"
        assert np.allclose(res.scenario.drift, scen.drift)


class TestNumericSearch:
    def test_singleton_returns_the_point(self):
        scen = rm.Scenario(np.array([0.08]), np.array([[0.04]]))
        res = rm.worst_case_numeric(rm.UncertaintySet.point(scen))
        assert res.case_label == "Degenerate"
        assert res.risk_premium == pytest.approx(0.16, abs=1e-15)

    def test_agrees_with_case_solver(self, short_second_set):
        closed = rm.worst_case_two_asset(short_second_set)
        numeric = rm.worst_case_numeric(short_second_set)
        assert abs(closed.risk_premium - numeric.risk_premium) <= 1e-6
        assert np.allclose(closed.scenario.drift, numeric.scenario.drift, atol=1e-4)
        assert np.allclose(closed.scenario.vols, numeric.scenario.vols, atol=1e-4)
        assert abs(closed.scenario.corr[0, 1] - numeric.scenario.corr[0, 1]) <= 1e-4

    def test_three_assets_beats_every_corner(self):
        verts = (np.eye(3),
                 np.array([[1.0, 0.4, 0.2], [0.4, 1.0, 0.3], [0.2, 0.3, 1.0]]))
        uset = rm.UncertaintySet.hull(
            [0.05, 0.04, 0.03], [0.08, 0.06, 0.05],
            [0.15, 0.2, 0.25], [0.25, 0.3, 0.35], verts,
        )
        res = rm.worst_case_numeric(uset, resolution=9, refinements=2)
        corner_premiums = [rm.scenario_premium(c) for c in rm.corner_scenarios(uset)]
        assert res.risk_premium <= min(corner_premiums) + 1e-9

    def test_jump_ambiguity_box(self, cp_set):
        bounds = rm.CompoundPoissonBounds(
            loadings=np.array([[1.0], [0.0]]),
            intensity_lo=np.array([0.3]), intensity_hi=np.array([0.7]),
            mean_lo=np.array([0.05]), mean_hi=np.array([0.15]),
            second_lo=np.array([0.01]), second_hi=np.array([0.03]),
        )
        uset = rm.UncertaintySet.two_asset(
            (0.10, 0.12), (0.02, 0.03), (0.2, 0.2), (0.2, 0.3), (0.4, 0.6),
            jump_bounds=bounds,
        )
        res = rm.worst_case_numeric(uset, resolution=7, refinements=2)
        # the adversary's choice must not beat any sampled member of the set
        assert res.scenario.jump is not None
        for scen in rm.sample_scenarios(uset, 50, 3):
            assert rm.scenario_premium(scen) >= res.risk_premium - 1e-9

    def test_budget_exceeded(self, monkeypatch):
        # jump ambiguity keeps the grid: 7 free coordinates need 3^7 > 1000 points
        bounds = rm.CompoundPoissonBounds(
            loadings=np.array([[1.0], [0.0]]),
            intensity_lo=np.array([0.3]), intensity_hi=np.array([0.7]),
            mean_lo=np.array([0.05]), mean_hi=np.array([0.15]),
            second_lo=np.array([0.01]), second_hi=np.array([0.03]),
        )
        uset = rm.UncertaintySet.two_asset(
            (0.10, 0.12), (0.02, 0.03), (0.2, 0.2), (0.2, 0.3), (0.4, 0.6),
            jump_bounds=bounds,
        )
        monkeypatch.setattr(worst_case, "DEFAULT_MAX_EVALS", 1000)
        with pytest.raises(rm.BudgetExceeded):
            rm.worst_case_numeric(uset)

    def test_former_budget_set_is_certified(self, monkeypatch):
        # 4 assets, 9 hull vertices: beyond the grid's budget, and zero
        # drift is feasible, so the certified minimum is 0 at b = 0, vol_hi
        verts = tuple(np.eye(4) for _ in range(9))
        uset = rm.UncertaintySet.hull(
            [0.0] * 4, [0.1] * 4, [0.1] * 4, [0.2] * 4, verts
        )
        monkeypatch.setattr(worst_case, "DEFAULT_MAX_EVALS", 1000)
        res = rm.worst_case_numeric(uset)
        assert res.case_label == "Numeric" and res.evaluations > 0
        assert res.risk_premium == 0.0 and res.gap == 0.0
        assert np.array_equal(res.scenario.drift, np.zeros(4))
        assert np.array_equal(res.scenario.cov, 0.2 * 0.2 * np.eye(4))

    def test_deterministic(self, short_second_set):
        a = rm.worst_case_numeric(short_second_set)
        b = rm.worst_case_numeric(short_second_set)
        assert np.array_equal(a.scenario.drift, b.scenario.drift)
        assert np.array_equal(a.scenario.cov, b.scenario.cov)
        assert a.risk_premium == b.risk_premium


_HULL3 = rm.UncertaintySet.hull(
    [0.05, 0.04, 0.03], [0.08, 0.06, 0.05], [0.15, 0.2, 0.25], [0.25, 0.3, 0.35],
    (np.array([[1.0, 0.6, 0.5], [0.6, 1.0, 0.6], [0.5, 0.6, 1.0]]),
     np.eye(3),
     np.array([[1.0, 0.4, 0.2], [0.4, 1.0, 0.3], [0.2, 0.3, 1.0]])),
)
_BOX2 = ((0.10, 0.12), (0.02, 0.03), (0.15, 0.2), (0.2, 0.3), (0.2, 0.6))


def _kernel_cases():
    cp_jump = rm.CompoundPoissonJumps(
        loadings=np.array([[1.0], [0.0]]), intensity=np.array([0.5]),
        size_laws=(rm.JumpSizeLaw.two_point_from_moments(0.1, 0.02),))
    cp_bounds = rm.CompoundPoissonBounds(
        loadings=np.array([[1.0, 0.3], [0.4, 1.0]]),
        intensity_lo=np.array([0.2, 0.3]), intensity_hi=np.array([0.6, 0.5]),
        # mean^2 exceeds the second moment on part of the box
        mean_lo=np.array([0.05, -0.1]), mean_hi=np.array([0.2, 0.15]),
        second_lo=np.array([0.01, 0.005]), second_hi=np.array([0.05, 0.03]))
    # here the lower atom mean - sqrt(second - mean^2) of the two-point
    # surrogate falls to -1 or below on part of the box
    cp_low_mean = rm.CompoundPoissonBounds(
        loadings=np.array([[1.0], [0.5]]), intensity_lo=np.array([0.2]), intensity_hi=np.array([0.5]),
        mean_lo=np.array([-0.6]), mean_hi=np.array([-0.2]),
        second_lo=np.array([0.1]), second_hi=np.array([0.8]))
    levy_bounds = rm.DiscreteLevyBounds(
        atoms=np.array([[-0.05, 0.02], [0.08, -0.03]]),
        weight_lo=np.array([0.2, 0.1]), weight_hi=np.array([0.5, 0.4]))
    levy_jump = rm.DiscreteLevyJumps(atoms=np.array([[-0.05], [0.08]]), weights=np.array([0.4, 0.3]))
    one = rm.UncertaintySet.single_asset((0.10, 0.12), (0.2, 0.25))
    return {
        "n1": (one, None),
        "n1-levy-fixed": (one, levy_jump),
        "n2": (rm.UncertaintySet.two_asset(*_BOX2), None),
        "n2-cp-fixed": (rm.UncertaintySet.two_asset(*_BOX2), cp_jump),
        "n2-cp-bounds": (rm.UncertaintySet.two_asset(*_BOX2, jump_bounds=cp_bounds), None),
        "n2-cp-low-mean": (rm.UncertaintySet.two_asset(*_BOX2, jump_bounds=cp_low_mean), None),
        "n2-levy-bounds": (rm.UncertaintySet.two_asset(*_BOX2, jump_bounds=levy_bounds), None),
        "hull3": (_HULL3, None),
    }


def _random_axes(box, rng, max_points=3000):
    """Sorted random points per coordinate: three while the grid stays
    under ``max_points``, else two; one on a pinned coordinate."""
    axes, total = [], 1
    for lo, hi in zip(box.lo, box.hi):
        k = 1 if lo == hi else (3 if total * 3 * 2 ** (box.dim - len(axes) - 1) <= max_points else 2)
        axes.append(np.sort(rng.uniform(lo, hi, k)))
        total *= k
    return axes


def _assemble(box, axes):
    """The whole grid of `grid_premiums`, put together from the blocks it
    gives a consumer that sends back no running minimum, so that no column
    is skipped, and its count of invalid points.  Points that no block
    holds read +inf; a point that two blocks hold reads the same in both."""
    invalid, blocks = box.grid_premiums(axes)
    prem = np.full(tuple(len(a) for a in axes), np.nan)
    for block, (i_s, i_b, i_g) in blocks:
        at = i_s[:, None, None] + i_b[:, None] + i_g
        seen = prem.flat[at]
        assert np.all(np.isnan(seen) | (seen == block))
        prem.flat[at] = block
    prem[np.isnan(prem)] = np.inf
    return prem, invalid


class TestGridKernel:
    @pytest.mark.parametrize("case", list(_kernel_cases()))
    def test_matches_cholesky_reference_at_every_point(self, case):
        uset, jump = _kernel_cases()[case]
        box = _CoordBox.build(uset, jump)
        axes = _random_axes(box, np.random.default_rng(sum(map(ord, case))))
        prem, invalid = _assemble(box, axes)
        valid = np.isfinite(prem)
        assert invalid == np.count_nonzero(~valid)
        cp = isinstance(uset.jump_bounds, rm.CompoundPoissonBounds)
        k = uset.jump_bounds.loadings.shape[1] if cp else 0
        for at in itertools.product(*(range(len(a)) for a in axes)):
            pt = np.array([axes[c][i] for c, i in enumerate(at)])
            jpts = box.split(pt[None, :])[3][0]
            mean, second = jpts[k:2 * k], jpts[2 * k:3 * k]
            # the moment rule of `stack`: variance not below -1e-12 and the
            # surrogate's lower atom above -1
            var = second - mean * mean
            consistent = bool(np.all((var >= -1e-12) & (mean - np.sqrt(np.maximum(var, 0.0)) > -1.0)))
            assert valid[at] == consistent, at
            if consistent:
                assert prem[at] == pytest.approx(rm.scenario_premium(box.scenario_at(pt)), rel=1e-12)
            else:
                assert prem[at] == np.inf
        if cp:
            assert 0 < np.count_nonzero(~valid) < valid.size

    @pytest.mark.parametrize("case", ["n1-levy-fixed", "n2-cp-fixed", "n2-cp-bounds", "n2-levy-bounds"])
    def test_stack_and_scenario_arrays_give_the_same_bits(self, case):
        # one atom builder serves both: at the same coordinates the stack
        # holds exactly the atom table of the scenario built there
        uset, jump = _kernel_cases()[case]
        box = _CoordBox.build(uset, jump)
        pts = box.sample(40, np.random.default_rng(sum(map(ord, case))))
        cp = isinstance(uset.jump_bounds, rm.CompoundPoissonBounds)
        k = uset.jump_bounds.loadings.shape[1] if cp else 0
        i0 = box.dim - 3 * k
        for pt in pts:
            scen = box.scenario_at(pt)
            if cp:
                # the two-point law built from moments (m, s) recomputes its
                # moments from its atoms m -+ sqrt(s - m^2), which moves them
                # by rounding: state the moments the scenario's laws report
                pt = pt.copy()
                pt[i0 + k:i0 + 2 * k] = scen.jump.mean_sizes()
                pt[i0 + 2 * k:] = scen.jump.second_moments()
            arr, valid = box.stack(pt[None, :])
            assert valid[0]
            want = scen.arrays
            for name in ("drift", "cov"):
                assert np.array_equal(getattr(arr, name)[0], getattr(want, name))
            for name in ("atom_vec", "atom_weight"):
                assert np.array_equal(getattr(arr, name)[:, 0], getattr(want, name))

    def test_hull_tie_break_is_the_first_in_product_order(self):
        # the third asset has zero drift and no correlation in any vertex,
        # so its volatility leaves every premium bit unchanged: exact ties
        # between different scenarios
        uset = rm.UncertaintySet.hull(
            [0.05, 0.04, 0.0], [0.08, 0.06, 0.0], [0.15, 0.2, 0.1], [0.25, 0.3, 0.3],
            (np.eye(3),
             np.array([[1.0, 0.6, 0.0], [0.6, 1.0, 0.0], [0.0, 0.0, 1.0]]),
             np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1.0]])))
        box = _CoordBox.build(uset, None)
        axes = [np.linspace(a, b, 3) if a < b else np.array([a]) for a, b in zip(box.lo, box.hi)]
        scens = box.scenarios(np.array(list(itertools.product(*axes))))
        ref = [rm.scenario_premium(s) for s in scens]
        assert len(ref) == 3 ** (box.dim - 1)
        first = int(np.argmin(ref))
        tied = [s for s, p in zip(scens, ref) if p == ref[first]]
        assert len({s.cov.tobytes() for s in tied}) > 1
        res = _worst_case_grid(box, resolution=3, refinements=0)
        assert np.array_equal(res.scenario.drift, scens[first].drift)
        assert np.array_equal(res.scenario.cov, scens[first].cov)
        assert res.evaluations == len(ref) and res.skipped == 0

    @pytest.mark.parametrize("case", list(_kernel_cases()))
    def test_one_row_blocks_give_the_same_search(self, case, monkeypatch):
        uset, jump = _kernel_cases()[case]
        box = _CoordBox.build(uset, jump)
        axes = _random_axes(box, np.random.default_rng(sum(map(ord, case))))
        full, _ = _assemble(box, axes)
        want = _pass_minimum(box.grid_premiums(axes)[1])
        # the first minimum in the C order of the whole grid
        assert want[:2] == (full.min(), int(np.argmin(full)))
        ref = _worst_case_grid(box, resolution=3, refinements=1)
        blocks = sum(1 for _ in box.grid_premiums(axes)[1])
        monkeypatch.setattr(worst_case, "_BLOCK", 1)
        got = _pass_minimum(box.grid_premiums(axes)[1])
        assert got[:2] == want[:2]
        # without a running minimum no column is skipped: more, smaller blocks
        assert sum(1 for _ in box.grid_premiums(axes)[1]) > blocks
        res = _worst_case_grid(box, resolution=3, refinements=1)
        assert res.risk_premium == ref.risk_premium
        assert (res.evaluations, res.skipped) == (ref.evaluations, ref.skipped)
        for name in ("drift", "cov"):
            assert np.array_equal(getattr(res.scenario, name), getattr(ref.scenario, name))

    def test_ties_across_blocks_keep_the_first_grid_index(self, monkeypatch):
        # the first atom is zero, so its weight, a coordinate that the drift
        # and the covariance share, leaves every premium bit unchanged: the
        # minimum is tied at its three values, which lie in three blocks
        bounds = rm.DiscreteLevyBounds(
            atoms=np.array([[0.0, 0.0], [0.08, -0.03]]),
            weight_lo=np.array([0.2, 0.1]), weight_hi=np.array([0.5, 0.4]))
        box = _CoordBox.build(rm.UncertaintySet.two_asset(*_BOX2, jump_bounds=bounds), None)
        axes = [np.linspace(a, b, 3) if a < b else np.array([a]) for a, b in zip(box.lo, box.hi)]
        full, _ = _assemble(box, axes)
        first = int(np.argmin(full))
        assert np.count_nonzero(full == full.flat[first]) == 3
        monkeypatch.setattr(worst_case, "_BLOCK", 1)
        val, at, _, (kept, total) = _pass_minimum(box.grid_premiums(axes)[1])
        assert (val, at) == (full.flat[first], first)
        # the bound skips columns between the tied ones
        assert kept < total
        res = _worst_case_grid(box, resolution=3, refinements=0)
        at = np.unravel_index(first, full.shape)
        assert res.scenario.jump.weights[0] == axes[-2][at[-2]] == bounds.weight_lo[0]

    def test_pass_minimum_tie_rule(self):
        # ties keep the smallest flat index, whichever block holds it;
        # blocks of +inf never give an incumbent
        def block(values, i_s, i_b, i_g):
            return np.array(values, dtype=float), tuple(np.array(i) for i in (i_s, i_b, i_g))

        def minimum(blocks):
            # a generator that ignores the running minimum sent to it
            return _pass_minimum(b for b in blocks)

        assert minimum([block([[[np.inf, np.inf]]], [0], [0], [0, 1])]) == (np.inf, -1, 1, None)
        blocks = [block([[[np.inf, 2.0]]], [0], [9], [0, 1]),
                  block([[[1.0, 3.0], [1.0, 1.0]]], [0], [7, 5], [0, 1]),
                  block([[[1.0]]], [4], [0], [0]),
                  block([[[1.0]]], [0], [6], [0])]
        assert minimum(blocks) == (1.0, 4, 4, None)
        assert minimum(blocks[:2] + [block([[[0.5]]], [20], [0], [0])]) == (0.5, 20, 3, None)

    def test_invalid_points_never_lead(self, monkeypatch):
        monkeypatch.setattr(worst_case, "_BLOCK", 1)
        uset, _ = _kernel_cases()["n2-cp-low-mean"]
        res = _worst_case_grid(_CoordBox.build(uset, None), resolution=5, refinements=1)
        assert res.skipped > 0
        assert res.risk_premium == pytest.approx(rm.scenario_premium(res.scenario), rel=1e-12)
        assert min(res.scenario.jump.size_laws[0].params[:2]) > -1.0
        # every point of this box has its lower atom at or below -1
        bounds = rm.CompoundPoissonBounds(
            loadings=np.array([[1.0], [0.5]]), intensity_lo=np.array([0.2]),
            intensity_hi=np.array([0.5]), mean_lo=np.array([-0.6]), mean_hi=np.array([-0.6]),
            second_lo=np.array([0.7]), second_hi=np.array([0.9]))
        box = _CoordBox.build(rm.UncertaintySet.two_asset(*_BOX2, jump_bounds=bounds), None)
        with pytest.raises(rm.NotPositiveDefinite, match="invalid jump moments"):
            _worst_case_grid(box, resolution=3, refinements=0)
        # no column is evaluated
        axes = [np.linspace(a, b, 3) if a < b else np.array([a]) for a, b in zip(box.lo, box.hi)]
        invalid, blocks = box.grid_premiums(axes)
        assert invalid == 3 ** 7
        assert _pass_minimum(blocks) == (np.inf, -1, 0, (0, 3 ** 5))

    def test_debug_line_per_pass(self, caplog):
        uset, _ = _kernel_cases()["n2-cp-low-mean"]
        with caplog.at_level(logging.DEBUG, logger="robust_mv.worst_case"):
            res = _worst_case_grid(_CoordBox.build(uset, None), resolution=3, refinements=1)
        lines = [r.getMessage() for r in caplog.records if r.name == "robust_mv.worst_case"]
        passes = [re.fullmatch(r"grid pass (\d+): (\d+) points, (\d+) invalid, (\d+) blocks, "
                               r"(\d+) of (\d+) columns, minimum (\S+), (\S+) s", line).groups()
                  for line in lines]
        assert [p[0] for p in passes] == ["0", "1"]
        assert sum(int(p[1]) for p in passes) == res.evaluations
        assert sum(int(p[2]) for p in passes) == res.skipped
        assert min(float(p[6]) for p in passes) == res.risk_premium
        # 3 shared points (intensity, mean) times 3^5 Sigma-side points; the
        # first pass skips at least its invalid columns
        assert all(int(p[5]) == 3 ** 6 for p in passes)
        assert 0 < int(passes[0][4]) < int(passes[0][5])

    @pytest.mark.parametrize("kwargs", [{"resolution": 1}, {"refinements": -1}])
    def test_bad_grid_arguments_raise(self, short_second_set, kwargs):
        with pytest.raises(rm.InvalidBounds):
            rm.worst_case_numeric(short_second_set, **kwargs)

    @pytest.mark.parametrize("second", [(0.3, 0.5), (0.3, 0.7), (0.3, 0.9),
                                        (0.5, 0.7), (0.5, 0.9), (0.7, 0.9)])
    @pytest.mark.parametrize("mean", [-0.3, -0.5, -0.6])
    def test_negative_mean_jump_boxes(self, mean, second):
        # the grid minimum sits where the two-point surrogate's lower atom
        # mean - sqrt(second - mean^2) reaches -1, so the grid mask must
        # reject what the scenario constructor rejects
        bounds = rm.CompoundPoissonBounds(
            loadings=np.array([[1.0], [0.5]]), intensity_lo=np.array([0.2]),
            intensity_hi=np.array([0.5]), mean_lo=np.array([mean]), mean_hi=np.array([mean]),
            second_lo=np.array([second[0]]), second_hi=np.array([second[1]]))
        uset = rm.UncertaintySet.two_asset(*_BOX2, jump_bounds=bounds)
        # valid seconds: mean^2 <= second < 1 + 2 mean + 2 mean^2
        if second[0] >= 1.0 + 2.0 * mean + 2.0 * mean * mean:
            with pytest.raises(rm.NotPositiveDefinite, match="invalid jump moments"):
                rm.worst_case_numeric(uset, resolution=5, refinements=1)
            return
        res = rm.worst_case_numeric(uset, resolution=5, refinements=1)
        assert res.risk_premium == pytest.approx(rm.scenario_premium(res.scenario), rel=1e-12)
        assert min(res.scenario.jump.size_laws[0].params[:2]) > -1.0


def _no_bound(q, lo, hi, sweep):
    # a bound that rules nothing out: every valid column is evaluated
    return np.full(np.broadcast_shapes(*(a.shape for a in q + lo)), -np.inf)


def _search_digest(box, resolution, refinements=1):
    """What `_worst_case_grid` returns, as bytes and counts, or the name
    of the error it raises."""
    try:
        res = _worst_case_grid(box, resolution=resolution, refinements=refinements)
    except rm.RobustMVError as exc:
        return type(exc).__name__
    return (res.scenario.drift.tobytes(), res.scenario.cov.tobytes(), res.risk_premium,
            res.evaluations, res.skipped)


def _pruned_and_whole(box, resolution, block, refinements=1):
    """`_search_digest` with the column bound and with it disabled, both
    with blocks of ``block`` elements."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(worst_case, "_BLOCK", block)
        pruned = _search_digest(box, resolution, refinements)
        mp.setattr(worst_case, "_column_bound", _no_bound)
        return pruned, _search_digest(box, resolution, refinements)


class TestColumnPruning:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("sweep", [False, True])
    def test_bound_is_below_the_column_minimum(self, n, sweep):
        rng = np.random.default_rng(100 * n + sweep)
        k = 200  # columns, one per random positive definite Q and box
        q_full = np.array([c @ c.T + 1e-3 * np.eye(n)
                           for c in rng.standard_normal((k, n, n))])
        lo = rng.uniform(-1.0, 1.0, (k, n))
        hi = lo + rng.uniform(0.0, 1.0, (k, n)) * (rng.random((k, n)) > 0.2)
        q = [q_full[:, i, j] * (1.0 if i == j else 2.0) for i, j in worst_case._pairs(n)]
        bound = worst_case._column_bound(q, list(lo.T), list(hi.T), sweep=sweep)
        # the quadratic in the kernel's form on a grid of each box
        u = np.array(list(itertools.product(np.linspace(0.0, 1.0, 6), repeat=n)))
        z = lo[:, None, :] + u[None] * (hi - lo)[:, None, :]
        prem = sum(t[:, None] * z[..., i] * z[..., j] for t, (i, j) in zip(q, worst_case._pairs(n)))
        assert np.all(bound <= prem.min(axis=1))

    def test_bound_is_tight_at_a_kkt_corner(self):
        # the quadratic rises from the corner nearest 0 into the box: the
        # tangent plane there is exact, up to the rounding margin
        q = [np.array([1.0]), np.array([2.0]), np.array([0.5])]
        for sweep in (False, True):
            bound = worst_case._column_bound(q, [np.array([1.0])] * 2, [np.array([2.0])] * 2, sweep)
            assert 3.5 - 1e-7 < bound[0] <= 3.5

    def test_manifold_set_keeps_every_column(self):
        # an IgnoreSecond set: the worst premium s1^2 is reached, between
        # grid points, in every column, so no column can be ruled out and
        # every block is whole
        uset = rm.UncertaintySet.two_asset(
            (0.114975, 0.149594), (0.035204, 0.148154), (0.19263, 0.19263),
            (0.239384, 0.326944), (0.393131, 0.530464))
        jump = rm.CompoundPoissonJumps(
            loadings=np.array([[1.0], [0.0]]), intensity=np.array([0.441375]),
            size_laws=(rm.JumpSizeLaw.two_point_from_moments(0.061592, 0.008087),))
        assert rm.worst_case_two_asset(uset).case_label == "IgnoreSecond"
        box = _CoordBox.build(uset, jump)
        axes = [np.linspace(a, b, 21) if a < b else np.array([a]) for a, b in zip(box.lo, box.hi)]
        assert _pass_minimum(box.grid_premiums(axes)[1])[3] == (441, 441)
        pruned, whole = _pruned_and_whole(box, 9, worst_case._BLOCK)
        assert pruned == whole

    @pytest.mark.parametrize("rho", [(0.999999, 0.9999999), (1 - 1e-10, 1 - 1e-11),
                                     (-1 + 1e-11, -1 + 1e-10), (-0.9999999, 0.9999999)])
    @pytest.mark.parametrize("jumps", ["cp", "levy"])
    def test_near_singular_covariance(self, rho, jumps):
        bounds = (rm.CompoundPoissonBounds(
            loadings=np.array([[1.0], [0.3]]), intensity_lo=np.array([0.2]),
            intensity_hi=np.array([0.5]), mean_lo=np.array([0.02]), mean_hi=np.array([0.06]),
            second_lo=np.array([1e-6]), second_hi=np.array([0.004]))
            if jumps == "cp" else rm.DiscreteLevyBounds(
            atoms=np.array([[-0.05, 0.02], [0.08, -0.03]]),
            weight_lo=np.array([1e-6, 0.1]), weight_hi=np.array([0.5, 0.4])))
        uset = rm.UncertaintySet.two_asset((0.10, 0.12), (0.02, 0.03), (0.15, 0.2), (0.2, 0.3),
                                           rho, jump_bounds=bounds)
        pruned, whole = _pruned_and_whole(_CoordBox.build(uset, None), 5, 256)
        assert pruned == whole

    def test_jump_box_prunes_most_columns(self):
        # a compound-Poisson box with every coordinate free: the bound
        # leaves a few columns
        bounds = rm.CompoundPoissonBounds(
            loadings=np.array([[1.0], [0.4]]), intensity_lo=np.array([0.3]),
            intensity_hi=np.array([0.5]), mean_lo=np.array([0.03]), mean_hi=np.array([0.07]),
            second_lo=np.array([0.006]), second_hi=np.array([0.03]))
        uset = rm.UncertaintySet.two_asset((0.10, 0.12), (0.05, 0.09), (0.15, 0.2), (0.2, 0.3),
                                           (0.2, 0.6), jump_bounds=bounds)
        box = _CoordBox.build(uset, None)
        axes = [np.linspace(a, b, 5) for a, b in zip(box.lo, box.hi)]
        full, _ = _assemble(box, axes)
        val, at, _, (kept, total) = _pass_minimum(box.grid_premiums(axes)[1])
        assert (val, at) == (full.min(), int(np.argmin(full)))
        assert total == 5 ** 6 and kept < total // 100


@st.composite
def _jump_sets(draw, max_assets=3):
    """A set with jump ambiguity (compound-Poisson or Levy) or with a
    fixed jump, for 1 to ``max_assets`` assets: drift boxes that may
    straddle zero, some pinned coordinates, a correlation interval or a
    hull of two random vertices."""
    n = draw(st.integers(1, max_assets))
    kind = draw(st.sampled_from(["cp-bounds", "levy-bounds", "cp-fixed", "levy-fixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b_lo = rng.uniform(-0.03, 0.1, n)
    b_hi = b_lo + rng.uniform(0.0, 0.05, n) * (rng.random(n) > 0.2)
    v_lo = rng.uniform(0.1, 0.3, n)
    v_hi = v_lo + rng.uniform(0.0, 0.1, n) * (rng.random(n) > 0.2)
    jump = bounds = None
    if kind == "cp-bounds":
        mean = rng.uniform(-0.1, 0.1)
        # a second-moment floor below mean^2 leaves invalid points
        bounds = rm.CompoundPoissonBounds(
            loadings=rng.uniform(0.0, 1.0, (n, 1)), intensity_lo=np.array([0.2]),
            intensity_hi=np.array([rng.uniform(0.2, 0.6)]),
            mean_lo=np.array([mean]), mean_hi=np.array([mean + rng.uniform(0.0, 0.1)]),
            second_lo=np.array([mean * mean + rng.uniform(-0.002, 0.01)]),
            second_hi=np.array([mean * mean + 0.03]))
    elif kind == "levy-bounds":
        lo = rng.uniform(0.05, 0.3, 2)
        bounds = rm.DiscreteLevyBounds(atoms=rng.uniform(-0.1, 0.1, (2, n)), weight_lo=lo,
                                       weight_hi=lo + rng.uniform(0.0, 0.3, 2))
    elif kind == "cp-fixed":
        jump = rm.CompoundPoissonJumps(
            loadings=rng.uniform(0.0, 1.0, (n, 1)), intensity=np.array([rng.uniform(0.2, 0.8)]),
            size_laws=(rm.JumpSizeLaw.two_point_from_moments(0.1, 0.02),))
    else:
        jump = rm.DiscreteLevyJumps(atoms=rng.uniform(-0.1, 0.1, (2, n)),
                                    weights=rng.uniform(0.1, 0.5, 2))
    if n == 1:
        uset = rm.UncertaintySet.single_asset((b_lo[0], b_hi[0]), (v_lo[0], v_hi[0]),
                                              jump_bounds=bounds)
    elif n == 2:
        rho = np.sort(rng.uniform(-0.9, 0.9, 2))
        uset = rm.UncertaintySet(b_lo, b_hi, v_lo, v_hi, rho_lo=rho[0], rho_hi=rho[1],
                                 jump_bounds=bounds)
    else:
        uset = rm.UncertaintySet.hull(b_lo, b_hi, v_lo, v_hi,
                                      [_random_corr(rng, n) for _ in range(2)], jump_bounds=bounds)
    return uset, jump


@settings(max_examples=50, deadline=None, derandomize=True)
@given(_jump_sets())
def test_pruned_grid_matches_the_whole_grid(case):
    # small blocks, so that the bound runs on grids of a few thousand points
    uset, jump = case
    box = _CoordBox.build(uset, jump)
    res = 3 if uset.n == 3 else 4
    axes = [np.linspace(a, b, res) if a < b else np.array([a]) for a, b in zip(box.lo, box.hi)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(worst_case, "_BLOCK", 64)
        full, _ = _assemble(box, axes)
        val, at, _, (kept, total) = _pass_minimum(box.grid_premiums(axes)[1])
    first = int(np.argmin(full))
    if np.isfinite(full.flat[first]):
        assert (val, at) == (full.flat[first], first)
    else:
        assert (val, at) == (np.inf, -1)
    event("columns skipped" if kept < total else "no column skipped")
    pruned, whole = _pruned_and_whole(box, res, 64)
    assert pruned == whole


def _random_corr(rng, n):
    """A random positive definite correlation matrix: a normalized
    Wishart draw with n + 3 degrees of freedom."""
    a = rng.standard_normal((n, n + 3))
    c = a @ a.T
    d = np.sqrt(np.diag(c))
    c = c / np.outer(d, d)
    c = 0.5 * (c + c.T)
    np.fill_diagonal(c, 1.0)
    return c


def _random_hull(rng, n, m=3):
    """A random hull set: drift boxes that may straddle zero, some pinned
    coordinates, ``m`` random correlation vertices."""
    b_lo = rng.uniform(-0.03, 0.1, n)
    b_hi = b_lo + rng.uniform(0.0, 0.05, n) * (rng.random(n) > 0.2)
    v_lo = rng.uniform(0.1, 0.3, n)
    v_hi = v_lo + rng.uniform(0.0, 0.1, n) * (rng.random(n) > 0.2)
    return rm.UncertaintySet.hull(b_lo, b_hi, v_lo, v_hi, [_random_corr(rng, n) for _ in range(m)])


def _random_corner_scenarios(uset, count, rng):
    """``count`` random corners: each drift and vol at a bound, the
    correlation at a hull vertex."""
    n = uset.n
    out = []
    for _ in range(count):
        pick = rng.random((2, n)) < 0.5
        b = np.where(pick[0], uset.drift_hi, uset.drift_lo)
        v = np.where(pick[1], uset.vol_hi, uset.vol_lo)
        corr = uset.corr_vertices[rng.integers(len(uset.corr_vertices))]
        out.append(rm.Scenario(b, rm.build_covariance(v, corr)))
    return out


def _near_singular_hull(rng, n):
    """A random hull set of 1 to 8 near-singular vertices A A' + 1e-3 I,
    normalised to unit diagonal, A an n x U{1..n+1} standard normal
    matrix; drift and vol boxes whose widths are zero with probability
    0.2."""
    b_lo = rng.uniform(-0.1, 0.15, n)
    b_hi = b_lo + rng.uniform(0.0, 0.1, n) * (rng.random(n) >= 0.2)
    v_lo = rng.uniform(0.05, 0.4, n)
    v_hi = v_lo + rng.uniform(0.0, 0.3, n) * (rng.random(n) >= 0.2)
    verts = []
    for _ in range(rng.integers(1, 9)):
        a = rng.standard_normal((n, rng.integers(1, n + 2)))
        c = a @ a.T + 1e-3 * np.eye(n)
        verts.append(c / np.sqrt(np.outer(np.diag(c), np.diag(c))))
    return rm.UncertaintySet.hull(b_lo, b_hi, v_lo, v_hi, verts)


class TestConvexWorstCase:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 12, 20])
    def test_random_hulls_are_certified(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(10):
            uset = _random_hull(rng, n)
            res = rm.worst_case_numeric(uset)
            p = res.risk_premium
            assert res.case_label == "Numeric" and res.skipped == 0
            assert res.gap <= 1e-10 * (1.0 + p)
            assert p == rm.scenario_premium(res.scenario)
            assert np.all(res.scenario.drift >= uset.drift_lo)
            assert np.all(res.scenario.drift <= uset.drift_hi)
            assert np.all(res.scenario.vols >= uset.vol_lo * (1.0 - 1e-15))
            assert np.all(res.scenario.vols <= uset.vol_hi * (1.0 + 1e-15))
            # every corner for small n, a random sample of corners beyond
            corners = (rm.corner_scenarios(uset) if n <= 5
                       else _random_corner_scenarios(uset, 256, rng))
            assert p <= min(rm.scenario_premium(c) for c in corners) + 1e-12
            slack = max(rm.worst_case_optimality_slack(res.scenario, th)
                        for th in rm.sample_scenarios(uset, 200, rng))
            assert slack <= 1e-10

    @pytest.mark.parametrize("seed, n", [(29, 6), (116, 5), (129, 7)])
    def test_near_singular_hulls_are_certified(self, seed, n):
        uset = _near_singular_hull(np.random.default_rng([seed, n]), n)
        res = rm.worst_case_numeric(uset)
        p = res.risk_premium
        assert res.gap <= 1e-10 * (1.0 + p)
        assert p == rm.scenario_premium(res.scenario)
        assert uset.contains(res.scenario)
        corners = _random_corner_scenarios(uset, 256, np.random.default_rng(seed))
        assert p <= min(rm.scenario_premium(c) for c in corners) + 1e-12

    def test_solves_without_scipy_optimize(self):
        # a fresh interpreter: a hull and an unordered two-asset box
        code = ("import sys, numpy as np, robust_mv as rm; "
                "rm.worst_case_numeric(rm.UncertaintySet.hull([0.05] * 3, [0.07] * 3, "
                "[0.15] * 3, [0.2] * 3, [np.eye(3), np.full((3, 3), 0.3) + 0.7 * np.eye(3)])); "
                "rm.worst_case_numeric(rm.UncertaintySet([0.02, 0.1], [0.03, 0.12], [0.2, 0.15], "
                "[0.3, 0.2], rho_lo=0.4, rho_hi=0.6)); "
                "print('scipy.optimize' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_never_above_the_grid(self, n):
        rng = np.random.default_rng(2000 + n)
        for _ in range(3):
            if n == 2:
                lo = np.sort(rng.uniform(-0.8, 0.8, 2))
                uset = rm.UncertaintySet(rng.uniform(-0.02, 0.05, 2), rng.uniform(0.05, 0.1, 2),
                                         rng.uniform(0.1, 0.2, 2), rng.uniform(0.2, 0.3, 2),
                                         rho_lo=lo[0], rho_hi=lo[1])
            else:
                uset = _random_hull(rng, n)
            convex = rm.worst_case_numeric(uset)
            grid = _worst_case_grid(_CoordBox.build(uset, None), resolution=5, refinements=1)
            assert convex.risk_premium <= grid.risk_premium + 1e-12

    def test_gap_exposes_a_wrong_scenario(self, short_second_set):
        # the premium-maximizing corner: far from the minimum, and the gap says so
        fake = rm.Scenario(
            np.array([0.12, 0.03]),
            rm.build_covariance([0.15, 0.3], np.array([[1.0, 0.6], [0.6, 1.0]])),
        )
        best = rm.worst_case_two_asset(short_second_set).risk_premium
        gap = _frank_wolfe_gap(short_second_set, fake)
        assert rm.scenario_premium(fake) - best <= gap
        assert gap > 0.1

    def test_zero_sharpe_ratio_is_zero_drift_at_the_upper_vol(self):
        uset = rm.UncertaintySet([0.0, 0.0], [0.1, 0.05], [0.1, 0.2], [0.2, 0.3],
                                 rho_lo=0.3, rho_hi=0.5)
        res = rm.worst_case_numeric(uset)
        assert res.risk_premium == 0.0 and res.gap == 0.0
        assert np.array_equal(res.scenario.drift, [0.0, 0.0])
        assert np.array_equal(res.scenario.vols, [0.2, 0.3])

    def test_find_worst_case_routes_diffusion_sets_to_the_convex_solver(self):
        uset = _random_hull(np.random.default_rng(7), 4)
        routed = rm.find_worst_case(uset)
        direct = rm.worst_case_numeric(uset)
        assert routed.gap is not None
        assert routed.risk_premium == direct.risk_premium
        assert np.array_equal(routed.scenario.cov, direct.scenario.cov)

    def test_grid_arguments_do_not_change_a_diffusion_result(self, short_second_set, monkeypatch):
        a = rm.worst_case_numeric(short_second_set)
        monkeypatch.setattr(worst_case, "DEFAULT_MAX_EVALS", 10)
        b = rm.worst_case_numeric(short_second_set, resolution=3, refinements=0)
        assert (a.risk_premium, a.gap, a.evaluations) == (b.risk_premium, b.gap, b.evaluations)
        assert np.array_equal(a.scenario.cov, b.scenario.cov)

    def test_jump_results_carry_no_gap(self, cp_set, cp_jump):
        res = rm.worst_case_numeric(cp_set, jump=cp_jump, resolution=5, refinements=1)
        assert res.gap is None and res.evaluations > 0

    def test_inert_jump_goes_to_the_convex_solver(self, short_second_set):
        # a zero-size compound-Poisson type moves no moment: both entry
        # points solve without it and put it back on the result
        inert = rm.CompoundPoissonJumps(loadings=np.array([[1.0], [0.0]]),
                                        intensity=np.array([0.5]),
                                        size_laws=(rm.JumpSizeLaw.two_point(0.0, 0.0, 0.5),))
        plain = rm.worst_case_numeric(short_second_set)
        res = rm.worst_case_numeric(short_second_set, jump=inert)
        assert res.scenario.jump is inert
        assert res.gap is not None and res.gap <= 1e-10 * (1.0 + res.risk_premium)
        assert (res.risk_premium, res.gap, res.evaluations) == (
            plain.risk_premium, plain.gap, plain.evaluations)
        assert np.array_equal(res.scenario.cov, plain.scenario.cov)
        assert rm.find_worst_case(short_second_set, jump=inert).scenario.jump is inert


@st.composite
def _diffusion_sets(draw, max_assets=4):
    """A set without jumps for 1 to ``max_assets`` assets: an interval,
    a two-asset correlation interval, or a random hull."""
    n = draw(st.integers(1, max_assets))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if n == 1:
        return rm.UncertaintySet.single_asset((rng.uniform(-0.05, 0.05), rng.uniform(0.05, 0.1)),
                                              (rng.uniform(0.1, 0.2), rng.uniform(0.2, 0.3)))
    if n == 2:
        rho = np.sort(rng.uniform(-0.9, 0.9, 2))
        return rm.UncertaintySet(rng.uniform(-0.05, 0.05, 2), rng.uniform(0.05, 0.1, 2),
                                 rng.uniform(0.1, 0.2, 2), rng.uniform(0.2, 0.3, 2),
                                 rho_lo=rho[0], rho_hi=rho[1])
    return _random_hull(rng, n)


_CRITERIA = st.builds(
    lambda kind, lam: rm.Criterion(kind, lam=lam, horizon=1.0),
    st.sampled_from(["terminal_wealth", "log_return"]),
    st.floats(0.1, 10.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(_diffusion_sets().map(lambda uset: (uset, None)), _jump_sets(max_assets=2)),
       _CRITERIA, _CRITERIA)
def test_worst_case_is_bit_identical_across_aversion_and_criterion(case, crit_a, crit_b):
    # sets with jumps take the grid path, at a small resolution
    uset, jump = case
    grid = ({} if jump is None and uset.jump_bounds is None
            else {"jump": jump, "resolution": 4, "refinements": 1})
    for solver in (rm.worst_case_numeric, rm.find_worst_case):
        a, b = solver(uset, crit_a, **grid), solver(uset, crit_b, **grid)
        assert a.scenario.drift.tobytes() == b.scenario.drift.tobytes()
        assert a.scenario.cov.tobytes() == b.scenario.cov.tobytes()
        assert (a.risk_premium, a.gap, a.evaluations, a.case_label) == \
               (b.risk_premium, b.gap, b.evaluations, b.case_label)


class TestOptimalitySlack:
    def test_zero_at_the_minimizer(self, short_second_set):
        res = rm.worst_case_two_asset(short_second_set)
        assert rm.worst_case_optimality_slack(res.scenario, res.scenario) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_nonpositive_over_samples(self, short_second_set):
        res = rm.worst_case_two_asset(short_second_set)
        for scen in rm.sample_scenarios(short_second_set, 100, 17):
            assert rm.worst_case_optimality_slack(res.scenario, scen) <= 1e-10

    def test_false_minimizer_is_exposed(self, short_second_set):
        # the premium-maximizing corner cannot satisfy the inequality
        fake = rm.Scenario(
            np.array([0.12, 0.03]),
            rm.build_covariance([0.15, 0.3], np.array([[1.0, 0.6], [0.6, 1.0]])),
        )
        slacks = [
            rm.worst_case_optimality_slack(fake, scen)
            for scen in rm.sample_scenarios(short_second_set, 100, 29)
        ]
        assert max(slacks) > 1e-6

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(_diffusion_sets(max_assets=5), st.integers(0, 2**32 - 1))
    def test_nonpositive_on_random_diffusion_sets(self, uset, seed):
        # the certified convex minimizer satisfies the optimality
        # inequality against every sampled scenario of its own set
        res = rm.find_worst_case(uset)
        for scen in rm.sample_scenarios(uset, 50, seed):
            slack = rm.worst_case_optimality_slack(res.scenario, scen)
            assert slack <= 1e-10 * (1.0 + res.risk_premium)


class TestInvariances:
    def test_lambda_and_criterion_independence(self, short_second_set):
        results = []
        for lam in (0.5, 1.0, 2.0):
            for kind in ("terminal_wealth", "log_return"):
                crit = rm.Criterion(kind, lam=lam, horizon=1.0)
                results.append(rm.worst_case_two_asset(short_second_set, crit))
                results.append(rm.worst_case_numeric(short_second_set, crit))
        ref_closed, ref_numeric = results[0], results[1]
        for closed, numeric in zip(results[0::2], results[1::2]):
            assert np.array_equal(closed.scenario.drift, ref_closed.scenario.drift)
            assert np.array_equal(closed.scenario.cov, ref_closed.scenario.cov)
            assert closed.risk_premium == ref_closed.risk_premium
            assert np.array_equal(numeric.scenario.drift, ref_numeric.scenario.drift)
            assert np.array_equal(numeric.scenario.cov, ref_numeric.scenario.cov)
            assert numeric.risk_premium == ref_numeric.risk_premium

    def test_sign_patterns_on_random_sets(self):
        rng = np.random.default_rng(2024)
        seen = set()
        for _ in range(60):
            uset = random_ordered_two_asset(rng)
            res = rm.worst_case_two_asset(uset)
            seen.add(res.case_label)
            alpha = res.alpha_direction()
            assert alpha[0] > 0
            if res.case_label == "ShortSecond":
                assert alpha[1] < 0
            elif res.case_label == "IgnoreSecond":
                assert abs(alpha[1]) <= 1e-12 * max(1.0, abs(alpha[0]))
        assert "ShortSecond" in seen or "IgnoreSecond" in seen
        assert "LongBoth" in seen


def _corners_with_repeats(uset):
    """Every coordinate-box corner mapped to its scenario, repeats kept."""
    box = _CoordBox.build(uset, None)
    axes = [(lo,) if lo == hi else (lo, hi) for lo, hi in zip(box.lo, box.hi)]
    return box.scenarios(np.array(list(itertools.product(*axes)), dtype=float))


def _first_of_each(scenarios):
    out, seen = [], set()
    for s in scenarios:
        key = (s.drift.tobytes(), s.cov.tobytes())
        if key not in seen:
            seen.add(key)
            out.append(s)
    return out


_HULL_VERTICES = (
    np.eye(3),
    np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]]),
    np.array([[1.0, -0.2, 0.4], [-0.2, 1.0, 0.0], [0.4, 0.0, 1.0]]),
)


class TestCornerScenarios:
    def _assert_same(self, got, want):
        assert len(got) == len(want)
        for s, t in zip(got, want):
            assert np.array_equal(s.drift, t.drift) and np.array_equal(s.cov, t.cov)

    def test_hull_corners_are_distinct_in_first_occurrence_order(self):
        uset = rm.UncertaintySet.hull([0.08, 0.06, 0.05], [0.09, 0.06, 0.05],
                                      [0.15, 0.2, 0.25], [0.2, 0.25, 0.25], _HULL_VERTICES)
        raw = _corners_with_repeats(uset)
        want = _first_of_each(raw)
        assert (len(raw), len(want)) == (32, 24)
        self._assert_same(rm.corner_scenarios(uset), want)

    def test_pinned_hull_gives_one_corner_per_vertex(self):
        uset = rm.UncertaintySet.hull([0.08, 0.06, 0.05], [0.08, 0.06, 0.05],
                                      [0.2, 0.25, 0.3], [0.2, 0.25, 0.3], _HULL_VERTICES)
        corners = rm.corner_scenarios(uset)
        assert len(_corners_with_repeats(uset)) == 4
        assert len(corners) == 3
        vols = np.array([0.2, 0.25, 0.3])
        for v in _HULL_VERTICES:
            cov = np.outer(vols, vols) * v
            assert sum(np.allclose(s.cov, cov, rtol=1e-15, atol=0.0) for s in corners) == 1

    @pytest.mark.parametrize("rho", [(0.2, 0.6), (0.3, 0.3)])
    def test_two_asset_corners_are_the_interval_ends(self, rho):
        # the interval form written out: rho in {rho_lo, rho_hi}, product
        # order drift, vol, rho; the hull form must give the same bits
        uset = rm.UncertaintySet.two_asset((0.10, 0.12), (0.02, 0.03), (0.15, 0.15), (0.2, 0.3), rho)
        lo = [*uset.drift_lo, *uset.vol_lo, uset.rho_lo]
        hi = [*uset.drift_hi, *uset.vol_hi, uset.rho_hi]
        want = [rm.Scenario(np.array([b1, b2]),
                            rm.build_covariance(np.array([v1, v2]), np.array([[1.0, r], [r, 1.0]])))
                for b1, b2, v1, v2, r in itertools.product(*(dict.fromkeys(ab) for ab in zip(lo, hi)))]
        assert len(want) == (16 if rho[0] < rho[1] else 8)
        self._assert_same(rm.corner_scenarios(uset), want)

    def test_box_corners_unchanged(self, short_second_set):
        raw = _corners_with_repeats(short_second_set)
        assert len(raw) == 32
        self._assert_same(rm.corner_scenarios(short_second_set), _first_of_each(raw))


class TestSobolScenarios:
    @pytest.mark.parametrize("count", [1, 2, 3, 7, 8, 40, 66])
    def test_power_of_two_draw_keeps_the_points_and_stays_silent(self, short_second_set, count):
        # reference: random(count), which warns unless count is a power of two
        box = _CoordBox.build(short_second_set, None)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            u = qmc.Sobol(d=box.dim, scramble=False).random(count)
        want = box.scenarios(box.lo + u * (box.hi - box.lo))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sobol_scenarios(short_second_set, count)
        assert len(got) == count
        for s, t in zip(got, want):
            assert np.array_equal(s.drift, t.drift) and np.array_equal(s.cov, t.cov)
