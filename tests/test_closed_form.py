"""Closed-form solutions: displayed values, identities, the backward ODE."""

import hashlib
import json
import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import robust_mv as rm
from robust_mv.closed_form import solve_growth_factors
from robust_mv.model import WealthDynamics
from robust_mv.pde_check import OperatorSet
from conftest import rk4_growth_factors


@pytest.fixture(scope="module")
def point_set():
    return rm.UncertaintySet.point(rm.Scenario(np.array([0.08]), np.array([[0.04]])))


class TestTerminalWealth:
    def test_scalar_display_values(self, point_set):
        crit = rm.Criterion("terminal_wealth", lam=1.0, horizon=1.0)
        sol = rm.solve(point_set, crit)
        assert sol.premium == pytest.approx(0.16, abs=1e-15)
        assert sol.alpha_coef == pytest.approx([1.0], abs=1e-14)
        assert sol.V(0.0, 1.0) == pytest.approx(1.04, abs=1e-14)
        assert sol.g(0.0, 1.0) == pytest.approx(1.08, abs=1e-14)

    def test_terminal_conditions(self, point_set):
        crit = rm.Criterion("terminal_wealth", lam=1.5, horizon=2.0)
        sol = rm.solve(point_set, crit)
        for x in (-0.5, 0.3, 2.0):
            assert sol.V(2.0, x) == pytest.approx(x, abs=1e-14)
            assert sol.g(2.0, x) == pytest.approx(x, abs=1e-14)
            assert sol.f(2.0, x) == pytest.approx(x - 1.5 * x * x, abs=1e-14)

    def test_two_asset_values_from_numeric_premium(self, short_second_set, tw_criterion):
        # plug the premium found by the independent convex search
        oracle = rm.worst_case_numeric(short_second_set)
        sol = rm.solve(short_second_set, tw_criterion)
        p = oracle.risk_premium
        assert sol.V(0.0, 1.0) == pytest.approx(1.0 + p / 4.0, abs=1e-6)
        assert sol.g(0.0, 1.0) == pytest.approx(1.0 + p / 2.0, abs=1e-6)

    def test_strategy_constant_in_time_and_state(self, tw_solution):
        a00 = tw_solution.alpha_hat(0.0, 1.0)
        assert np.array_equal(a00, tw_solution.alpha_hat(0.7, 5.0))
        assert np.array_equal(a00, tw_solution.alpha_hat(0.2, -3.0))

    def test_value_gap_linear_in_time_to_go(self, tw_solution):
        lam, p = 1.0, tw_solution.premium
        for t in (0.0, 0.25, 0.9):
            gap = tw_solution.V(t, 1.3) - 1.3
            assert gap >= 0.0
            assert gap == pytest.approx(p / (4 * lam) * (1.0 - t), abs=1e-14)


class TestLogReturn:
    def test_scalar_strategy(self, point_set):
        crit = rm.Criterion("log_return", lam=1.0, horizon=1.0)
        sol = rm.solve(point_set, crit)
        assert sol.alpha_coef == pytest.approx([2.0 / 3.0], abs=1e-14)

    def test_terminal_condition(self, point_set):
        crit = rm.Criterion("log_return", lam=2.0, horizon=1.0)
        sol = rm.solve(point_set, crit)
        assert sol.V(1.0, 0.4) == pytest.approx(0.4, abs=1e-14)
        assert sol.g(1.0, 0.4) == pytest.approx(0.4, abs=1e-14)

    def test_strategy_shrinks_with_aversion(self, point_set):
        norms = []
        for lam in (1.0, 10.0, 100.0):
            crit = rm.Criterion("log_return", lam=lam, horizon=1.0)
            norms.append(np.linalg.norm(rm.solve(point_set, crit).alpha_coef))
        assert norms[0] > norms[1] > norms[2]

    def test_value_gap_slope(self, lr_solution):
        lam, p = 1.0, lr_solution.premium
        gap = lr_solution.V(0.4, 0.0) - 0.0
        assert gap == pytest.approx(p / (2 * (1 + 2 * lam)) * 0.6, abs=1e-14)


class TestObjectiveIdentity:
    def test_identity_on_grid(self, tw_solution, lr_solution, cp_solution, ws_solution):
        for sol in (tw_solution, lr_solution, cp_solution, ws_solution):
            lam = sol.criterion.lam
            ts = np.linspace(sol.criterion.t0, sol.criterion.horizon, 20)
            if sol.kind == "wealth_scaled":
                xs = np.linspace(0.5, 2.0, 20)
            else:
                xs = np.linspace(-0.5, 1.5, 20)
            for t in ts:
                for x in xs:
                    lam_x = lam / x if sol.kind == "wealth_scaled" else lam
                    lhs = sol.V(t, x)
                    rhs = sol.f(t, x) + lam_x * sol.g(t, x) ** 2
                    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


class TestCompoundPoisson:
    def test_zero_moment_jump_collapses_to_plain_solver(self, cp_set, cp_criterion):
        null_jump = rm.CompoundPoissonJumps(
            loadings=np.array([[1.0], [0.0]]),
            intensity=np.array([0.5]),
            size_laws=(rm.JumpSizeLaw.two_point(0.0, 0.0, 0.5),),
        )
        plain = rm.solve(cp_set, cp_criterion)
        jumped = rm.solve(cp_set, cp_criterion, null_jump)
        assert jumped.premium == plain.premium
        assert np.array_equal(jumped.direction, plain.direction)
        assert jumped.worst_case.case_label == plain.worst_case.case_label
        assert jumped.nonbankruptcy.ok

    def test_point_set_values_from_inverse_oracle(self, cp_jump):
        scen = rm.Scenario(np.array([0.1, 0.05]), np.diag([0.04, 0.0625]))
        uset = rm.UncertaintySet.point(scen)
        crit = rm.Criterion("terminal_wealth", lam=1.0, horizon=1.0)
        with pytest.warns(UserWarning, match="alpha.J"):
            sol = rm.solve(uset, crit, cp_jump)
        # oracle: moments by hand, premium by explicit 2x2 inverse
        b_f = np.array([0.15, 0.05])
        sigma_f = np.diag([0.05, 0.0625])
        p_f = float(b_f @ np.linalg.inv(sigma_f) @ b_f)
        assert sol.premium == pytest.approx(p_f, rel=1e-12)
        assert sol.V(0.0, 1.0) == pytest.approx(1.0 + 0.25 * p_f, rel=1e-12)
        # lam = 1 pushes the first exposure above 1: flagged, not fatal
        assert sol.nonbankruptcy.violating_types == (0,)

    def test_admissibility_threshold_by_bisection(self, cp_set, cp_jump):
        # find the aversion level where the exposure alpha.J crosses 1
        def exposure(lam: float) -> float:
            crit = rm.Criterion("terminal_wealth", lam=lam, horizon=1.0)
            import warnings
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sol = rm.solve(cp_set, crit, cp_jump)
            return float(sol.nonbankruptcy.exposures[0])

        lo, hi = 0.5, 4.0
        assert exposure(lo) > 1.0 and exposure(hi) < 1.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if exposure(mid) > 1.0:
                lo = mid
            else:
                hi = mid
        lam_star = 0.5 * (lo + hi)
        crit_bad = rm.Criterion("terminal_wealth", lam=0.9 * lam_star, horizon=1.0)
        with pytest.warns(UserWarning):
            bad = rm.solve(cp_set, crit_bad, cp_jump)
        assert not bad.nonbankruptcy.ok
        crit_ok = rm.Criterion("terminal_wealth", lam=1.1 * lam_star, horizon=1.0)
        good = rm.solve(cp_set, crit_ok, cp_jump)
        assert good.nonbankruptcy.ok

    def test_indicator_guard_rejects_heavy_jump_flow(self, cp_set, cp_criterion):
        heavy = rm.CompoundPoissonJumps(
            loadings=np.array([[1.0], [0.0]]),
            intensity=np.array([4.0]),
            size_laws=(rm.JumpSizeLaw.two_point(0.3, 0.3, 0.5),),
        )
        with pytest.raises(rm.InvalidBounds):
            rm.solve(cp_set, cp_criterion, heavy)


# the demo problems' jump-bounds sets (jump_ambiguity.json, levy_bounds.json)
_CP_BOUNDS = rm.CompoundPoissonBounds(
    loadings=np.array([[1.0], [0.5]]), intensity_lo=np.array([0.3]),
    intensity_hi=np.array([0.6]), mean_lo=np.array([0.04]), mean_hi=np.array([0.09]),
    second_lo=np.array([0.007]), second_hi=np.array([0.03]))
_LEVY_BOUNDS = rm.DiscreteLevyBounds(atoms=np.array([[-0.05], [0.08]]),
                                     weight_lo=np.array([0.2, 0.1]),
                                     weight_hi=np.array([0.6, 0.4]))


@pytest.fixture(scope="module")
def cp_bounds_set():
    return rm.UncertaintySet.two_asset((0.10, 0.13), (0.04, 0.05), (0.2, 0.23), (0.3, 0.33),
                                       (0.25, 0.35), jump_bounds=_CP_BOUNDS)


@pytest.fixture(scope="module")
def levy_bounds_set():
    return rm.UncertaintySet.single_asset((0.10, 0.12), (0.2, 0.25), jump_bounds=_LEVY_BOUNDS)


def _grid_worst(uset):
    return rm.worst_case_numeric(uset, resolution=5, refinements=1)


class TestJumpLawFromWorstCase:
    """`solve` reads the jump law from the worst case: on a jump-bounds set
    theta_hat's law meets the same rule as a fixed spec."""

    @pytest.mark.parametrize("bounds", ["cp_bounds_set", "levy_bounds_set"])
    def test_log_return_on_jump_bounds_is_refused(self, request, bounds):
        uset = request.getfixturevalue(bounds)
        crit = rm.Criterion("log_return", lam=2.0, horizon=1.0, x0=0.0)
        with pytest.raises(rm.InvalidBounds, match="log_return"):
            rm.solve(uset, crit, worst=_grid_worst(uset))

    def test_terminal_wealth_on_cp_bounds_reports_exposures(self, cp_bounds_set, cp_criterion):
        sol = rm.solve(cp_bounds_set, cp_criterion, worst=_grid_worst(cp_bounds_set))
        law = sol.worst_case.scenario.jump
        assert isinstance(law, rm.CompoundPoissonJumps)
        assert np.array_equal(sol.nonbankruptcy.exposures,
                              rm.nonbankruptcy_intervals(sol.alpha_coef, law))
        assert sol.nonbankruptcy.ok

    @pytest.mark.parametrize("kind, bounds, twin", [
        ("terminal_wealth", "levy_bounds_set", "ws_jump"),
        ("wealth_scaled", "cp_bounds_set", "cp_jump"),
    ])
    def test_unsolved_pairs_are_refused_like_their_fixed_twins(self, request, kind, bounds, twin):
        uset = request.getfixturevalue(bounds)
        crit = rm.Criterion(kind, lam=1.0, horizon=1.0, x0=1.0)
        with pytest.raises(rm.InvalidBounds, match=kind):
            rm.solve(uset, crit, worst=_grid_worst(uset))
        jump = request.getfixturevalue(twin)
        box = rm.UncertaintySet.point(rm.Scenario(np.full(jump.n_assets, 0.1),
                                                  0.04 * np.eye(jump.n_assets)))
        with pytest.raises(rm.InvalidBounds, match=kind):
            rm.solve(box, crit, jump)

    def test_jump_other_than_the_worst_cases_is_refused(self, cp_set, cp_criterion, cp_jump):
        worst = rm.find_worst_case(cp_set, cp_criterion, jump=cp_jump)
        assert rm.solve(cp_set, cp_criterion, cp_jump, worst).worst_case is worst
        twin = replace(cp_jump)
        with pytest.raises(rm.InvalidBounds, match="jump law"):
            rm.solve(cp_set, cp_criterion, twin, worst)
        with pytest.raises(rm.InvalidBounds, match="jump law"):
            rm.solve(cp_set, cp_criterion, cp_jump, rm.find_worst_case(cp_set, cp_criterion))

    def test_kind_premium_and_direction_come_from_criterion_and_worst_case(self, cp_solution):
        wc = cp_solution.worst_case
        assert cp_solution.kind == cp_solution.criterion.kind
        assert cp_solution.premium == wc.risk_premium
        assert np.array_equal(cp_solution.direction, wc.alpha_direction())
        assert cp_solution.direction is cp_solution.direction
        assert not cp_solution.direction.flags.writeable
        with pytest.raises(AttributeError):
            cp_solution.direction = wc.alpha_direction()


class TestWealthScaled:
    def test_zero_premium_freezes_growth_factors(self):
        # drift exactly offset by the jump flow: b_F = 0, so A = B = 1
        jump = rm.DiscreteLevyJumps(np.array([[0.05]]), np.array([0.4]))
        uset = rm.UncertaintySet.single_asset((-0.02, -0.02), (0.2, 0.2))
        crit = rm.Criterion("wealth_scaled", lam=1.0, horizon=1.0, x0=1.0)
        sol = rm.solve(uset, crit, jump=jump)
        assert sol.premium == pytest.approx(0.0, abs=1e-18)
        assert np.allclose(sol.ode.a, 1.0, atol=1e-15)
        assert np.allclose(sol.ode.b, 1.0, atol=1e-15)
        assert np.allclose(sol.alpha_hat(0.3, 1.7), 0.0, atol=1e-15)

    def test_terminal_conditions(self, ws_solution):
        assert ws_solution.ode.a[-1] == 1.0
        assert ws_solution.ode.b[-1] == 1.0
        lam = ws_solution.criterion.lam
        for x in (0.5, 1.0, 3.0):
            assert ws_solution.g(1.0, x) == pytest.approx(x, abs=1e-14)
            assert ws_solution.f(1.0, x) == pytest.approx(x - lam * x, abs=1e-14)

    def test_step_halving_richardson(self, ws_solution):
        # the RK4 reference at 10 and 20 steps: its error at t0 shrinks
        # 16-fold per halving, and the Richardson extrapolation lands on the
        # exact nodes, about 1e-14 from them where each run is 1e-11 to 1e-10 off
        grids, crit = ws_solution.ode, ws_solution.criterion
        args = (crit.lam, ws_solution.premium, crit.t0, crit.horizon)
        _, a1, b1 = rk4_growth_factors(*args, 10)
        _, a2, b2 = rk4_growth_factors(*args, 20)
        for coarse, fine, exact in ((a1, a2[::2], grids.a[::1000]), (b1, b2[::2], grids.b[::1000])):
            assert (coarse[0] - exact[0]) / (fine[0] - exact[0]) == pytest.approx(16.0, abs=0.1)
            assert np.max(np.abs((16.0 * fine - coarse) / 15.0 - exact)) <= 1e-13

    @pytest.mark.parametrize("lam, premium, t0, horizon", [
        (1.0, None, 0.0, 1.0), (0.3, 3.0, 0.0, 5.0), (5.0, 2.0, -1.0, 2.0), (0.8, 0.3, 0.0, 1.0),
    ])
    def test_nodes_match_rk4_reference(self, ws_solution, lam, premium, t0, horizon):
        # every other node of classical RK4 at 2 x 10^4 steps; RK4's own
        # step error is about 1e-13 on these sets
        premium = ws_solution.premium if premium is None else premium
        grids = solve_growth_factors(lam, premium, t0, horizon)
        t, a, b = rk4_growth_factors(lam, premium, t0, horizon, 20_000)
        assert np.array_equal(grids.t, t[::2])
        assert np.max(np.abs(grids.a - a[::2])) <= 1e-12
        assert np.max(np.abs(grids.b - b[::2]) / b[::2]) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(lam=st.floats(0.05, 5.0), premium=st.just(0.0) | st.floats(1e-6, 2.0),
           span=st.floats(0.1, 30.0))
    def test_exact_reduction(self, lam, premium, span):
        # premium stays off the subnormals, where q P A rounds on a coarse grid
        grids = solve_growth_factors(lam, premium, 0.0, span)
        a, b = grids.a, grids.b
        assert a[-1] == 1.0 and b[-1] == 1.0
        # A < e in exact arithmetic; A rounds to e once e^-s < eps / 2
        assert np.all(a >= 1.0) and np.all(a <= np.e)
        assert np.max(np.abs(b - (a * a + a * np.log(a) / (2.0 * lam))) / b) <= 1e-14
        # the slopes are the right-hand sides of the backward system
        q = (a + 2.0 * lam * (a * a - b)) / (2.0 * lam * b)
        assert np.all(np.abs(grids.a_slope + q * premium * a) <= 1e-13 * premium * b)
        assert np.all(np.abs(grids.b_slope + (2.0 * q + q * q) * premium * b)
                      <= 1e-13 * premium * b * (1.0 + q) ** 2)

    @pytest.mark.parametrize("lam, premium, horizon", [
        (0.05, 0.3, 30.0), (0.05, 1.0, 5.0), (0.05, 1.0, 10.0), (0.05, 1.0, 30.0), (0.1, 1.0, 30.0),
    ])
    def test_long_horizons_solve(self, lam, premium, horizon):
        # sets on which RK4 with 10^4 steps failed its 1e-8 step-halving check;
        # near T the factors turn faster than the node spacing resolves, so the
        # centered differences are taken on exact solutions started at t +- 3e-7
        grids = solve_growth_factors(lam, premium, 0.0, horizon)
        for i in (0, 5_000, 9_000, 9_990, 9_999):
            up = solve_growth_factors(lam, premium, grids.t[i] + 3e-7, horizon)
            dn = solve_growth_factors(lam, premium, grids.t[i] - 3e-7, horizon)
            dt = up.t[0] - dn.t[0]
            assert abs((up.a[0] - dn.a[0]) / dt - grids.a_slope[i]) <= 1e-6
            assert abs((up.b[0] - dn.b[0]) / dt - grids.b_slope[i]) <= 1e-6

    def test_factors_stay_positive(self, ws_solution):
        assert np.all(ws_solution.ode.a > 0)
        assert np.all(ws_solution.ode.b > 0)

    def test_finite_difference_residual_of_the_system(self, ws_solution):
        # centered differences on the stored grid against the stated rates
        grids = ws_solution.ode
        lam, p = ws_solution.criterion.lam, ws_solution.premium
        t, a, b = grids.t, grids.a, grids.b
        h = t[1] - t[0]
        da = (a[2:] - a[:-2]) / (2 * h)
        db = (b[2:] - b[:-2]) / (2 * h)
        am, bm = a[1:-1], b[1:-1]
        m = am + 2 * lam * (am * am - bm)
        q = m / (2 * lam * bm)
        res_a = da + q * p * am
        res_b = db + (2 * q * p + q * q * p) * bm
        assert np.max(np.abs(res_a)) <= 1e-6
        assert np.max(np.abs(res_b)) <= 1e-6

    def test_interpolation_matches_nodes_and_slopes(self, ws_solution):
        grids = ws_solution.ode
        i = len(grids.t) // 3
        a, b, a_slope, b_slope = grids._at(grids.t[i])
        assert a == pytest.approx(grids.a[i], abs=1e-14)
        assert b == pytest.approx(grids.b[i], abs=1e-14)
        assert a_slope == pytest.approx(grids.a_slope[i], abs=1e-10)
        assert b_slope == pytest.approx(grids.b_slope[i], abs=1e-10)

    def test_alpha_coef_rejects_wealth_scaled(self, ws_solution):
        # the strategy is (t, x)-dependent; a constant would be a wrong answer
        with pytest.raises(rm.InvalidBounds, match="alpha_hat"):
            ws_solution.alpha_coef

    def test_fields_take_arrays(self, ws_solution):
        t = np.array([0.1, 0.5, 0.9])
        x = np.array([0.7, 1.0, 1.6])
        pairs = [(ws_solution.V_field, lambda i: ws_solution.V_field),
                 (ws_solution.g_field, lambda i: ws_solution.g_field),
                 (ws_solution.f_field(y=x), lambda i: ws_solution.f_field(y=x[i]))]
        for batched, scalar in pairs:
            for name in ("value", "dt", "dx", "dxx"):
                vals = np.broadcast_to(getattr(batched, name)(t, x), t.shape)
                for i in range(t.size):
                    one = getattr(scalar(i), name)(t[i], x[i])
                    assert np.ndim(one) == 0
                    assert vals[i] == pytest.approx(one, rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("lam, premium, horizon", [(0.01, 3.0, 300.0), (1e-3, 5.0, 1000.0)])
    def test_far_from_T_the_factors_saturate(self, lam, premium, horizon):
        # P (T - t) well past 40, where e^-s underflows: A -> e, B -> e (e + 1 / (2 lam)),
        # and both slopes vanish
        grids = solve_growth_factors(lam, premium, 0.0, horizon)
        assert grids.a[0] == np.e
        assert grids.b[0] == pytest.approx(np.e * (np.e + 1.0 / (2.0 * lam)), rel=1e-15)
        assert grids.a_slope[0] == 0.0 and grids.b_slope[0] == 0.0
        assert np.all(np.diff(grids.a) <= 0.0) and np.all(np.diff(grids.b) <= 0.0)

    @pytest.mark.parametrize("lam, premium, t0, horizon, digest", [
        (0.8, 0.3, 0.0, 1.0, "a0887998124f591a18ea617dd4574de5a5a6ce692e6c141957d37e3c6099eda2"),
        (1.5, np.float64(0.1654), 0.25, 2.0,
         "1a1106dac714db30ee112c8e29611c7f2afe9c839f7b388d29ba98507530671c"),
    ])
    def test_grids_keep_their_bits(self, lam, premium, t0, horizon, digest):
        # sha256 of the node times T + i h, i = 0..10^4, h = -(T - t0) / 10^4,
        # with t0 exact, as the step-by-step integrator laid them out
        grids = solve_growth_factors(lam, premium, t0, horizon)
        assert hashlib.sha256(np.ascontiguousarray(grids.t).tobytes()).hexdigest() == digest

    def test_debug_line_per_solve(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="robust_mv.closed_form"):
            solve_growth_factors(0.8, 0.3, 0.0, 1.0)
        lines = [r.getMessage() for r in caplog.records if r.name == "robust_mv.closed_form"]
        assert len(lines) == 1
        assert lines[0].startswith("ODE solve: 10001 nodes, ")
        assert " Newton steps, " in lines[0]

    def test_objective_keeps_aversion_argument_separate(self, ws_solution):
        # f(t, x, y) evaluated at y = x reproduces the one-argument form
        t, x = 0.3, 1.4
        assert ws_solution.f(t, x) == pytest.approx(ws_solution.f(t, x, y=x), abs=1e-15)
        a, b = (float(v) for v in ws_solution.ode._at(t)[:2])
        assert ws_solution.f(t, x) == pytest.approx(a * x - 1.0 * b * x, abs=1e-13)

    def test_rejects_compound_poisson_spec(self, ws_set, ws_criterion, cp_jump):
        with pytest.raises(rm.InvalidBounds):
            rm.solve(ws_set, ws_criterion, jump=cp_jump)


class TestSerialization:
    def test_constant_kind_round_trip(self, tw_solution):
        doc = tw_solution.to_json_dict()
        blob = json.dumps(doc)
        back = json.loads(blob)
        assert back["premium"] == tw_solution.premium
        assert back["alpha_hat"] == tw_solution.alpha_coef.tolist()
        assert back["worst_case"]["case"] == "ShortSecond"

    def test_ode_kind_carries_grid_triples(self, ws_solution):
        doc = ws_solution.to_json_dict(ode_stride=500)
        assert doc["ode"]["t"][-1] == ws_solution.criterion.horizon
        assert doc["ode"]["A"][-1] == 1.0
        assert doc["ode"]["B"][-1] == 1.0
        json.dumps(doc)


class TestOneForm:
    """V, g and f of every kind are rows of one coefficient table: checked
    at random (lam, premium, t, x, y) against the identities that tie them,
    against finite differences and between scalar and array inputs."""

    @pytest.fixture(scope="class")
    def solutions(self, tw_solution, lr_solution, cp_solution, ws_solution):
        return (tw_solution, lr_solution, cp_solution, ws_solution)

    @staticmethod
    def _draw(data, solutions):
        """A fixture solution re-solved at a drawn (lam, premium, t0, T),
        with a drawn point (t, x) and aversion argument y."""
        base = data.draw(st.sampled_from(solutions))
        lam = data.draw(st.floats(0.3, 5.0))
        premium = data.draw(st.floats(0.0, 1.5))
        t0 = data.draw(st.floats(-1.0, 1.0))
        horizon = t0 + data.draw(st.floats(0.1, 2.0))
        scaled = base.kind == "wealth_scaled"
        crit = rm.Criterion(base.criterion.kind, lam=lam, horizon=horizon, t0=t0,
                            x0=1.0 if scaled else 0.0)
        ode = solve_growth_factors(lam, premium, t0, horizon) if scaled else None
        sol = replace(base, criterion=crit, ode=ode,
                      worst_case=replace(base.worst_case, risk_premium=premium))
        states = st.floats(0.1, 5.0) if scaled else st.floats(-5.0, 5.0)
        t = data.draw(st.floats(t0, horizon))
        return sol, t, data.draw(states), data.draw(states)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_value_is_objective_plus_aversion_times_mean_squared(self, solutions, data):
        sol, t, x, y = self._draw(data, solutions)
        lam_x, lam_y = sol.criterion.risk_aversion_at(x), sol.criterion.risk_aversion_at(y)
        v, g, f = sol.V(t, x), sol.g(t, x), sol.f(t, x)
        scale = 1.0 + abs(v) + abs(f) + lam_x * g * g
        assert abs(v - (f + lam_x * g * g)) <= 1e-12 * scale
        # f(t, x, y) = E[X_T] - lam(y) E[X_T^2], and Var[X_T] >= 0
        second = (g - f) / lam_x
        assert abs(sol.f(t, x, y) - (g - lam_y * second)) <= 1e-12 * (scale + lam_y * abs(second))
        assert second - g * g >= -1e-12 * scale / lam_x

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_analytic_partials_match_finite_differences(self, solutions, data):
        sol, t, x, y = self._draw(data, solutions)
        crit = sol.criterion
        # keep the t stencil inside [t0, T]
        t = min(max(t, crit.t0 + 1e-4 * crit.span), crit.horizon - 1e-4 * crit.span)
        fd = OperatorSet(WealthDynamics.for_criterion(crit), crit.span, use_analytic=False)
        for field in (sol.V_field, sol.g_field, sol.f_field(y)):
            want = fd.partials(field, t, x)
            got = (field.dt(t, x), field.dx(t, x), field.dxx(t, x))
            scale = 1.0 + abs(field(t, x))
            assert abs(got[0] - want[0]) <= 1e-6 * scale / crit.span
            assert abs(got[1] - want[1]) <= 1e-7 * scale
            assert abs(got[2] - want[2]) <= 1e-3 * scale / (1.0 + abs(x)) ** 2

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_scalar_and_array_inputs_agree(self, solutions, data):
        sol, _, _, y = self._draw(data, solutions)
        crit = sol.criterion
        k = data.draw(st.integers(1, 6))
        t = crit.t0 + crit.span * np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=k,
                                                              max_size=k)))
        x = y * np.array(data.draw(st.lists(st.floats(0.5, 2.0), min_size=k, max_size=k)))
        for field in (sol.V_field, sol.g_field, sol.f_field(y)):
            for part in (field.value, field.dt, field.dx, field.dxx):
                batched = np.broadcast_to(part(t, x), t.shape)
                for i in range(k):
                    one = part(float(t[i]), float(x[i]))
                    assert np.ndim(one) == 0 and one == batched[i]
        for i in range(k):
            ti, xi = float(t[i]), float(x[i])
            assert sol.V(ti, xi) == sol.V(t, x)[i] and sol.g(ti, xi) == sol.g(t, x)[i]
            assert sol.f(ti, xi) == sol.f(t, x)[i]
