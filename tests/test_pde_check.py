"""Operators, residual grids and the sampled saddle structure."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import robust_mv as rm
from robust_mv.fields import ScalarField
from robust_mv.model import WealthDynamics
from robust_mv.pde_check import OperatorSet, saddle_objective, with_scaled_value
from robust_mv.worst_case import _CoordBox


@pytest.fixture(scope="module")
def jump_bounds_case(tw_criterion):
    """Two assets with compound-Poisson moment boxes; second < mean^2 on
    part of the box, so uniform draws get rejected and redrawn."""
    jb = rm.CompoundPoissonBounds(
        loadings=np.array([[1.0], [0.5]]),
        intensity_lo=np.array([0.2]), intensity_hi=np.array([0.6]),
        mean_lo=np.array([-0.2]), mean_hi=np.array([0.2]),
        second_lo=np.array([0.005]), second_hi=np.array([0.05]),
    )
    uset = rm.UncertaintySet.two_asset(
        (0.10, 0.12), (0.02, 0.03), (0.15, 0.2), (0.2, 0.3), (0.4, 0.6), jump_bounds=jb)
    worst = rm.worst_case_numeric(uset, resolution=5, refinements=1)
    return rm.solve_terminal_wealth(uset, tw_criterion, worst=worst), uset


@pytest.fixture(scope="module")
def hull_case(tw_criterion):
    verts = [np.eye(3),
             np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]]),
             np.array([[1.0, -0.2, 0.4], [-0.2, 1.0, 0.0], [0.4, 0.0, 1.0]])]
    uset = rm.UncertaintySet.hull([0.08, 0.06, 0.05], [0.08, 0.06, 0.05],
                                  [0.15, 0.2, 0.25], [0.2, 0.25, 0.3], verts)
    worst = rm.worst_case_numeric(uset, resolution=5, refinements=1)
    return rm.solve_terminal_wealth(uset, tw_criterion, worst=worst), uset


@pytest.fixture(scope="module")
def verify_cases(tw_solution, lr_solution, cp_solution, ws_solution, short_second_set,
                 cp_set, ws_set, jump_bounds_case, hull_case):
    return {
        "tw": (tw_solution, short_second_set),
        "lr": (lr_solution, short_second_set),
        "cp": (cp_solution, cp_set),
        "ws": (ws_solution, ws_set),
        "jump_bounds": jump_bounds_case,
        "hull": hull_case,
    }


def sequential_scenarios(uset, count, rng, fixed_jump=None):
    """One candidate at a time: a uniform draw on the coordinate box (plus
    a Dirichlet draw for the weights of a hull of three or more matrices),
    built into a Scenario and redrawn on failure.  Returns the scenarios
    and the number of rejected draws."""
    box = _CoordBox.build(uset, fixed_jump)
    n, m = uset.n, len(uset.corr_hull)
    out, rejected = [], 0
    while len(out) < count:
        pt = rng.uniform(box.lo, box.hi)
        if m > 2:
            w = rng.dirichlet(np.ones(m))
            rem = 1.0
            for j in range(m - 1):
                pt[2 * n + j] = 0.0 if rem <= 0 else min(max(w[j] / rem, 0.0), 1.0)
                rem -= w[j]
        drift, vols = pt[:n], pt[n:2 * n]
        sticks, jpts = pt[2 * n:2 * n + m - 1], pt[2 * n + m - 1:]
        try:
            corr_mat = uset.corr_matrix_from_weights(box.hull_weights(sticks[None, :])[0])
            jump = fixed_jump
            jb = uset.jump_bounds
            if isinstance(jb, rm.CompoundPoissonBounds):
                k = jb.loadings.shape[1]
                jump = jb.spec_at(jpts[:k], jpts[k:2 * k], jpts[2 * k:3 * k])
            elif jb is not None:
                jump = jb.spec_at(jpts)
            out.append(rm.Scenario(drift, rm.build_covariance(vols, corr_mat), jump))
        except (rm.NotPositiveDefinite, rm.InvalidBounds):
            rejected += 1
    return out, rejected


def per_sample_saddle(sol, uset, samples, seed, radius_scale=10.0, eps_rel=1e-9):
    """The saddle check written as a loop over samples of scalar
    `saddle_objective` calls; same draws in the same order."""
    crit = sol.criterion
    rng = np.random.default_rng([int(seed), 0x5A])
    ops = OperatorSet(WealthDynamics.for_criterion(crit), crit.span)
    theta_hat = sol.worst_case.scenario
    fixed_jump = theta_hat.jump if uset.jump_bounds is None else None
    thetas, _ = sequential_scenarios(uset, samples, rng, fixed_jump)
    t_lo, t_hi = crit.t0 + 0.02 * crit.span, crit.horizon - 0.02 * crit.span
    if crit.kind == "wealth_scaled":
        x_lo, x_hi = 0.5 * crit.x0, 2.0 * crit.x0
    else:
        s = 1.0 + abs(crit.x0)
        x_lo, x_hi = crit.x0 - 0.5 * s, crit.x0 + 1.0 * s

    def eps_at(x):
        return eps_rel * (1.0 + sol.premium) * (1.0 + abs(x))

    t_mid, x_mid = 0.5 * (t_lo + t_hi), 0.5 * (x_lo + x_hi)
    a_mid = np.atleast_1d(sol.alpha_hat(t_mid, x_mid))
    saddle_value = saddle_objective(sol, ops, a_mid, theta_hat, t_mid, x_mid)
    violations, max_alpha, min_theta = [], -math.inf, math.inf
    n = a_mid.size
    for i in range(samples):
        t, x = rng.uniform(t_lo, t_hi), rng.uniform(x_lo, x_hi)
        eps = eps_at(x)
        a_hat = np.atleast_1d(sol.alpha_hat(t, x))
        radius = radius_scale * max(float(np.linalg.norm(a_hat)), 1e-12)
        direction = rng.standard_normal(n)
        norm = float(np.linalg.norm(direction))
        alpha = a_hat if norm == 0 else a_hat + direction / norm * radius * rng.random() ** (1.0 / n)
        f_alpha = saddle_objective(sol, ops, alpha, theta_hat, t, x)
        max_alpha = max(max_alpha, f_alpha)
        if f_alpha > eps:
            violations.append(("alpha", i))
        f_theta = saddle_objective(sol, ops, a_hat, thetas[i], t, x)
        min_theta = min(min_theta, f_theta)
        if f_theta < -eps:
            violations.append(("theta", i))
    return violations, saddle_value, max_alpha, min_theta


class TestResidualGrids:
    def test_solved_cases_are_exact(self, tw_solution, lr_solution, cp_solution):
        for sol in (tw_solution, lr_solution, cp_solution):
            table = rm.residual_grid(sol, nt=10, nx=10)
            assert table.max_abs <= 1e-8
            by_eq = table.max_by_equation()
            # both the value-form and objective-form systems are covered
            assert {"hjb_value", "hjb_objective", "mean_pde", "objective_pde"} <= set(by_eq)

    def test_wealth_scaled_objective_system(self, ws_solution):
        table = rm.residual_grid(ws_solution, nt=10, nx=10)
        assert table.max_abs <= 1e-8
        assert {"hjb_objective", "mean_pde", "objective_pde"} <= set(table.max_by_equation())

    def test_scaled_value_probe_leaves_a_residual(self):
        # strong one-asset market so a 1% value scaling is clearly visible
        uset = rm.UncertaintySet.point(rm.Scenario(np.array([0.3]), np.array([[0.04]])))
        crit = rm.Criterion("terminal_wealth", lam=0.5, horizon=1.0)
        sol = rm.solve_terminal_wealth(uset, crit)
        bad = with_scaled_value(sol, 1.01)
        table = rm.residual_grid(bad)
        assert table.max_abs > 1e-3
        assert rm.residual_grid(sol).max_abs <= 1e-8

    def test_csv_emission(self, tw_solution, tmp_path):
        table = rm.residual_grid(tw_solution, nt=3, nx=3)
        target = tmp_path / "residuals.csv"
        table.to_csv(target)
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "t,x,eq_id,residual"
        assert len(lines) == 1 + len(table.rows)
        # numeric round trip
        t, x, eq, res = lines[1].split(",")
        float(t), float(x), float(res)

    def test_finite_difference_path_matches_analytic(self, tw_solution, ws_solution):
        for sol in (tw_solution, ws_solution):
            crit = sol.criterion
            dyn = WealthDynamics.for_criterion(crit)
            ops_a = OperatorSet(dyn, crit.span, use_analytic=True)
            ops_fd = OperatorSet(dyn, crit.span, use_analytic=False)
            theta = sol.worst_case.scenario
            for t, x in [(0.3, 0.9), (0.6, 1.4)]:
                alpha = np.atleast_1d(sol.alpha_hat(t, x))
                fields = [sol.V_field, sol.g_field]
                fields.append(sol.f_field(y=x) if sol.kind == "wealth_scaled" else sol.f_field())
                for field in fields:
                    la = ops_a.generator(field, alpha, theta, t, x)
                    lf = ops_fd.generator(field, alpha, theta, t, x)
                    assert abs(la - lf) <= 1e-7 * (1.0 + abs(la))
                    ha = ops_a.quadratic_variation(field, alpha, theta, t, x)
                    hf = ops_fd.quadratic_variation(field, alpha, theta, t, x)
                    assert abs(ha - hf) <= 1e-7 * (1.0 + abs(ha))

    def test_derivative_underflow_raises(self):
        dyn = WealthDynamics("terminal_wealth")
        ops = OperatorSet(dyn, span=1e-300, use_analytic=False)
        field = ScalarField(value=lambda t, x: x * x)
        theta = rm.Scenario(np.array([0.1]), np.array([[0.04]]))
        with pytest.raises(rm.DerivativeFailure):
            ops.generator(field, np.array([1.0]), theta, 0.5, 1.0)


class TestJumpOperator:
    def test_linear_field_gives_the_jump_flow(self):
        # uncompensated: a linear field 2x + 1 picks up sum_atoms w 2 zeta
        jump = rm.DiscreteLevyJumps(np.array([[0.3], [-0.2]]), np.array([0.5, 0.4]))
        theta = rm.Scenario(np.array([0.1]), np.array([[0.04]]), jump=jump)
        field = ScalarField(value=lambda t, x: 2.0 * x + 1.0,
                            dt=lambda t, x: 0.0, dx=lambda t, x: 2.0, dxx=lambda t, x: 0.0)
        ops = OperatorSet(WealthDynamics("terminal_wealth"), 1.0)
        val = ops.jump_integral(field, np.array([1.0]), theta, 0.0, 1.0)
        assert val == pytest.approx(0.5 * 2 * 0.3 + 0.4 * 2 * -0.2, rel=1e-14)

    def test_quadratic_field_single_large_atom(self):
        jump = rm.DiscreteLevyJumps(np.array([[1.5]]), np.array([0.25]))
        theta = rm.Scenario(np.array([0.1]), np.array([[0.04]]), jump=jump)
        field = ScalarField(value=lambda t, x: x * x,
                            dt=lambda t, x: 0.0, dx=lambda t, x: 2.0 * x, dxx=lambda t, x: 2.0)
        alpha, x = np.array([0.8]), 1.3
        ops = OperatorSet(WealthDynamics("terminal_wealth"), 1.0)
        val = ops.jump_integral(field, alpha, theta, 0.0, x)
        zeta = 0.8 * 1.5
        assert val == pytest.approx(0.25 * ((x + zeta) ** 2 - x * x), rel=1e-14)

    def test_consistency_with_generator_bookkeeping(self, ws_solution):
        # generator == time/drift/diffusion part + jump integral
        crit = ws_solution.criterion
        dyn = WealthDynamics.for_criterion(crit)
        ops = OperatorSet(dyn, crit.span)
        theta = ws_solution.worst_case.scenario
        t, x = 0.4, 1.2
        alpha = np.atleast_1d(ws_solution.alpha_hat(t, x))
        g = ws_solution.g_field
        full = ops.generator(g, alpha, theta, t, x)
        ft, fx, fxx = g.dt(t, x), g.dx(t, x), g.dxx(t, x)
        diffusion_part = (ft + dyn.drift(alpha, theta) * fx
                          + 0.5 * dyn.diffusion_sq(alpha, theta) * fxx)
        jump_part = ops.jump_integral(g, alpha, theta, t, x)
        assert full == pytest.approx(diffusion_part + jump_part, rel=1e-12)


class TestSaddle:
    def test_zero_at_the_saddle_point(self, tw_solution, short_second_set):
        rep = rm.saddle_check(tw_solution, short_second_set, samples=50, seed=1)
        assert abs(rep.saddle_value) <= rep.saddle_eps

    def test_thousand_samples_all_cases(self, tw_solution, lr_solution, cp_solution,
                                        ws_solution, short_second_set, cp_set, ws_set):
        for sol, uset in ((tw_solution, short_second_set),
                          (lr_solution, short_second_set),
                          (cp_solution, cp_set),
                          (ws_solution, ws_set)):
            rep = rm.saddle_check(sol, uset, samples=1000, seed=3)
            assert rep.ok, rep.violations[:3]
            assert rep.max_alpha_side <= rep.saddle_eps
            assert rep.min_theta_side >= -rep.saddle_eps

    def test_false_minimizer_is_detected(self, short_second_set, tw_criterion):
        fake_scen = rm.Scenario(
            np.array([0.12, 0.03]),
            rm.build_covariance([0.15, 0.3], np.array([[1.0, 0.6], [0.6, 1.0]])),
        )
        fake = rm.WorstCaseResult(fake_scen, rm.risk_premium(fake_scen.drift, fake_scen.cov),
                                  "Numeric")
        sol = rm.solve_terminal_wealth(short_second_set, tw_criterion, worst=fake)
        rep = rm.saddle_check(sol, short_second_set, samples=200, seed=5)
        assert any(v.side == "theta" for v in rep.violations)

    def test_scaled_value_breaks_the_saddle(self, tw_solution, short_second_set):
        bad = with_scaled_value(tw_solution, 1.01)
        rep = rm.saddle_check(bad, short_second_set, samples=200, seed=7)
        assert not rep.ok

    def test_seed_stability(self, tw_solution, short_second_set):
        for seed in range(5):
            rep = rm.saddle_check(tw_solution, short_second_set, samples=200, seed=seed)
            assert rep.ok

    def test_objective_concave_along_lines_through_alpha(self, tw_solution, cp_solution,
                                                         short_second_set, cp_set):
        rng = np.random.default_rng(13)
        for sol in (tw_solution, cp_solution):
            crit = sol.criterion
            dyn = WealthDynamics.for_criterion(crit)
            ops = OperatorSet(dyn, crit.span)
            theta = sol.worst_case.scenario
            a_hat = sol.alpha_coef
            for _ in range(10):
                d = rng.standard_normal(a_hat.size)
                s = rng.uniform(0.1, 2.0)
                t, x = rng.uniform(0.1, 0.9), rng.uniform(0.5, 1.5)
                f_minus = saddle_objective(sol, ops, a_hat - s * d, theta, t, x)
                f_mid = saddle_objective(sol, ops, a_hat, theta, t, x)
                f_plus = saddle_objective(sol, ops, a_hat + s * d, theta, t, x)
                assert f_plus - 2.0 * f_mid + f_minus <= 1e-12

    def test_report_is_deterministic(self, tw_solution, short_second_set):
        a = rm.saddle_check(tw_solution, short_second_set, samples=300, seed=11)
        b = rm.saddle_check(tw_solution, short_second_set, samples=300, seed=11)
        assert a.saddle_value == b.saddle_value
        assert a.max_alpha_side == b.max_alpha_side
        assert a.min_theta_side == b.min_theta_side


def _close(a, b):
    return abs(a - b) <= 1e-12 * (1.0 + abs(a))


class TestBatchedVerification:
    @pytest.mark.parametrize("case", ["tw", "lr", "cp", "ws", "jump_bounds", "hull"])
    def test_saddle_check_matches_per_sample_loop(self, verify_cases, case):
        sol, uset = verify_cases[case]
        for seed in (0, 3):
            rep = rm.saddle_check(sol, uset, samples=400, seed=seed)
            violations, value, max_alpha, min_theta = per_sample_saddle(sol, uset, 400, seed)
            assert [(v.side, v.index) for v in rep.violations] == violations
            assert _close(rep.saddle_value, value)
            assert _close(rep.max_alpha_side, max_alpha)
            assert _close(rep.min_theta_side, min_theta)

    def test_jump_bounds_case_exercises_redraws(self, jump_bounds_case):
        _, uset = jump_bounds_case
        _, rejected = sequential_scenarios(uset, 400, np.random.default_rng(0))
        assert rejected > 0

    @pytest.mark.parametrize("case", ["tw", "cp", "ws", "jump_bounds", "hull"])
    def test_sample_scenarios_bit_identical_to_sequential_draws(self, verify_cases, case):
        sol, uset = verify_cases[case]
        fixed_jump = sol.worst_case.scenario.jump if uset.jump_bounds is None else None
        for seed in (1, 2):
            got = rm.sample_scenarios(uset, 300, seed, fixed_jump=fixed_jump)
            want, _ = sequential_scenarios(uset, 300, np.random.default_rng(seed), fixed_jump)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.array_equal(a.drift, b.drift)
                assert np.array_equal(a.cov, b.cov)
                assert repr(a.jump) == repr(b.jump)
            stack = rm.sample_scenario_arrays(uset, 300, seed, fixed_jump=fixed_jump)
            assert np.array_equal(stack.drift, np.array([b.drift for b in want]))
            assert np.array_equal(stack.cov, np.array([b.cov for b in want]))

    def test_residual_rows_keep_their_order(self, tw_solution, ws_solution):
        for sol, eqs in ((tw_solution, ["mean_pde", "hjb_value", "objective_pde", "hjb_objective"]),
                         (ws_solution, ["mean_pde", "objective_pde", "hjb_objective"])):
            t_nodes, x_nodes = rm.default_grid(sol.criterion, 3, 4)
            rows = rm.residual_grid(sol, t_nodes, x_nodes).rows
            want = [(t, x, eq) for t in t_nodes for x in x_nodes for eq in eqs]
            assert [(r.t, r.x, r.eq_id) for r in rows] == want

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_operators_on_arrays_equal_scalar_calls(self, data, verify_cases):
        case = data.draw(st.sampled_from(["tw", "lr", "cp", "ws", "jump_bounds"]))
        sol, uset = verify_cases[case]
        crit = sol.criterion
        ops = OperatorSet(WealthDynamics.for_criterion(crit), crit.span,
                          use_analytic=data.draw(st.booleans()))
        k = data.draw(st.integers(1, 5))
        unit = st.floats(0.05, 0.95)
        t = crit.t0 + crit.span * np.array(data.draw(st.lists(unit, min_size=k, max_size=k)))
        x_lo, x_hi = rm.default_grid(crit, 2, 2)[1]
        x = x_lo + (x_hi - x_lo) * np.array(data.draw(st.lists(unit, min_size=k, max_size=k)))
        n = uset.n
        shift = data.draw(st.lists(st.floats(-0.5, 0.5), min_size=k * n, max_size=k * n))
        alpha = np.reshape(sol.alpha_hat(t, x), (k, n)) + np.reshape(shift, (k, n))
        if data.draw(st.booleans()):
            theta = sol.worst_case.scenario
            thetas = [theta] * k
        else:
            seed = data.draw(st.integers(0, 2**16))
            fixed_jump = sol.worst_case.scenario.jump if uset.jump_bounds is None else None
            theta = rm.sample_scenario_arrays(uset, k, seed, fixed_jump=fixed_jump)
            thetas = rm.sample_scenarios(uset, k, seed, fixed_jump=fixed_jump)
        if sol.kind == "wealth_scaled":
            fields = [(sol.g_field, lambda i: sol.g_field), (sol.V_field, lambda i: sol.V_field),
                      (sol.f_field(y=x), lambda i: sol.f_field(y=x[i]))]
        else:
            fields = [(f, lambda i, f=f: f) for f in (sol.g_field, sol.V_field, sol.f_field())]
        for batched, scalar in fields:
            gen = ops.generator(batched, alpha, theta, t, x)
            qv = ops.quadratic_variation(batched, alpha, theta, t, x)
            assert np.shape(gen) == (k,) and np.shape(qv) == (k,)
            for i in range(k):
                g_i = ops.generator(scalar(i), alpha[i], thetas[i], t[i], x[i])
                q_i = ops.quadratic_variation(scalar(i), alpha[i], thetas[i], t[i], x[i])
                assert np.ndim(g_i) == 0 and np.ndim(q_i) == 0
                assert _close(g_i, gen[i])
                assert _close(q_i, qv[i])
