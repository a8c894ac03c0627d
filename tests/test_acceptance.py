"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE nn ... PASS`` line (visible under
``pytest -s`` / in the -v log) and fails loudly otherwise.  Criteria
with stated runtime budgets assert them.
"""

import time
import warnings

import numpy as np
import pytest

import robust_mv as rm
from robust_mv.model import WealthDynamics
from robust_mv.pde_check import OperatorSet, with_scaled_value
from conftest import random_ordered_two_asset, rk4_growth_factors


def report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} {text}: PASS")


def test_01_case_reproduction(short_second_set, long_both_set, ignore_second_set):
    t_start = time.monotonic()
    expected = [
        (short_second_set, "ShortSecond",
         ([0.10, 0.03], [0.2, 0.2], 0.4)),
        (long_both_set, "LongBoth",
         ([0.10, 0.09], [0.2, 0.25], 0.3)),
        (ignore_second_set, "IgnoreSecond", None),
    ]
    for uset, label, coords in expected:
        closed = rm.worst_case_two_asset(uset)
        numeric = rm.worst_case_numeric(uset, resolution=21, refinements=2)
        assert closed.case_label == label
        assert abs(closed.risk_premium - numeric.risk_premium) <= 1e-6
        if coords is None:
            # manifold regime: only the attained value is comparable
            assert closed.risk_premium == pytest.approx(0.25, abs=1e-12)
            assert closed.manifold
        else:
            drift, vols, rho = coords
            assert np.allclose(closed.scenario.drift, drift, atol=1e-12)
            assert np.allclose(closed.scenario.vols, vols, atol=1e-12)
            assert closed.scenario.corr[0, 1] == pytest.approx(rho, abs=1e-12)
            assert np.allclose(closed.scenario.drift, numeric.scenario.drift, atol=1e-4)
            assert np.allclose(closed.scenario.vols, numeric.scenario.vols, atol=1e-4)
            assert abs(closed.scenario.corr[0, 1] - numeric.scenario.corr[0, 1]) <= 1e-4
    elapsed = time.monotonic() - t_start
    assert elapsed <= 30.0
    report(1, f"three-regime reproduction + oracle agreement ({elapsed:.1f}s)")


def test_02_randomized_case_sweep():
    t_start = time.monotonic()
    rng = np.random.default_rng(90210)
    checked = 0
    while checked < 50:
        uset = random_ordered_two_asset(rng)
        closed = rm.worst_case_two_asset(uset)
        numeric = rm.worst_case_numeric(uset)
        gap = abs(closed.risk_premium - numeric.risk_premium)
        assert gap <= 1e-6 * (1.0 + closed.risk_premium), (uset, closed.case_label)
        # the numeric side is the certified convex solver: it matches the
        # case split to rounding, and both carry a Frank-Wolfe gap
        assert gap <= 1e-12 * (1.0 + closed.risk_premium), (uset, closed.case_label)
        assert numeric.gap <= 1e-10 * (1.0 + numeric.risk_premium)
        assert closed.gap <= 1e-12 * (1.0 + closed.risk_premium), (uset, closed.case_label)
        alpha = closed.alpha_direction()
        assert alpha[0] > 0
        if closed.case_label == "ShortSecond":
            assert alpha[1] < 0
        elif closed.case_label == "LongBoth":
            assert alpha[1] > 0
        else:
            assert abs(alpha[1]) <= 1e-12 * max(1.0, abs(alpha[0]))
        checked += 1
    elapsed = time.monotonic() - t_start
    assert elapsed <= 300.0
    report(2, f"50-set randomized sweep, certified oracle + sign patterns ({elapsed:.0f}s)")


def test_03_aversion_and_criterion_invariance(short_second_set):
    reference = None
    for lam in (0.5, 1.0, 2.0):
        for kind in ("terminal_wealth", "log_return"):
            crit = rm.Criterion(kind, lam=lam, horizon=1.0)
            for solver in (rm.worst_case_two_asset, rm.worst_case_numeric):
                res = solver(short_second_set, crit)
                key = (res.scenario.drift.tobytes(), res.scenario.cov.tobytes(),
                       res.risk_premium, res.case_label)
                if reference is None:
                    reference = {solver.__name__: key}
                elif solver.__name__ in reference:
                    ref = reference[solver.__name__]
                    assert key[0] == ref[0] and key[1] == ref[1]
                    assert abs(key[2] - ref[2]) <= 1e-10
                    assert key[3] == ref[3]
                else:
                    reference[solver.__name__] = key
    report(3, "worst case invariant across aversion levels and criteria")


def test_04_pde_residuals_and_identity(tw_solution, lr_solution, cp_solution, ws_solution):
    for sol in (tw_solution, lr_solution, cp_solution):
        table = rm.residual_grid(sol, nt=10, nx=10)
        by_eq = table.max_by_equation()
        assert {"hjb_value", "hjb_objective", "mean_pde", "objective_pde"} <= set(by_eq)
        assert table.max_abs <= 1e-8, by_eq
    for sol in (tw_solution, lr_solution, cp_solution, ws_solution):
        lam = sol.criterion.lam
        ts = np.linspace(sol.criterion.t0, sol.criterion.horizon, 20)
        xs = np.linspace(0.5, 2.0, 20) if sol.kind == "wealth_scaled" else np.linspace(-0.5, 1.5, 20)
        worst_gap = 0.0
        for t in ts:
            for x in xs:
                lam_x = lam / x if sol.kind == "wealth_scaled" else lam
                gap = abs(sol.V(t, x) - (sol.f(t, x) + lam_x * sol.g(t, x) ** 2))
                worst_gap = max(worst_gap, gap / (1.0 + abs(sol.V(t, x))))
        assert worst_gap <= 1e-12
    report(4, "residuals <= 1e-8 on both systems; V = f + lam g^2 to 1e-12")


def test_05_saddle_structure(tw_solution, lr_solution, cp_solution,
                             short_second_set, cp_set, tw_criterion):
    cases = ((tw_solution, short_second_set), (lr_solution, short_second_set),
             (cp_solution, cp_set))
    for sol, uset in cases:
        for seed in range(5):
            rep = rm.saddle_check(sol, uset, samples=1000, seed=seed)
            assert rep.ok, (sol.kind, seed, rep.violations[:2])
    # falsification: a scaled value function breaks the saddle identity
    bad_value = with_scaled_value(tw_solution, 1.01)
    rep = rm.saddle_check(bad_value, short_second_set, samples=1000, seed=0)
    assert not rep.ok
    # falsification: a non-minimizer scenario admits F(alpha_hat, theta) < -eps
    fake_scen = rm.Scenario(
        np.array([0.12, 0.03]),
        rm.build_covariance([0.15, 0.3], np.array([[1.0, 0.6], [0.6, 1.0]])),
    )
    fake = rm.WorstCaseResult(fake_scen, rm.risk_premium(fake_scen.drift, fake_scen.cov),
                              "Numeric")
    wrong = rm.solve(short_second_set, tw_criterion, worst=fake)
    rep = rm.saddle_check(wrong, short_second_set, samples=1000, seed=0)
    assert any(v.side == "theta" for v in rep.violations)
    report(5, "1000-sample saddle checks stable over 5 seeds; probes violate")


def test_06_optimality_inequality(tw_solution, lr_solution, cp_solution, ws_solution,
                                  short_second_set, cp_set, ws_set):
    cases = ((tw_solution, short_second_set), (lr_solution, short_second_set),
             (cp_solution, cp_set), (ws_solution, ws_set))
    for sol, uset in cases:
        theta_hat = sol.worst_case.scenario
        assert abs(rm.worst_case_optimality_slack(theta_hat, theta_hat)) <= 1e-14
        thetas = rm.sample_scenarios(uset, 100, 1234, fixed_jump=theta_hat.jump)
        slacks = [rm.worst_case_optimality_slack(theta_hat, th) for th in thetas]
        assert max(slacks) <= 1e-10, sol.kind
        # equality only at the minimizer: interior samples sit strictly below
        assert all(s < -1e-10 for s in slacks), sol.kind
    report(6, "cross-scenario optimality slack <= 1e-10, equality only at theta_hat")


def test_07_backward_ode_grids(ws_criterion, ws_solution):
    grids = ws_solution.ode
    lam, p = ws_criterion.lam, ws_solution.premium
    assert grids.a[-1] == 1.0 and grids.b[-1] == 1.0
    assert np.all(grids.a > 0) and np.all(grids.b > 0)
    t, a, b = grids.t, grids.a, grids.b
    h = t[1] - t[0]
    da = (a[2:] - a[:-2]) / (2 * h)
    db = (b[2:] - b[:-2]) / (2 * h)
    am, bm = a[1:-1], b[1:-1]
    m = am + 2 * lam * (am * am - bm)
    q = m / (2 * lam * bm)
    assert np.max(np.abs(da + q * p * am)) <= 1e-6
    assert np.max(np.abs(db + (2 * q * p + q * q * p) * bm)) <= 1e-6
    _, ref_a, ref_b = rk4_growth_factors(lam, p, ws_criterion.t0, ws_criterion.horizon, 20_000)
    assert abs(grids.a[0] - ref_a[0]) <= 1e-8
    assert abs(grids.b[0] - ref_b[0]) <= 1e-8
    report(7, "growth-factor grids: residuals <= 1e-6, exact terminal, RK4 reference <= 1e-8")


def test_08_monte_carlo_consistency(tw_solution, lr_solution, cp_solution):
    for sol, label in ((tw_solution, "terminal wealth"),
                       (cp_solution, "terminal wealth + jumps"),
                       (lr_solution, "log return")):
        t_start = time.monotonic()
        span = sol.criterion.span
        cfg = rm.SimConfig(n_paths=100_000, dt=1e-3 * span, seed=8675309)
        batch = rm.simulate_solution(sol, cfg)
        est = rm.estimate_J(batch, sol.criterion)
        v_ref = sol.V(sol.criterion.t0, sol.criterion.x0)
        g_ref = sol.g(sol.criterion.t0, sol.criterion.x0)
        assert abs(est.j_hat - v_ref) <= 3.0 * est.standard_error_j, label
        assert abs(est.mean_hat - g_ref) <= 3.0 * est.standard_error_mean, label
        elapsed = time.monotonic() - t_start
        assert elapsed <= 120.0, label
    report(8, "J and mean match V and g within 3 SE at 1e5 paths")


def test_09_perturbation_tests(tw_solution, short_second_set):
    cfg = rm.SimConfig(n_paths=100_000, dt=0.0125, seed=20250809)
    h_list = [0.1, 0.05, 0.025]
    eq = rm.perturb_equilibrium(tw_solution, short_second_set, h_list,
                                w_samples=20, u_samples=20, cfg=cfg)
    assert eq.ok, eq.violations[:3]
    wc = rm.perturb_worst_case(tw_solution, short_second_set, h_list,
                               u_samples=20, cfg=cfg)
    assert wc.ok, wc.violations[:3]
    probe = rm.perturb_equilibrium(tw_solution, short_second_set, [0.025],
                                   w_samples=20, u_samples=20, cfg=cfg,
                                   base_strategy=2.0 * tw_solution.alpha_coef)
    assert any(r.violated and r.h == pytest.approx(0.025) for r in probe.rows)
    report(9, "no quotient beyond 3 SE/h; doubled-strategy probe violates")


def test_10_determinism(tw_solution, cp_solution, short_second_set, cp_set):
    a = rm.worst_case_numeric(short_second_set)
    b = rm.worst_case_numeric(short_second_set)
    assert a.scenario.drift.tobytes() == b.scenario.drift.tobytes()
    assert a.scenario.cov.tobytes() == b.scenario.cov.tobytes()
    assert a.risk_premium == b.risk_premium

    s1 = rm.saddle_check(tw_solution, short_second_set, samples=300, seed=6)
    s2 = rm.saddle_check(tw_solution, short_second_set, samples=300, seed=6)
    assert (s1.saddle_value, s1.max_alpha_side, s1.min_theta_side) == \
           (s2.saddle_value, s2.max_alpha_side, s2.min_theta_side)

    cfg = rm.SimConfig(n_paths=20_000, dt=0.005, seed=77)
    m1 = rm.simulate_solution(cp_solution, cfg)
    m2 = rm.simulate_solution(cp_solution, cfg)
    assert np.array_equal(m1.terminal, m2.terminal)

    pcfg = rm.SimConfig(n_paths=5000, dt=0.025, seed=55)
    r1 = rm.perturb_worst_case(tw_solution, short_second_set, [0.05], 5, pcfg)
    r2 = rm.perturb_worst_case(tw_solution, short_second_set, [0.05], 5, pcfg)
    assert [(w.quotient, w.se) for w in r1.rows] == [(w.quotient, w.se) for w in r2.rows]
    report(10, "repeated seeded runs are bit-identical")
