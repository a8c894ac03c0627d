"""Numerical certification of a solved case, and what failure looks like.

Three instruments:
* residual grid: every equation of the governing system, evaluated at
  the equilibrium pair on a (t, x) lattice, should vanish;
* saddle sampling: the objective F(alpha, theta) must be nonpositive in
  alpha at the worst case and nonnegative in theta at the strategy;
* cross-scenario slack: H(bhat, Shat) - 2 H(b, Shat) + H(bhat, S), the
  theta side of the saddle with the sign turned (F(alpha_hat, theta) -
  F(alpha_hat, theta_hat) = -slack / (4 lam) for terminal wealth).  It
  is not a certificate of the premium minimum: over ambiguous vols a
  premium minimizer can have positive slack at a corner, and the
  certificate is the convex solver's gap.

Each check is then pointed at a deliberately corrupted solution to show
it actually bites.
"""

import numpy as np

import robust_mv as rm
from robust_mv.pde_check import with_scaled_value

BOX = rm.UncertaintySet.two_asset((0.10, 0.12), (0.02, 0.03),
                                  (0.15, 0.2), (0.2, 0.3), (0.4, 0.6))


def main() -> None:
    crit = rm.Criterion("terminal_wealth", lam=1.0, horizon=1.0)
    sol = rm.solve(BOX, crit)

    table = rm.residual_grid(sol, nt=10, nx=10)
    print("residuals at the equilibrium pair (10 x 10 lattice):")
    for eq, val in sorted(table.max_by_equation().items()):
        print(f"  {eq:<16} max |residual| = {val:.2e}")

    rep = rm.saddle_check(sol, BOX, samples=1000, seed=0)
    print(f"\nsaddle sampling (1000 draws): {len(rep.violations)} violations")
    print(f"  F(alpha_hat, theta_hat) = {rep.saddle_value:+.2e} (tolerance {rep.saddle_eps:.1e})")
    print(f"  max over alpha draws    = {rep.max_alpha_side:+.2e}  (must stay <= 0)")
    print(f"  min over theta draws    = {rep.min_theta_side:+.2e}  (must stay >= 0)")

    theta_hat = sol.worst_case.scenario
    slacks = [rm.worst_case_optimality_slack(theta_hat, th)
              for th in rm.sample_scenarios(BOX, 100, 7)]
    print(f"\ncross-scenario slack over 100 draws: max = {max(slacks):+.2e} (<= 0: no draw lowers F)")

    print("\n--- falsification probes")
    bad = with_scaled_value(sol, 1.01)
    print(f"value function scaled by 1.01 -> max residual "
          f"{rm.residual_grid(bad).max_abs:.2e} (was ~1e-16)")

    corner = rm.Scenario(
        np.array([0.12, 0.03]),
        rm.build_covariance([0.15, 0.3], np.array([[1.0, 0.6], [0.6, 1.0]])),
    )
    fake = rm.WorstCaseResult(corner, rm.risk_premium(corner.drift, corner.cov), "Numeric")
    wrong = rm.solve(BOX, crit, worst=fake)
    rep_bad = rm.saddle_check(wrong, BOX, samples=500, seed=0)
    worst_theta = min((v.value for v in rep_bad.violations if v.side == "theta"), default=0.0)
    print(f"non-minimizer scenario        -> {len(rep_bad.violations)} saddle violations "
          f"(deepest theta-side value {worst_theta:+.2e})")
    slack_bad = max(rm.worst_case_optimality_slack(corner, th)
                    for th in rm.sample_scenarios(BOX, 100, 7))
    print(f"non-minimizer scenario        -> max slack {slack_bad:+.2e} (positive: a draw lowers F)")


if __name__ == "__main__":
    main()
