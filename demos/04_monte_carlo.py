"""Monte Carlo consistency: simulated paths against the closed forms.

Under its worst-case scenario, the equilibrium strategy's simulated
objective J = E[X_T] - lam Var(X_T) must reproduce the value function,
and the sample mean of X_T must reproduce the conditional-mean function
g.  Paths use one counter-based RNG stream per path, so results are
reproducible bit for bit regardless of chunking.
"""

import numpy as np

import robust_mv as rm


def check(sol: rm.ClosedFormSolution, label: str, n_paths: int = 50_000) -> None:
    crit = sol.criterion
    cfg = rm.SimConfig(n_paths=n_paths, dt=2e-3 * crit.span, seed=314159)
    batch = rm.simulate_solution(sol, cfg)
    est = rm.estimate_J(batch, crit)
    v_ref = sol.V(crit.t0, crit.x0)
    g_ref = sol.g(crit.t0, crit.x0)
    zj = (est.j_hat - v_ref) / est.standard_error_j
    zg = (est.mean_hat - g_ref) / est.standard_error_mean
    print(f"--- {label}  ({n_paths} paths, {batch.n_steps} steps)")
    print(f"    J estimate   {est.j_hat:+.6f} +- {est.standard_error_j:.1e}"
          f"   V = {v_ref:+.6f}   z = {zj:+.2f}")
    print(f"    mean X_T     {est.mean_hat:+.6f} +- {est.standard_error_mean:.1e}"
          f"   g = {g_ref:+.6f}   z = {zg:+.2f}")
    print()


def main() -> None:
    box = rm.UncertaintySet.two_asset((0.10, 0.12), (0.02, 0.03),
                                      (0.15, 0.2), (0.2, 0.3), (0.4, 0.6))
    check(rm.solve(box, rm.Criterion("terminal_wealth", 1.0, 1.0)),
          "terminal wealth")
    check(rm.solve(box, rm.Criterion("log_return", 1.0, 1.0, x0=0.0)),
          "log return")

    jump = rm.CompoundPoissonJumps(
        loadings=np.array([[1.0], [0.0]]),
        intensity=np.array([0.5]),
        size_laws=(rm.JumpSizeLaw.two_point_from_moments(0.1, 0.02),),
    )
    jump_box = rm.UncertaintySet.two_asset((0.10, 0.12), (0.02, 0.03),
                                           (0.2, 0.2), (0.2, 0.3), (0.4, 0.6))
    check(rm.solve(jump_box, rm.Criterion("terminal_wealth", 2.0, 1.0), jump),
          "terminal wealth with compound Poisson jumps")

    levy = rm.DiscreteLevyJumps(np.array([[-0.05], [0.08]]), np.array([0.4, 0.3]))
    ws = rm.solve(
        rm.UncertaintySet.single_asset((0.10, 0.12), (0.2, 0.25)),
        rm.Criterion("wealth_scaled", 1.0, 1.0, x0=1.0), jump=levy)
    check(ws, "wealth-scaled aversion with discrete Levy jumps")

    # step-size ladder: a wealth-proportional strategy has genuine
    # first-order Euler bias, visible as shrinking |J(dt) - J(dt/2)|
    strong = rm.solve(
        rm.UncertaintySet.point(rm.Scenario(np.array([0.3]), np.array([[0.04]]))),
        rm.Criterion("wealth_scaled", 1.0, 1.0, x0=1.0))
    print("--- Euler step-size ladder (wealth-proportional strategy)")
    js = {}
    for dt in (0.1, 0.05, 0.025, 0.0125):
        cfg = rm.SimConfig(n_paths=50_000, dt=dt, seed=99)
        js[dt] = rm.estimate_J(rm.simulate_solution(strong, cfg), strong.criterion).j_hat
        print(f"    dt = {dt:<7g} J = {js[dt]:.6f}")
    print(f"    |J(0.1)-J(0.05)|    = {abs(js[0.1] - js[0.05]):.5f}")
    print(f"    |J(0.05)-J(0.025)|  = {abs(js[0.05] - js[0.025]):.5f}")
    print(f"    |J(0.025)-J(0.0125)| = {abs(js[0.025] - js[0.0125]):.5f}")


if __name__ == "__main__":
    main()
