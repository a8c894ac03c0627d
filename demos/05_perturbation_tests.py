"""Local-variation tests of the worst case and the equilibrium, by simulation.

The defining properties are limits of difference quotients under
constant splices on a shrinking window [t0, t0 + h):

* worst case: replacing theta_hat by any constant u on the window must
  not lower the objective, so (J(base) - J(spliced)) / h stays <= 0;
* equilibrium: replacing alpha_hat by any constant w on the window,
  with the window scenario driven to its own worst sampled u, must not
  raise the objective, so the quotient stays >= 0.

A simulator cannot take h -> 0; instead the quotients are reported on a
ladder of h values with common-random-number error bars, and the test
is "no violation beyond 3 standard errors".  A deliberately doubled
strategy shows the test has teeth.
"""

import numpy as np

import robust_mv as rm

BOX = rm.UncertaintySet.two_asset((0.10, 0.12), (0.02, 0.03),
                                  (0.15, 0.2), (0.2, 0.3), (0.4, 0.6))


def show(rep: rm.PerturbationReport) -> None:
    for h, q in sorted(rep.per_h_extreme().items()):
        word = "min" if rep.kind == "equilibrium" else "max"
        print(f"    h = {h:<7g} {word} quotient = {q:+.5f}")
    print(f"    violations: {len(rep.violations)}")


def main() -> None:
    crit = rm.Criterion("terminal_wealth", lam=1.0, horizon=1.0)
    sol = rm.solve(BOX, crit)
    cfg = rm.SimConfig(n_paths=30_000, dt=0.0125, seed=424242)
    h_list = [0.1, 0.05, 0.025]

    print("--- scenario splices against the worst case (quotients must stay <= 0)")
    show(rm.perturb_worst_case(sol, BOX, h_list, u_samples=10, cfg=cfg))

    print("\n--- strategy splices against the equilibrium (quotients must stay >= 0)")
    show(rm.perturb_equilibrium(sol, BOX, h_list, w_samples=10, u_samples=10, cfg=cfg))

    print("\n--- the same test applied to a doubled strategy (should fail)")
    probe = rm.perturb_equilibrium(sol, BOX, [0.025], w_samples=10, u_samples=10,
                                   cfg=rm.SimConfig(n_paths=50_000, dt=0.0125, seed=3),
                                   base_strategy=2.0 * sol.alpha_coef)
    show(probe)
    if probe.violations:
        row = probe.violations[0]
        print(f"    e.g. {row.detail}: quotient {row.quotient:+.5f} "
              f"below -3 se/h = {-3 * row.se / row.h:+.5f}")


if __name__ == "__main__":
    main()
