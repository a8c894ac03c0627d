"""The four solved strategy families, evaluated side by side.

1. terminal wealth, constant aversion: money amounts, constant in time;
2. log return, constant aversion: wealth fractions, constant in time;
3. terminal wealth with compound Poisson jumps: the same formulas on
   jump-adjusted moments, plus the per-jump-type admissibility check;
4. wealth-scaled aversion lam/x with discrete Levy jumps: strategy
   proportional to wealth, scaled by backward ODE growth factors.
"""

import numpy as np

import robust_mv as rm


def show(sol: rm.ClosedFormSolution, x0: float = 1.0) -> None:
    crit = sol.criterion
    t0 = crit.t0
    print(f"  worst case      {sol.worst_case.case_label}, premium {sol.premium:.6f}")
    if sol.kind == "wealth_scaled":
        print(f"  alpha_hat(0,x)  {np.array2string(np.atleast_1d(sol.alpha_hat(t0, x0)), precision=4)}"
              f"  (proportional to wealth)")
        print(f"  A(0), B(0)      {sol.ode.a[0]:.6f}, {sol.ode.b[0]:.6f}")
    else:
        print(f"  alpha_hat       {np.array2string(sol.alpha_coef, precision=4)}")
    print(f"  V(0, {x0:g})        {sol.V(t0, x0):.6f}")
    print(f"  g(0, {x0:g})        {sol.g(t0, x0):.6f}")
    print(f"  f(0, {x0:g})        {sol.f(t0, x0):.6f}")
    lam_x = crit.risk_aversion_at(x0)
    gap = sol.V(t0, x0) - sol.f(t0, x0) - lam_x * sol.g(t0, x0) ** 2
    print(f"  V - f - lam g^2 {gap:+.2e}   (identity check)")
    print()


def main() -> None:
    box = rm.UncertaintySet.two_asset((0.10, 0.12), (0.02, 0.03),
                                      (0.15, 0.2), (0.2, 0.3), (0.4, 0.6))

    print("--- terminal wealth, lam = 1")
    show(rm.solve(box, rm.Criterion("terminal_wealth", 1.0, 1.0)))

    print("--- log return, lam = 1  (state is log wealth; x0 = 0)")
    show(rm.solve(box, rm.Criterion("log_return", 1.0, 1.0, x0=0.0)), x0=0.0)

    print("--- terminal wealth + compound Poisson jumps, lam = 2")
    jump = rm.CompoundPoissonJumps(
        loadings=np.array([[1.0], [0.0]]),
        intensity=np.array([0.5]),
        size_laws=(rm.JumpSizeLaw.two_point_from_moments(0.1, 0.02),),
    )
    jump_box = rm.UncertaintySet.two_asset((0.10, 0.12), (0.02, 0.03),
                                           (0.2, 0.2), (0.2, 0.3), (0.4, 0.6))
    sol = rm.solve(jump_box, rm.Criterion("terminal_wealth", 2.0, 1.0), jump)
    show(sol)
    print(f"  jump exposures  {np.array2string(sol.nonbankruptcy.exposures, precision=4)} "
          f"(admissible: {sol.nonbankruptcy.ok})")
    print()

    print("--- wealth-scaled aversion lam/x + discrete Levy jumps, lam = 1")
    levy = rm.DiscreteLevyJumps(np.array([[-0.05], [0.08]]), np.array([0.4, 0.3]))
    ws = rm.solve(
        rm.UncertaintySet.single_asset((0.10, 0.12), (0.2, 0.25)),
        rm.Criterion("wealth_scaled", 1.0, 1.0, x0=1.0),
        jump=levy,
    )
    show(ws)
    print("  growth factors along the backward grid:")
    for i in np.linspace(0, ws.ode.t.size - 1, 6).astype(int):
        print(f"    t={ws.ode.t[i]:6.3f}   A={ws.ode.a[i]:.8f}   B={ws.ode.b[i]:.8f}")


if __name__ == "__main__":
    main()
