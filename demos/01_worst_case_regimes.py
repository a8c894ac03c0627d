"""Three regimes of the adversary's choice on a two-asset product set.

Nature minimizes the squared generalized Sharpe ratio b' Sigma^{-1} b
over a box of drifts, a box of marginal volatilities and a correlation
interval.  Depending on where the correlation interval sits relative to
the attainable band of second-asset Sharpe ratios, the minimizer either
maxes out the second asset's Sharpe ratio (the investor shorts it),
floors both Sharpe ratios (the investor holds both), or collapses onto
a whole manifold of equivalent scenarios (the investor simply ignores
the second asset).

The case solver is cross-checked against the convex solver, which
minimizes s' C^{-1} s over Sharpe ratios s = b / vol and the correlation
family, and certifies its answer with a Frank-Wolfe duality gap: an
upper bound on how far the premium can sit above the true minimum.
"""

import numpy as np

import robust_mv as rm

CASES = [
    ("high correlation: short the weaker asset",
     rm.UncertaintySet.two_asset((0.10, 0.12), (0.02, 0.03),
                                 (0.15, 0.2), (0.2, 0.3), (0.4, 0.6))),
    ("low correlation: hold both assets",
     rm.UncertaintySet.two_asset((0.10, 0.12), (0.09, 0.10),
                                 (0.15, 0.2), (0.2, 0.25), (0.1, 0.3))),
    ("intermediate correlation: ignore the weaker asset",
     rm.UncertaintySet.two_asset((0.10, 0.12), (0.02, 0.03),
                                 (0.15, 0.2), (0.2, 0.3), (0.2, 0.25))),
]


def main() -> None:
    lam = 1.0
    for story, uset in CASES:
        closed = rm.worst_case_two_asset(uset)
        numeric = rm.worst_case_numeric(uset)
        scen = closed.scenario
        alpha = closed.alpha_direction() / (2.0 * lam)
        print(f"--- {story}")
        print(f"    regime          {closed.case_label}"
              + ("   (minimizer is a manifold; canonical point shown)" if closed.manifold else ""))
        print(f"    adverse drift   {np.array2string(scen.drift, precision=4)}")
        print(f"    adverse vols    {np.array2string(scen.vols, precision=4)}")
        print(f"    adverse rho     {scen.corr[0, 1]:+.4f}")
        print(f"    risk premium    {closed.risk_premium:.8f}")
        print(f"    convex solver   {numeric.risk_premium:.8f}   "
              f"(|difference| = {abs(closed.risk_premium - numeric.risk_premium):.2e}, "
              f"certified gap {numeric.gap:.2e})")
        print(f"    strategy        {np.array2string(alpha, precision=4)}  (lam = {lam})")
        print()

    print("The worst case never depends on the aversion level: nature's")
    print("problem is the same for every lam and for both the terminal-wealth")
    print("and log-return criteria.")


if __name__ == "__main__":
    main()
