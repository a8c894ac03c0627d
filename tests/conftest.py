"""Canonical cases shared across the test suite.

Three two-asset uncertainty sets exercising each worst-case regime, a
compound Poisson jump configuration whose adjusted minimizer sits on a
box corner, and a one-asset wealth-scaled setup with discrete Levy
jumps.
"""

from __future__ import annotations

import numpy as np
import pytest

import robust_mv as rm


@pytest.fixture(scope="session")
def short_second_set() -> rm.UncertaintySet:
    return rm.UncertaintySet.two_asset(
        (0.10, 0.12), (0.02, 0.03), (0.15, 0.2), (0.2, 0.3), (0.4, 0.6)
    )


@pytest.fixture(scope="session")
def long_both_set() -> rm.UncertaintySet:
    return rm.UncertaintySet.two_asset(
        (0.10, 0.12), (0.09, 0.10), (0.15, 0.2), (0.2, 0.25), (0.1, 0.3)
    )


@pytest.fixture(scope="session")
def ignore_second_set() -> rm.UncertaintySet:
    return rm.UncertaintySet.two_asset(
        (0.10, 0.12), (0.02, 0.03), (0.15, 0.2), (0.2, 0.3), (0.2, 0.25)
    )


@pytest.fixture(scope="session")
def tw_criterion() -> rm.Criterion:
    return rm.Criterion("terminal_wealth", lam=1.0, horizon=1.0, t0=0.0, x0=1.0)


@pytest.fixture(scope="session")
def lr_criterion() -> rm.Criterion:
    return rm.Criterion("log_return", lam=1.0, horizon=1.0, t0=0.0, x0=0.0)


@pytest.fixture(scope="session")
def cp_jump() -> rm.CompoundPoissonJumps:
    return rm.CompoundPoissonJumps(
        loadings=np.array([[1.0], [0.0]]),
        intensity=np.array([0.5]),
        size_laws=(rm.JumpSizeLaw.two_point_from_moments(0.1, 0.02),),
    )


@pytest.fixture(scope="session")
def cp_set() -> rm.UncertaintySet:
    # first asset's volatility pinned so the jump-adjusted minimizer sits
    # on a box corner (grid-exact for the numeric search)
    return rm.UncertaintySet.two_asset(
        (0.10, 0.12), (0.02, 0.03), (0.2, 0.2), (0.2, 0.3), (0.4, 0.6)
    )


@pytest.fixture(scope="session")
def cp_criterion() -> rm.Criterion:
    # lam = 2 keeps the per-type exposure alpha.J inside [0, 1]
    return rm.Criterion("terminal_wealth", lam=2.0, horizon=1.0, t0=0.0, x0=1.0)


@pytest.fixture(scope="session")
def ws_jump() -> rm.DiscreteLevyJumps:
    return rm.DiscreteLevyJumps(
        atoms=np.array([[-0.05], [0.08]]), weights=np.array([0.4, 0.3])
    )


@pytest.fixture(scope="session")
def ws_set() -> rm.UncertaintySet:
    return rm.UncertaintySet.single_asset((0.10, 0.12), (0.2, 0.25))


@pytest.fixture(scope="session")
def ws_criterion() -> rm.Criterion:
    return rm.Criterion("wealth_scaled", lam=1.0, horizon=1.0, t0=0.0, x0=1.0)


@pytest.fixture(scope="session")
def tw_solution(short_second_set, tw_criterion) -> rm.ClosedFormSolution:
    return rm.solve(short_second_set, tw_criterion)


@pytest.fixture(scope="session")
def lr_solution(short_second_set, lr_criterion) -> rm.ClosedFormSolution:
    return rm.solve(short_second_set, lr_criterion)


@pytest.fixture(scope="session")
def cp_solution(cp_set, cp_criterion, cp_jump) -> rm.ClosedFormSolution:
    return rm.solve(cp_set, cp_criterion, cp_jump)


@pytest.fixture(scope="session")
def ws_solution(ws_set, ws_criterion, ws_jump) -> rm.ClosedFormSolution:
    return rm.solve(ws_set, ws_criterion, jump=ws_jump)


def random_ordered_two_asset(rng: np.random.Generator) -> rm.UncertaintySet:
    """Random two-asset product set satisfying the solver's ordering
    assumption with strictly positive drift lower bounds."""
    b1_lo = rng.uniform(0.02, 0.12)
    b1_hi = b1_lo + rng.uniform(0.0, 0.05)
    b2_lo = b1_lo * rng.uniform(0.05, 1.0)
    b2_hi = b2_lo + rng.uniform(0.0, 1.0) * (b1_hi - b2_lo)
    s1_lo = rng.uniform(0.1, 0.3)
    s1_hi = s1_lo + rng.uniform(0.0, 0.15)
    s2_lo = s1_lo + rng.uniform(0.0, 0.1)
    s2_hi = max(s2_lo, s1_hi) + rng.uniform(0.0, 0.1)
    rho_lo = rng.uniform(-0.8, 0.7)
    rho_hi = min(0.95, rho_lo + rng.uniform(0.0, 0.8))
    return rm.UncertaintySet.two_asset(
        (b1_lo, b1_hi), (b2_lo, b2_hi), (s1_lo, s1_hi), (s2_lo, s2_hi), (rho_lo, rho_hi)
    )


def rk4_growth_factors(lam: float, premium: float, t0: float, horizon: float, n_steps: int):
    """Reference for the wealth-scaled growth factors: classical RK4 from
    A(T) = B(T) = 1 down to t0 on the backward system
        A_t = -q P A,  B_t = -(2 q P + q^2 P) B,  q = (A + 2 lam (A^2 - B)) / (2 lam B),
    in n_steps equal steps.  Returns (t, A, B) ascending in t."""
    def rates(a, b):
        q = (a + 2.0 * lam * (a * a - b)) / (2.0 * lam * b)
        return -q * premium * a, -(2.0 * q + q * q) * premium * b

    h = -(horizon - t0) / n_steps
    a, b = 1.0, 1.0
    t_nodes, a_nodes, b_nodes = [horizon], [a], [b]
    for i in range(1, n_steps + 1):
        k1 = rates(a, b)
        k2 = rates(a + 0.5 * h * k1[0], b + 0.5 * h * k1[1])
        k3 = rates(a + 0.5 * h * k2[0], b + 0.5 * h * k2[1])
        k4 = rates(a + h * k3[0], b + h * k3[1])
        a += h * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]) / 6.0
        b += h * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]) / 6.0
        t_nodes.append(horizon + i * h)
        a_nodes.append(a)
        b_nodes.append(b)
    t_nodes[-1] = t0
    return tuple(np.array(v[::-1]) for v in (t_nodes, a_nodes, b_nodes))
