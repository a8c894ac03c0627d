"""Bit pins of the jump paths and the solutions: sha256 digests of
simulated terminals, of grid worst cases under jump ambiguity and of the
four solution fixtures' JSON.

Each array digest hashes its arrays as little-endian float64 in the order
given.  A refactor of the jump code must keep every digest; a change
that moves them on purpose (a new RNG layout, another grid) says so and
pins the new values.
"""

import hashlib
import json

import numpy as np
import pytest

import robust_mv as rm
from robust_mv.model import WealthDynamics
from robust_mv.simulate import ConstantStrategy, SplicedScenario, SplicedStrategy


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


class _Proportional:
    """State-dependent strategy: alpha = (1 + x) vec, one row per path."""

    def values(self, t, x):
        return np.outer(1.0 + x, np.array([0.3, 0.2]))


_DRIFT, _COV = np.array([0.08, 0.02]), np.diag([0.04, 0.09])
_CP = rm.CompoundPoissonJumps(
    loadings=np.array([[1.0, 0.0], [0.5, 1.0]]), intensity=np.array([20.0, 12.0]),
    size_laws=(rm.JumpSizeLaw.shifted_lognormal(-0.05, 0.1),
               rm.JumpSizeLaw.two_point(-0.2, 0.1, 0.4)))
_LEVY = rm.DiscreteLevyJumps(np.array([[-0.05, 0.02], [0.08, 0.0]]), np.array([20.0, 12.0]))
_CFG = rm.SimConfig(n_paths=2500, dt=0.1, seed=11)


def _sim(name: str) -> rm.PathBatch:
    lr, tw = WealthDynamics("log_return"), WealthDynamics("terminal_wealth")
    cp = rm.Scenario(_DRIFT, _COV, jump=_CP)
    levy = rm.Scenario(_DRIFT, _COV, jump=_LEVY)
    if name == "cp":
        return rm.simulate_paths(lr, ConstantStrategy(np.array([0.3, 0.2])), cp, _CFG, 0.0, 1.0, 0.0)
    if name == "cp_state":
        return rm.simulate_paths(lr, _Proportional(), cp, _CFG, 0.0, 1.0, 0.0)
    if name == "levy_tw":
        # a window with other weights, drift, covariance and strategy
        window = rm.Scenario(np.array([0.05, 0.03]), np.diag([0.05, 0.08]),
                             jump=rm.DiscreteLevyJumps(_LEVY.atoms, np.array([30.0, 6.0])))
        strategy = SplicedStrategy(np.array([0.6, 0.1]), 0.3, ConstantStrategy(np.array([0.4, 0.3])))
        return rm.simulate_paths(tw, strategy, SplicedScenario(window, 0.3, levy), _CFG, 0.0, 1.0, 1.0)
    if name == "levy_lr":
        return rm.simulate_paths(lr, ConstantStrategy(np.array([0.4, 0.3])), levy, _CFG, 0.0, 1.0, 0.0)
    crit = rm.Criterion("wealth_scaled", lam=1.0, horizon=1.0)
    sol = rm.solve(
        rm.UncertaintySet.single_asset((0.10, 0.12), (0.2, 0.25)), crit,
        jump=rm.DiscreteLevyJumps(np.array([[-0.05], [0.08]]), np.array([0.4, 0.3])))
    return rm.simulate_solution(sol, rm.SimConfig(n_paths=2500, dt=0.02, seed=11))


@pytest.mark.parametrize("name, events, digest", [
    ("cp", 79450, "33b6ee7050c02d031b583e6eb1d065d20ccc79e5f84ed1f48d1e27ad41a18ff4"),
    ("cp_state", 79450, "ea30697f35cf21a8933fe3d39da0d0db3d1bb79a8fca9f480a26f7d1fc35e0a8"),
    ("levy_tw", 82365, "51ff9bd56ecef9e21373329a51c7e94c976989d0aaf9213c6b7236d5b20d8629"),
    ("levy_lr", 79450, "3a45657f650a7fc712818abca8dbef4dbb452373f17a9fcfa6fc9b3ef268b4d1"),
    ("levy_ws", 1669, "72692ef0064218e882c2de8ff32716914978d73fb511b28765859116e965a44e"),
])
def test_simulated_terminals_are_pinned(name, events, digest):
    batch = _sim(name)
    assert batch.jump_events == events
    assert _digest(batch.terminal) == digest


_BOX2 = ((0.10, 0.12), (0.02, 0.03), (0.15, 0.2), (0.2, 0.3), (0.2, 0.6))
_BOUNDS = {
    # mean^2 exceeds the second moment on part of the box
    "cp": rm.CompoundPoissonBounds(
        loadings=np.array([[1.0, 0.3], [0.4, 1.0]]),
        intensity_lo=np.array([0.2, 0.3]), intensity_hi=np.array([0.6, 0.5]),
        mean_lo=np.array([0.05, -0.1]), mean_hi=np.array([0.2, 0.15]),
        second_lo=np.array([0.01, 0.005]), second_hi=np.array([0.05, 0.03])),
    "levy": rm.DiscreteLevyBounds(
        atoms=np.array([[-0.05, 0.02], [0.08, -0.03]]),
        weight_lo=np.array([0.2, 0.1]), weight_hi=np.array([0.5, 0.4])),
}


@pytest.mark.parametrize("name, evaluations, skipped, digest, adjusted", [
    ("cp", 8388608, 1835008, "382268588d1136c19014826c65e0f439e73576344c896bcd468d21d29d0d7222",
     "77a7855c04d79c476b55536c2db395b7a21dde6ee4efb02121f996d09bc4b1b5"),
    ("levy", 156250, 0, "b0d9d8578d2d380dd639cec1ae876d66958e30ef93ca52a0e96603088227947b",
     "7acced051edc04d6399ee4a820764f3ed89e96adfde1456878eb8f7db2d24a36"),
])
def test_grid_worst_cases_are_pinned(name, evaluations, skipped, digest, adjusted):
    uset = rm.UncertaintySet.two_asset(*_BOX2, jump_bounds=_BOUNDS[name])
    res = rm.worst_case_numeric(uset, resolution=5, refinements=1)
    scen = res.scenario
    assert (res.evaluations, res.skipped) == (evaluations, skipped)
    assert _digest(scen.drift, scen.cov, [res.risk_premium]) == digest
    # the jump law through its adjusted moments (b_F, Sigma_F)
    assert _digest(*rm.adjusted_moments(scen)) == adjusted


@pytest.mark.parametrize("fixture, digest", [
    ("tw_solution", "bf1337b6d6df8819e4d765dd04ad4bec595240fca8b990335821cb0479d58dd3"),
    ("lr_solution", "26c1838db021d8b8e099570fa66a464d04ca33501b963911108a90c127448a7d"),
    ("cp_solution", "222c70fedecca7fb4f286344fdac788b4a1019c8ad9267b3639e21ce69668927"),
    ("ws_solution", "c5e3b101bc600aa76a32cea61e891dee1c8aaeccc0214ccb2f763410eda3e194"),
])
def test_solutions_are_pinned(request, fixture, digest):
    sol = request.getfixturevalue(fixture)
    text = json.dumps(sol.to_json_dict(ode_stride=100), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
