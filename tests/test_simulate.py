"""Monte Carlo engine: exactness, determinism, CRN, perturbation tests."""

import hashlib
import json
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import robust_mv as rm
from robust_mv import simulate
from robust_mv.model import WealthDynamics
from robust_mv.simulate import (
    _BLOCK,
    _ROUND,
    _SE_FLOOR,
    ConstantStrategy,
    ShockCache,
    SolutionStrategy,
    SplicedScenario,
    SplicedStrategy,
    _clock,
    _Coefficients,
    _dot,
    _effective_chunk,
    _Events,
    _mix,
    _PairedBase,
    _Segment,
    _Shocks,
    paired_difference,
    scenario_candidates,
    strategy_candidates,
)


@pytest.fixture(scope="module")
def flat_scenario():
    return rm.Scenario(np.array([0.08, 0.02]), np.diag([0.04, 0.09]))


class TestEngineBasics:
    def test_null_strategy_is_exact(self, flat_scenario):
        # alpha = 0 kills drift, diffusion and jumps of the controlled state
        dyn = WealthDynamics("terminal_wealth")
        cfg = rm.SimConfig(n_paths=500, dt=0.01, seed=4)
        batch = rm.simulate_paths(dyn, ConstantStrategy(np.zeros(2)), flat_scenario,
                                  cfg, 0.0, 1.0, 1.0)
        assert np.all(batch.terminal == 1.0)

    def test_null_strategy_log_state(self, flat_scenario):
        dyn = WealthDynamics("log_return")
        cfg = rm.SimConfig(n_paths=200, dt=0.02, seed=4)
        batch = rm.simulate_paths(dyn, ConstantStrategy(np.zeros(2)), flat_scenario,
                                  cfg, 0.0, 1.0, 0.3)
        assert np.all(batch.terminal == 0.3)

    def test_log_return_mean_matches_analytic(self):
        # fully invested log-wealth drifts at b - sigma^2 / 2
        scen = rm.Scenario(np.array([0.08]), np.array([[0.04]]))
        dyn = WealthDynamics("log_return")
        cfg = rm.SimConfig(n_paths=100_000, dt=0.001, seed=21)
        batch = rm.simulate_paths(dyn, ConstantStrategy(np.array([1.0])), scen,
                                  cfg, 0.0, 1.0, 0.0)
        mean = float(np.mean(batch.terminal))
        se = float(np.std(batch.terminal, ddof=1) / math.sqrt(batch.n_paths))
        assert abs(mean - (0.08 - 0.02)) <= 3.0 * se

    def test_dt_rounded_down_and_recorded(self, flat_scenario):
        dyn = WealthDynamics("terminal_wealth")
        cfg = rm.SimConfig(n_paths=10, dt=0.3, seed=1)
        batch = rm.simulate_paths(dyn, ConstantStrategy(np.zeros(2)), flat_scenario,
                                  cfg, 0.0, 1.0, 1.0)
        assert batch.n_steps == 4
        assert batch.dt == pytest.approx(0.25)

    def test_seed_determinism_across_chunkings(self, flat_scenario):
        dyn = WealthDynamics("terminal_wealth")
        strat = ConstantStrategy(np.array([0.5, 0.25]))
        a = rm.simulate_paths(dyn, strat, flat_scenario,
                              rm.SimConfig(n_paths=3000, dt=0.01, seed=77, chunk_paths=256),
                              0.0, 1.0, 1.0)
        b = rm.simulate_paths(dyn, strat, flat_scenario,
                              rm.SimConfig(n_paths=3000, dt=0.01, seed=77, chunk_paths=3000),
                              0.0, 1.0, 1.0)
        assert np.array_equal(a.terminal, b.terminal)

    def test_antithetic_pairs_mirror_normals(self, flat_scenario):
        dyn = WealthDynamics("terminal_wealth")
        strat = ConstantStrategy(np.array([1.0, 0.0]))
        cfg = rm.SimConfig(n_paths=200, dt=0.05, seed=5, antithetic=True)
        batch = rm.simulate_paths(dyn, strat, flat_scenario, cfg, 0.0, 1.0, 1.0)
        # diffusion-only: pair averages collapse to the deterministic drift
        pair_mean = 0.5 * (batch.terminal[0::2] + batch.terminal[1::2])
        assert np.allclose(pair_mean, 1.0 + 0.08, atol=1e-12)

    def test_keep_paths_and_spill_round_trip(self, flat_scenario, tmp_path):
        dyn = WealthDynamics("terminal_wealth")
        cfg = rm.SimConfig(n_paths=16, dt=0.25, seed=8, keep_paths=True)
        batch = rm.simulate_paths(dyn, ConstantStrategy(np.array([1.0, 0.5])),
                                  flat_scenario, cfg, 0.0, 1.0, 1.0)
        assert batch.paths.shape == (16, 5)
        assert np.array_equal(batch.paths[:, -1], batch.terminal)
        target = tmp_path / "paths.rmvp"
        batch.spill(target)
        n_paths, n_steps, matrix = rm.PathBatch.load(target)
        assert (n_paths, n_steps) == (16, 4)
        assert np.array_equal(matrix, batch.paths)
        raw = bytearray(target.read_bytes())
        assert raw[:4] == b"RMVP" and raw[4] == 1
        raw[0] = ord("X")
        bad = tmp_path / "bad.rmvp"
        # a wrong magic, an empty file and a header cut short
        for content in (bytes(raw), b"", b"RMVP\x01"):
            bad.write_bytes(content)
            with pytest.raises(rm.InvalidBounds, match="version-1 path dump"):
                rm.PathBatch.load(bad)

    def test_spill_requires_kept_paths(self, flat_scenario, tmp_path):
        dyn = WealthDynamics("terminal_wealth")
        cfg = rm.SimConfig(n_paths=4, dt=0.5, seed=8)
        batch = rm.simulate_paths(dyn, ConstantStrategy(np.zeros(2)), flat_scenario,
                                  cfg, 0.0, 1.0, 1.0)
        with pytest.raises(rm.InvalidBounds):
            batch.spill(tmp_path / "nope.rmvp")


class TestConfigDomain:
    def test_nan_dt_rejected(self):
        with pytest.raises(rm.InvalidBounds):
            rm.SimConfig(n_paths=10, dt=float("nan"), seed=1)

    def test_infinite_dt_rejected(self):
        with pytest.raises(rm.InvalidBounds):
            rm.SimConfig(n_paths=10, dt=float("inf"), seed=1)

    @pytest.mark.parametrize("chunk", [0, -5])
    def test_nonpositive_chunk_rejected(self, chunk):
        with pytest.raises(rm.InvalidBounds):
            rm.SimConfig(n_paths=10, dt=0.1, seed=1, chunk_paths=chunk)


@dataclass(frozen=True)
class _Proportional:
    """State-dependent strategy: alpha = (1 + x) vec, one row per path."""

    vec: np.ndarray

    def values(self, t, x):
        return np.outer(1.0 + x, self.vec)


def _busy_jumps():
    # about two events per step and type, so later events in one step are common
    return rm.CompoundPoissonJumps(
        loadings=np.array([[1.0, 0.0], [0.5, 1.0]]),
        intensity=np.array([20.0, 12.0]),
        size_laws=(rm.JumpSizeLaw.shifted_lognormal(-0.05, 0.1),
                   rm.JumpSizeLaw.two_point(-0.2, 0.1, 0.4)),
    )


_RUNS = {
    "diffusion": (None, False, ConstantStrategy(np.array([0.5, 0.25]))),
    "antithetic": (None, True, ConstantStrategy(np.array([0.5, 0.25]))),
    "compound_poisson": (_busy_jumps(), False, ConstantStrategy(np.array([0.3, 0.2]))),
    "compound_poisson_state": (_busy_jumps(), False, _Proportional(np.array([0.3, 0.2]))),
}


def _run(name, n_paths, chunk_paths=65536):
    jump, antithetic, strat = _RUNS[name]
    scen = rm.Scenario(np.array([0.08, 0.02]), np.diag([0.04, 0.09]), jump=jump)
    cfg = rm.SimConfig(n_paths=n_paths, dt=0.1, seed=11, antithetic=antithetic,
                       chunk_paths=chunk_paths)
    # log-return state: busy jumps cannot bankrupt it
    return rm.simulate_paths(WealthDynamics("log_return"), strat, scen,
                             cfg, 0.0, 1.0, 0.0).terminal


class TestRngLayout:
    """RNG layout 4: Brownian-bridge normals from Philox streams per (seed,
    path block, tree level), jump arrivals per (seed, path block, round)."""

    @pytest.mark.parametrize("name", sorted(_RUNS))
    def test_chunkings_across_block_boundaries_are_bitwise(self, name):
        # 2500 paths span three blocks; 333 and 1 slice blocks mid-way
        ref = _run(name, 2500, chunk_paths=4096)
        for chunk in (1, 333, 1024):
            assert np.array_equal(_run(name, 2500, chunk_paths=chunk), ref), chunk

    @pytest.mark.parametrize("name", sorted(_RUNS))
    def test_path_count_prefix_property(self, name):
        long = _run(name, 3000)
        short = _run(name, 1500)
        assert np.array_equal(long[:1500], short)

    @settings(max_examples=15, deadline=None)
    @given(n_paths=st.integers(2049, 2300), chunk=st.integers(1, 4096), antithetic=st.booleans(),
           family=st.sampled_from(["tw", "lr", "cp"]), data=st.data())
    def test_chunking_and_path_count_prefix_invariance(self, tw_solution, lr_solution, cp_solution,
                                                      n_paths, chunk, antithetic, family, data):
        # a splice puts cuts at steps 3 and 6 of 10, so one-step runs read
        # inner bridge nodes; the compound-Poisson run steps on the full fill
        sol = {"tw": tw_solution, "lr": lr_solution, "cp": cp_solution}[family]
        crit = sol.criterion
        theta = sol.worst_case.scenario
        base = SolutionStrategy(sol)
        strategy = SplicedStrategy(0.9 * sol.alpha_coef, crit.t0 + 0.3, base)
        timeline = SplicedScenario(rm.Scenario(theta.drift * 0.5, theta.cov, jump=theta.jump),
                                   crit.t0 + 0.6, theta)
        n_paths -= n_paths % 2 if antithetic else 0

        def run(n, chunk_paths):
            cfg = rm.SimConfig(n_paths=n, dt=0.1, seed=71, antithetic=antithetic,
                               chunk_paths=chunk_paths)
            return rm.simulate_paths(WealthDynamics.for_criterion(crit), strategy, timeline, cfg,
                                     crit.t0, crit.horizon, crit.x0).terminal

        ref = run(n_paths, 4096)
        assert np.array_equal(run(n_paths, chunk), ref)
        short = data.draw(st.integers(1, n_paths // 2)) * 2
        assert np.array_equal(run(short, chunk), ref[:short])

    def test_layout_is_stamped(self, flat_scenario):
        batch = rm.simulate_paths(WealthDynamics("terminal_wealth"),
                                  ConstantStrategy(np.zeros(2)), flat_scenario,
                                  rm.SimConfig(n_paths=4, dt=0.5, seed=1), 0.0, 1.0, 1.0)
        assert rm.RNG_LAYOUT == 4
        assert batch.rng_layout == rm.RNG_LAYOUT

    def test_shock_table_digest_is_pinned(self):
        # seed 7, 2100 paths (two block boundaries), 5 steps (four tree
        # levels), 2 assets, 1 jump stream; each table hashed path-major
        # (path, then node or round, then component), little-endian
        shocks = _Shocks(7, 5, 2, 1, 2100, antithetic=False, cache=None)
        nodes = shocks.chunk(0, 2100)[0]
        shocks.fill(nodes, 0, 2100, range(6))
        w = np.stack([nodes[k] for k in range(6)])
        assert _BLOCK == 1024 and _ROUND == 4
        assert w.shape == (6, 2, 2100)
        assert hashlib.sha256(np.ascontiguousarray(w.transpose(2, 0, 1), dtype="<f8")
                              .tobytes()).hexdigest() == (
            "fdbe5190a609ab910ad5f509cb734352490c2c11176a23201b35612d91af5219")
        # the raw uniforms of the first two arrival rounds: per path 4
        # inter-arrival uniforms, then 4 size uniforms, per round
        rounds = np.stack([shocks._arrival_uniforms(r, 0, 2100) for r in range(2)])
        assert rounds.shape == (2, 8, 2100)
        assert hashlib.sha256(np.ascontiguousarray(rounds.transpose(2, 0, 1), dtype="<f8")
                              .tobytes()).hexdigest() == (
            "bcfbd23207a1cf4e2084f73e60281b8af9be868626932e30806dd0587b49e76b")

    def test_bridge_nodes_have_brownian_covariance(self):
        # Cov(W_j, W_k) = min(j, k) in units of one step, checked at 5 SE
        n_steps, n = 12, 200_000
        shocks = _Shocks(3, n_steps, 1, 0, n, antithetic=False, cache=None)
        nodes = shocks.chunk(0, n)[0]
        shocks.fill(nodes, 0, n, range(n_steps + 1))
        w = np.stack([nodes[k][0] for k in range(1, n_steps + 1)])
        k = np.arange(1, n_steps + 1)
        want = np.minimum.outer(k, k)
        se = np.sqrt((np.outer(k, k) + want**2) / n)
        assert np.all(np.abs(w @ w.T / n - want) <= 5.0 * se)

    @pytest.mark.parametrize("n_steps", [7, 10, 80])
    def test_halving_dt_keeps_the_brownian_path(self, n_steps):
        # the split tree of 2N steps holds the tree of N steps node for node,
        # so a dt ladder samples one Brownian path (multilevel coupling)
        coarse, fine = (_Shocks(5, n, 2, 0, 1500, antithetic=False, cache=None)
                        for n in (n_steps, 2 * n_steps))
        wc, wf = coarse.chunk(0, 1500)[0], fine.chunk(0, 1500)[0]
        coarse.fill(wc, 0, 1500, range(n_steps + 1))
        fine.fill(wf, 0, 1500, range(2 * n_steps + 1))
        for k in range(n_steps + 1):
            b_coarse, b_fine = wc[k] / math.sqrt(n_steps), wf[2 * k] / math.sqrt(2 * n_steps)
            assert np.allclose(b_coarse, b_fine, rtol=0.0, atol=1e-13)

    def test_nodes_do_not_depend_on_what_else_was_filled(self):
        # a node reached through a short chain has the bits of a full fill
        sparse, full = (_Shocks(9, 80, 2, 0, 1300, antithetic=True, cache=None) for _ in range(2))
        a, b = sparse.chunk(1000, 300)[0], full.chunk(1000, 300)[0]
        sparse.fill(a, 1000, 300, [8, 4, 2])
        full.fill(b, 1000, 300, range(81))
        assert len(a) < 20
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_fixed_order_products_match_matmul(self):
        rng = np.random.default_rng(3)
        m, a = rng.standard_normal((4, 3)), rng.standard_normal((4, 50))
        assert np.allclose(_mix(m, a), m.T @ a, rtol=1e-14, atol=1e-14)
        assert np.allclose(_dot(m[:, 0], a), m[:, 0] @ a, rtol=1e-14, atol=1e-14)
        # a path's bits do not depend on how many other paths share the call
        assert np.array_equal(_mix(m, a)[:, 7], _mix(m, a[:, 7:8])[:, 0])

    @pytest.mark.parametrize("log_state", [False, True])
    @pytest.mark.parametrize("per_path", [False, True])
    def test_jump_increment_matches_event_loop(self, log_state, per_path):
        # every arrival of a chunk's table, one at a time: step s takes the
        # arrivals with Lambda_s < E <= Lambda_{s+1}; a window of two steps
        # with other intensities and sizes precedes two base steps
        cp = _busy_jumps()
        levy = rm.DiscreteLevyJumps(np.array([[-0.05, 0.02], [0.08, 0.0]]), np.array([20.0, 12.0]))
        for base, window in (
                (cp, rm.CompoundPoissonJumps(
                    loadings=cp.loadings, intensity=np.array([30.0, 6.0]),
                    size_laws=(rm.JumpSizeLaw.uniform(-0.1, 0.2), cp.size_laws[0]))),
                (levy, rm.DiscreteLevyJumps(levy.atoms, np.array([30.0, 6.0])))):
            self._check_event_loop(base, window, log_state, per_path)

    @staticmethod
    def _check_event_loop(base, window, log_state, per_path):
        scens = [rm.Scenario(np.array([0.08, 0.02]), np.diag([0.04, 0.09]), jump=j)
                 for j in (window, base)]
        segments = [(_Segment(scens[0], 0.1), 0, 2), (_Segment(scens[1], 0.1), 2, 4)]
        shocks = _Shocks(5, 4, 2, 2, 1300, antithetic=False, cache=None)
        start, size = 1000, 300
        arrivals = shocks.chunk(start, size)[1]
        clock = _clock(segments, 4, 2)
        shocks.cover(arrivals, start, size, clock[-1])
        events = _Events(arrivals, clock, segments)
        rng = np.random.default_rng(0)
        alpha = rng.uniform(0.0, 0.4, (size, 2)) if per_path else np.array([0.3, 0.2])
        got, want = np.zeros(size), np.zeros(size)
        for seg, lo, hi in segments:
            coef = _Coefficients(seg, alpha, log_state, start)
            for s in range(lo, hi):
                if events.bounds[s] < events.bounds[s + 1]:
                    coef.add_jumps(got, events, s, start)
                for row in range(size):
                    for l in range(2):
                        for k, e in enumerate(arrivals.times[l, :, row]):
                            if not clock[s, l] < e <= clock[s + 1, l]:
                                continue
                            if seg.jump_kind == "ld":
                                want[row] += coef.zeta[l, row] if per_path else coef.zeta[l]
                                continue
                            y = float(seg.scenario.jump.size_laws[l]
                                      .quantile(arrivals.uniforms[l, k, row]))
                            move = (coef.expos[l, row] if per_path else coef.expos[l]) * y
                            want[row] += np.log1p(move) if log_state else move
        assert np.array_equal(got, want)
        # the table reaches past the horizon, and paths take several events per step
        assert np.all(arrivals.times[:, -1] > clock[-1][:, None])
        steps = np.repeat(np.arange(4), np.diff(events.bounds))
        assert np.bincount(steps * size + events.rows).max() > 2


class TestJumpEvents:
    """Event-driven jumps: the laws of per-step counts and the coupling of
    spliced runs."""

    @staticmethod
    def _events(segments, n_steps, n_paths, seed, cache=None):
        n_streams = max(seg.n_streams for seg, _, _ in segments)
        shocks = _Shocks(seed, n_steps, 1, n_streams, n_paths, antithetic=False, cache=cache)
        arrivals = shocks.chunk(0, n_paths)[1]
        clock = _clock(segments, n_steps, n_streams)
        shocks.cover(arrivals, 0, n_paths, clock[-1])
        return _Events(arrivals, clock, segments)

    def test_step_counts_are_poisson_and_independent(self):
        # per path and step: count mean and variance lam dt, and no
        # covariance across steps, each at 5 SE; in the window (steps 0-2)
        # stream 0 runs at 8 and stream 1 is absent, then 3 and 1.5
        n, n_steps, dt = 20_000, 10, 0.1
        law = rm.JumpSizeLaw.uniform(-0.1, 0.1)
        base = rm.CompoundPoissonJumps(np.array([[1.0, 0.0], [0.5, 1.0]]), np.array([3.0, 1.5]),
                                       (law, law))
        window = rm.CompoundPoissonJumps(np.array([[1.0], [0.5]]), np.array([8.0]), (law,))
        segments = [(_Segment(rm.Scenario(np.array([0.05, 0.02]), np.diag([0.04, 0.09]), jump=j),
                              dt), lo, hi)
                    for j, lo, hi in ((window, 0, 3), (base, 3, n_steps))]
        events = self._events(segments, n_steps, n, seed=12)
        rates = np.array([[8.0, 0.0]] * 3 + [[3.0, 1.5]] * 7) * dt
        steps = np.repeat(np.arange(n_steps), np.diff(events.bounds))
        for l in range(2):
            mu = rates[:, l]
            counts = np.zeros((n_steps, n))
            mine = events.streams == l
            np.add.at(counts, (steps[mine], events.rows[mine]), 1.0)
            assert np.all(np.abs(counts.mean(axis=1) - mu) <= 5.0 * np.sqrt(mu / n))
            assert np.all(np.abs(counts.var(axis=1) - mu) <= 5.0 * np.sqrt((mu + 2 * mu**2) / n))
            c = counts - mu[:, None]
            cov = c @ c.T / n
            off = ~np.eye(n_steps, dtype=bool)
            assert np.all(np.abs(cov[off]) <= 5.0 * np.sqrt(np.outer(mu, mu) / n)[off])

    def test_higher_window_intensity_holds_the_base_window_events(self):
        # on every path, the base run's window events are the first of the
        # splice's window events, size for size
        n, n_steps, dt, k = 3000, 50, 0.02, 10
        law = rm.JumpSizeLaw.uniform(-0.2, 0.3)
        scen = {lam: rm.Scenario(np.array([0.05]), np.array([[0.04]]),
                                 jump=rm.CompoundPoissonJumps(np.array([[1.0]]), np.array([lam]),
                                                              (law,)))
                for lam in (2.0, 5.0)}
        cache = ShockCache()
        base = self._events([(_Segment(scen[2.0], dt), 0, n_steps)], n_steps, n, 67, cache)
        spliced = self._events([(_Segment(scen[5.0], dt), 0, k), (_Segment(scen[2.0], dt), k, n_steps)],
                               n_steps, n, 67, cache)
        windows = []
        for ev in (base, spliced):
            rows, sizes = ev.rows[:ev.bounds[k]], ev.sizes[:ev.bounds[k]]
            order = np.argsort(rows, kind="stable")  # per path, in arrival order
            windows.append((rows[order], sizes[order], np.bincount(rows, minlength=n)))
        (rb, yb, cb), (rs, ys, cs) = windows
        assert np.all(cs >= cb) and cs.sum() > 2 * cb.sum()
        first_b, first_s = np.cumsum(cb) - cb, np.cumsum(cs) - cs
        assert np.array_equal(ys[first_s[rb] + np.arange(rb.size) - first_b[rb]], yb)

    @pytest.mark.parametrize("family", ["cp", "ws"])
    def test_splices_keep_the_base_bits(self, family, cp_solution, ws_solution):
        # a u = theta_hat splice is the base run bit for bit; a busier
        # window splice grows the shared table, and the base run read from
        # that table keeps the bits of a standalone run
        sol = cp_solution if family == "cp" else ws_solution
        theta = sol.worst_case.scenario
        jump = theta.jump
        if family == "cp":
            busy = rm.CompoundPoissonJumps(jump.loadings, 20.0 * jump.intensity, jump.size_laws)
        else:
            busy = rm.DiscreteLevyJumps(jump.atoms, 20.0 * jump.weights)
        cfg = rm.SimConfig(n_paths=3000, dt=0.02, seed=67)
        alone = rm.simulate_solution(sol, cfg)
        cache = ShockCache()
        runs = {}
        for name, window in (("busy", rm.Scenario(theta.drift, theta.cov, jump=busy)),
                             ("base", None),
                             ("twin", rm.Scenario(theta.drift, theta.cov, jump=jump))):
            timeline = None if window is None else SplicedScenario(window, 0.5, theta)
            runs[name] = rm.simulate_solution(sol, cfg, scenario=timeline, shock_cache=cache)
        assert np.array_equal(runs["base"].terminal, alone.terminal)
        assert np.array_equal(runs["twin"].terminal, alone.terminal)
        assert runs["twin"].jump_events == runs["base"].jump_events == alone.jump_events > 0
        assert runs["busy"].jump_events > 5 * alone.jump_events

    def test_ladder_with_busier_windows_keeps_the_first_runs_chunks(self, monkeypatch,
                                                                    cp_criterion):
        # the intensity corners change Lambda(T) of their splices, so their
        # own budgets would cut the paths into other chunks than the base
        # run's; on the shared cache every splice keeps the base run's
        # chunks, and the report keeps the bits of a one-chunk run
        jb = rm.CompoundPoissonBounds(
            loadings=np.array([[1.0], [0.5]]),
            intensity_lo=np.array([0.2]), intensity_hi=np.array([0.6]),
            mean_lo=np.array([0.04]), mean_hi=np.array([0.09]),
            second_lo=np.array([0.007]), second_hi=np.array([0.03]),
        )
        uset = rm.UncertaintySet.two_asset(
            (0.10, 0.12), (0.02, 0.03), (0.15, 0.2), (0.2, 0.3), (0.4, 0.6), jump_bounds=jb)
        sol = rm.solve_terminal_wealth(uset, cp_criterion,
                                       worst=rm.worst_case_numeric(uset, resolution=5,
                                                                   refinements=1))
        cfg = rm.SimConfig(n_paths=1500, dt=0.05, seed=29)
        whole = rm.perturb_worst_case(sol, uset, [0.5, 0.25], u_samples=36, cfg=cfg)
        budgets = []

        def spy(*args):
            budgets.append(_effective_chunk(*args))
            return budgets[-1]

        # per path, 40 floats of W and about 9 of arrivals: ~600 paths a chunk
        monkeypatch.setattr(simulate, "_CHUNK_FLOATS", 30_000)
        monkeypatch.setattr(simulate, "_effective_chunk", spy)
        cut = rm.perturb_worst_case(sol, uset, [0.5, 0.25], u_samples=36, cfg=cfg)
        assert len(set(budgets)) > 1 and max(budgets) < cfg.n_paths
        assert cut.rows == whole.rows
        assert any(row.quotient != 0.0 for row in cut.rows)


class TestEstimates:
    def _const_batch(self, values):
        arr = np.asarray(values, dtype=float)
        return rm.PathBatch(terminal=arr, t0=0.0, horizon=1.0, dt=0.1, n_steps=10,
                            seed=0, kind="terminal_wealth", x0=1.0)

    def test_constant_paths(self, tw_criterion):
        est = rm.estimate_J(self._const_batch([2.5] * 50), tw_criterion)
        assert est.j_hat == 2.5
        assert est.var_hat == 0.0
        assert est.standard_error_j > 0.0

    def test_two_path_hand_arithmetic(self, tw_criterion):
        est = rm.estimate_J(self._const_batch([0.0, 2.0]), tw_criterion)
        assert est.mean_hat == 1.0
        assert est.var_hat == 2.0
        assert est.j_hat == -1.0

    def test_wealth_scaled_uses_initial_wealth(self):
        crit = rm.Criterion("wealth_scaled", lam=2.0, horizon=1.0, x0=4.0)
        est = rm.estimate_J(self._const_batch([0.0, 2.0]), crit)
        assert est.j_hat == pytest.approx(1.0 - 0.5 * 2.0)

    def test_json_dict(self, tw_criterion):
        doc = rm.estimate_J(self._const_batch([0.0, 2.0]), tw_criterion).to_json_dict()
        json.dumps(doc)
        assert doc["n_paths"] == 2


class TestJumpDynamics:
    def test_compound_poisson_mean_matches_growth(self, cp_solution, cp_criterion):
        cfg = rm.SimConfig(n_paths=40_000, dt=0.005, seed=31)
        batch = rm.simulate_solution(cp_solution, cfg)
        est = rm.estimate_J(batch, cp_criterion)
        g_ref = cp_solution.g(0.0, 1.0)
        assert abs(est.mean_hat - g_ref) <= 3.0 * est.standard_error_mean
        assert abs(est.j_hat - cp_solution.V(0.0, 1.0)) <= 3.0 * est.standard_error_j

    def test_discrete_levy_compensator_keeps_mean(self, ws_solution, ws_criterion):
        cfg = rm.SimConfig(n_paths=40_000, dt=0.005, seed=33)
        cache = ShockCache()
        batch = rm.simulate_solution(ws_solution, cfg, shock_cache=cache)
        est = rm.estimate_J(batch, ws_criterion)
        assert abs(est.mean_hat - ws_solution.g(0.0, 1.0)) <= 3.0 * est.standard_error_mean
        # one arrival stream per Levy atom, drawn past the horizon's cumulative intensity
        reach = ws_solution.worst_case.scenario.jump.weights * ws_criterion.span
        assert cache.store and all(
            arrivals.times.shape[0] == 2 and np.all(arrivals.times[:, -1] > reach[:, None])
            for _, arrivals in cache.store.values())
        assert batch.jump_events > 0

    def test_flagged_solution_is_refused(self, cp_jump):
        scen = rm.Scenario(np.array([0.1, 0.05]), np.diag([0.04, 0.0625]))
        uset = rm.UncertaintySet.point(scen)
        crit = rm.Criterion("terminal_wealth", lam=1.0, horizon=1.0)
        with pytest.warns(UserWarning):
            sol = rm.solve_compound_poisson(uset, crit, cp_jump)
        with pytest.raises(rm.NonBankruptcyViolated):
            rm.simulate_solution(sol, rm.SimConfig(n_paths=10, dt=0.1, seed=1))

    def test_inadmissible_constant_strategy_refused(self, cp_jump):
        scen = rm.Scenario(np.array([0.1, 0.05]), np.diag([0.04, 0.0625]), jump=cp_jump)
        dyn = WealthDynamics("terminal_wealth")
        with pytest.raises(rm.NonBankruptcyViolated):
            rm.simulate_paths(dyn, ConstantStrategy(np.array([1.5, 0.0])), scen,
                              rm.SimConfig(n_paths=10, dt=0.1, seed=1), 0.0, 1.0, 1.0)

    def test_wealth_hitting_zero_aborts(self):
        crash = rm.CompoundPoissonJumps(
            loadings=np.array([[1.0]]),
            intensity=np.array([5.0]),
            size_laws=(rm.JumpSizeLaw.two_point(-0.5, -0.5, 1.0),),
        )
        scen = rm.Scenario(np.array([0.05]), np.array([[0.01]]), jump=crash)
        dyn = WealthDynamics("terminal_wealth")
        with pytest.raises(rm.NonBankruptcyViolated, match="hit zero"):
            rm.simulate_paths(dyn, ConstantStrategy(np.array([1.0])), scen,
                              rm.SimConfig(n_paths=50, dt=0.01, seed=2), 0.0, 1.0, 0.05)

    def test_busy_runs_cut_their_chunks_below_512_paths(self):
        # 2 x 10^4 expected events per path take 4 x 10^4 floats of arrival
        # table per path: 299 paths a chunk, each path with its own bits
        jump = rm.DiscreteLevyJumps(np.array([[-0.001], [0.001]]), np.array([1e4, 1e4]))
        scen = rm.Scenario(np.array([0.05]), np.array([[0.01]]), jump=jump)
        assert _effective_chunk(65536, 10, 2 * (2e4 + 2 * _ROUND)) == 299

        def run(n_paths, chunk_paths=65536):
            return rm.simulate_paths(WealthDynamics("log_return"), ConstantStrategy(np.array([1.0])),
                                     scen, rm.SimConfig(n_paths=n_paths, dt=0.1, seed=2,
                                                        chunk_paths=chunk_paths), 0.0, 1.0, 0.0)

        whole, cut = run(10), run(10, chunk_paths=3)
        assert np.array_equal(whole.terminal, cut.terminal)
        assert whole.jump_events == cut.jump_events
        assert abs(whole.jump_events - 2e5) <= 5.0 * math.sqrt(2e5)

    def test_log_state_levy_move_at_or_below_minus_one_refused(self):
        # log(1 + alpha.v) does not exist for alpha.v = 2.5 * -0.5: the run
        # is refused before any step instead of returning NaN terminals
        jump = rm.DiscreteLevyJumps(np.array([[-0.5]]), np.array([3.0]))
        scen = rm.Scenario(np.array([0.05]), np.array([[0.01]]), jump=jump)
        dyn = WealthDynamics("log_return")
        cfg = rm.SimConfig(n_paths=1000, dt=0.01, seed=2)
        with pytest.raises(rm.NonBankruptcyViolated, match=r"alpha.v <= 0$"):
            rm.simulate_paths(dyn, ConstantStrategy(np.array([2.5])), scen, cfg, 0.0, 1.0, 0.0)
        batch = rm.simulate_paths(dyn, ConstantStrategy(np.array([1.5])), scen, cfg, 0.0, 1.0, 0.0)
        assert np.all(np.isfinite(batch.terminal))

    def test_log_state_levy_move_names_the_first_path(self):
        class SecondChunkBad:
            """Per-path alpha: 1 everywhere but 2.5 on path 3 of the second chunk."""

            chunks = 0

            def values(self, t, x):
                self.chunks += t == 0.0
                alpha = np.ones((x.size, 1))
                if self.chunks == 2:
                    alpha[3] = 2.5
                return alpha

        jump = rm.DiscreteLevyJumps(np.array([[-0.5]]), np.array([3.0]))
        scen = rm.Scenario(np.array([0.05]), np.array([[0.01]]), jump=jump)
        cfg = rm.SimConfig(n_paths=16, dt=0.1, seed=2, chunk_paths=8)
        with pytest.raises(rm.NonBankruptcyViolated, match="on path 11$"):
            rm.simulate_paths(WealthDynamics("log_return"), SecondChunkBad(), scen,
                              cfg, 0.0, 1.0, 0.0)

    def test_jump_determinism(self, cp_solution):
        cfg = rm.SimConfig(n_paths=2000, dt=0.01, seed=13, chunk_paths=500)
        a = rm.simulate_solution(cp_solution, cfg)
        b = rm.simulate_solution(cp_solution,
                                 rm.SimConfig(n_paths=2000, dt=0.01, seed=13, chunk_paths=2000))
        assert np.array_equal(a.terminal, b.terminal)


@dataclass(frozen=True)
class _CountingSplice(SplicedStrategy):
    """A spliced strategy that records the times it is asked for alpha."""

    calls: list = field(default_factory=list)

    def values(self, t, x):
        self.calls.append(float(t))
        return super().values(t, x)


class TestCommonRandomNumbers:
    @pytest.mark.parametrize("base_kind", ["solution", "doubled"])
    def test_window_scenario_identity_does_not_matter(self, tw_solution, base_kind):
        # theta-hat itself as window scenario must give the bits of an equal copy
        crit = tw_solution.criterion
        theta = tw_solution.worst_case.scenario
        twin = rm.Scenario(theta.drift, theta.cov)
        alpha = tw_solution.alpha_coef
        if base_kind == "solution":
            base = SolutionStrategy(tw_solution)
        else:
            base = ConstantStrategy(2.0 * alpha)
        switch = 0.025
        dyn = WealthDynamics("terminal_wealth")
        cfg = rm.SimConfig(n_paths=20_000, dt=0.0125, seed=20250809)
        cache = ShockCache()

        def run(window, strategy, cfg=cfg, cache=cache):
            return rm.simulate_paths(dyn, strategy, SplicedScenario(window, switch, theta),
                                     cfg, crit.t0, crit.horizon, crit.x0,
                                     shock_cache=cache).terminal

        same = run(theta, SplicedStrategy(1.3 * alpha, switch, base))
        copy = run(twin, SplicedStrategy(1.3 * alpha, switch, base))
        assert np.array_equal(same, copy)
        # alpha is asked once per constant segment and chunk, not every step
        counting = _CountingSplice(1.3 * alpha, switch, base)
        chunked = run(theta, counting, cfg=replace(cfg, chunk_paths=5000), cache=None)
        assert np.array_equal(chunked, same)
        assert counting.calls == pytest.approx([0.0, switch] * 4, abs=1e-15)

    def test_unperturbed_splice_is_bitwise_zero(self, tw_solution):
        crit = tw_solution.criterion
        theta = tw_solution.worst_case.scenario
        cfg = rm.SimConfig(n_paths=5000, dt=0.0125, seed=17)
        cache = ShockCache()
        base = rm.simulate_solution(tw_solution, cfg, shock_cache=cache)
        spliced = rm.simulate_solution(
            tw_solution, cfg, scenario=SplicedScenario(theta, 0.1, theta),
            shock_cache=cache)
        assert np.array_equal(base.terminal, spliced.terminal)
        diff, se = paired_difference(base, spliced, crit)
        assert diff == 0.0

    def test_crn_beats_independent_streams(self, tw_solution, short_second_set):
        crit = tw_solution.criterion
        theta = tw_solution.worst_case.scenario
        u = rm.corner_scenarios(short_second_set)[0]
        cfg = rm.SimConfig(n_paths=20_000, dt=0.0125, seed=19)
        cache = ShockCache()
        base = rm.simulate_solution(tw_solution, cfg, shock_cache=cache)
        run = rm.simulate_solution(tw_solution, cfg,
                                   scenario=SplicedScenario(u, 0.1, theta),
                                   shock_cache=cache)
        _, se_crn = paired_difference(base, run, crit)
        indep = rm.simulate_solution(
            tw_solution, rm.SimConfig(n_paths=20_000, dt=0.0125, seed=20),
            scenario=SplicedScenario(u, 0.1, theta))
        est_a = rm.estimate_J(base, crit)
        est_b = rm.estimate_J(indep, crit)
        se_indep = math.hypot(est_a.standard_error_j, est_b.standard_error_j)
        assert se_indep >= 5.0 * se_crn

    def test_dt_ladder_shrinks_for_state_dependent_strategy(self):
        # wealth-proportional strategy has genuine weak-order-one step bias
        scen = rm.Scenario(np.array([0.3]), np.array([[0.04]]))
        uset = rm.UncertaintySet.point(scen)
        crit = rm.Criterion("wealth_scaled", lam=1.0, horizon=1.0, x0=1.0)
        sol = rm.solve_wealth_scaled(uset, crit)
        js = {}
        for dt in (0.1, 0.05, 0.025, 0.0125):
            cfg = rm.SimConfig(n_paths=100_000, dt=dt, seed=99)
            js[dt] = rm.estimate_J(rm.simulate_solution(sol, cfg), crit).j_hat
        d1 = abs(js[0.1] - js[0.05])
        d2 = abs(js[0.05] - js[0.025])
        d3 = abs(js[0.025] - js[0.0125])
        assert d1 > d2 > d3


class TestPerturbations:
    def test_candidate_lists_are_deterministic(self, short_second_set, tw_solution):
        theta = tw_solution.worst_case.scenario
        a = scenario_candidates(short_second_set, 12, theta)
        b = scenario_candidates(short_second_set, 12, theta)
        assert len(a) == 12 and a[0] is theta
        for s, t in zip(a, b):
            assert np.array_equal(s.drift, t.drift) and np.array_equal(s.cov, t.cov)
        w1 = strategy_candidates(tw_solution.alpha_coef, 8, seed=5)
        w2 = strategy_candidates(tw_solution.alpha_coef, 8, seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(w1, w2))
        assert np.array_equal(w1[0], tw_solution.alpha_coef)

    def test_worst_case_report_trivial_row_is_zero(self, tw_solution, short_second_set):
        cfg = rm.SimConfig(n_paths=4000, dt=0.0125, seed=23)
        rep = rm.perturb_worst_case(tw_solution, short_second_set,
                                    [0.1, 0.05], u_samples=6, cfg=cfg)
        first = [r for r in rep.rows if r.index == 0]
        assert all(r.quotient == 0.0 for r in first)
        assert rep.ok

    def test_equilibrium_report_trivial_row_is_zero(self, tw_solution, short_second_set):
        cfg = rm.SimConfig(n_paths=4000, dt=0.0125, seed=23)
        rep = rm.perturb_equilibrium(tw_solution, short_second_set, [0.05],
                                     w_samples=4, u_samples=4, cfg=cfg)
        row0 = [r for r in rep.rows if r.index == 0][0]
        assert row0.quotient == 0.0
        assert rep.ok

    def test_suboptimal_base_is_flagged(self, tw_solution, short_second_set):
        cfg = rm.SimConfig(n_paths=50_000, dt=0.0125, seed=3)
        rep = rm.perturb_equilibrium(tw_solution, short_second_set, [0.025],
                                     w_samples=4, u_samples=4, cfg=cfg,
                                     base_strategy=2.0 * tw_solution.alpha_coef)
        assert not rep.ok
        assert any(r.violated for r in rep.rows)

    def test_wrong_worst_case_is_flagged(self, short_second_set, tw_criterion):
        # a non-minimizer corner admits scenario splices that push J further down
        fake_scen = rm.Scenario(
            np.array([0.12, 0.03]),
            rm.build_covariance([0.15, 0.3], np.array([[1.0, 0.6], [0.6, 1.0]])),
        )
        fake = rm.WorstCaseResult(fake_scen, rm.risk_premium(fake_scen.drift, fake_scen.cov),
                                  "Numeric")
        sol = rm.solve_terminal_wealth(short_second_set, tw_criterion, worst=fake)
        cfg = rm.SimConfig(n_paths=50_000, dt=0.0125, seed=37)
        rep = rm.perturb_worst_case(sol, short_second_set, [0.025], u_samples=8, cfg=cfg)
        assert not rep.ok

    def test_candidate_count_is_exact_when_theta_hat_is_a_corner(self, short_second_set,
                                                                tw_solution):
        # theta_hat is one of the 32 box corners; the Sobol fill must make
        # up for the corner dropped as its duplicate
        theta = tw_solution.worst_case.scenario
        corners = rm.corner_scenarios(short_second_set)
        assert len(corners) == 32

        def key(s):
            return (tuple(np.round(s.drift, 12)), tuple(np.round(s.cov.ravel(), 12)))

        assert key(theta) in {key(c) for c in corners}
        longest = [key(s) for s in scenario_candidates(short_second_set, 40, theta)]
        for count in range(30, 41):
            got = scenario_candidates(short_second_set, count, theta)
            assert len(got) == count and got[0] is theta
            keys = [key(s) for s in got]
            assert len(set(keys)) == count and keys == longest[:count]

    @pytest.mark.parametrize("h_list", [[5.0], [0.05, -0.1], []])
    def test_window_lengths_outside_the_horizon_are_refused(self, tw_solution, short_second_set,
                                                            h_list):
        # h = 5 spans the whole horizon but would divide by 5; a negative h
        # would become one step; no h at all would report ok with no rows
        cfg = rm.SimConfig(n_paths=100, dt=0.05, seed=41)
        with pytest.raises(rm.InvalidBounds, match="window lengths"):
            rm.perturb_worst_case(tw_solution, short_second_set, h_list, u_samples=2, cfg=cfg)
        with pytest.raises(rm.InvalidBounds, match="window lengths"):
            rm.perturb_equilibrium(tw_solution, short_second_set, h_list, w_samples=2,
                                   u_samples=2, cfg=cfg)

    def test_whole_horizon_window_is_accepted(self, tw_solution, short_second_set):
        cfg = rm.SimConfig(n_paths=100, dt=0.05, seed=41)
        rep = rm.perturb_worst_case(tw_solution, short_second_set, [1.0], u_samples=2, cfg=cfg)
        assert rep.h_list == (1.0,) and len(rep.rows) == 2

    def test_report_serializes(self, tw_solution, short_second_set):
        cfg = rm.SimConfig(n_paths=2000, dt=0.025, seed=41)
        rep = rm.perturb_worst_case(tw_solution, short_second_set, [0.05],
                                    u_samples=3, cfg=cfg)
        doc = rep.to_json_dict()
        json.dumps(doc)
        assert doc["kind"] == "worst_case"
        assert len(doc["rows"]) == 3


def _stepped_report(kind, sol, uset, h_list, cfg, w_samples=4, u_samples=4, base_strategy=None):
    """The perturbation ladder with every splice stepped through
    simulate_paths and paired by paired_difference: per row the quotient,
    its se, the index of the picked u and the violation flag."""
    crit = sol.criterion
    theta = sol.worst_case.scenario
    fixed_jump = theta.jump if uset.jump_bounds is None else None
    dyn = WealthDynamics.for_criterion(crit)
    if base_strategy is None:
        base_strat = SolutionStrategy(sol)
    else:
        base_strat = ConstantStrategy(base_strategy)
    cache = ShockCache()

    def run(strategy, scenario):
        return rm.simulate_paths(dyn, strategy, scenario, cfg, crit.t0, crit.horizon, crit.x0,
                                 shock_cache=cache)

    base = run(base_strat, theta)
    us = scenario_candidates(uset, u_samples, theta, fixed_jump=fixed_jump)
    if kind == "worst_case":
        ws = [None]
    else:
        alpha_ref = (np.atleast_1d(sol.alpha_hat(crit.t0, crit.x0))
                     if sol.kind == "wealth_scaled" else sol.alpha_coef)
        ws = strategy_candidates(alpha_ref, w_samples, cfg.seed)
        if isinstance(theta.jump, rm.CompoundPoissonJumps):
            ws = [w for w in ws if not rm.nonbankruptcy_violations(w, theta.jump)]
    _, dt = cfg.steps_for(crit.span)
    rows = []
    for h in h_list:
        h = max(1, round(h / dt)) * dt
        for w in ws:
            strategy = base_strat if w is None else SplicedStrategy(w, crit.t0 + h, base_strat)
            pairs = [paired_difference(base, run(strategy, SplicedScenario(u, crit.t0 + h, theta)),
                                       crit) for u in us]
            if w is None:
                rows += [(d / h, se, iu, d / h > 3.0 * se / h) for iu, (d, se) in enumerate(pairs)]
            else:
                best = 0
                for iu, (d, _) in enumerate(pairs):
                    if d > pairs[best][0]:  # the first of ties stays
                        best = iu
                d, se = pairs[best]
                rows.append((d / h, se, best, d / h < -3.0 * se / h))
    return rows


def _assert_rows_match(report, stepped, exact):
    """Report rows against ``_stepped_report``: the picked u (read from the
    detail string), the violation flag and, bit for bit or within
    rounding, the quotient and its se."""
    assert len(report.rows) == len(stepped)
    for row, (q, se, iu, violated) in zip(report.rows, stepped):
        if report.kind == "worst_case":
            assert (row.index, row.detail) == (iu, f"u[{iu}]")
        else:
            assert row.detail == f"w[{row.index}] u*[{iu}]"
        assert row.violated == violated
        if exact:
            assert (row.quotient, row.se) == (q, se)
        else:
            assert row.quotient == pytest.approx(q, rel=1e-10, abs=1e-12)
            assert row.se == pytest.approx(se, rel=1e-10, abs=1e-12)


def _log_line(caplog):
    lines = [r.getMessage() for r in caplog.records if r.name == "robust_mv.simulate"]
    assert len(lines) == 1
    return lines[0]


class TestLinearSplices:
    """Splices of a constant strategy in jump-free runs take one exact step
    per constant segment, from the Brownian nodes at the segment ends."""

    @pytest.mark.parametrize("chunk", [1, 333, 65536])
    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("family", ["tw", "lr"])
    def test_per_path_parity_with_stepped_splices(self, family, antithetic, chunk,
                                                  tw_solution, lr_solution, short_second_set):
        # keep_paths steps once per step on the same Brownian path (in one
        # chunk: chunking is covered by TestRngLayout)
        sol = tw_solution if family == "tw" else lr_solution
        crit = sol.criterion
        theta = sol.worst_case.scenario
        dyn = WealthDynamics.for_criterion(crit)
        base = SolutionStrategy(sol)
        us = scenario_candidates(short_second_set, 36, theta)
        cfg = rm.SimConfig(n_paths=400, dt=0.05, seed=29, antithetic=antithetic,
                           chunk_paths=chunk)
        stepped_cfg = replace(cfg, keep_paths=True, chunk_paths=65536)
        cache, stepped_cache = ShockCache(), ShockCache()
        alpha = sol.alpha_coef
        ws = (None, 1.3 * alpha, strategy_candidates(alpha, 2, seed=3)[1])
        # 0.12 is no whole number of steps: the window keeps the simulator's cut
        for h in (0.05, 0.12, 0.25):
            for w in ws:
                strategy = base if w is None else SplicedStrategy(w, crit.t0 + h, base)
                for iu in (0, 5, 35):  # theta_hat, a corner, a Sobol point
                    timeline = SplicedScenario(us[iu], crit.t0 + h, theta)
                    got = rm.simulate_paths(dyn, strategy, timeline, cfg, crit.t0, crit.horizon,
                                            crit.x0, shock_cache=cache)
                    want = rm.simulate_paths(dyn, strategy, timeline, stepped_cfg, crit.t0,
                                             crit.horizon, crit.x0, shock_cache=stepped_cache)
                    assert got.paths is None and np.array_equal(want.paths[:, -1], want.terminal)
                    x = want.terminal
                    assert np.all(np.abs(got.terminal - x) <= 1e-12 * (1.0 + np.abs(x))), (h, iu)
        # the one-step runs hold W at their cut points only, the stepped runs every node
        assert all(len(w) < 12 for w, _ in cache.store.values())
        assert all(len(w) == 21 and arrivals is None for w, arrivals in stepped_cache.store.values())

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_trivial_rows_are_exactly_zero(self, antithetic, lr_solution, short_second_set):
        cfg = rm.SimConfig(n_paths=3000, dt=0.0125, seed=31, antithetic=antithetic)
        wc = rm.perturb_worst_case(lr_solution, short_second_set, [0.1, 0.025],
                                   u_samples=5, cfg=cfg)
        first = [r for r in wc.rows if r.index == 0]
        assert all(r.quotient == 0.0 and r.se == _SE_FLOOR for r in first)
        eq = rm.perturb_equilibrium(lr_solution, short_second_set, [0.05],
                                    w_samples=3, u_samples=5, cfg=cfg)
        assert eq.rows[0].quotient == 0.0
        assert wc.ok and eq.ok

    def test_reports_are_rerun_and_chunking_invariant(self, tw_solution, short_second_set):
        cfg = rm.SimConfig(n_paths=3000, dt=0.0125, seed=43)

        def reports(cfg):
            return [rm.perturb_worst_case(tw_solution, short_second_set, [0.1, 0.025],
                                          u_samples=6, cfg=cfg).to_json_dict(),
                    rm.perturb_equilibrium(tw_solution, short_second_set, [0.05],
                                           w_samples=4, u_samples=6, cfg=cfg).to_json_dict()]

        ref = reports(cfg)
        assert reports(cfg) == ref
        assert reports(replace(cfg, chunk_paths=333)) == ref

    def test_reports_match_stepped_splices(self, tw_solution, short_second_set):
        cfg = rm.SimConfig(n_paths=4000, dt=0.0125, seed=47)
        doubled = 2.0 * tw_solution.alpha_coef
        cases = [
            (rm.perturb_worst_case(tw_solution, short_second_set, [0.1, 0.025], 6, cfg),
             _stepped_report("worst_case", tw_solution, short_second_set, [0.1, 0.025], cfg,
                             u_samples=6)),
            # w[1] and w[3] lie above +3 se/h: a flipped violation test flags them
            (rm.perturb_equilibrium(tw_solution, short_second_set, [0.1, 0.025], 4, 6, cfg),
             _stepped_report("equilibrium", tw_solution, short_second_set, [0.1, 0.025], cfg,
                             u_samples=6)),
            (rm.perturb_equilibrium(tw_solution, short_second_set, [0.025], 4, 6, cfg,
                                    base_strategy=doubled),
             _stepped_report("equilibrium", tw_solution, short_second_set, [0.025], cfg,
                             u_samples=6, base_strategy=doubled)),
        ]
        for report, stepped in cases:
            _assert_rows_match(report, stepped, exact=False)

    @pytest.mark.parametrize("family", ["cp", "ws"])
    def test_jump_and_wealth_scaled_reports_still_step(self, family, caplog, cp_solution,
                                                       cp_set, ws_solution, ws_set):
        # per-path strategies and jumps step once per step, bit for bit as the
        # reference driver
        sol, uset = (cp_solution, cp_set) if family == "cp" else (ws_solution, ws_set)
        cfg = rm.SimConfig(n_paths=1500, dt=0.025, seed=53)
        with caplog.at_level(logging.DEBUG, logger="robust_mv.simulate"):
            wc = rm.perturb_worst_case(sol, uset, [0.1, 0.05], u_samples=4, cfg=cfg)
        assert _log_line(caplog).startswith("worst_case report: 8 splices in ")
        _assert_rows_match(wc, _stepped_report("worst_case", sol, uset, [0.1, 0.05], cfg),
                           exact=True)
        eq = rm.perturb_equilibrium(sol, uset, [0.05], w_samples=3, u_samples=4, cfg=cfg)
        _assert_rows_match(eq, _stepped_report("equilibrium", sol, uset, [0.05], cfg, w_samples=3),
                           exact=True)

    def test_equilibrium_keeps_the_first_of_tied_u(self, monkeypatch, tw_solution,
                                                    short_second_set):
        # every splice pairs to the same difference: each w's worst u is u[0]
        monkeypatch.setattr(_PairedBase, "difference", lambda self, terminal: (0.0, 1.0))
        cfg = rm.SimConfig(n_paths=500, dt=0.0125, seed=61)
        eq = rm.perturb_equilibrium(tw_solution, short_second_set, [0.05],
                                    w_samples=3, u_samples=4, cfg=cfg)
        assert [r.detail for r in eq.rows] == ["w[0] u*[0]", "w[1] u*[0]", "w[2] u*[0]"]

    def test_debug_line_counts_linear_splices(self, caplog, tw_solution, short_second_set):
        cfg = rm.SimConfig(n_paths=2000, dt=0.0125, seed=59)
        with caplog.at_level(logging.DEBUG, logger="robust_mv.simulate"):
            rm.perturb_equilibrium(tw_solution, short_second_set, [0.1, 0.05],
                                   w_samples=3, u_samples=4, cfg=cfg)
        line = _log_line(caplog)
        assert line.startswith("equilibrium report: 24 splices in ")
