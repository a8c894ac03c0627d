"""Seeded inputs, jobs and correctness checks of the three workloads.

A workload is a list of jobs; a job is one user-level request that
starts from a problem file, the way the ``robust-mv`` CLI does: parse,
worst case, solve, then the workload's own verification or simulation,
then JSON serialisation of the result.  Every input is generated from
the workload seed and written as a problem file that the CLI parser
accepts; the library sees only those files (plus, for
``scenario_verify``, the three demo problems, copied byte for byte).

Each job also checks its result at the acceptance tolerances.  A job
fails when it raises or when a check does not hold.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import robust_mv as rm
from robust_mv import cli

# Why each workload exists, next to its definition.
WHY = {
    "perturb_ladder": (
        "CRN splice ladder on 2-asset boxes, closed-form worst case: 6 cold shock "
        "draws and 152 warm ShockCache splices per pass; cold draws take ~3/4"
    ),
    "mc_paths": (
        "one cold simulate + estimate_J per family (tw, lr, cp, ws): shock drawing, "
        "state-dependent stepping and jump events, each checked at 3 SE"
    ),
    "scenario_verify": (
        "no simulation: parse, worst case (2-asset, jumps, 3-asset hull), solve, "
        "residual grid, 1000-sample saddle check, optimality slack, JSON"
    ),
}
WORKLOADS = tuple(WHY)

LADDER_SETS = 2
LADDER_H = [0.1, 0.05, 0.025]
LADDER_DT = 0.0125
LADDER_HORIZON = 0.25
LADDER_PATHS = 20_000
LADDER_W = 4
LADDER_U = 4

MC_DT = 0.01

VERIFY_BOXES = 2
VERIFY_SAMPLES = 1000
SLACK_SAMPLES = 100
HULL_RESOLUTION = 6

# acceptance tolerances
PREMIUM_TOL = 1e-6
CORNER_TOL = 1e-9
SLACK_TOL = 1e-10
RESIDUAL_TOL = 1e-8
MC_SE = 3.0

DEMO_PROBLEMS = ("compound_poisson.json", "short_second.json", "wealth_scaled.json")


@dataclass(frozen=True)
class Job:
    name: str
    kind: str
    problem: str


class CheckFailed(Exception):
    """A job's result misses an acceptance tolerance."""


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


def _r(x: float) -> float:
    # rounding is monotone, so ordering constraints survive it
    return round(float(x), 6)


def _vec(xs) -> list[float]:
    return [_r(x) for x in xs]


def _ordered_box(rng: np.random.Generator, b1=(0.02, 0.12), v1=(0.1, 0.3),
                 rho=(-0.8, 0.7), width: float = 1.0) -> dict:
    """Two-asset box meeting the case solver's ordering assumption;
    ``width`` scales every interval's length."""
    b1_lo = rng.uniform(*b1)
    b1_hi = b1_lo + width * rng.uniform(0.0, 0.05)
    b2_lo = b1_lo * rng.uniform(0.05, 1.0)
    b2_hi = b2_lo + rng.uniform(0.0, 1.0) * (b1_hi - b2_lo)
    s1_lo = rng.uniform(*v1)
    s1_hi = s1_lo + width * rng.uniform(0.0, 0.15)
    s2_lo = s1_lo + width * rng.uniform(0.0, 0.1)
    s2_hi = max(s2_lo, s1_hi) + width * rng.uniform(0.0, 0.1)
    rho_lo = rng.uniform(*rho)
    rho_hi = min(0.95, rho_lo + width * rng.uniform(0.0, 0.8))
    return {
        "drift_lo": _vec([b1_lo, b2_lo]), "drift_hi": _vec([b1_hi, b2_hi]),
        "vol_lo": _vec([s1_lo, s2_lo]), "vol_hi": _vec([s1_hi, s2_hi]),
        "rho_lo": _r(rho_lo), "rho_hi": _r(rho_hi),
    }


def _criterion(kind: str, lam: float, horizon: float = 1.0, x0: float = 1.0) -> dict:
    return {"kind": kind, "lambda": _r(lam), "T": _r(horizon), "t0": 0.0, "x0": _r(x0)}


def _problem(assets: int, uncertainty: dict, criterion: dict, **blocks) -> dict:
    return {"version": "1", "assets": assets, "uncertainty": uncertainty,
            "criterion": criterion, **blocks}


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31))


def _cp_jumps(rng: np.random.Generator) -> dict:
    # with lambda = 3 on _cp_box sets the exposure alpha.J stays in [0, 1],
    # so the closed form is admissible under jump dynamics
    mean = rng.uniform(0.06, 0.12)
    spread = rng.uniform(0.05, 0.1)
    return {
        "kind": "compound_poisson",
        "loadings": [[1.0], [0.0]],
        "intensity": [_r(rng.uniform(0.3, 0.7))],
        "sizes": [{"sampler": "two-point", "mean": _r(mean),
                   "second_moment": _r(mean * mean + spread * spread)}],
    }


def _cp_box(rng: np.random.Generator) -> dict:
    # first volatility pinned, as in the acceptance suite's jump set
    unc = _ordered_box(rng, b1=(0.08, 0.12), v1=(0.15, 0.2), rho=(0.2, 0.5))
    unc["vol_hi"][0] = unc["vol_lo"][0]
    return unc


def _levy_jumps(rng: np.random.Generator) -> dict:
    return {"kind": "levy_discrete",
            "atoms": [[_r(-rng.uniform(0.03, 0.08))], [_r(rng.uniform(0.05, 0.1))]],
            "weights": _vec(rng.uniform(0.2, 0.5, size=2))}


def _single_box(rng: np.random.Generator) -> dict:
    b_lo = rng.uniform(0.08, 0.12)
    v_lo = rng.uniform(0.15, 0.22)
    return {"drift_lo": [_r(b_lo)], "drift_hi": [_r(b_lo + rng.uniform(0.0, 0.03))],
            "vol_lo": [_r(v_lo)], "vol_hi": [_r(v_lo + rng.uniform(0.0, 0.05))]}


def _corr_vertex(rng: np.random.Generator, n: int) -> list[list[float]]:
    a = rng.normal(size=(n, n))
    cov = a @ a.T + n * np.eye(n)
    d = np.sqrt(np.diag(cov))
    corr = cov / np.outer(d, d)
    out = [[_r(corr[i, j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        out[i][i] = 1.0
        for j in range(i):
            out[i][j] = out[j][i]
    return out


def _hull_box(rng: np.random.Generator) -> dict:
    b_lo = rng.uniform(0.04, 0.1, size=3)
    v_lo = rng.uniform(0.15, 0.25, size=3)
    v_hi = v_lo + rng.uniform(0.0, 0.05, size=3)
    v_hi[2] = v_lo[2]  # one pinned volatility: 7 free coordinates
    return {"drift_lo": _vec(b_lo), "drift_hi": _vec(b_lo + rng.uniform(0.0, 0.02, size=3)),
            "vol_lo": _vec(v_lo), "vol_hi": _vec(v_hi),
            "corr_vertices": [_corr_vertex(rng, 3) for _ in range(3)]}


def _verify_block(rng: np.random.Generator) -> dict:
    return {"grid": [10, 10], "samples": VERIFY_SAMPLES, "seed": _seed(rng)}


def _gen_perturb_ladder(rng: np.random.Generator) -> tuple[dict, list[Job]]:
    problems, jobs = {}, []
    for i in range(LADDER_SETS):
        name = f"ladder_{i}.json"
        # narrow boxes with worst-case Sharpe ratios near one keep the
        # doubled-strategy probe's signal well above its CRN error at the
        # smallest splice
        unc = _ordered_box(rng, b1=(0.16, 0.24), v1=(0.12, 0.18), rho=(-0.3, 0.6),
                           width=0.4)
        problems[name] = _problem(
            2, unc, _criterion("terminal_wealth", 1.0, LADDER_HORIZON),
            worst_case={"method": "auto"},
            perturb={"h_list": LADDER_H, "w_samples": LADDER_W, "u_samples": LADDER_U,
                     "n_paths": LADDER_PATHS, "dt": LADDER_DT, "seed": _seed(rng)},
        )
        for kind in ("perturb_worst_case", "perturb_equilibrium", "perturb_probe"):
            jobs.append(Job(f"{kind}.{i}", kind, name))
    return problems, jobs


MC_FAMILIES = {
    # family: (n_paths, criterion kind, lambda, x0); sized for ~0.85 s per
    # pass, so a 30 s run pools ~140 job latencies (tail at p90)
    "tw": (7_000, "terminal_wealth", 1.0, 1.0),
    "lr": (7_000, "log_return", 1.0, 0.0),
    "cp": (4_500, "terminal_wealth", 3.0, 1.0),
    "ws": (3_000, "wealth_scaled", 1.0, 1.0),
}


def _gen_mc_paths(rng: np.random.Generator) -> tuple[dict, list[Job]]:
    problems, jobs = {}, []
    for fam, (n_paths, kind, lam, x0) in MC_FAMILIES.items():
        name = f"mc_{fam}.json"
        sim = {"n_paths": n_paths, "dt": MC_DT, "seed": _seed(rng)}
        if fam == "cp":
            doc = _problem(2, _cp_box(rng), _criterion(kind, lam, x0=x0),
                           jumps=_cp_jumps(rng), worst_case={"method": "numeric"},
                           simulate=sim)
        elif fam == "ws":
            doc = _problem(1, _single_box(rng), _criterion(kind, lam, x0=x0),
                           jumps=_levy_jumps(rng), simulate=sim)
        else:
            doc = _problem(2, _ordered_box(rng), _criterion(kind, lam, x0=x0),
                           worst_case={"method": "auto"}, simulate=sim)
        problems[name] = doc
        jobs.append(Job(f"mc.{fam}", "mc", name))
    return problems, jobs


def _gen_scenario_verify(rng: np.random.Generator) -> tuple[dict, list[Job]]:
    problems = {}
    for i in range(VERIFY_BOXES):
        problems[f"box2_{i}.json"] = _problem(
            2, _ordered_box(rng), _criterion("terminal_wealth", rng.uniform(0.5, 2.0)),
            worst_case={"method": "closed"}, verify=_verify_block(rng))
    problems["cp_fixed.json"] = _problem(
        2, _cp_box(rng), _criterion("terminal_wealth", 3.0), jumps=_cp_jumps(rng),
        worst_case={"method": "numeric"}, verify=_verify_block(rng))
    box = _ordered_box(rng, b1=(0.08, 0.12), v1=(0.15, 0.2), rho=(0.2, 0.5))
    lo_i = rng.uniform(0.2, 0.4)
    lo_m = rng.uniform(0.02, 0.05)
    box["jump_bounds"] = {
        "kind": "compound_poisson", "loadings": [[1.0], [_r(rng.uniform(0.0, 0.6))]],
        "intensity_lo": [_r(lo_i)], "intensity_hi": [_r(lo_i + rng.uniform(0.1, 0.3))],
        "mean_lo": [_r(lo_m)], "mean_hi": [_r(lo_m + rng.uniform(0.02, 0.05))],
        "second_lo": [_r(lo_m * lo_m + 0.005)], "second_hi": [_r(lo_m * lo_m + 0.03)],
    }
    problems["jump_box.json"] = _problem(
        2, box, _criterion("terminal_wealth", 2.0),
        worst_case={"method": "numeric"}, verify=_verify_block(rng))
    problems["levy_ws.json"] = _problem(
        1, _single_box(rng), _criterion("wealth_scaled", rng.uniform(0.5, 2.0)),
        jumps=_levy_jumps(rng), verify=_verify_block(rng))
    problems["hull3.json"] = _problem(
        3, _hull_box(rng), _criterion("terminal_wealth", rng.uniform(0.5, 2.0)),
        worst_case={"method": "numeric", "grid_resolution": HULL_RESOLUTION},
        verify=_verify_block(rng))
    jobs = [Job(f"verify.{Path(n).stem}", "verify", n) for n in problems]
    jobs += [Job(f"verify.demo_{Path(n).stem}", "verify", n) for n in DEMO_PROBLEMS]
    return problems, jobs


_GENERATORS = {
    "perturb_ladder": _gen_perturb_ladder,
    "mc_paths": _gen_mc_paths,
    "scenario_verify": _gen_scenario_verify,
}


def generate(workload: str, seed: int, out_dir: Path, demo_dir: Path) -> list[Job]:
    """Write the workload's problem files for ``seed`` into ``out_dir`` and
    return its jobs.  The same seed gives byte-identical files."""
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    problems, jobs = _GENERATORS[workload](rng)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, doc in problems.items():
        (out_dir / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if workload == "scenario_verify":
        for name in DEMO_PROBLEMS:
            (out_dir / name).write_bytes((demo_dir / name).read_bytes())
    return jobs


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


def _layer_class(uset: rm.UncertaintySet, jumps) -> str:
    if jumps is not None or uset.jump_bounds is not None:
        return "jump"
    return "hull3" if uset.n > 2 else "box2"


def _parse(tr, path: Path):
    with tr.span("cli.parse"):
        doc = cli.load_problem(path)
        uset = cli.parse_uncertainty(doc)
        criterion = cli.parse_criterion(doc)
        jumps = cli.parse_jumps(doc, uset.n)
    return doc, uset, criterion, jumps


def _worst_case(tr, doc: dict, uset, criterion, jumps) -> rm.WorstCaseResult:
    block = doc.get("worst_case", {})
    method = block.get("method", "auto")
    resolution = int(block.get("grid_resolution", 21))
    refinements = int(block.get("refinements", 2))
    with tr.span("worst_case.search", cls=_layer_class(uset, jumps), method=method) as sp:
        if method == "closed":
            res = rm.worst_case_two_asset(uset, criterion)
        elif method == "numeric":
            res = rm.worst_case_numeric(uset, criterion, jump=jumps,
                                        resolution=resolution, refinements=refinements)
        else:
            res = rm.find_worst_case(uset, criterion, jump=jumps,
                                     resolution=resolution, refinements=refinements)
        sp.attrs.update(evals=res.evaluations, skipped=res.skipped)
    return res


def _solve(tr, uset, criterion, jumps, worst) -> rm.ClosedFormSolution:
    with tr.span("closed_form.solve") as sp:
        sol = rm.solve(uset, criterion, jump=jumps, worst=worst)
        sp.attrs["ode_steps"] = 3 * (sol.ode.t.size - 1) if sol.ode is not None else 0
    return sol


def _emit(tr, body: dict) -> None:
    with tr.span("cli.emit") as sp:
        text = json.dumps(body, indent=2, sort_keys=True)
        sp.attrs["bytes"] = len(text.encode())


def _run_perturb(tr, job: Job, path: Path) -> None:
    doc, uset, criterion, jumps = _parse(tr, path)
    worst = _worst_case(tr, doc, uset, criterion, jumps)
    sol = _solve(tr, uset, criterion, jumps, worst)
    block = doc["perturb"]
    cfg = rm.SimConfig(n_paths=int(block["n_paths"]), dt=float(block["dt"]),
                       seed=int(block["seed"]))
    h_list = [float(h) for h in block["h_list"]]
    w, u = int(block["w_samples"]), int(block["u_samples"])
    n_steps, _ = cfg.steps_for(criterion.span)
    with tr.span("simulate.perturb") as sp:
        if job.kind == "perturb_worst_case":
            rep = rm.perturb_worst_case(sol, uset, h_list, u_samples=u, cfg=cfg)
            splices = len(rep.rows)
        elif job.kind == "perturb_equilibrium":
            rep = rm.perturb_equilibrium(sol, uset, h_list, w_samples=w, u_samples=u, cfg=cfg)
            splices = len(rep.rows) * u
        else:
            h_list = h_list[-1:]
            rep = rm.perturb_equilibrium(sol, uset, h_list, w_samples=w, u_samples=u,
                                         cfg=cfg, base_strategy=2.0 * sol.alpha_coef)
            splices = len(rep.rows) * u
        sp.attrs.update(splices=splices, path_steps=cfg.n_paths * n_steps * (1 + splices))
    if job.kind == "perturb_probe":
        h_min = rep.h_list[-1]
        _check(any(r.violated and math.isclose(r.h, h_min) for r in rep.rows),
               "doubled-strategy probe shows no violation at the smallest h")
    else:
        _check(rep.ok, f"{rep.kind} perturbation report has violations")
    if tr.enabled and job.kind == "perturb_worst_case":
        # traced only, once per set: the base simulation cold, then warm
        _cold_then_warm(tr, sol, cfg, "tw", traced_only=True)
    _emit(tr, {"command": "perturb", "result": rep.to_json_dict()})


def _cold_then_warm(tr, sol, cfg, family: str, traced_only: bool):
    """Cold simulation on a fresh ShockCache; the traced run repeats it warm
    on the same cache, so cold minus warm is the shock-drawing time."""
    cache = rm.ShockCache()
    n_steps, _ = cfg.steps_for(sol.criterion.span)
    with tr.span("simulate.cold", family=family, traced_only=traced_only,
                 path_steps=0 if traced_only else cfg.n_paths * n_steps):
        batch = rm.simulate_solution(sol, cfg, shock_cache=cache)
    if tr.enabled:
        with tr.span("simulate.warm", family=family, traced_only=True):
            rm.simulate_solution(sol, cfg, shock_cache=cache)
    return batch


def _run_mc(tr, job: Job, path: Path) -> None:
    doc, uset, criterion, jumps = _parse(tr, path)
    worst = _worst_case(tr, doc, uset, criterion, jumps)
    sol = _solve(tr, uset, criterion, jumps, worst)
    block = doc["simulate"]
    cfg = rm.SimConfig(n_paths=int(block["n_paths"]), dt=float(block["dt"]),
                       seed=int(block["seed"]))
    batch = _cold_then_warm(tr, sol, cfg, job.name.split(".")[-1], traced_only=False)
    with tr.span("simulate.estimate"):
        est = rm.estimate_J(batch, criterion)
    t0, x0 = criterion.t0, criterion.x0
    v_ref, g_ref = sol.V(t0, x0), sol.g(t0, x0)
    _check(abs(est.j_hat - v_ref) <= MC_SE * est.standard_error_j,
           f"J {est.j_hat:.6g} vs V {v_ref:.6g} beyond 3 SE ({est.standard_error_j:.3g})")
    _check(abs(est.mean_hat - g_ref) <= MC_SE * est.standard_error_mean,
           f"mean {est.mean_hat:.6g} vs g {g_ref:.6g} beyond 3 SE "
           f"({est.standard_error_mean:.3g})")
    _emit(tr, {"command": "simulate",
               "result": {"estimate": est.to_json_dict(), "V": v_ref, "g": g_ref,
                          "n_steps": batch.n_steps, "dt_effective": batch.dt}})


def _run_verify(tr, job: Job, path: Path) -> None:
    doc, uset, criterion, jumps = _parse(tr, path)
    worst = _worst_case(tr, doc, uset, criterion, jumps)
    cls = _layer_class(uset, jumps)
    theta_hat = worst.scenario
    with tr.span("worst_case.certify") as sp:
        if worst.case_label in (rm.worst_case.SHORT_SECOND, rm.worst_case.LONG_BOTH,
                                rm.worst_case.IGNORE_SECOND):
            oracle = rm.worst_case_numeric(uset, criterion)
            sp.attrs.update(evals=oracle.evaluations, skipped=oracle.skipped)
            gap = abs(worst.risk_premium - oracle.risk_premium)
            _check(gap <= PREMIUM_TOL, f"closed vs numeric premium gap {gap:.3g}")
        if cls == "hull3":
            corners = min(rm.scenario_premium(s) for s in rm.corner_scenarios(uset))
            _check(worst.risk_premium <= corners + CORNER_TOL,
                   f"hull premium {worst.risk_premium:.10g} above a corner {corners:.10g}")
        fixed_jump = theta_hat.jump if uset.jump_bounds is None else None
        thetas = rm.sample_scenarios(uset, SLACK_SAMPLES, int(doc["verify"]["seed"]),
                                     fixed_jump=fixed_jump)
        slack = max(rm.worst_case_optimality_slack(theta_hat, th) for th in thetas)
    _check(slack <= SLACK_TOL, f"optimality slack {slack:.3g}")

    sol = _solve(tr, uset, criterion, jumps, worst)
    block = doc["verify"]
    nt, nx = block.get("grid", [10, 10])
    samples = int(block.get("samples", VERIFY_SAMPLES))
    with tr.span("pde_check.residual") as sp:
        table = rm.residual_grid(sol, nt=int(nt), nx=int(nx))
        sp.attrs["rows"] = len(table.rows)
    with tr.span("pde_check.saddle", samples=samples) as sp:
        saddle = rm.saddle_check(sol, uset, samples=samples, seed=int(block["seed"]))
        sp.attrs["violations"] = len(saddle.violations)
    _check(table.max_abs <= RESIDUAL_TOL, f"max residual {table.max_abs:.3g}")
    _check(saddle.ok, f"saddle check: {len(saddle.violations)} violations")
    _emit(tr, {
        "command": "verify",
        "worst_case": {"case": worst.case_label, "risk_premium": worst.risk_premium,
                       "evaluations": worst.evaluations, "skipped": worst.skipped},
        "strategy": sol.to_json_dict(ode_stride=100),
        "residuals": [{"t": r.t, "x": r.x, "equation": r.eq_id, "residual": r.residual}
                      for r in table.rows],
        "saddle": {"ok": saddle.ok, "samples": saddle.samples,
                   "violations": len(saddle.violations),
                   "value_at_saddle": saddle.saddle_value,
                   "max_alpha_side": saddle.max_alpha_side,
                   "min_theta_side": saddle.min_theta_side},
        "optimality_slack": slack,
    })


_RUNNERS = {
    "perturb_worst_case": _run_perturb,
    "perturb_equilibrium": _run_perturb,
    "perturb_probe": _run_perturb,
    "mc": _run_mc,
    "verify": _run_verify,
}


def run_job(tr, job: Job, input_dir: Path) -> None:
    """Run one job; raises on failure (CheckFailed when a check misses)."""
    _RUNNERS[job.kind](tr, job, input_dir / job.problem)
