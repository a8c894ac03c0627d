"""Command-line surface: robust-mv <command> <file.json> [--out DIR] [--quiet] [--json].

Commands
--------
worst-case   solve for the adversarial scenario and print it
strategy     evaluate the closed-form strategy and value functions
verify       residual grid plus saddle sampling, PASS/FAIL
simulate     Monte Carlo consistency of J and the mean against V and g
perturb      local-splice difference-quotient tests

Problem files are strict JSON: unknown top-level keys are rejected, the
version tag must be "1", and every randomized command must carry an
explicit seed.  The optional ``worst_case`` block picks the worst-case
solver for every command.  Counts, seeds, step sizes, grids, window
lengths and modes are checked at parse time.  Exit codes: 0 pass, 1
assertion failure, 2 schema error, 3 model assumption violated, 4
runtime budget exceeded.  The solvers load with the command that needs
them, so parsing a problem file imports none of them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import (
    AssumptionViolated,
    BudgetExceeded,
    InvalidBounds,
    NonBankruptcyViolated,
    NotPositiveDefinite,
    RobustMVError,
    SchemaError,
)
from .model import (
    DEFAULT_REFINEMENTS,
    DEFAULT_RESOLUTION,
    CompoundPoissonBounds,
    CompoundPoissonJumps,
    Criterion,
    DiscreteLevyBounds,
    DiscreteLevyJumps,
    JumpSizeLaw,
    UncertaintySet,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SCHEMA = 2
EXIT_ASSUMPTION = 3
EXIT_BUDGET = 4

_TOP_KEYS = {"version", "assets", "uncertainty", "jumps", "criterion",
             "worst_case", "verify", "simulate", "perturb"}


# ---------------------------------------------------------------------------
# strict parsing
# ---------------------------------------------------------------------------


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise SchemaError(f"{where}: missing required key {key!r}")
    return obj[key]


def _no_extras(obj: dict, allowed: set[str], where: str) -> None:
    extras = set(obj) - allowed
    if extras:
        raise SchemaError(f"{where}: unknown keys {sorted(extras)}")


def _is_number(value) -> bool:
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and math.isfinite(value))


def _numbers(value, shape: tuple, where: str) -> np.ndarray:
    """A nested JSON list of finite numbers (no booleans or strings) as a
    float array of ``shape``; a None entry of ``shape`` takes any length."""
    arr = np.array(value, dtype=object)
    if (arr.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, arr.shape))
            or not all(_is_number(x) for x in arr.flat)):
        size = " x ".join("k" if d is None else str(d) for d in shape)
        raise SchemaError(f"{where}: expected {size} finite numbers, got {value!r}")
    return arr.astype(float)


def _vector(value, n: int, where: str) -> np.ndarray:
    return _numbers(value, (n,), where)


def _number(obj: dict, key: str, where: str, default: float | None = None) -> float:
    value = _need(obj, key, where) if default is None else obj.get(key, default)
    if not _is_number(value):
        raise SchemaError(f"{where}.{key} must be a finite number, got {value!r}")
    return float(value)


def _reject_constant(token: str):
    raise SchemaError(f"non-finite number {token} is not allowed in problem files")


def load_problem(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read problem file: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("problem file must hold a JSON object")
    _no_extras(doc, _TOP_KEYS, "problem")
    if _need(doc, "version", "problem") != "1":
        raise SchemaError('unsupported version tag (need "1")')
    return doc


def parse_uncertainty(doc: dict) -> UncertaintySet:
    n = _need(doc, "assets", "problem")
    if not isinstance(n, int) or n < 1:
        raise SchemaError("assets must be a positive integer")
    unc = _need(doc, "uncertainty", "problem")
    allowed = {"drift_lo", "drift_hi", "vol_lo", "vol_hi", "rho_lo", "rho_hi",
               "corr_vertices", "jump_bounds"}
    _no_extras(unc, allowed, "uncertainty")
    kwargs = dict(
        drift_lo=_vector(_need(unc, "drift_lo", "uncertainty"), n, "drift_lo"),
        drift_hi=_vector(_need(unc, "drift_hi", "uncertainty"), n, "drift_hi"),
        vol_lo=_vector(_need(unc, "vol_lo", "uncertainty"), n, "vol_lo"),
        vol_hi=_vector(_need(unc, "vol_hi", "uncertainty"), n, "vol_hi"),
    )
    if n == 2:
        kwargs["rho_lo"] = _number(unc, "rho_lo", "uncertainty")
        kwargs["rho_hi"] = _number(unc, "rho_hi", "uncertainty")
    elif n > 2:
        verts = _numbers(_need(unc, "corr_vertices", "uncertainty"), (None, n, n), "corr_vertices")
        kwargs["corr_vertices"] = tuple(verts)
    try:
        if "jump_bounds" in unc:
            kwargs["jump_bounds"] = parse_jump_bounds(unc["jump_bounds"], n)
        return UncertaintySet(**kwargs)
    except (InvalidBounds, NotPositiveDefinite) as exc:
        raise SchemaError(f"uncertainty: {exc}") from exc


def parse_jump_bounds(obj: dict, n: int):
    kind = _need(obj, "kind", "jump_bounds")
    if kind == "compound_poisson":
        _no_extras(obj, {"kind", "loadings", "intensity_lo", "intensity_hi",
                         "mean_lo", "mean_hi", "second_lo", "second_hi"}, "jump_bounds")
        loadings = _numbers(_need(obj, "loadings", "jump_bounds"), (n, None), "jump_bounds.loadings")
        k = loadings.shape[1]
        return CompoundPoissonBounds(
            loadings=loadings,
            intensity_lo=_vector(_need(obj, "intensity_lo", "jump_bounds"), k, "intensity_lo"),
            intensity_hi=_vector(_need(obj, "intensity_hi", "jump_bounds"), k, "intensity_hi"),
            mean_lo=_vector(_need(obj, "mean_lo", "jump_bounds"), k, "mean_lo"),
            mean_hi=_vector(_need(obj, "mean_hi", "jump_bounds"), k, "mean_hi"),
            second_lo=_vector(_need(obj, "second_lo", "jump_bounds"), k, "second_lo"),
            second_hi=_vector(_need(obj, "second_hi", "jump_bounds"), k, "second_hi"),
        )
    if kind == "levy_discrete":
        _no_extras(obj, {"kind", "atoms", "weight_lo", "weight_hi"}, "jump_bounds")
        atoms = _numbers(_need(obj, "atoms", "jump_bounds"), (None, n), "jump_bounds.atoms")
        m = atoms.shape[0]
        return DiscreteLevyBounds(
            atoms=atoms,
            weight_lo=_vector(_need(obj, "weight_lo", "jump_bounds"), m, "weight_lo"),
            weight_hi=_vector(_need(obj, "weight_hi", "jump_bounds"), m, "weight_hi"),
        )
    raise SchemaError(f"jump_bounds: unknown kind {kind!r}")


def parse_size_law(obj: dict, index: int) -> JumpSizeLaw:
    where = f"jumps.sizes[{index}]"
    sampler = _need(obj, "sampler", where)
    if sampler == "two-point":
        _no_extras(obj, {"sampler", "values", "prob", "mean", "second_moment"}, where)
        if "values" in obj:
            a, b = _numbers(obj["values"], (2,), f"{where}.values")
            law = JumpSizeLaw.two_point(a, b, _number(obj, "prob", where))
        else:
            law = JumpSizeLaw.two_point_from_moments(
                _number(obj, "mean", where),
                _number(obj, "second_moment", where),
            )
    elif sampler == "uniform":
        _no_extras(obj, {"sampler", "lo", "hi", "mean", "second_moment"}, where)
        law = JumpSizeLaw.uniform(_number(obj, "lo", where), _number(obj, "hi", where))
    elif sampler == "shifted-lognormal":
        _no_extras(obj, {"sampler", "m", "s", "mean", "second_moment"}, where)
        law = JumpSizeLaw.shifted_lognormal(_number(obj, "m", where), _number(obj, "s", where))
    else:
        raise SchemaError(f"{where}: unknown sampler {sampler!r}")
    if "mean" in obj and "second_moment" in obj:
        try:
            law.check_stated_moments(_number(obj, "mean", where), _number(obj, "second_moment", where))
        except InvalidBounds as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    return law


def parse_jumps(doc: dict, n: int):
    if "jumps" not in doc:
        return None
    obj = doc["jumps"]
    kind = _need(obj, "kind", "jumps")
    try:
        if kind == "compound_poisson":
            _no_extras(obj, {"kind", "loadings", "intensity", "sizes"}, "jumps")
            loadings = _numbers(_need(obj, "loadings", "jumps"), (n, None), "jumps.loadings")
            sizes = [parse_size_law(s, i) for i, s in enumerate(_need(obj, "sizes", "jumps"))]
            return CompoundPoissonJumps(
                loadings=loadings,
                intensity=_vector(_need(obj, "intensity", "jumps"), loadings.shape[1], "jumps.intensity"),
                size_laws=tuple(sizes),
            )
        if kind == "levy_discrete":
            _no_extras(obj, {"kind", "atoms", "weights"}, "jumps")
            atoms = _numbers(_need(obj, "atoms", "jumps"), (None, n), "jumps.atoms")
            return DiscreteLevyJumps(
                atoms=atoms,
                weights=_vector(_need(obj, "weights", "jumps"), atoms.shape[0], "jumps.weights"),
            )
    except (InvalidBounds, RobustMVError) as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"jumps: {exc}") from exc
    raise SchemaError(f"jumps: unknown kind {kind!r}")


def parse_criterion(doc: dict) -> Criterion:
    obj = _need(doc, "criterion", "problem")
    _no_extras(obj, {"kind", "lambda", "T", "t0", "x0"}, "criterion")
    try:
        return Criterion(
            kind=_need(obj, "kind", "criterion"),
            lam=_number(obj, "lambda", "criterion"),
            horizon=_number(obj, "T", "criterion"),
            t0=_number(obj, "t0", "criterion", default=0.0),
            x0=_number(obj, "x0", "criterion", default=1.0),
        )
    except InvalidBounds as exc:
        raise SchemaError(f"criterion: {exc}") from exc


def _integer(obj: dict, key: str, default: int | None, least: int, where: str,
             below: int | None = None) -> int:
    value = obj.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, int) or value < least
            or (below is not None and value >= below)):
        bound = f" and < {below}" if below is not None else ""
        raise SchemaError(f"{where}.{key} must be an integer >= {least}{bound}, got {value!r}")
    return value


def _seed(obj: dict, where: str) -> int:
    return _integer(obj, "seed", None, 0, where, below=2**64)


def _positive(obj: dict, key: str, default: float | None, where: str) -> float:
    value = obj.get(key, default)
    if not (_is_number(value) and value > 0):
        raise SchemaError(f"{where}.{key} must be a finite number > 0, got {value!r}")
    return float(value)


def _flag(obj: dict, key: str, where: str) -> bool:
    value = obj.get(key, False)
    if not isinstance(value, bool):
        raise SchemaError(f"{where}.{key} must be true or false, got {value!r}")
    return value


def parse_worst_case(doc: dict) -> tuple[str, int, int]:
    """The optional ``worst_case`` block: method, grid resolution, refinements."""
    block = doc.get("worst_case", {})
    _no_extras(block, {"method", "grid_resolution", "refinements"}, "worst_case")
    method = block.get("method", "auto")
    if method not in ("closed", "numeric", "auto"):
        raise SchemaError(f"worst_case.method must be closed|numeric|auto, got {method!r}")
    return (method,
            _integer(block, "grid_resolution", DEFAULT_RESOLUTION, 2, "worst_case"),
            _integer(block, "refinements", DEFAULT_REFINEMENTS, 0, "worst_case"))


def _block(doc: dict, name: str, allowed: set[str], required: set[str]) -> dict:
    obj = doc.get(name)
    if obj is None:
        raise SchemaError(f"problem: command needs a {name!r} block")
    _no_extras(obj, allowed, name)
    for key in required:
        _need(obj, key, name)
    return obj


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


class Emitter:
    def __init__(self, args):
        self.quiet = args.quiet
        self.as_json = args.json
        self.out_dir = Path(args.out) if args.out else None
        if self.out_dir:
            self.out_dir.mkdir(parents=True, exist_ok=True)

    def say(self, line: str = "") -> None:
        if not self.quiet and not self.as_json:
            print(line)

    def payload(self, command: str, body: dict) -> None:
        doc = {"command": command, **body}
        if self.as_json:
            print(json.dumps(doc, indent=2, sort_keys=True))
        if self.out_dir:
            with open(self.out_dir / f"{command.replace('-', '_')}.json", "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)


def _worst_case_dict(res) -> dict:
    scen = res.scenario
    out = {
        "case": res.case_label,
        "risk_premium": res.risk_premium,
        "manifold": res.manifold,
        "drift": scen.drift.tolist(),
        "vols": scen.vols.tolist(),
        "cov": scen.cov.tolist(),
    }
    if scen.n == 2:
        out["rho"] = float(scen.corr[0, 1])
    if res.evaluations:
        out["evaluations"] = res.evaluations
        out["skipped"] = res.skipped
    if res.gap is not None:
        out["gap"] = res.gap
    return out


def _print_worst_case(em: Emitter, res) -> None:
    scen = res.scenario
    em.say(f"worst case           {res.case_label}" + ("  (manifold: minimizer not unique)" if res.manifold else ""))
    em.say(f"risk premium         {res.risk_premium:.10g}")
    if res.gap is not None:
        em.say(f"certified gap        {res.gap:.3g}  (premium - minimum <= gap)")
    em.say(f"drift                {np.array2string(scen.drift, precision=6)}")
    em.say(f"vols                 {np.array2string(scen.vols, precision=6)}")
    if scen.n == 2:
        em.say(f"rho                  {scen.corr[0, 1]:.6g}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _worst_case_from_doc(doc: dict, uset: UncertaintySet, criterion: Criterion, jumps):
    """The worst case the ``worst_case`` block asks for; every command uses it."""
    from .worst_case import find_worst_case, worst_case_numeric, worst_case_two_asset

    method, resolution, refinements = parse_worst_case(doc)
    if method == "closed":
        if jumps is not None:
            raise InvalidBounds("closed method covers diffusion ambiguity; use numeric with jumps")
        return worst_case_two_asset(uset, criterion)
    if method == "numeric":
        return worst_case_numeric(uset, criterion, jump=jumps,
                                  resolution=resolution, refinements=refinements)
    return find_worst_case(uset, criterion, jump=jumps,
                           resolution=resolution, refinements=refinements)


def cmd_worst_case(doc: dict, em: Emitter) -> int:
    uset = parse_uncertainty(doc)
    criterion = parse_criterion(doc)
    res = _worst_case_from_doc(doc, uset, criterion, parse_jumps(doc, uset.n))
    _print_worst_case(em, res)
    em.payload("worst-case", {"result": _worst_case_dict(res)})
    return EXIT_OK


def _solve_from_doc(doc: dict, em: Emitter):
    from . import closed_form

    uset = parse_uncertainty(doc)
    criterion = parse_criterion(doc)
    jumps = parse_jumps(doc, uset.n)
    worst = _worst_case_from_doc(doc, uset, criterion, jumps)
    sol = closed_form.solve(uset, criterion, jump=jumps, worst=worst)
    return uset, criterion, jumps, sol


def cmd_strategy(doc: dict, em: Emitter) -> int:
    _, criterion, jumps, sol = _solve_from_doc(doc, em)
    t0, x0 = criterion.t0, criterion.x0
    _print_worst_case(em, sol.worst_case)
    if sol.worst_case.scenario.jump is not None:
        b_f, sigma_f = sol.worst_case.adjusted
        em.say(f"adjusted drift b_F   {np.array2string(b_f, precision=6)}")
        em.say(f"adjusted cov Sigma_F {np.array2string(sigma_f, precision=6).replace(chr(10), chr(10) + ' ' * 21)}")
    em.say()
    if sol.kind == "wealth_scaled":
        em.say(f"alpha_hat(t0, x0)    {np.array2string(np.atleast_1d(sol.alpha_hat(t0, x0)), precision=6)}")
        em.say("growth factors (mean factor A, second-moment factor B):")
        idx = np.linspace(0, sol.ode.t.size - 1, min(11, sol.ode.t.size)).astype(int)
        em.say("      t           A               B")
        for i in idx:
            em.say(f"  {sol.ode.t[i]:8.4f}  {sol.ode.a[i]:.10f}  {sol.ode.b[i]:.10f}")
    else:
        em.say(f"alpha_hat            {np.array2string(sol.alpha_coef, precision=6)}")
    em.say(f"V(t0, x0)            {sol.V(t0, x0):.10g}")
    em.say(f"g(t0, x0)            {sol.g(t0, x0):.10g}")
    em.say(f"f(t0, x0)            {sol.f(t0, x0):.10g}")
    if sol.nonbankruptcy is not None:
        rep = sol.nonbankruptcy
        em.say(f"jump exposures       {np.array2string(rep.exposures, precision=6)}"
               + ("" if rep.ok else f"  WARNING: types {list(rep.violating_types)} outside [0, 1]"))
    em.payload("strategy", {"result": sol.to_json_dict(ode_stride=100)})
    return EXIT_OK


def cmd_verify(doc: dict, em: Emitter) -> int:
    from . import pde_check

    uset, criterion, jumps, sol = _solve_from_doc(doc, em)
    block = _block(doc, "verify", {"grid", "samples", "seed", "residual_tol"}, {"seed"})
    grid = block.get("grid", [10, 10])
    if not (isinstance(grid, list) and len(grid) == 2
            and all(_is_number(g) and isinstance(g, int) and g >= 1 for g in grid)):
        raise SchemaError(f"verify.grid must be two integers >= 1, got {grid!r}")
    nt, nx = grid
    samples = _integer(block, "samples", 1000, 1, "verify")
    seed = _seed(block, "verify")
    tol = _positive(block, "residual_tol", 1e-8, "verify")

    table = pde_check.residual_grid(sol, nt=nt, nx=nx)
    saddle = pde_check.saddle_check(sol, uset, samples=samples, seed=seed)
    res_ok = table.max_abs <= tol
    ok = res_ok and saddle.ok

    _print_worst_case(em, sol.worst_case)
    em.say(f"residual grid        max |residual| {table.max_abs:.3e} "
           f"(tolerance {tol:.1e})  {'PASS' if res_ok else 'FAIL'}")
    for eq, val in sorted(table.max_by_equation().items()):
        em.say(f"  {eq:<18} {val:.3e}")
    em.say(f"saddle check         {samples} samples, seed {seed}: "
           f"{len(saddle.violations)} violations  {'PASS' if saddle.ok else 'FAIL'}")
    em.say(f"  F at saddle        {saddle.saddle_value:.3e} (eps {saddle.saddle_eps:.1e})")
    em.say(f"  max alpha side     {saddle.max_alpha_side:.3e}")
    em.say(f"  min theta side     {saddle.min_theta_side:.3e}")
    if em.out_dir:
        table.to_csv(em.out_dir / "residuals.csv")
    em.payload("verify", {
        "result": {
            "ok": ok,
            "max_residual": table.max_abs,
            "residual_tol": tol,
            "residuals_by_equation": table.max_by_equation(),
            "saddle": {
                "ok": saddle.ok,
                "samples": saddle.samples,
                "seed": saddle.seed,
                "violations": len(saddle.violations),
                "value_at_saddle": saddle.saddle_value,
                "eps": saddle.saddle_eps,
                "max_alpha_side": saddle.max_alpha_side,
                "min_theta_side": saddle.min_theta_side,
            },
        }
    })
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_simulate(doc: dict, em: Emitter) -> int:
    from . import simulate as sim

    _, criterion, jumps, sol = _solve_from_doc(doc, em)
    block = _block(doc, "simulate",
                   {"n_paths", "dt", "seed", "antithetic", "keep_paths", "spill"},
                   {"n_paths", "dt", "seed"})
    n_paths = _integer(block, "n_paths", None, 2, "simulate")
    antithetic = _flag(block, "antithetic", "simulate")
    if antithetic and n_paths % 2:
        raise SchemaError(f"simulate.n_paths must be even when simulate.antithetic is set, got {n_paths}")
    cfg = sim.SimConfig(
        n_paths=n_paths,
        dt=_positive(block, "dt", None, "simulate"),
        seed=_seed(block, "simulate"),
        antithetic=antithetic,
        keep_paths=_flag(block, "keep_paths", "simulate"),
    )
    batch = sim.simulate_solution(sol, cfg)
    est = sim.estimate_J(batch, criterion)
    t0, x0 = criterion.t0, criterion.x0
    v_ref, g_ref = sol.V(t0, x0), sol.g(t0, x0)
    j_ok = abs(est.j_hat - v_ref) <= 3.0 * est.standard_error_j
    g_ok = abs(est.mean_hat - g_ref) <= 3.0 * est.standard_error_mean
    em.say(f"paths                {est.n_paths} (dt {batch.dt:.3g}, {batch.n_steps} steps, seed {cfg.seed})")
    em.say(f"J estimate           {est.j_hat:.8f} +- {est.standard_error_j:.2e}")
    em.say(f"V(t0, x0)            {v_ref:.8f}   |diff| {abs(est.j_hat - v_ref):.2e}  "
           f"{'PASS' if j_ok else 'FAIL'}")
    em.say(f"mean X_T             {est.mean_hat:.8f} +- {est.standard_error_mean:.2e}")
    em.say(f"g(t0, x0)            {g_ref:.8f}   |diff| {abs(est.mean_hat - g_ref):.2e}  "
           f"{'PASS' if g_ok else 'FAIL'}")
    if block.get("spill"):
        target = (em.out_dir or Path(".")) / str(block["spill"])
        batch.spill(target)
        em.say(f"paths spilled to     {target}")
    em.payload("simulate", {
        "result": {
            "ok": bool(j_ok and g_ok),
            "estimate": est.to_json_dict(),
            "V": v_ref,
            "g": g_ref,
            "dt_effective": batch.dt,
            "n_steps": batch.n_steps,
            "rng_layout": batch.rng_layout,
            "jump_events": batch.jump_events,
        }
    })
    return EXIT_OK if (j_ok and g_ok) else EXIT_CHECK_FAILED


def cmd_perturb(doc: dict, em: Emitter) -> int:
    from . import simulate as sim

    uset, criterion, jumps, sol = _solve_from_doc(doc, em)
    block = _block(doc, "perturb",
                   {"h_list", "w_samples", "u_samples", "n_paths", "dt", "seed",
                    "mode", "base_scale"},
                   {"h_list", "w_samples", "u_samples", "n_paths", "dt", "seed"})
    cfg = sim.SimConfig(n_paths=_integer(block, "n_paths", None, 2, "perturb"),
                        dt=_positive(block, "dt", None, "perturb"), seed=_seed(block, "perturb"))
    h_list = block["h_list"]
    if not (isinstance(h_list, list) and h_list and all(_is_number(h) for h in h_list)):
        raise SchemaError(f"perturb.h_list must be a non-empty list of numbers, got {h_list!r}")
    w_samples = _integer(block, "w_samples", None, 1, "perturb")
    u_samples = _integer(block, "u_samples", None, 1, "perturb")
    mode = block.get("mode", "both")
    if mode not in ("both", "worst_case", "equilibrium"):
        raise SchemaError(f"perturb.mode must be both|worst_case|equilibrium, got {mode!r}")
    base_scale = block.get("base_scale")
    if base_scale is not None and not _is_number(base_scale):
        raise SchemaError(f"perturb.base_scale must be a finite number, got {base_scale!r}")
    if base_scale is not None and sol.kind == "wealth_scaled":
        raise SchemaError("perturb.base_scale scales a constant strategy; "
                          "the wealth-scaled strategy is not constant")
    base = None if base_scale is None else float(base_scale) * sol.alpha_coef

    reports = {}
    if mode in ("both", "worst_case"):
        reports["worst_case"] = sim.perturb_worst_case(sol, uset, h_list, u_samples=u_samples,
                                                       cfg=cfg)
    if mode in ("both", "equilibrium"):
        reports["equilibrium"] = sim.perturb_equilibrium(
            sol, uset, h_list, w_samples=w_samples, u_samples=u_samples, cfg=cfg,
            base_strategy=base)

    ok = all(rep.ok for rep in reports.values())
    for name, rep in reports.items():
        em.say(f"{name:<12} J(base) {rep.j_base:.6f} +- {rep.se_base:.2e}  "
               f"{'PASS' if rep.ok else 'FAIL'}")
        for h, q in sorted(rep.per_h_extreme().items()):
            word = "min" if rep.kind == "equilibrium" else "max"
            em.say(f"  h {h:<8g} {word} quotient {q:+.6f}")
        for row in rep.violations:
            em.say(f"  VIOLATION h={row.h:g} {row.detail}: quotient {row.quotient:+.6f} "
                   f"(3 se/h = {3 * row.se / row.h:.6f})")
    em.payload("perturb", {
        "result": {
            "ok": ok,
            "rng_layout": sim.RNG_LAYOUT,
            **{name: rep.to_json_dict() for name, rep in reports.items()},
        }
    })
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


_COMMANDS = {
    "worst-case": cmd_worst_case,
    "strategy": cmd_strategy,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "perturb": cmd_perturb,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="robust-mv",
        description="Robust dynamic mean-variance: worst-case scenarios, "
                    "closed-form strategies, verification and simulation.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("file", help="problem file (strict JSON, version tag '1')")
    parser.add_argument("--out", help="directory for JSON/CSV artifacts")
    parser.add_argument("--quiet", action="store_true", help="suppress the text report")
    parser.add_argument("--json", action="store_true", help="print machine-readable JSON to stdout")
    args = parser.parse_args(argv)

    em = Emitter(args)
    try:
        doc = load_problem(args.file)
        return _COMMANDS[args.command](doc, em)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (AssumptionViolated, InvalidBounds, NotPositiveDefinite, NonBankruptcyViolated) as exc:
        print(f"model assumption violated: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
