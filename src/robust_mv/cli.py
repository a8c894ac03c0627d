"""Command-line surface: robust-mv <command> <file.json> [--out DIR] [--quiet] [--json].

Commands
--------
worst-case   solve for the adversarial scenario and print it
strategy     evaluate the closed-form strategy and value functions
verify       residual grid plus saddle sampling, PASS/FAIL
simulate     Monte Carlo consistency of J and the mean against V and g
perturb      local-splice difference-quotient tests

Problem files are strict JSON: the version tag must be "1", and every
randomized command must carry an explicit seed.  Each block is read by
one reader, `_read`, from one table that names each key of the block
once, with its value reader and its default; only that reader refuses
a block that is not a JSON object, a missing required key or an unknown
key.  Counts, seeds, step sizes, grids, modes, the ``spill`` file name
and each stated jump-size moment are checked at parse time, and the
run block before any solve.  The optional ``worst_case`` block picks
the worst-case solver for every command.  Exit codes: 0 pass, 1
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


# ---------------------------------------------------------------------------
# strict parsing
# ---------------------------------------------------------------------------

_REQUIRED = object()  # the default of a key the block must state


def _read(obj, where: str, fields: dict) -> dict:
    """The values of block ``obj``, one per key of ``fields``.

    ``fields`` maps each key the block takes to ``(reader, default)``.  A
    reader takes ``(value, "block.key")`` and returns the checked value;
    an absent key takes its default as is, or is an error when the
    default is ``_REQUIRED``.  Only here is a block that is not a JSON
    object, lacks a required key or holds another key refused.
    """
    _object(obj, where)
    got = {}
    for key, (reader, default) in fields.items():
        if key in obj:
            got[key] = reader(obj[key], f"{where}.{key}")
        elif default is _REQUIRED:
            raise SchemaError(f"{where}: missing required key {key!r}")
        else:
            got[key] = default
    extras = set(obj) - set(fields)
    if extras:
        raise SchemaError(f"{where}: unknown keys {sorted(extras)}")
    return got


def _tagged(obj, where: str, tag: str, tables: dict) -> dict:
    """A block whose ``tag`` key picks the table of its other keys."""
    name = _object(obj, where).get(tag)
    table = tables.get(name, {}) if isinstance(name, str) else {}
    return _read(obj, where, {tag: (_choice(*tables), _REQUIRED), **table})


def _build(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a model error as a schema error at ``where``."""
    try:
        return make(*args, **kwargs)
    except RobustMVError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


# value readers: (value, "block.key") -> the checked value


def _object(value, where: str, kind: type = dict):
    """``value`` if it is a JSON object (a JSON array with ``kind=list``)."""
    if not isinstance(value, kind):
        raise SchemaError(f"{where} must be a JSON {'object' if kind is dict else 'array'}, "
                          f"got {value!r}")
    return value


def _is_number(value) -> bool:
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and math.isfinite(value))


def _number(value, where: str) -> float:
    if not _is_number(value):
        raise SchemaError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _positive(value, where: str) -> float:
    if not (_is_number(value) and value > 0):
        raise SchemaError(f"{where} must be a finite number > 0, got {value!r}")
    return float(value)


def _flag(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{where} must be true or false, got {value!r}")
    return value


def _as_is(value, where: str):
    """The value unchecked: the model object it feeds checks it."""
    return value


def _file_name(value, where: str) -> str:
    """A bare file name, so the file lands in the output directory."""
    if not (isinstance(value, str) and Path(value).name == value and value not in ("", ".", "..")):
        raise SchemaError(f"{where} must be a bare file name, got {value!r}")
    return value


def _integer(least: int, below: int | None = None):
    """Reader of JSON integers (not booleans) in [least, below)."""
    def read(value, where: str) -> int:
        if (isinstance(value, bool) or not isinstance(value, int) or value < least
                or (below is not None and value >= below)):
            bound = f" and < {below}" if below is not None else ""
            raise SchemaError(f"{where} must be an integer >= {least}{bound}, got {value!r}")
        return value
    return read


_seed = _integer(0, below=2**64)


def _numbers(*shape):
    """Reader of nested JSON lists of finite numbers (no booleans or
    strings) as a float array of ``shape``; a None entry takes any length."""
    def read(value, where: str) -> np.ndarray:
        arr = np.array(value, dtype=object)
        if (arr.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, arr.shape))
                or not all(_is_number(x) for x in arr.flat)):
            size = " x ".join("k" if d is None else str(d) for d in shape)
            raise SchemaError(f"{where}: expected {size} finite numbers, got {value!r}")
        return arr.astype(float)
    return read


def _choice(*options: str):
    def read(value, where: str) -> str:
        if value not in options:
            raise SchemaError(f"{where} must be {'|'.join(options)}, got {value!r}")
        return value
    return read


def _list(item, length: int | None = None):
    """Reader of a non-empty JSON array (of ``length`` entries) of ``item`` values."""
    def read(value, where: str) -> list:
        if not (isinstance(value, list) and value and length in (None, len(value))):
            size = "a non-empty list" if length is None else f"a list of {length}"
            raise SchemaError(f"{where} must be {size}, got {value!r}")
        return [item(v, f"{where}[{i}]") for i, v in enumerate(value)]
    return read


def _size_laws(value, where: str) -> tuple[JumpSizeLaw, ...]:
    return tuple(parse_size_law(obj, i) for i, obj in enumerate(_object(value, where, list)))


# the blocks


_OPTIONAL = (_object, None)
_PROBLEM = {"version": (_choice("1"), _REQUIRED), "assets": (_integer(1), _REQUIRED),
            "uncertainty": (_object, _REQUIRED), "jumps": _OPTIONAL,
            "criterion": (_object, _REQUIRED), "worst_case": _OPTIONAL, "verify": _OPTIONAL,
            "simulate": _OPTIONAL, "perturb": _OPTIONAL}
_PER_TYPE = (_numbers(None), _REQUIRED)  # one entry per jump type or atom, counted by the model
_STATED = {"mean": (_number, None), "second_moment": (_number, None)}
_SIZE_LAWS = {
    "two-point": {"values": (_numbers(2), None), "prob": (_number, None), **_STATED},
    "uniform": {"lo": (_number, _REQUIRED), "hi": (_number, _REQUIRED), **_STATED},
    "shifted-lognormal": {"m": (_number, _REQUIRED), "s": (_number, _REQUIRED), **_STATED},
}
_CRITERION = {"kind": (_as_is, _REQUIRED), "lambda": (_number, _REQUIRED),
              "T": (_number, _REQUIRED), "t0": (_number, 0.0), "x0": (_number, 1.0)}
_WORST_CASE = {"method": (_choice("closed", "numeric", "auto"), "auto"),
               "grid_resolution": (_integer(2), DEFAULT_RESOLUTION),
               "refinements": (_integer(0), DEFAULT_REFINEMENTS)}
_VERIFY = {"grid": (_list(_integer(1), 2), (10, 10)), "samples": (_integer(1), 1000),
           "seed": (_seed, _REQUIRED), "residual_tol": (_positive, 1e-8)}
_PATHS = {"n_paths": (_integer(2), _REQUIRED), "dt": (_positive, _REQUIRED),
          "seed": (_seed, _REQUIRED)}
_SIMULATE = {**_PATHS, "antithetic": (_flag, False), "keep_paths": (_flag, False),
             "spill": (_file_name, None)}
_PERTURB = {"h_list": (_list(_number), _REQUIRED), "w_samples": (_integer(1), _REQUIRED),
            "u_samples": (_integer(1), _REQUIRED), **_PATHS,
            "mode": (_choice("both", "worst_case", "equilibrium"), "both"),
            "base_scale": (_number, None)}


def _reject_constant(token: str):
    raise SchemaError(f"non-finite number {token} is not allowed in problem files")


def load_problem(path) -> dict:
    """The problem file's JSON object, its top-level keys checked; the
    command that reads a block checks its keys."""
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read problem file: {exc}") from exc
    _read(doc, "problem", _PROBLEM)
    return doc


def parse_uncertainty(doc: dict) -> UncertaintySet:
    n = doc["assets"]
    bound = (_numbers(n), _REQUIRED)
    # the correlation keys the asset count reads: none, a range, or hull vertices
    corr = ({} if n == 1 else {"rho_lo": (_number, _REQUIRED), "rho_hi": (_number, _REQUIRED)}
            if n == 2 else {"corr_vertices": (_numbers(None, n, n), _REQUIRED)})
    got = _read(doc["uncertainty"], "uncertainty", {
        "drift_lo": bound, "drift_hi": bound, "vol_lo": bound, "vol_hi": bound, **corr,
        "jump_bounds": (lambda obj, _: parse_jump_bounds(obj, n), None)})
    return _build("uncertainty", UncertaintySet, **got)


def parse_jump_bounds(obj: dict, n: int):
    where = "uncertainty.jump_bounds"
    got = _tagged(obj, where, "kind", {
        "compound_poisson": {"loadings": (_numbers(n, None), _REQUIRED),
                             "intensity_lo": _PER_TYPE, "intensity_hi": _PER_TYPE,
                             "mean_lo": _PER_TYPE, "mean_hi": _PER_TYPE,
                             "second_lo": _PER_TYPE, "second_hi": _PER_TYPE},
        "levy_discrete": {"atoms": (_numbers(None, n), _REQUIRED),
                          "weight_lo": _PER_TYPE, "weight_hi": _PER_TYPE},
    })
    cls = CompoundPoissonBounds if got.pop("kind") == "compound_poisson" else DiscreteLevyBounds
    return _build(where, cls, **got)


def parse_size_law(obj: dict, index: int) -> JumpSizeLaw:
    where = f"jumps.sizes[{index}]"
    got = _tagged(obj, where, "sampler", _SIZE_LAWS)
    sampler, mean, second = got["sampler"], got["mean"], got["second_moment"]
    if sampler == "uniform":
        law = _build(where, JumpSizeLaw.uniform, got["lo"], got["hi"])
    elif sampler == "shifted-lognormal":
        law = _build(where, JumpSizeLaw.shifted_lognormal, got["m"], got["s"])
    elif got["values"] is not None and got["prob"] is not None:
        law = _build(where, JumpSizeLaw.two_point, *got["values"], got["prob"])
    elif got["values"] is None and got["prob"] is None and None not in (mean, second):
        law = _build(where, JumpSizeLaw.two_point_from_moments, mean, second)
    else:
        raise SchemaError(f"{where}: a two-point law takes values and prob, "
                          "or mean and second_moment")
    _build(where, law.check_stated_moments, mean, second)
    return law


def parse_jumps(doc: dict, n: int):
    if "jumps" not in doc:
        return None
    got = _tagged(doc["jumps"], "jumps", "kind", {
        "compound_poisson": {"loadings": (_numbers(n, None), _REQUIRED), "intensity": _PER_TYPE,
                             "sizes": (_size_laws, _REQUIRED)},
        "levy_discrete": {"atoms": (_numbers(None, n), _REQUIRED), "weights": _PER_TYPE},
    })
    if got.pop("kind") == "levy_discrete":
        return _build("jumps", DiscreteLevyJumps, **got)
    return _build("jumps", CompoundPoissonJumps, got["loadings"], got["intensity"], got["sizes"])


def parse_criterion(doc: dict) -> Criterion:
    got = _read(doc["criterion"], "criterion", _CRITERION)
    return _build("criterion", Criterion, kind=got["kind"], lam=got["lambda"],
                  horizon=got["T"], t0=got["t0"], x0=got["x0"])


def parse_worst_case(doc: dict) -> tuple[str, int, int]:
    """The optional ``worst_case`` block: method, grid resolution, refinements."""
    got = _read(doc.get("worst_case", {}), "worst_case", _WORST_CASE)
    return got["method"], got["grid_resolution"], got["refinements"]


def _block(doc: dict, name: str, fields: dict) -> dict:
    """The values of the run block ``name``, which the command needs."""
    if name not in doc:
        raise SchemaError(f"problem: command needs a {name!r} block")
    return _read(doc[name], name, fields)


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


def _parse_model(doc: dict):
    """The set, criterion, fixed jumps and worst-case settings of a problem."""
    uset = parse_uncertainty(doc)
    return uset, parse_criterion(doc), parse_jumps(doc, uset.n), parse_worst_case(doc)


def _worst_case(uset: UncertaintySet, criterion: Criterion, jumps, settings):
    """The worst case the ``worst_case`` block asks for; every command uses it."""
    from .worst_case import find_worst_case, worst_case_numeric, worst_case_two_asset

    method, resolution, refinements = settings
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
    res = _worst_case(*_parse_model(doc))
    _print_worst_case(em, res)
    em.payload("worst-case", {"result": _worst_case_dict(res)})
    return EXIT_OK


def _solve_from_doc(doc: dict):
    """The set and the solution; an unsolved criterion/jump pair is refused
    before the search, since a fixed jump law is the worst case's."""
    from . import closed_form

    uset, criterion, jumps, settings = _parse_model(doc)
    closed_form.admitted(criterion.kind, jumps)
    worst = _worst_case(uset, criterion, jumps, settings)
    return uset, closed_form.solve(uset, criterion, jump=jumps, worst=worst)


def cmd_strategy(doc: dict, em: Emitter) -> int:
    _, sol = _solve_from_doc(doc)
    t0, x0 = sol.criterion.t0, sol.criterion.x0
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

    run = _block(doc, "verify", _VERIFY)
    (nt, nx), samples, seed, tol = run["grid"], run["samples"], run["seed"], run["residual_tol"]
    uset, sol = _solve_from_doc(doc)

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

    run = _block(doc, "simulate", _SIMULATE)
    spill = run.pop("spill")
    if run["antithetic"] and run["n_paths"] % 2:
        raise SchemaError("simulate.n_paths must be even when simulate.antithetic is set, "
                          f"got {run['n_paths']}")
    if spill is not None and not run["keep_paths"]:
        raise SchemaError("simulate.spill writes the kept paths: it needs simulate.keep_paths true")
    cfg = sim.SimConfig(**run)
    _, sol = _solve_from_doc(doc)
    criterion = sol.criterion
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
    if spill is not None:
        target = (em.out_dir or Path(".")) / spill
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

    run = _block(doc, "perturb", _PERTURB)
    h_list, u_samples = run["h_list"], run["u_samples"]
    base_scale = run["base_scale"]
    if base_scale is not None and run["mode"] == "worst_case":
        raise SchemaError("perturb.base_scale scales the base strategy of the equilibrium "
                          "report, which perturb.mode 'worst_case' does not run")
    cfg = sim.SimConfig(n_paths=run["n_paths"], dt=run["dt"], seed=run["seed"])
    uset, sol = _solve_from_doc(doc)
    if base_scale is not None and sol.kind == "wealth_scaled":
        raise SchemaError("perturb.base_scale scales a constant strategy; "
                          "the wealth-scaled strategy is not constant")
    base = None if base_scale is None else base_scale * sol.alpha_coef

    reports = {}
    if run["mode"] in ("both", "worst_case"):
        reports["worst_case"] = sim.perturb_worst_case(sol, uset, h_list, u_samples=u_samples,
                                                       cfg=cfg)
    if run["mode"] in ("both", "equilibrium"):
        reports["equilibrium"] = sim.perturb_equilibrium(
            sol, uset, h_list, w_samples=run["w_samples"], u_samples=u_samples, cfg=cfg,
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
