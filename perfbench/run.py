"""robust-mv benchmark: one seeded workload per run, one closed-loop client.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run sets up (fresh-interpreter import of ``robust_mv`` plus input
generation, three times, median reported as ``setup_s``), warms up with
one untimed pass over the workload's jobs, then repeats passes for
``--seconds`` seconds.  Every job checks its result; the last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` spends half the time untraced and half traced, and reports
the per-layer metrics (self time per pass from spans recorded around
every call into the library) and the tracing overhead.  Spans and the
run environment are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import Recorder, percentile, self_times, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "worst_case.s": "s",
    "worst_case.s.box2": "s",
    "worst_case.s.hull3": "s",
    "worst_case.s.jump": "s",
    "worst_case.evals": "count",
    "worst_case.evals_per_s": "1/s",
    "worst_case.skipped_ratio": "ratio",
    "worst_case.certify_s": "s",
    "closed_form.s": "s",
    "closed_form.ode_steps": "count",
    "closed_form.ode_steps_per_s": "1/s",
    "pde_check.residual_s": "s",
    "pde_check.residual_rows": "count",
    "pde_check.saddle_s": "s",
    "pde_check.saddle_samples_per_s": "1/s",
    "pde_check.saddle_violations": "count",
    "simulate.perturb_s": "s",
    "simulate.splices": "count",
    "simulate.splice_ms": "ms",
    "simulate.cold_s": "s",
    "simulate.warm_s": "s",
    "simulate.shock_draw_s": "s",
    **{f"simulate.cold_s.{f}": "s" for f in ("tw", "lr", "cp", "ws")},
    **{f"simulate.warm_s.{f}": "s" for f in ("tw", "lr", "cp", "ws")},
    "simulate.path_steps": "count",
    "simulate.estimate_s": "s",
    "cli.parse_s": "s",
    "cli.emit_s": "s",
    "cli.emit_bytes": "bytes",
    "path_steps_per_s": "1/s",
    "trace.overhead_s": "s",
}


def pin_threads() -> None:
    """Cap BLAS/OpenMP threads in this process's environment (before numpy
    loads): one closed-loop client, no oversubscription of the cores."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_library() -> None:
    """Put this checkout's ``src`` first on the path; exit 2 if it holds no
    robust_mv, so that an installed copy is never measured instead."""
    if not (SRC / "robust_mv" / "__init__.py").is_file():
        print(f"benchmark: no robust_mv package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    import robust_mv

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "robust_mv": robust_mv.__version__,
        "git_commit": git_commit(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def setup_only(workload: str, seed: int) -> None:
    """What one set-up does: import, generate inputs, parse every problem."""
    import_library()
    import workloads
    from robust_mv import cli

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        jobs = workloads.generate(workload, seed, Path(tmp), ROOT / "demos" / "problems")
        for name in sorted({j.problem for j in jobs}):
            doc = cli.load_problem(Path(tmp) / name)
            uset = cli.parse_uncertainty(doc)
            cli.parse_criterion(doc)
            cli.parse_jumps(doc, uset.n)


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of set-ups, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-only",
                        "--workload", workload, "--seed", str(seed)],
                       cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Runner:
    """Closed loop over a workload's jobs, one job at a time."""

    def __init__(self, run_job, jobs, input_dir: Path) -> None:
        self.run_job = run_job
        self.jobs = jobs
        self.input_dir = input_dir
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}  # job name -> first traceback

    def one_pass(self, tr, first_job_id: int) -> tuple[float, list[float], float]:
        """Run every job once; returns the pass wall time, the per-job
        latencies and the time spent in calls only the traced run makes."""
        latencies = []
        first_span = len(tr.spans)
        t_pass = time.perf_counter()
        for k, job in enumerate(self.jobs):
            tr.job = first_job_id + k
            t0 = time.perf_counter()
            try:
                with tr.span("job", job_name=job.name):
                    self.run_job(tr, job, self.input_dir)
            except Exception:  # a failing job is counted and reported, the run goes on
                self.failed += 1
                self.failures.setdefault(job.name, traceback.format_exc(limit=3))
            latencies.append(time.perf_counter() - t0)
            self.attempted += 1
        wall = time.perf_counter() - t_pass
        probe = sum(sp.end - sp.start for sp in tr.spans[first_span:]
                    if sp.attrs.get("traced_only"))
        return wall, latencies, probe

    def loop(self, tr, seconds: float) -> dict:
        walls, lats, probes = [], [], []
        deadline = time.perf_counter() + seconds
        while True:
            wall, lat, probe = self.one_pass(tr, len(walls) * len(self.jobs))
            walls.append(wall)
            lats.extend(lat)
            probes.append(probe)
            if time.perf_counter() >= deadline:
                break
        return {"walls": walls, "latencies": lats, "probes": probes}


def layer_metrics(spans, n_passes: int, jobs_per_pass: int) -> dict:
    """Per-layer figures per pass (median over the traced passes)."""
    selfs = self_times(spans)
    per_pass = [dict.fromkeys(PER_LAYER, 0.0) for _ in range(n_passes)]
    for sp, st in zip(spans, selfs):
        if sp.job is None:
            continue
        m = per_pass[sp.job // jobs_per_pass]
        a = sp.attrs
        name = sp.name
        if name.startswith("worst_case."):
            m["worst_case.s"] += st
            if a.get("evals"):
                m["worst_case.evals"] += a["evals"]
                m["_skipped"] = m.get("_skipped", 0) + a.get("skipped", 0)
                m["_evals_s"] = m.get("_evals_s", 0.0) + st
            if name == "worst_case.search":
                m[f"worst_case.s.{a['cls']}"] += st
            else:
                m["worst_case.certify_s"] += st
        elif name == "closed_form.solve":
            m["closed_form.s"] += st
            if a.get("ode_steps"):
                m["closed_form.ode_steps"] += a["ode_steps"]
                m["_ode_s"] = m.get("_ode_s", 0.0) + st
        elif name == "pde_check.residual":
            m["pde_check.residual_s"] += st
            m["pde_check.residual_rows"] += a["rows"]
        elif name == "pde_check.saddle":
            m["pde_check.saddle_s"] += st
            m["pde_check.saddle_violations"] += a["violations"]
            m["_saddle_samples"] = m.get("_saddle_samples", 0) + a["samples"]
        elif name == "simulate.perturb":
            m["simulate.perturb_s"] += st
            m["simulate.splices"] += a["splices"]
            m["simulate.path_steps"] += a["path_steps"]
        elif name == "simulate.cold":
            m["simulate.cold_s"] += st
            m[f"simulate.cold_s.{a['family']}"] += st
            m["simulate.path_steps"] += a["path_steps"]
        elif name == "simulate.warm":
            m["simulate.warm_s"] += st
            m[f"simulate.warm_s.{a['family']}"] += st
        elif name == "simulate.estimate":
            m["simulate.estimate_s"] += st
        elif name == "cli.parse":
            m["cli.parse_s"] += st
        elif name == "cli.emit":
            m["cli.emit_s"] += st
            m["cli.emit_bytes"] += a["bytes"]
    for m in per_pass:
        evals = m["worst_case.evals"]
        m["worst_case.skipped_ratio"] = m.pop("_skipped", 0) / evals if evals else 0.0
        m["worst_case.evals_per_s"] = evals / m.pop("_evals_s") if evals else 0.0
        ode_s = m.pop("_ode_s", 0.0)
        m["closed_form.ode_steps_per_s"] = m["closed_form.ode_steps"] / ode_s if ode_s else 0.0
        samples = m.pop("_saddle_samples", 0)
        sad_s = m["pde_check.saddle_s"]
        m["pde_check.saddle_samples_per_s"] = samples / sad_s if sad_s else 0.0
        splices = m["simulate.splices"]
        m["simulate.splice_ms"] = 1e3 * m["simulate.perturb_s"] / splices if splices else 0.0
        m["simulate.shock_draw_s"] = m["simulate.cold_s"] - m["simulate.warm_s"]
    return {k: statistics.median(m[k] for m in per_pass) for k in PER_LAYER
            if k not in ("path_steps_per_s", "trace.overhead_s")}


def end_to_end(run: dict) -> dict:
    pct, value = tail(run["latencies"])
    return {
        "wall_s": statistics.median(run["walls"]),
        "job_p50_s": percentile(run["latencies"], 50.0),
        "job_tail_s": value,
        "tail_pct": pct,
        "samples": len(run["latencies"]),
        "passes": len(run["walls"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_threads()
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    if not (ROOT / "demos" / "problems").is_dir():
        print("benchmark: demos/problems missing from the checkout", file=sys.stderr)
        return 2

    setup_s = measure_setup(args.workload, args.seed)
    run_dir = OUT / f"{args.workload}-seed{args.seed}"
    jobs = workloads.generate(args.workload, args.seed, run_dir / "inputs",
                              ROOT / "demos" / "problems")
    runner = Runner(workloads.run_job, jobs, run_dir / "inputs")
    runner.one_pass(Recorder(False), 0)  # warm-up, untimed and not counted
    runner.attempted = runner.failed = 0

    if args.trace:
        untraced = runner.loop(Recorder(False), args.seconds / 2)
        tr = Recorder(True)
        traced = runner.loop(tr, args.seconds / 2)
    else:
        untraced = runner.loop(Recorder(False), args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    e2e = end_to_end(untraced)
    e2e.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)
    env = environment(args.seed)
    failed = runner.failed
    for name, trace in runner.failures.items():
        print(f"FAILED {name}: {trace}", file=sys.stderr)

    print(f"workload  {args.workload}: {workloads.WHY[args.workload]}")
    print(f"env       {json.dumps(env, sort_keys=True)}")
    print(f"passes    {e2e['passes']}, {len(jobs)} jobs each, closed loop, one client")
    for key, unit in END_TO_END.items():
        note = f"  (p{e2e['tail_pct']:g} of {e2e['samples']} samples)" if key == "job_tail_s" else ""
        print(f"{key:<14} {e2e[key]:.6g} {unit}{note}")
    print(f"{'fail_ratio':<14} {failed / max(runner.attempted, 1):.6g} ratio"
          f"  ({failed} of {runner.attempted} jobs)")

    result = {"env": env, "workload": args.workload, "why": workloads.WHY[args.workload],
              "end_to_end": e2e, "failures": runner.failures,
              "pass_walls": untraced["walls"], "job_latencies": untraced["latencies"]}
    if args.trace:
        layers = layer_metrics(tr.spans, len(traced["walls"]), len(jobs))
        traced_wall = statistics.median(w - p for w, p in zip(traced["walls"], traced["probes"]))
        layers["trace.overhead_s"] = traced_wall - e2e["wall_s"]
        layers["path_steps_per_s"] = layers["simulate.path_steps"] / e2e["wall_s"]
        print(f"traced    {len(traced['walls'])} passes; wall_s traced {traced_wall:.6g} s, "
              f"untraced {e2e['wall_s']:.6g} s, overhead {layers['trace.overhead_s']:+.6g} s")
        for key, unit in PER_LAYER.items():
            print(f"  {key:<30} {layers[key]:.6g} {unit}")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
        result["per_layer"] = layers
        result["spans"] = [sp.to_json_dict() for sp in tr.spans]
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}

    (run_dir / f"result-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
