"""Command-line surface: strict schema, exit codes, artifacts, determinism."""

import json
import subprocess
import sys

import pytest

from robust_mv.cli import main


def write_problem(tmp_path, name="problem.json", **overrides):
    doc = {
        "version": "1",
        "assets": 2,
        "uncertainty": {
            "drift_lo": [0.10, 0.02], "drift_hi": [0.12, 0.03],
            "vol_lo": [0.15, 0.2], "vol_hi": [0.2, 0.3],
            "rho_lo": 0.4, "rho_hi": 0.6,
        },
        "criterion": {"kind": "terminal_wealth", "lambda": 1.0, "T": 1.0,
                      "t0": 0.0, "x0": 1.0},
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run_cli(args):
    """Invoke main() in-process, capturing stdout."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([str(a) for a in args])
    return code, buf.getvalue()


class TestWorstCaseCommand:
    def test_short_second_table(self, tmp_path):
        path = write_problem(tmp_path, worst_case={"method": "closed"})
        code, out = run_cli(["worst-case", path])
        assert code == 0
        assert "ShortSecond" in out
        assert "0.4" in out

    def test_singleton_is_degenerate(self, tmp_path):
        path = write_problem(
            tmp_path,
            uncertainty={
                "drift_lo": [0.10, 0.02], "drift_hi": [0.10, 0.02],
                "vol_lo": [0.2, 0.25], "vol_hi": [0.2, 0.25],
                "rho_lo": 0.3, "rho_hi": 0.3,
            },
        )
        code, out = run_cli(["worst-case", path])
        assert code == 0
        assert "Degenerate" in out

    def test_ordering_violation_exits_3_naming_the_inequality(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            uncertainty={
                "drift_lo": [0.10, 0.02], "drift_hi": [0.12, 0.03],
                "vol_lo": [0.25, 0.2], "vol_hi": [0.3, 0.3],
                "rho_lo": 0.4, "rho_hi": 0.6,
            },
            worst_case={"method": "closed"},
        )
        code, _ = run_cli(["worst-case", path])
        assert code == 3
        err = capsys.readouterr().err
        assert "vol_lo[1] >= vol_lo[0]" in err

    def test_convex_result_reports_its_gap(self, tmp_path):
        path = write_problem(tmp_path, worst_case={"method": "numeric"})
        code, out = run_cli(["worst-case", path])
        assert code == 0 and "certified gap" in out
        doc = json.loads(run_cli(["worst-case", path, "--json", "--quiet"])[1])
        res = doc["result"]
        assert res["case"] == "Numeric" and res["evaluations"] > 0 and res["skipped"] == 0
        assert 0.0 <= res["gap"] <= 1e-10 * (1.0 + res["risk_premium"])

    def test_json_output_round_trips(self, tmp_path):
        path = write_problem(tmp_path)
        code, out = run_cli(["worst-case", path, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "worst-case"
        assert doc["result"]["case"] == "ShortSecond"
        json.dumps(doc)


class TestSchema:
    def test_unknown_top_level_key(self, tmp_path):
        path = write_problem(tmp_path, extra_block={"x": 1})
        assert run_cli(["worst-case", path])[0] == 2

    def test_wrong_version(self, tmp_path):
        path = write_problem(tmp_path, version="2")
        assert run_cli(["worst-case", path])[0] == 2

    def test_missing_seed_in_randomized_command(self, tmp_path):
        path = write_problem(tmp_path, verify={"grid": [4, 4], "samples": 10})
        assert run_cli(["verify", path])[0] == 2

    def test_unknown_uncertainty_key(self, tmp_path):
        path = write_problem(
            tmp_path,
            uncertainty={
                "drift_lo": [0.1, 0.02], "drift_hi": [0.12, 0.03],
                "vol_lo": [0.15, 0.2], "vol_hi": [0.2, 0.3],
                "rho_lo": 0.4, "rho_hi": 0.6, "rogue": 1,
            },
        )
        assert run_cli(["worst-case", path])[0] == 2

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_token_is_schema_error(self, tmp_path, token):
        path = write_problem(tmp_path)
        path.write_text(path.read_text().replace('"rho_hi": 0.6', f'"rho_hi": {token}'))
        assert token in path.read_text()
        assert run_cli(["worst-case", path])[0] == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli(["worst-case", path])[0] == 2

    @pytest.mark.parametrize("key, value", [
        ("refinements", -1),
        ("grid_resolution", "x"),
        ("grid_resolution", 1),
        ("refinements", 0.5),
    ])
    def test_bad_grid_setting_is_schema_error(self, tmp_path, capsys, key, value):
        path = write_problem(tmp_path, worst_case={"method": "numeric", key: value})
        assert run_cli(["worst-case", path])[0] == 2
        assert f"worst_case.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["worst-case", "strategy", "verify", "simulate", "perturb"])
@pytest.mark.parametrize("block", [{"method": "bogus"}, {"grid_resolution": 1}, {"rogue": 1}])
def test_every_command_validates_the_worst_case_block(tmp_path, capsys, command, block):
    path = write_problem(
        tmp_path, worst_case=block,
        verify={"grid": [4, 4], "samples": 10, "seed": 5},
        simulate={"n_paths": 200, "dt": 0.1, "seed": 9},
        perturb={"h_list": [0.1], "w_samples": 2, "u_samples": 2,
                 "n_paths": 200, "dt": 0.1, "seed": 9},
    )
    assert run_cli([command, path])[0] == 2
    assert "worst_case" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["strategy", "verify"])
def test_every_command_uses_the_requested_solver(tmp_path, command):
    path = write_problem(tmp_path, worst_case={"method": "numeric"},
                         verify={"grid": [4, 4], "samples": 10, "seed": 5})
    code, out = run_cli([command, path])
    assert code == 0
    assert "Numeric" in out and "ShortSecond" not in out


_BLOCKS = {
    "verify": {"grid": [4, 4], "samples": 10, "seed": 5},
    "simulate": {"n_paths": 200, "dt": 0.1, "seed": 9, "antithetic": True},
    "perturb": {"h_list": [0.1], "w_samples": 2, "u_samples": 2,
                "n_paths": 200, "dt": 0.1, "seed": 9},
}


@pytest.mark.parametrize("command, key, value", [
    ("simulate", "n_paths", "x"),
    ("simulate", "n_paths", 1000.7),
    ("simulate", "seed", "abc"),
    ("simulate", "seed", 1.9),
    ("simulate", "seed", -1),
    ("simulate", "dt", 0),
    ("simulate", "dt", -0.1),
    ("simulate", "dt", "0.1"),
    ("simulate", "antithetic", "false"),
    ("verify", "grid", [10]),
    ("verify", "grid", [10, 0]),
    ("verify", "grid", [10, 2.5]),
    ("verify", "samples", -3),
    ("verify", "samples", 0),
    ("verify", "seed", 2**64),
    ("verify", "residual_tol", -1e-8),
    ("perturb", "mode", "bogus"),
    ("perturb", "h_list", []),
    ("perturb", "h_list", 0.1),
    ("perturb", "h_list", [0.1, "x"]),
    ("perturb", "h_list", [True]),
    ("perturb", "u_samples", 0),
    ("perturb", "w_samples", 1.5),
    ("perturb", "n_paths", "x"),
    ("perturb", "seed", 2**64),
    ("perturb", "base_scale", "x"),
    ("simulate", "n_paths", 1),
    ("perturb", "n_paths", 1),
    ("simulate", "n_paths", 1001),  # odd, with antithetic set
])
def test_bad_run_block_is_schema_error(tmp_path, capsys, command, key, value):
    path = write_problem(tmp_path, **{command: {**_BLOCKS[command], key: value}})
    assert run_cli([command, path])[0] == 2
    assert f"{command}.{key}" in capsys.readouterr().err


_UNCERTAINTY = {"drift_lo": [0.10, 0.02], "drift_hi": [0.12, 0.03],
                "vol_lo": [0.15, 0.2], "vol_hi": [0.2, 0.3], "rho_lo": 0.4, "rho_hi": 0.6}
_CRITERION = {"kind": "terminal_wealth", "lambda": 1.0, "T": 1.0, "t0": 0.0, "x0": 1.0}
_CP = {"kind": "compound_poisson", "loadings": [[1.0], [0.0]], "intensity": [0.5],
       "sizes": [{"sampler": "two-point", "mean": 0.1, "second_moment": 0.02}]}
_LEVY_BOUNDS = {"kind": "levy_discrete", "atoms": [[-0.05, 0.0], [0.08, 0.02]],
                "weight_lo": [0.2, 0.1], "weight_hi": [0.5, 0.4]}


@pytest.mark.parametrize("block, patch", [
    ("uncertainty", {"rho_lo": "abc"}),
    ("uncertainty", {"rho_lo": "0.3"}),
    ("uncertainty", {"rho_hi": None}),
    ("uncertainty", {"drift_lo": ["a", 0.1]}),
    ("uncertainty", {"vol_hi": [0.2, True]}),
    ("uncertainty", {"vol_lo": [[0.15], [0.2]]}),
    ("uncertainty", {"jump_bounds": {**_LEVY_BOUNDS, "weight_hi": [0.5, "0.4"]}}),
    ("uncertainty", {"jump_bounds": {**_LEVY_BOUNDS, "atoms": [[-0.05, 0.0], [0.08]]}}),
    ("uncertainty", {"jump_bounds": {**_LEVY_BOUNDS, "atoms": [-0.05, 0.0]}}),
    ("criterion", {"lambda": "abc"}),
    ("criterion", {"lambda": True}),
    ("criterion", {"T": "2"}),
    ("criterion", {"x0": None}),
    ("jumps", {"intensity": [True]}),
    ("jumps", {"loadings": [[1.0, 0.0]]}),
    ("jumps", {"sizes": [{"sampler": "two-point", "values": [0.1], "prob": 0.5}]}),
    ("jumps", {"sizes": [{"sampler": "two-point", "values": [0.1, 0.2, 0.3], "prob": 0.5}]}),
    ("jumps", {"sizes": [{"sampler": "uniform", "lo": "0", "hi": 0.2}]}),
    ("jumps", {"sizes": [{"sampler": "two-point", "mean": 0.1, "second_moment": [0.02]}]}),
], ids=lambda v: json.dumps(v) if isinstance(v, dict) else v)
def test_non_numeric_model_input_is_schema_error(tmp_path, capsys, block, patch):
    base = {"uncertainty": _UNCERTAINTY, "criterion": _CRITERION, "jumps": _CP}[block]
    path = write_problem(tmp_path, **{block: {**base, **patch}})
    assert run_cli(["worst-case", path])[0] == 2
    assert "schema error" in capsys.readouterr().err


class TestStrategyCommand:
    def test_single_asset_point(self, tmp_path):
        path = write_problem(
            tmp_path,
            assets=1,
            uncertainty={"drift_lo": [0.08], "drift_hi": [0.08],
                         "vol_lo": [0.2], "vol_hi": [0.2]},
        )
        code, out = run_cli(["strategy", path, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["alpha_hat"] == [pytest.approx(1.0)]
        assert doc["result"]["premium"] == pytest.approx(0.16)

    def test_budget_exceeded_exits_4(self, tmp_path):
        eye = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
        path = write_problem(
            tmp_path,
            assets=4,
            uncertainty={
                "drift_lo": [0.01] * 4, "drift_hi": [0.1] * 4,
                "vol_lo": [0.1] * 4, "vol_hi": [0.3] * 4,
                "corr_vertices": [eye] * 9,
                # jump ambiguity keeps the grid: 17 free coordinates
                "jump_bounds": {"kind": "levy_discrete", "atoms": [[-0.05, 0.0, 0.0, 0.0]],
                                "weight_lo": [0.1], "weight_hi": [0.3]},
            },
            worst_case={"method": "numeric"},
        )
        assert run_cli(["worst-case", path])[0] == 4

    def test_jump_problem_prints_exposures(self, tmp_path):
        path = write_problem(
            tmp_path,
            uncertainty={
                "drift_lo": [0.10, 0.02], "drift_hi": [0.12, 0.03],
                "vol_lo": [0.2, 0.2], "vol_hi": [0.2, 0.3],
                "rho_lo": 0.4, "rho_hi": 0.6,
            },
            criterion={"kind": "terminal_wealth", "lambda": 2.0, "T": 1.0},
            jumps={
                "kind": "compound_poisson",
                "loadings": [[1.0], [0.0]],
                "intensity": [0.5],
                "sizes": [{"sampler": "two-point", "mean": 0.1, "second_moment": 0.02}],
            },
        )
        code, out = run_cli(["strategy", path])
        assert code == 0
        assert "jump exposures" in out

    def test_wealth_scaled_table_ends_at_unit_factors(self, tmp_path):
        path = write_problem(
            tmp_path,
            assets=1,
            uncertainty={"drift_lo": [0.1], "drift_hi": [0.12],
                         "vol_lo": [0.2], "vol_hi": [0.25]},
            criterion={"kind": "wealth_scaled", "lambda": 1.0, "T": 1.0, "x0": 1.0},
            jumps={"kind": "levy_discrete", "atoms": [[-0.05], [0.08]],
                   "weights": [0.4, 0.3]},
        )
        code, out = run_cli(["strategy", path])
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip().startswith("1.0000")]
        assert lines, out
        assert "1.0000000000  1.0000000000" in lines[-1]

    def test_stated_moment_mismatch_is_schema_error(self, tmp_path):
        path = write_problem(
            tmp_path,
            jumps={
                "kind": "compound_poisson",
                "loadings": [[1.0], [0.0]],
                "intensity": [0.5],
                "sizes": [{"sampler": "uniform", "lo": 0.0, "hi": 0.2,
                           "mean": 0.1, "second_moment": 0.05}],
            },
        )
        assert run_cli(["strategy", path])[0] == 2


def test_import_loads_no_scipy(tmp_path):
    # every scipy import sits in the function that needs it, and importing
    # the package, listing its names and parsing a problem file load none
    # of the solvers
    path = write_problem(tmp_path, worst_case={"method": "numeric"},
                         jumps={"kind": "levy_discrete", "atoms": [[-0.05, 0.0], [0.08, 0.02]],
                                "weights": [0.4, 0.3]})
    code = ("import sys, robust_mv, robust_mv.cli as cli; "
            "assert {'find_worst_case', 'simulate_paths', 'Scenario'} <= set(dir(robust_mv)); "
            "assert {'solve', 'ShockCache', 'InvalidBounds'} <= set(robust_mv.__all__); "
            f"doc = cli.load_problem({str(path)!r}); uset = cli.parse_uncertainty(doc); "
            "cli.parse_criterion(doc); cli.parse_jumps(doc, uset.n); cli.parse_worst_case(doc); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m in "
            "('robust_mv.simulate', 'robust_mv.worst_case', 'robust_mv.closed_form', "
            "'robust_mv.pde_check')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
    # the lazy names still resolve, the solver modules among them
    code = ("import robust_mv as rm; "
            "print(rm.worst_case.SHORT_SECOND, rm.ShockCache.__module__, rm.RNG_LAYOUT)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["ShortSecond", "robust_mv.simulate", "4"]


class TestVerifySimulatePerturb:
    def test_verify_passes_and_writes_csv(self, tmp_path):
        path = write_problem(tmp_path, verify={"grid": [6, 6], "samples": 200, "seed": 5})
        out_dir = tmp_path / "artifacts"
        code, out = run_cli(["verify", path, "--out", out_dir])
        assert code == 0
        assert "PASS" in out
        header = (out_dir / "residuals.csv").read_text().splitlines()[0]
        assert header == "t,x,eq_id,residual"
        report = json.loads((out_dir / "verify.json").read_text())
        assert report["result"]["ok"] is True

    def test_simulate_consistency(self, tmp_path):
        path = write_problem(tmp_path,
                             simulate={"n_paths": 20000, "dt": 0.002, "seed": 9})
        code, out = run_cli(["simulate", path])
        assert code == 0
        assert out.count("PASS") == 2

    def test_simulate_deterministic_across_runs(self, tmp_path):
        path = write_problem(tmp_path,
                             simulate={"n_paths": 5000, "dt": 0.01, "seed": 9})
        out1 = run_cli(["simulate", path, "--json"])[1]
        out2 = run_cli(["simulate", path, "--json"])[1]
        assert out1 == out2

    def test_payloads_carry_rng_layout(self, tmp_path):
        path = write_problem(
            tmp_path,
            simulate={"n_paths": 200, "dt": 0.1, "seed": 9},
            perturb={"h_list": [0.1], "w_samples": 2, "u_samples": 2,
                     "n_paths": 200, "dt": 0.1, "seed": 9},
        )
        for command in ("simulate", "perturb"):
            _, out = run_cli([command, path, "--json", "--quiet"])
            assert json.loads(out)["result"]["rng_layout"] == 4

    def test_simulate_counts_jump_events(self, tmp_path):
        # the events the run applied: none without jumps, about
        # paths x intensity x T with them
        sim = {"n_paths": 2000, "dt": 0.05, "seed": 9}
        counts = {}
        for name, extra in (("plain.json", {}),
                            ("jumps.json", {"jumps": {
                                "kind": "compound_poisson", "loadings": [[1.0], [0.0]],
                                "intensity": [0.5],
                                "sizes": [{"sampler": "uniform", "lo": -0.1, "hi": 0.2}]},
                                "worst_case": {"method": "numeric"},
                                # lambda 3 keeps the exposure alpha.J in [0, 1]
                                "criterion": {"kind": "terminal_wealth", "lambda": 3.0, "T": 1.0}})):
            path = write_problem(tmp_path, name, simulate=sim, **extra)
            _, out = run_cli(["simulate", path, "--json"])
            counts[name] = json.loads(out)["result"]["jump_events"]
        assert counts["plain.json"] == 0
        assert abs(counts["jumps.json"] - 1000) <= 5 * 1000**0.5

    def test_perturb_pass_and_probe_fail(self, tmp_path):
        base = write_problem(
            tmp_path, "ok.json",
            perturb={"h_list": [0.05], "w_samples": 3, "u_samples": 3,
                     "n_paths": 4000, "dt": 0.0125, "seed": 11},
        )
        code, out = run_cli(["perturb", base])
        assert code == 0, out
        probe = write_problem(
            tmp_path, "probe.json",
            perturb={"h_list": [0.025], "w_samples": 3, "u_samples": 3,
                     "n_paths": 50000, "dt": 0.0125, "seed": 3,
                     "mode": "equilibrium", "base_scale": 2.0},
        )
        code, out = run_cli(["perturb", probe])
        assert code == 1
        assert "VIOLATION" in out

    def test_perturb_base_scale_rejected_for_wealth_scaled(self, tmp_path):
        path = write_problem(
            tmp_path,
            assets=1,
            uncertainty={"drift_lo": [0.1], "drift_hi": [0.12],
                         "vol_lo": [0.2], "vol_hi": [0.25]},
            criterion={"kind": "wealth_scaled", "lambda": 1.0, "T": 1.0, "x0": 1.0},
            perturb={"h_list": [0.1], "w_samples": 2, "u_samples": 2,
                     "n_paths": 200, "dt": 0.1, "seed": 3, "base_scale": 2.0},
        )
        assert run_cli(["perturb", path])[0] == 2

    def test_entry_point_runs_as_subprocess(self, tmp_path):
        path = write_problem(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "robust_mv.cli", "worst-case", str(path), "--quiet"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
