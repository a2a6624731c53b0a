import csv
import dataclasses
import json
import weakref

import numpy as np
import pytest

import degenpde.cli as cli
from degenpde import CoefficientModel, SpaceTimeGrid
from degenpde.cli import DEFAULT_CONFIG, PRESETS, _carleman_profile, build_model, main, verdict
from degenpde.control import synthesize_null_control
from degenpde.inequalities import carleman_identity_check, manufactured_adjoint_pair

LEAVES = [f"{section}.{leaf}" for section, leaves in DEFAULT_CONFIG.items()
          for leaf in leaves]
TINY = ["--set", "grid.N=20", "--set", "grid.M=40",
        "--set", "observability.n_modes=2", "--set", "observability.n_random=2",
        "--set", "observability.n_power=2"]


def run(tmp_path, *argv):
    out = tmp_path / "reports"
    return main([*argv, "--out", str(out)]), out


class TestConfigHandling:
    def test_defaults_complete(self):
        for section in ("coefficient", "grid", "weight", "potential", "control",
                        "hp", "identity", "scan", "caccioppoli", "observability",
                        "null_control", "run"):
            assert section in DEFAULT_CONFIG

    def test_presets_cover_grid(self):
        assert len(PRESETS) == 6

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        code, _ = run(tmp_path, "check-coeff", "--set", "nosuch.key=1")
        assert code == 1
        assert "nosuch.key" in capsys.readouterr().err

    def test_missing_x0_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"coefficient": {"x0": None}}))
        code, _ = run(tmp_path, "check-coeff", "--config", str(cfg))
        assert code == 1
        assert "coefficient.x0" in capsys.readouterr().err

    def test_alpha_out_of_range_exits_1(self, tmp_path, capsys):
        code, _ = run(tmp_path, "check-coeff", "--set", "coefficient.alpha=2.5")
        assert code == 1
        assert "coefficient.alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["-0.1", "2"])
    def test_alpha_outside_0_2_exits_1(self, tmp_path, capsys, alpha):
        # alpha 0 is admitted, as the constant coefficient; 2 is not
        code, _ = run(tmp_path, "check-coeff", "--set", f"coefficient.alpha={alpha}")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: coefficient.alpha: ")

    def test_alpha_0_is_the_constant_coefficient(self):
        c = {**DEFAULT_CONFIG["coefficient"], "alpha": 0}
        model = build_model({"coefficient": c})
        assert model == CoefficientModel.constant(1.0, c["x0"])
        x = np.linspace(0.0, 1.0, 11)
        assert np.array_equal(model.eval_a(x), np.ones_like(x))

    def test_bad_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_x0_without_grid_node_exits_1(self, tmp_path, capsys):
        code, _ = run(tmp_path, "check-coeff", "--set", "coefficient.x0=0.3141592653589793")
        assert code == 1
        assert "coefficient.x0" in capsys.readouterr().err

    def test_snapped_grid_is_warned(self, tmp_path, capsys):
        code, out = run(tmp_path, "check-coeff")
        assert code == 0
        on_node = capsys.readouterr()
        assert on_node.err == ""
        assert json.loads((out / "summary.json").read_text())["grid_sizes"] == {
            "grid.N": {"requested": 200, "snapped": 200},
            "hp.N": {"requested": 1000, "snapped": 1000}}
        code, out = run(tmp_path, "check-coeff", "--set", "coefficient.x0=0.123")
        assert code == 0
        snapped = capsys.readouterr()
        assert len(snapped.err.splitlines()) == 1
        assert "grid.N=200" in snapped.err and "N=1000" in snapped.err
        assert snapped.out == on_node.out
        assert json.loads((out / "summary.json").read_text())["grid_sizes"] == {
            "grid.N": {"requested": 200, "snapped": 1000},
            "hp.N": {"requested": 1000, "snapped": 1000}}

    def test_unread_huge_grid_size_is_not_built(self, tmp_path):
        # check-coeff reads no hp grid: hp.N is snapped without building one, which
        # at 1e12 nodes would end in a MemoryError traceback
        code, out = run(tmp_path, "check-coeff", "--set", "hp.N=1e12")
        assert code == 0
        sizes = json.loads((out / "summary.json").read_text())["grid_sizes"]
        assert sizes["hp.N"] == {"requested": 10 ** 12, "snapped": 10 ** 12}

    @pytest.mark.parametrize("task, key, value", [
        # lists and counts that would let a verdict pass without checking anything
        ("carleman-identity", "identity.s_values", "[]"),
        ("caccioppoli", "caccioppoli.s_values", "[]"),
        ("hp", "hp.battery_size", "0"),
        ("hp", "hp.battery_size", "-3"),
        ("carleman-scan", "scan.n_s", "2"),
        # (a w_x)_x extrapolates from four nodes: an IndexError traceback at N = 2
        ("carleman-identity --set coefficient.x0=0.5", "grid.N", "2"),
        ("carleman-scan --set coefficient.x0=0.5", "grid.N", "2"),
        # inputs that raised a traceback
        ("carleman-scan", "scan.T", "0"),
        ("caccioppoli", "caccioppoli.T", "-1"),
        ("observability", "observability.T", "0"),
        ("null-control", "null_control.T", "-0.5"),
        ("carleman-scan", "scan.n_s", "0"),
        ("carleman-scan", "scan.s_ratio", "-1"),
        # a falling s grid: the tail verdict read its ratios in the scan's order
        ("carleman-scan", "scan.s_ratio", "0.5"),
        ("observability", "observability.n_modes", "0"),
        ("carleman-identity", "identity.s_values", "3"),
        ("hp", "hp.q", "NaN"),
        # inputs whose error named another key
        ("carleman-identity", "weight.c1", "0"),
        ("carleman-scan", "scan.s_start", "-1"),
        ("null-control", "null_control.tol", "0"),
        # a deleted key, now unknown: the gates are constants, and alpha 0 is the constant
        ("carleman-identity", "weight.c2_margin", "x"),
        ("hp", "hp.stability_tol", "1"),
        ("carleman-identity", "identity.residual_tol", "1"),
        ("carleman-identity", "identity.refine_factor_min", "0"),
        ("carleman-scan", "scan.window_tol", "1"),
        ("carleman-scan", "scan.stability_tol", "1"),
        ("caccioppoli", "caccioppoli.stability_tol", "1"),
        ("observability", "observability.stability_tol", "1"),
        ("check-coeff", "coefficient.kind", "constant"),
        ("check-coeff", "coefficient.constant_value", "1.0"),
        # counts: a TypeError traceback, another key named, or truncated
        ("observability", "observability.n_random", "-1"),
        ("observability", "observability.n_power", "1.5"),
        ("null-control", "null_control.max_iters", "x"),
        # a constant potential: not finite, not a number, or breaking CN diagonal
        # dominance (c <= -2/dt); another key named, a traceback, or silently accepted
        ("null-control", "potential.value", "-1e6"),
        ("observability", "potential.value", "-1e6"),
        ("caccioppoli", "potential.value", "-1e6"),
        ("null-control", "potential.value", "NaN"),
        ("observability", "potential.value", "Infinity"),
        ("carleman-scan", "potential.value", "x"),
        # a TypeError or NumPy traceback, or the error blamed on the section
        ("check-coeff", "coefficient.theta", "x"),
        ("check-coeff", "coefficient.theta", "2"),
        ("check-coeff", "coefficient.theta", "NaN"),
        ("carleman-identity", "weight.c2", "abc"),
        ("carleman-identity", "weight.c2", "Infinity"),
        # enumerated keys, checked before any task runs, and a deleted one
        ("carleman-scan", "potential.kind", "bogus"),
        ("hp", "hp.weight", "bogus"),
        # infinite values: a NumPy warning and the error blamed on potential.value,
        # or a list entry that passes a verdict
        ("null-control", "control.epsilon", "Infinity"),
        ("observability", "observability.T", "Infinity"),
        # a time step of 0 (a ZeroDivisionError traceback) or one whose reciprocal
        # is infinite (a solver traceback) on the fine level, 2 grid.M steps
        ("carleman-identity", "grid.T", "5e-324"),
        ("check-coeff", "grid.T", "1e-310"),
        ("carleman-scan", "scan.T", "1e-310"),
        ("caccioppoli", "caccioppoli.T", "5e-324"),
        ("observability", "observability.T", "5e-324"),
        ("observability", "observability.T", "1e-310"),
        ("null-control", "null_control.T", "1e-310"),
        ("carleman-identity", "identity.s_values", "[Infinity]"),
        # a T whose largest Carleman time factor (s c1 Theta)^3, or (s Theta)^3 in
        # the scan, overflows at the first interior time: an overflow traceback
        ("carleman-identity", "grid.T", "1e-12"),
        ("carleman-scan", "scan.T", "1e-12"),
        ("carleman-identity", "grid.T", "1e-200"),
        ("carleman-scan", "scan.T", "1e-200"),
        # with s c1 < 1 Theta^3 is the factor that overflows first
        ("carleman-identity --set identity.s_values=[0.01]", "grid.T", "1e-12"),
        # at the default T an s or c1 whose own cube, or whose (k Theta)^3, overflows:
        # an OverflowError traceback from s ** 3 at k = 1, or T named
        ("carleman-identity --set weight.c1=1e-150", "identity.s_values", "[1e150]"),
        ("carleman-identity --set identity.s_values=[1e-150]", "weight.c1", "1e150"),
        ("carleman-identity", "identity.s_values", "[1e100]"),
        ("carleman-identity", "weight.c1", "1e100"),
        ("carleman-scan", "scan.s_ratio", "1e80"),
        # an integer beyond the floating-point range: an OverflowError traceback
        pytest.param("hp", "hp.N", "1" + "0" * 400, id="hp-hp.N-10**400"),
        # an in-range size too large to allocate: a MemoryError traceback (10^12
        # nodes fail at the first allocation, before any memory is touched)
        ("check-coeff", "grid.N", "1e12"),
        ("hp", "hp.N", "1e12"),
        ("all", "grid.N", "1e12"),
        # the seed: another key named, a traceback, or silently truncated
        ("hp", "run.seed", "-1"),
        ("hp", "run.seed", "1.5"),
        ("hp", "run.seed", "foo"),
        # a TypeError traceback
        ("caccioppoli", "caccioppoli.omega_prime_lo", "x"),
    ])
    def test_bad_value_exits_1_naming_key(self, tmp_path, capsys, task, key, value):
        code, _ = run(tmp_path, *task.split(), *TINY, "--set", f"{key}={value}")
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: ")

    @pytest.mark.parametrize("task, key, expected", [("carleman-identity", "grid.T", 0),
                                                     ("carleman-scan", "scan.T", 2)])
    def test_small_T_above_the_overflow_edge_runs(self, tmp_path, task, key, expected):
        # at T = 1e-10 (k Theta)^3 is finite: the task runs, and exit 2 is a failed verdict
        code, out = run(tmp_path, task, *TINY, "--set", f"{key}=1e-10")
        assert code == expected
        assert list(out.glob("*.csv"))

    @pytest.mark.parametrize("key, argv", [
        ("null_control.u0", ["--set", "null_control.u0=foo"]),
        ("run.seed", ["--seed", "-1"]),
        ("hp.weight", ["--set", "hp.weight=foo"]),
        # breaks CN dominance on the coarse grid of caccioppoli, the first task that solves
        ("potential.value", ["--set", "potential.value=-1e6"]),
        # task-dependent rules, which fired only once their task ran
        ("control.omega_lo", ["--set", "control.omega_lo=0.32", "--set", "control.omega_hi=0.6"]),
        ("caccioppoli.omega_prime_lo", ["--set", "caccioppoli.omega_prime_lo=0.1"]),
        ("weight.c2", ["--set", "weight.c2=0.1"]),
        ("hp.weight", ["--set", "coefficient.alpha=0", "--set", "hp.weight=coefficient"]),
        # a theta that a constant coefficient silently ignored
        ("coefficient.theta", ["--set", "coefficient.alpha=0", "--set", "coefficient.theta=0.3"]),
    ])
    def test_bad_value_runs_no_task(self, tmp_path, capsys, key, argv):
        code, out = run(tmp_path, "all", *TINY, *argv)
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: ")
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("key, value", [*((key, "NaN") for key in LEAVES),
                                            ("run.out_dir", "5")])
    def test_every_key_is_checked(self, tmp_path, monkeypatch, capsys, key, value):
        # no --out, so that run.out_dir is a value under test
        monkeypatch.chdir(tmp_path)
        assert main(["check-coeff", "--set", f"{key}={value}"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: ")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "below-file"])
    @pytest.mark.parametrize("flag", ["--out", "--set"])
    def test_out_dir_that_cannot_be_made_exits_1(self, tmp_path, capsys, below, flag):
        # a file where the directory, or one of its parents, must go
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        out = blocker.joinpath(*below)
        argv = ["--out", str(out)] if flag == "--out" else ["--set", f"run.out_dir={out}"]
        assert main(["check-coeff", *argv]) == 1
        assert capsys.readouterr().err.startswith(f"error: run.out_dir: cannot create {out} (")
        assert blocker.read_text() == "kept"

    @pytest.mark.parametrize("name", ["check_coeff.csv", "summary.json"])
    def test_file_that_cannot_be_written_exits_1(self, tmp_path, capsys, name):
        # a directory where a CSV or summary.json must go
        blocker = tmp_path / "reports" / name
        blocker.mkdir(parents=True)
        code, _ = run(tmp_path, "check-coeff")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: run.out_dir: cannot write {blocker} (")
        assert "Traceback" not in captured.err and "verdicts passed" not in captured.out

    @pytest.mark.parametrize("key, value", [
        ("potential.kind", "zero"), ("weight.c2_margin", "0.05"),
        ("run.format", "csv"), ("null_control.u0", "parabola"),
        # the gates are constants, rejected even at their old defaults
        ("hp.stability_tol", "0.05"), ("identity.residual_tol", "0.05"),
        ("identity.refine_factor_min", "3.0"), ("scan.window_tol", "0.05"),
        ("scan.stability_tol", "0.25"), ("caccioppoli.stability_tol", "0.2"),
        ("observability.stability_tol", "0.25"),
        # the constant coefficient is coefficient.alpha=0
        ("coefficient.kind", "power_law"), ("coefficient.constant_value", "1.0")])
    def test_deleted_key_exits_1(self, tmp_path, capsys, key, value):
        code, out = run(tmp_path, "check-coeff", "--set", f"{key}={value}")
        assert code == 1
        assert capsys.readouterr().err == f"error: {key}: unknown configuration key\n"
        assert not out.exists()

    @pytest.mark.parametrize("task", ["hp", "carleman-scan"])
    def test_unstable_potential_runs_tasks_that_never_solve(self, tmp_path, task):
        code, out = run(tmp_path, task, *TINY, "--set", "hp.N=50", "--set", "scan.n_s=5",
                        "--set", "potential.value=-1e6")
        assert code != 1
        assert list(out.glob("*.csv"))

    @pytest.mark.parametrize("task, argv", [
        ("hp", ["--set", "control.omega_lo=0.32", "--set", "control.omega_hi=0.6"]),
        ("check-coeff", ["--set", "control.omega_lo=0.32", "--set", "control.omega_hi=0.6"]),
        ("observability", ["--set", "caccioppoli.omega_prime_lo=0.1"]),
        ("check-coeff", ["--set", "weight.c2=0.1"]),
    ])
    def test_task_rules_bind_only_their_tasks(self, tmp_path, task, argv):
        code, out = run(tmp_path, task, *TINY, "--set", "hp.N=50", *argv)
        assert code != 1
        assert list(out.glob("*.csv"))

    def test_summary_config_round_trips(self, tmp_path):
        code, first = run(tmp_path, "check-coeff")
        assert code == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(json.loads((first / "summary.json").read_text())["config"]))
        second = tmp_path / "again"
        assert main(["check-coeff", "--config", str(cfg), "--out", str(second)]) == 0
        assert ((second / "check_coeff.csv").read_bytes()
                == (first / "check_coeff.csv").read_bytes())

    def test_inadmissible_hp_weight_exits_1(self, tmp_path, capsys):
        # (a |x-x0|^4)^(1/3) of a constant a is not |x-x0|^q-monotone
        code, _ = run(tmp_path, "hp", "--set", "hp.weight=coefficient",
                      "--set", "coefficient.alpha=0", "--set", "hp.N=50")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: hp.weight: ")

    def test_override_applied(self, tmp_path):
        code, out = run(tmp_path, "check-coeff", "--set", "coefficient.alpha=1.5")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["coefficient"]["alpha"] == 1.5


class TestSubcommands:
    @pytest.mark.parametrize("value, threshold", [
        (np.nan, None), (np.inf, 1.0), (-np.inf, None), (0.5, np.inf), (0.5, np.nan)])
    def test_unmeasured_verdict_fails(self, value, threshold):
        assert verdict("v", True, 0.5, 1.0)["pass"]
        assert not verdict("v", True, value, threshold)["pass"]
        # a flag with a value and no threshold
        assert verdict("v", True, 0.5)["pass"] and not verdict("v", False, 0.5)["pass"]
        # a comparison derives the flag from the value and threshold it reports:
        # "<" fails at equality, "<=" and ">=" pass; none passes an unmeasured value
        for rule, passes in (("<", [True, False, False]), ("<=", [True, True, False]),
                             (">=", [False, True, True])):
            assert [verdict("v", rule, x, 1.0)["pass"] for x in (0.5, 1.0, 2.0)] == passes
            if threshold is not None:
                assert not verdict("v", rule, value, threshold)["pass"]
                assert not verdict("v", rule, threshold, value)["pass"]

    def test_check_coeff_passes(self, tmp_path, capsys):
        code, out = run(tmp_path, "check-coeff", "--preset", "alpha0.5-x0.3")
        assert code == 0
        assert "[PASS] hypothesis_slack" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        slack = next(v for v in summary["verdicts"] if v["name"] == "hypothesis_slack")
        assert slack["pass"] and slack["value"] < 1e-12

    @pytest.mark.parametrize("coefficient", [["--preset", "alpha1.5-x0.3"],
                                             ["--set", "coefficient.alpha=0"]])
    def test_check_coeff_slack_is_alpha_minus_K_at_every_node(self, tmp_path, coefficient):
        code, out = run(tmp_path, "check-coeff", *coefficient, "--set", "grid.N=40")
        assert code != 1
        model = build_model(json.loads((out / "summary.json").read_text())["config"])
        rows = list(csv.DictReader((out / "check_coeff.csv").read_text().splitlines()[1:]))
        assert len(rows) == 41
        # x0 is a node, and its row reads alpha - K like every other: -0.5 for the constant
        assert sum(np.isclose(float(row["x"]), model.x0, rtol=0.0, atol=1e-14)
                   for row in rows) == 1
        for row in rows:
            a = float(row["a"])
            assert float(row["xa_prime"]) == model.alpha * a
            assert float(row["slack"]) == model.alpha - model.K

    def test_hp_reports_paper_bound(self, tmp_path):
        code, out = run(tmp_path, "hp")
        assert code == 0
        text = (out / "hp.csv").read_text()
        assert "paper_bound,16" in text

    def test_carleman_identity(self, tmp_path):
        code, out = run(tmp_path, "carleman-identity",
                        "--set", "grid.N=100", "--set", "grid.M=200")
        assert code == 0
        lines = (out / "carleman_identity.csv").read_text().splitlines()
        assert lines[1] == "s,N,M,lhs,rhs,residual"

    @pytest.mark.parametrize("preset", [p for p in sorted(PRESETS) if p.endswith("x0.5")])
    @pytest.mark.parametrize("task", ["observability", "null-control"])
    def test_x0_half_presets_run(self, tmp_path, capsys, preset, task):
        code, _ = run(tmp_path, task, "--preset", preset, *TINY)
        assert code != 1, capsys.readouterr().err

    @pytest.mark.parametrize("task, csv_name, extra", [
        ("hp", "hp.csv", ["--set", "hp.N=200", "--set", "hp.battery_size=2"]),
        ("carleman-scan", "carleman_scan.csv", ["--set", "grid.M=40", "--set", "scan.n_s=4"]),
    ])
    def test_fine_level_doubles_snapped_N(self, tmp_path, task, csv_name, extra):
        # x0=0.123 snaps both N=200 and N=400 to N=1000
        code, out = run(tmp_path, task, "--set", "coefficient.x0=0.123", *extra)
        assert code != 1
        rows = list(csv.DictReader((out / csv_name).read_text().splitlines()[1:]))
        assert {row["N"] for row in rows} == {"1000", "2000"}

    def test_caccioppoli_underflow_fails(self, tmp_path, capsys):
        # at T = 0.5, e^{2s phi} underflows to 0 on both levels, but the log ratios
        # are finite, so each level change is measured; 2 s phi near -4.9e4 s puts
        # the weight on the nodes nearest x0, which N = 200 and 400 do not resolve,
        # and the ratio changes by 59-74% per doubling
        code, out = run(tmp_path, "caccioppoli", "--set", "caccioppoli.T=0.5")
        assert code == 2
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("[FAIL] caccioppoli_stable_s") for line in lines) == 3
        rows = list(csv.DictReader((out / "caccioppoli.csv").read_text().splitlines()[1:]))
        assert len(rows) == 6
        assert all(float(row["local_gradient"]) == 0.0 for row in rows)
        assert all(-3e5 < float(row["log_ratio"]) < -4e4 for row in rows)
        verdicts = json.loads((out / "summary.json").read_text())["verdicts"]
        assert all(0.5 < v["value"] < 0.8 for v in verdicts)
        # the gate is a constant: the failure cannot be turned green from the command line
        code, _ = run(tmp_path, "caccioppoli", "--set", "caccioppoli.T=0.5",
                      "--set", "caccioppoli.stability_tol=1")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: caccioppoli.stability_tol: ")

    def test_gates_are_constants(self, tmp_path):
        # every verdict whose threshold is a fixed gate, by name prefix
        gates = {"rayleigh_stable": 0.05, "identity_residual_s": 0.05,
                 "identity_refinement_s": 3.0, "scan_fitted_C_stable": 0.25,
                 "caccioppoli_stable_s": 0.2, "observability_stable": 0.25}
        code, out = run(tmp_path, "all", *TINY, "--set", "hp.N=50",
                        "--set", "hp.battery_size=3", "--set", "scan.n_s=5")
        assert code != 1
        seen = set()
        for v in json.loads((out / "summary.json").read_text())["verdicts"]:
            for prefix, gate in gates.items():
                if v["name"].startswith(prefix):
                    assert v["threshold"] == gate, v
                    seen.add(prefix)
        assert seen == set(gates)

    @pytest.mark.parametrize("n_s", [3, 5])
    def test_scan_without_window_fails(self, tmp_path, capsys, n_s):
        # at N = 20 the ratio rises at every step, so no s0 starts a window
        code, out = run(tmp_path, "carleman-scan", *TINY, "--set", f"scan.n_s={n_s}")
        assert code == 2
        last_s = 1.5 ** (n_s - 1)
        assert f"[FAIL] scan_tail_nonincreasing  value={last_s:.6g}\n" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        verdicts = {v["name"]: v for v in summary["verdicts"]}
        # without a window fitted_C is each level's last ratio, so its small change
        # is reported as before but measures no constant
        stable = verdicts.pop("scan_fitted_C_stable")
        assert not stable["pass"] and stable["value"] < stable["threshold"] == 0.25
        del verdicts["scan_tail_nonincreasing"]
        assert all(v["pass"] for v in verdicts.values())

    # a level's report that measured nothing: a coarse value that is not positive
    # and finite, no s-window on the fine level, an integral that vanishes
    @pytest.mark.parametrize("task, level, field, value", [
        *[("hp", "coarse", "rayleigh_estimate", x) for x in (0.0, -1.0, np.nan)],
        *[("observability", "coarse", "C_T_estimate", x) for x in (0.0, -1.0, np.nan)],
        ("carleman-scan", "fine", "window_found", False),
        *[("caccioppoli", level, "log_ratio", x)
          for level in ("coarse", "fine") for x in (np.inf, -np.inf)],
    ])
    def test_level_pair_that_measured_nothing_fails(self, tmp_path, monkeypatch, task, level,
                                                    field, value):
        """A stability verdict that passes on its levels' reports fails once one
        level's report measured nothing; the scan's value stays finite."""
        # the library call whose report a level reads, the verdicts' name prefix,
        # and options at which they pass
        call, prefix, argv = {
            "hp": ("hp_verify", "rayleigh_stable", ["--set", "hp.battery_size=3"]),
            "observability": ("estimate_observability", "observability_stable", TINY),
            "carleman-scan": ("carleman_scan", "scan_fitted_C_stable",
                              ["--set", "grid.N=60", "--set", "grid.M=120", "--set", "scan.n_s=8"]),
            "caccioppoli": ("caccioppoli_check", "caccioppoli_stable_s",
                            ["--set", "grid.N=60", "--set", "grid.M=120"]),
        }[task]

        def stability_verdicts(name):
            code, out = run(tmp_path / name, task, *argv)
            assert code != 1
            return [v for v in json.loads((out / "summary.json").read_text())["verdicts"]
                    if v["name"].startswith(prefix)]

        assert all(v["pass"] for v in stability_verdicts("measured"))
        real, coarse_N = getattr(cli, call), []

        def patched(*args, **kwargs):
            rep = real(*args, **kwargs)
            N = next(arg.N for arg in args if isinstance(arg, SpaceTimeGrid))
            coarse_N[:] = coarse_N or [N]         # the coarse level runs first
            if (N == coarse_N[0]) == (level == "coarse"):
                rep = dataclasses.replace(rep, **{field: value})
            return rep

        monkeypatch.setattr(cli, call, patched)
        verdicts = stability_verdicts("nothing")
        assert verdicts and not any(v["pass"] for v in verdicts)
        if task == "carleman-scan":
            assert all(np.isfinite(v["value"]) for v in verdicts)

    def test_repeated_caccioppoli_s_is_checked_per_entry(self, tmp_path):
        # as in carleman-identity, each entry of s_values gives one verdict
        code, out = run(tmp_path, "caccioppoli", *TINY,
                        "--set", "caccioppoli.s_values=[1.0, 1.0]")
        assert code != 1
        verdicts = json.loads((out / "summary.json").read_text())["verdicts"]
        assert [v["name"] for v in verdicts] == ["caccioppoli_stable_s1"] * 2

    def test_verdict_failure_exits_2(self, tmp_path, capsys):
        code, _ = run(tmp_path, "null-control",
                      "--set", "null_control.max_iters=1",
                      "--set", "grid.N=60", "--set", "grid.M=80")
        assert code == 2
        assert "[FAIL] terminal_norm_small" in capsys.readouterr().out

    def test_summary_schema(self, tmp_path):
        # the ratios rise up to s = 7.59, the eighth point, which starts a window
        code, out = run(tmp_path, "carleman-scan", "--set", "grid.N=60",
                        "--set", "grid.M=120", "--set", "scan.n_s=8")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"config", "grid_sizes", "verdicts", "timing"}
        assert summary["grid_sizes"] == {"grid.N": {"requested": 60, "snapped": 60},
                                         "hp.N": {"requested": 1000, "snapped": 1000}}
        for v in summary["verdicts"]:
            assert set(v) == {"name", "pass", "value", "threshold"}


    def test_potential_value_reaches_scan(self, tmp_path):
        # potential.value alone sets c; it was ignored unless potential.kind=constant
        tiny_all = ["all", *TINY, "--set", "hp.N=50", "--set", "hp.battery_size=3",
                    "--set", "scan.n_s=5"]
        bodies = []
        for name, extra in (("zero", []), ("seven", ["--set", "potential.value=7"])):
            out = tmp_path / name
            assert main([*tiny_all, *extra, "--out", str(out)]) != 1
            bodies.append((out / "carleman_scan.csv").read_text().split("\n", 1)[1])
        assert bodies[0] != bodies[1]


class TestLevelLifetime:
    @pytest.mark.parametrize("task, samplings", [("carleman-identity", 4), ("carleman-scan", 2)])
    def test_level_fields_die_before_next_level_samples(self, tmp_path, monkeypatch, task,
                                                        samplings):
        """When a level samples its profile, no field of an earlier level is alive."""
        refs = []       # weak references to each field, and its values, a level made or got
        alive = []      # per profile sampling, how many of them were still alive

        def track(*fields):
            refs.extend(weakref.ref(obj) for f in fields for obj in (f, f.values))

        def profile(T, x0, k):
            sample = _carleman_profile(T, x0, k)

            def counted(t, x):
                alive.append(sum(ref() is not None for ref in refs))
                return sample(t, x)
            return counted

        def pair(*args):
            v, h = manufactured_adjoint_pair(*args)
            track(v, h)
            return v, h

        def identity(model, params, grid, w):
            track(w)
            return carleman_identity_check(model, params, grid, w)

        monkeypatch.setattr(cli, "_carleman_profile", profile)
        monkeypatch.setattr(cli, "manufactured_adjoint_pair", pair)
        monkeypatch.setattr(cli, "carleman_identity_check", identity)
        code, _ = run(tmp_path, task, *TINY, "--set", "scan.n_s=5")
        assert code != 1
        assert refs and alive == [0] * samplings


class TestDeterminism:
    def test_hp_csv_byte_identical(self, tmp_path):
        args = ["hp", "--set", "hp.N=300", "--seed", "3"]
        code1, out1 = main([*args, "--out", str(tmp_path / "a")]), tmp_path / "a"
        code2, out2 = main([*args, "--out", str(tmp_path / "b")]), tmp_path / "b"
        assert code1 == code2 and code1 in (0, 2)
        assert (out1 / "hp.csv").read_bytes() == (out2 / "hp.csv").read_bytes()

    def test_seed_changes_battery(self, tmp_path):
        main(["hp", "--set", "hp.N=300", "--seed", "1", "--out", str(tmp_path / "a")])
        main(["hp", "--set", "hp.N=300", "--seed", "2", "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "hp.csv").read_text()
        b = (tmp_path / "b" / "hp.csv").read_text()
        assert a != b


class TestArtifacts:
    @pytest.mark.parametrize("slice_chars", [1000, cli._CSV_SLICE_CHARS])
    def test_null_control_field_csv_bytes(self, tmp_path, monkeypatch, slice_chars):
        """Written in slices, the file is the header and the field's CSV text."""
        solutions = []

        def capture(*args, **kwargs):
            solutions.append(synthesize_null_control(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(cli, "synthesize_null_control", capture)
        monkeypatch.setattr(cli, "_CSV_SLICE_CHARS", slice_chars)
        code, out = run(tmp_path, "null-control", *TINY)
        assert code == 0
        config = json.loads((out / "summary.json").read_text())["config"]
        (sol,) = solutions
        expected = (cli._config_header(config) + sol.h.to_csv()).encode()
        assert len(expected) > 20_000        # tens of slices of 1000 characters
        assert (out / "null_control_field.csv").read_bytes() == expected


# the profiles as one-line lambdas, before they were built in place
REFERENCE_PROFILES = {
    "scan": lambda T, x0: lambda t, x: t * (T - t) * (x - x0) ** 2 * x * (1.0 - x),
    "identity": lambda T, x0: lambda t, x: (t * (T - t)) ** 5 * (x - x0) ** 2 * x * (1.0 - x),
}


@pytest.mark.parametrize("name, k", [("scan", 1), ("identity", 5)])
@pytest.mark.parametrize("T, x0", [(0.5, 0.3), (2.0, 0.123), (1.0, 0.5)])
def test_profiles_bit_identical_to_lambdas(name, k, T, x0):
    tt, xx = np.meshgrid(np.linspace(0.0, T, 401), np.linspace(0.0, 1.0, 201), indexing="ij")
    inputs = (tt.copy(), xx.copy())
    expected = REFERENCE_PROFILES[name](T, x0)(tt, xx)
    for args in ((tt, xx), (tt[:, :1], xx[:1])):      # meshgrid, and column and row
        values = _carleman_profile(T, x0, k)(*args)
        assert np.array_equal(np.broadcast_to(values, expected.shape), expected)
        assert np.array_equal(np.signbit(np.broadcast_to(values, expected.shape)),
                              np.signbit(expected))
    assert np.array_equal(tt, inputs[0]) and np.array_equal(xx, inputs[1])
