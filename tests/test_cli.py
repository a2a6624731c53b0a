import csv
import json

import numpy as np
import pytest

from degenpde.cli import DEFAULT_CONFIG, PRESETS, build_model, main, verdict

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

    def test_bad_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_x0_without_grid_node_exits_1(self, tmp_path, capsys):
        code, _ = run(tmp_path, "check-coeff", "--set", "coefficient.x0=0.3141592653589793")
        assert code == 1
        assert "coefficient.x0" in capsys.readouterr().err

    def test_snapped_grid_is_warned(self, tmp_path, capsys):
        assert run(tmp_path, "check-coeff")[0] == 0
        on_node = capsys.readouterr()
        assert on_node.err == ""
        code, _ = run(tmp_path, "check-coeff", "--set", "coefficient.x0=0.123")
        assert code == 0
        snapped = capsys.readouterr()
        assert len(snapped.err.splitlines()) == 1
        assert "grid.N=200" in snapped.err and "N=1000" in snapped.err
        assert snapped.out == on_node.out

    @pytest.mark.parametrize("task, key, value", [
        # lists and counts that would let a verdict pass without checking anything
        ("carleman-identity", "identity.s_values", "[]"),
        ("caccioppoli", "caccioppoli.s_values", "[]"),
        ("hp", "hp.battery_size", "0"),
        ("hp", "hp.battery_size", "-3"),
        ("carleman-scan", "scan.n_s", "2"),
        # inputs that raised a traceback
        ("carleman-scan", "scan.T", "0"),
        ("caccioppoli", "caccioppoli.T", "-1"),
        ("observability", "observability.T", "0"),
        ("null-control", "null_control.T", "-0.5"),
        ("carleman-scan", "scan.n_s", "0"),
        ("carleman-scan", "scan.s_ratio", "-1"),
        ("observability", "observability.n_modes", "0"),
        ("carleman-identity", "identity.s_values", "3"),
        ("hp", "hp.q", "NaN"),
        # inputs whose error named another key
        ("carleman-identity", "weight.c1", "0"),
        ("carleman-scan", "scan.s_start", "-1"),
        ("null-control", "null_control.tol", "0"),
        # tolerances and counts: a TypeError traceback, another key named, or truncated
        ("hp", "hp.stability_tol", "x"),
        ("carleman-identity", "identity.residual_tol", "x"),
        ("carleman-identity", "identity.refine_factor_min", "-1"),
        ("carleman-scan", "scan.window_tol", "x"),
        ("carleman-scan", "scan.stability_tol", "NaN"),
        ("caccioppoli", "caccioppoli.stability_tol", "x"),
        ("observability", "observability.stability_tol", "0"),
        # a deleted key, now unknown
        ("carleman-identity", "weight.c2_margin", "x"),
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
        # infinite values: a tolerance that any change passes, a NumPy warning and
        # the error blamed on potential.value, or a list entry that passes a verdict
        ("hp", "hp.stability_tol", "Infinity"),
        ("carleman-scan", "scan.stability_tol", "Infinity"),
        ("caccioppoli", "caccioppoli.stability_tol", "Infinity"),
        ("observability", "observability.stability_tol", "Infinity"),
        ("carleman-identity", "identity.residual_tol", "Infinity"),
        ("carleman-scan", "scan.window_tol", "Infinity"),
        ("null-control", "control.epsilon", "Infinity"),
        ("observability", "observability.T", "Infinity"),
        ("carleman-identity", "identity.s_values", "[Infinity]"),
        # an integer beyond the floating-point range: an OverflowError traceback
        pytest.param("hp", "hp.N", "1" + "0" * 400, id="hp-hp.N-10**400"),
        # the seed: another key named, a traceback, or silently truncated
        ("hp", "run.seed", "-1"),
        ("hp", "run.seed", "1.5"),
        ("hp", "run.seed", "foo"),
        # a TypeError traceback
        ("caccioppoli", "caccioppoli.omega_prime_lo", "x"),
    ])
    def test_bad_value_exits_1_naming_key(self, tmp_path, capsys, task, key, value):
        code, _ = run(tmp_path, task, *TINY, "--set", f"{key}={value}")
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: ")

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
        ("hp.weight", ["--set", "coefficient.kind=constant", "--set", "hp.weight=coefficient"]),
        # a theta that a constant coefficient silently ignored
        ("coefficient.theta", ["--set", "coefficient.kind=constant",
                               "--set", "coefficient.theta=0.3"]),
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

    @pytest.mark.parametrize("key, value", [
        ("potential.kind", "zero"), ("weight.c2_margin", "0.05"),
        ("run.format", "csv"), ("null_control.u0", "parabola")])
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
                      "--set", "coefficient.kind=constant", "--set", "hp.N=50")
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

    def test_check_coeff_passes(self, tmp_path, capsys):
        code, out = run(tmp_path, "check-coeff", "--preset", "alpha0.5-x0.3")
        assert code == 0
        assert "[PASS] hypothesis_slack" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        slack = next(v for v in summary["verdicts"] if v["name"] == "hypothesis_slack")
        assert slack["pass"] and slack["value"] < 1e-12

    @pytest.mark.parametrize("coefficient", [["--preset", "alpha1.5-x0.3"],
                                             ["--set", "coefficient.kind=constant"]])
    def test_check_coeff_slack_matches_per_node_loop(self, tmp_path, coefficient):
        code, out = run(tmp_path, "check-coeff", *coefficient, "--set", "grid.N=40")
        assert code != 1
        model = build_model(json.loads((out / "summary.json").read_text())["config"])
        rows = list(csv.DictReader((out / "check_coeff.csv").read_text().splitlines()[1:]))
        assert len(rows) == 41
        for row in rows:
            x, a, xap = (float(row[k]) for k in ("x", "a", "xa_prime"))
            off = not np.isclose(x, model.x0, rtol=0.0, atol=1e-14)
            assert float(row["slack"]) == (xap / a - model.K if off and a > 0.0 else 0.0)

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
        # at T = 0.5, e^{2s phi} underflows to 0 on both levels, so no ratio is compared
        code, _ = run(tmp_path, "caccioppoli", "--set", "caccioppoli.T=0.5")
        assert code == 2
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("[FAIL] caccioppoli_stable_s") for line in lines) == 3

    def test_verdict_failure_exits_2(self, tmp_path, capsys):
        code, _ = run(tmp_path, "null-control",
                      "--set", "null_control.max_iters=1",
                      "--set", "grid.N=60", "--set", "grid.M=80")
        assert code == 2
        assert "[FAIL] terminal_norm_small" in capsys.readouterr().out

    def test_summary_schema(self, tmp_path):
        code, out = run(tmp_path, "carleman-scan", "--set", "grid.N=60",
                        "--set", "grid.M=120", "--set", "scan.n_s=6")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"config", "verdicts", "timing"}
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


class TestDeterminism:
    def test_hp_csv_byte_identical(self, tmp_path):
        args = ["hp", "--set", "hp.N=300", "--set", "hp.stability_tol=1.0",
                "--seed", "3"]
        code1, out1 = main([*args, "--out", str(tmp_path / "a")]), tmp_path / "a"
        code2, out2 = main([*args, "--out", str(tmp_path / "b")]), tmp_path / "b"
        assert code1 == 0 and code2 == 0
        assert (out1 / "hp.csv").read_bytes() == (out2 / "hp.csv").read_bytes()

    def test_seed_changes_battery(self, tmp_path):
        main(["hp", "--set", "hp.N=300", "--seed", "1", "--out", str(tmp_path / "a")])
        main(["hp", "--set", "hp.N=300", "--seed", "2", "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "hp.csv").read_text()
        b = (tmp_path / "b" / "hp.csv").read_text()
        assert a != b
