import csv
import json

import numpy as np
import pytest

from degenpde.cli import DEFAULT_CONFIG, PRESETS, build_model, main

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
    ])
    def test_bad_value_exits_1_naming_key(self, tmp_path, capsys, task, key, value):
        extra = ["--set", "potential.kind=constant"] if key.startswith("potential.") else []
        code, _ = run(tmp_path, task, *TINY, *extra, "--set", f"{key}={value}")
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: ")

    def test_override_applied(self, tmp_path):
        code, out = run(tmp_path, "check-coeff", "--set", "coefficient.alpha=1.5")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["coefficient"]["alpha"] == 1.5


class TestSubcommands:
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
