import csv
import dataclasses
import json
import struct

import numpy as np
import pytest

import degenpde.cli as cli
from degenpde import CoefficientModel, SpaceTimeGrid
from degenpde.cli import DEFAULT_CONFIG, PRESETS, _carleman_profile, build_model, main, verdict
from degenpde.control import synthesize_null_control

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
        # the identity section held only its s samples, which are constants now, the
        # null_control section a horizon, a CG gate and a cap, and the weight section
        # the weight constants c1 and c2, constants too
        assert list(DEFAULT_CONFIG) == ["coefficient", "grid", "potential", "control",
                                        "hp", "scan", "caccioppoli", "observability", "run"]
        assert len(LEAVES) == 24

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

    # the cases that name identity.s_values, caccioppoli.s_values, scan.s_start or
    # scan.s_ratio exit 1 as an unknown key: the checks sample s from constants
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
        ("carleman-scan", "scan.s_start", "-1"),
        # the horizons, null_control.tol and max_iters are constants now: an unknown key
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
        # a T whose largest Carleman time factor (s Theta)^3 overflows at the first
        # interior time: an overflow traceback
        ("carleman-identity", "grid.T", "1e-12"),
        ("carleman-scan", "scan.T", "1e-12"),
        ("carleman-identity", "grid.T", "1e-200"),
        ("carleman-scan", "scan.T", "1e-200"),
        # at the default T a k whose (k Theta)^3, or whose own cube, overflows names
        # the key that sets k: scan.n_s (k = 1.5^(n_s - 1))
        ("carleman-scan", "scan.n_s", "560"),
        ("carleman-scan", "scan.n_s", "600"),
        # a T at which the largest quantity a check forms overflows: the identity's
        # square of its profile (an overflow traceback, and from 1.4e31 a ValueError
        # from carleman_identity_check, which found w not vanishing at x = 0 and 1), the
        # time integral of the scan's h^2 (an overflow traceback)
        ("carleman-identity", "grid.T", "1e16"),
        ("carleman-identity", "grid.T", "1.4e31"),
        ("carleman-identity", "grid.T", "1e40"),
        ("carleman-scan", "scan.T", "1e70"),
        ("carleman-scan", "scan.T", "1e80"),
        # a constant potential whose c v term of h overflows it (an overflow traceback)
        ("carleman-scan", "potential.value", "1e200"),
        # a T whose peak (T/2)^2 of t (T - t), in the weight, overflows: an overflow
        # traceback, or a warning and a pass without -W error
        ("caccioppoli", "caccioppoli.T", "2.7e154"),
        # an integer beyond the floating-point range: an OverflowError traceback
        pytest.param("hp", "hp.N", "1" + "0" * 400, id="hp-hp.N-10**400"),
        # an in-range size too large to allocate: a MemoryError traceback (10^12
        # nodes fail at the first allocation, before any memory is touched)
        ("check-coeff", "grid.N", "1e12"),
        ("hp", "hp.N", "1e12"),
        ("all", "grid.N", "1e12"),
        # a finest level of more nodes than an array can hold: a ValueError traceback
        # from np.linspace, or an OverflowError one from T / M
        ("null-control --set grid.T=1e10", "grid.M", "1e307"),
        ("null-control", "grid.M", "1e308"),
        ("all", "grid.N", "1e19"),
        ("hp", "hp.N", "1e19"),
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

    @pytest.mark.parametrize("task, extra, key, named, runs", [
        ("carleman-identity", [], "grid.T", "grid.T", 5e15),
        ("carleman-scan", [], "scan.T", "scan.T", 1e60),
        # h carries -c v: where |c| > 10 dominates the bound, the rule names c's key
        ("carleman-scan", ["--set", "potential.value=1000"], "scan.T", "potential.value", 1e60),
        ("carleman-scan", [], "potential.value", "potential.value", 1e150),
        ("caccioppoli", [], "caccioppoli.T", "caccioppoli.T", 2.68e154)],
        ids=["grid.T", "scan.T", "scan.T-c1000", "potential.value", "caccioppoli.T"])
    def test_largest_admitted_value_runs(self, tmp_path, capsys, task, extra, key, named, runs):
        """The largest value of key that the task's overflow rule admits runs with
        every floating-point warning an error, and the next float exits 1 naming the
        key the rule blames; a value that ran before the rule is admitted."""
        argv = [task, *TINY, "--set", "scan.n_s=5", *extra]

        def as_float(bits):
            return struct.unpack("<d", struct.pack("<q", bits))[0]

        def admitted(bits):
            try:
                cli.resolve_config(cli._build_parser().parse_args(
                    [*argv, "--set", f"{key}={as_float(bits)!r}"]))
            except cli.ConfigError:
                return False
            return True

        # positive floats are ordered as their bit patterns, so bisect those
        lo, hi = (struct.unpack("<q", struct.pack("<d", T))[0] for T in (1.0, 1e300))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if admitted(mid) else (lo, mid)
        assert as_float(lo) > runs
        code, out = run(tmp_path, *argv, "--set", f"{key}={as_float(lo)!r}")
        assert code == 2 and list(out.glob("*.csv"))
        code, _ = run(tmp_path, *argv, "--set", f"{key}={as_float(hi)!r}")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}: T=") and err.endswith(" overflow\n")

    @pytest.mark.parametrize("key, argv", [
        ("null_control.u0", ["--set", "null_control.u0=foo"]),
        ("run.seed", ["--seed", "-1"]),
        ("hp.weight", ["--set", "hp.weight=foo"]),
        # breaks CN dominance on the coarse grid of caccioppoli, the first task that solves
        ("potential.value", ["--set", "potential.value=-1e6"]),
        # task-dependent rules, which fired only once their task ran
        ("control.omega_lo", ["--set", "control.omega_lo=0.32", "--set", "control.omega_hi=0.6"]),
        ("caccioppoli.omega_prime_lo", ["--set", "caccioppoli.omega_prime_lo=0.1"]),
        ("hp.weight", ["--set", "coefficient.alpha=0", "--set", "hp.weight=coefficient"]),
        # a theta that a constant coefficient silently ignored
        ("coefficient.theta", ["--set", "coefficient.alpha=0", "--set", "coefficient.theta=0.3"]),
        # an override that is not key=value is named whole; an empty key named nothing
        ("=3", ["--set", "=3"]),
        (" =3", ["--set", " =3"]),
        ("foo", ["--set", "foo"]),
        ("grid", ["--set", "grid=5"]),
        # an empty omega, named by its upper end
        ("control.omega_hi", ["--set", "control.omega_lo=0.6"]),
    ])
    def test_bad_value_runs_no_task(self, tmp_path, capsys, key, argv):
        code, out = run(tmp_path, "all", *TINY, *argv)
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: ")
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read"), ("directory", "cannot read"),
        ("{", "invalid JSON in"), ("[1, 2]", "top level must be an object")],
        ids=["missing", "directory", "invalid-json", "list"])
    def test_config_file_that_cannot_be_used_exits_1(self, tmp_path, capsys, content, message):
        cfg = tmp_path / "cfg.json"
        if content == "directory":
            cfg.mkdir()
        elif content is not None:
            cfg.write_text(content)
        code, out = run(tmp_path, "all", "--config", str(cfg))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: --config: {message}")
        assert not out.exists()

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

    @pytest.mark.parametrize("via", ["--set", "--config"])
    @pytest.mark.parametrize("key, value", [
        ("potential.kind", "zero"), ("weight.c2_margin", "0.05"),
        ("run.format", "csv"), ("null_control.u0", "parabola"),
        # the gates are constants, rejected even at their old defaults
        ("hp.stability_tol", "0.05"), ("identity.residual_tol", "0.05"),
        ("identity.refine_factor_min", "3.0"), ("scan.window_tol", "0.05"),
        ("scan.stability_tol", "0.25"), ("caccioppoli.stability_tol", "0.2"),
        ("observability.stability_tol", "0.25"),
        # the constant coefficient is coefficient.alpha=0
        ("coefficient.kind", "power_law"), ("coefficient.constant_value", "1.0"),
        # the s samples are constants, rejected even at their old defaults
        ("identity.s_values", "[1.0, 10.0]"), ("caccioppoli.s_values", "[1.0, 2.0, 4.0]"),
        ("scan.s_start", "1.0"), ("scan.s_ratio", "1.5"),
        # the control horizon and the null control's CG gate and cap are constants; a
        # loose gate stopped CG at iteration 0 and passed every verdict on a zero control
        ("observability.T", "0.5"), ("null_control.T", "0.5"), ("control.T", "0.5"),
        ("null_control.tol", "0.5"), ("null_control.max_iters", "500"),
        # the weight constants: c1 reaches e^{2 s phi} only through s c1, and
        # weight.c1=1e-3 passed the known failure caccioppoli.T=0.5 3/3; the other
        # values are ones that the type, range, c2 > c2_min and overflow rules rejected
        ("weight.c1", "1e-3"), ("weight.c1", "1.0"), ("weight.c1", "0"),
        ("weight.c1", "1e100"), ("weight.c2", "0.1"), ("weight.c2", "abc"),
        ("weight.c2", "Infinity"), ("weight.c2", "null")])
    def test_deleted_key_exits_1(self, tmp_path, capsys, key, value, via):
        argv = ["--set", f"{key}={value}"]
        if via == "--config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(cli._parse_override(f"{key}={value}")))
            argv = ["--config", str(cfg)]
        # and on the known failure, which caccioppoli.s_values=[1e-6] and
        # weight.c1=1e-3 each turned into a pass
        for task in (["check-coeff"], ["caccioppoli", "--set", "caccioppoli.T=0.5"]):
            code, out = run(tmp_path, *task, *argv)
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
                 "caccioppoli_stable_s": 0.2, "observability_stable": 0.25,
                 "terminal_norm_small": 0.01}
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

    def test_underflowed_scan_ratios_fail(self, tmp_path, capsys):
        # at scan.T = 1e60 every LHS underflows to 0, so every ratio is 0: finite, but
        # not a measurement
        code, out = run(tmp_path, "carleman-scan", *TINY, "--set", "scan.n_s=5",
                        "--set", "scan.T=1e60")
        assert code == 2
        assert "[FAIL] scan_ratios_finite  value=0\n" in capsys.readouterr().out
        rows = list(csv.DictReader((out / "carleman_scan.csv").read_text().splitlines()[1:]))
        assert len(rows) == 10 and all(float(row["lhs"]) == 0.0 for row in rows)

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

    @pytest.mark.parametrize("T", ["1e-2", "1e-3"])
    def test_caccioppoli_huge_weight_shift_is_measured(self, tmp_path, T):
        """At caccioppoli.T = 1e-2 or 1e-3 the largest 2 s phi, the shift m, is
        -1.9e18 or -1.9e26 at s = 1, so large that both levels' log ratios round to
        the same value; the level change is taken from the shifts' change and the
        rests', so the unresolved weight fails where the log ratios' change is 0."""
        code, out = run(tmp_path, "caccioppoli", *TINY, "--set", f"caccioppoli.T={T}")
        assert code == 2
        rows = list(csv.DictReader((out / "caccioppoli.csv").read_text().splitlines()[1:]))
        assert len(rows) == 6 and float(rows[0]["log_ratio"]) < -1e18
        assert [row["log_ratio"] for row in rows[:3]] == [row["log_ratio"] for row in rows[3:]]
        verdicts = json.loads((out / "summary.json").read_text())["verdicts"]
        assert len(verdicts) == 3 and not any(v["pass"] for v in verdicts)
        assert min(v["value"] for v in verdicts) > 0.2

    def test_verdict_failure_exits_2(self, tmp_path, capsys):
        # a large epsilon penalizes the terminal datum: J stalls at ||u(T)|| / ||u0|| = 0.0193
        code, _ = run(tmp_path, "null-control", "--set", "control.epsilon=1e-2",
                      "--set", "grid.N=60", "--set", "grid.M=80")
        assert code == 2
        assert "[FAIL] terminal_norm_small  value=0.0192853" in capsys.readouterr().out

    def test_summary_schema(self, tmp_path):
        # the ratios rise up to s = 7.59, the eighth point, which starts a window
        code, out = run(tmp_path, "carleman-scan", "--set", "grid.N=60",
                        "--set", "grid.M=120", "--set", "scan.n_s=8")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"config", "grid_sizes", "verdicts", "diagnostics", "timing"}
        # each level's window: where it starts, and its largest rise, which stays
        # within window_tol = 0.05 (here every step of the window falls)
        diagnostics = summary["diagnostics"]["carleman-scan"]
        assert set(summary["diagnostics"]) == {"carleman-scan"}
        assert diagnostics["window_found"] == [True, True]
        assert diagnostics["s0_observed"] == [7.59375, 7.59375]
        assert all(-1.0 < rise <= 0.05 for rise in diagnostics["window_max_rise"])
        assert summary["grid_sizes"] == {"grid.N": {"requested": 60, "snapped": 60},
                                         "hp.N": {"requested": 1000, "snapped": 1000}}
        for v in summary["verdicts"]:
            assert set(v) == {"name", "pass", "value", "threshold"}

    def test_scan_window_margin_on_default_config(self, tmp_path):
        # the default scan's window opens at s = 5.0625 by a small margin: its
        # largest rise, the first step, is 4.91% (coarse) and 4.87% (fine) against
        # window_tol = 0.05, so a 0.1% move in one ratio would move s0_observed
        code, out = run(tmp_path, "carleman-scan")
        assert code == 0
        diagnostics = json.loads((out / "summary.json").read_text())["diagnostics"]
        assert diagnostics["carleman-scan"]["s0_observed"] == [5.0625, 5.0625]
        coarse, fine = diagnostics["carleman-scan"]["window_max_rise"]
        assert coarse == pytest.approx(0.0491, abs=5e-5)
        assert fine == pytest.approx(0.0487, abs=5e-5)

    @pytest.mark.parametrize("alpha, iterations, code", [
        ("0.5", 3, 0),
        # a = 1: the free decay of u0, about exp(-pi^2 / 2), meets the tolerance, so CG
        # takes no step and the control is 0; no decrease of J is measured, which fails
        ("0", 0, 2)])
    def test_summary_reports_the_hum_solve(self, tmp_path, alpha, iterations, code):
        exit_code, out = run(tmp_path, "null-control", *TINY,
                             "--set", f"coefficient.alpha={alpha}")
        assert exit_code == code
        summary = json.loads((out / "summary.json").read_text())
        assert summary["diagnostics"] == {
            "null-control": {"cg_iterations": iterations, "stop_reason": "tolerance"}}
        verdicts = {v["name"]: v["pass"] for v in summary["verdicts"]}
        assert verdicts == {"terminal_norm_small": True, "cost_functional_decreasing": code == 0,
                            "control_supported_in_omega": True}

    def test_one_horizon_for_both_control_tasks(self, tmp_path, monkeypatch):
        # the observability inequality and, by HUM duality, the null control share T
        monkeypatch.setattr(cli, "_CONTROL_T", 0.25)
        horizons = []
        real = cli.estimate_observability

        def capture(model, potential, grid, *args, **kwargs):
            horizons.append(grid.T)
            return real(model, potential, grid, *args, **kwargs)

        monkeypatch.setattr(cli, "estimate_observability", capture)
        code, out = run(tmp_path, "all", *TINY_SCAN, *TINY_HP)
        assert code != 1
        assert horizons == [0.25, 0.25]
        last_row = (out / "null_control_field.csv").read_text().splitlines()[-1]
        assert float(last_row.split(",")[0]) == 0.25

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


def _nan_source(pair):
    def nan_pair(rows):
        v, h = pair(rows)
        return v, np.full_like(h, np.nan)
    return nan_pair


# the verdicts of `all` that restate their inputs (ROADMAP.md item 22): the first
# two never fail, the next two fail exactly when coefficient.alpha is 0, and the
# last three cannot fail on an admissible run whose fields are finite
RESTATEMENTS = {"hypothesis_slack", "gamma_monotone", "theta_monotone", "degenerate_at_x0",
                "battery_below_rayleigh", "no_backward_uniqueness_violation",
                "control_supported_in_omega"}
TINY_HP = ["--set", "hp.N=50", "--set", "hp.battery_size=3"]
TINY_SCAN = [*TINY, "--set", "scan.n_s=5"]
# every other verdict of `all`, with one input under which it fails: the task, its
# options, and optionally the cli call whose every result is replaced, and how
FAILING_INPUTS = {
    # q near 1 drifts toward the unattained sharp constant: 11% per doubling
    "hp-q1.2": ("hp", [*TINY_HP, "--set", "hp.q=1.2"], None,
                {"rayleigh_stable"}),
    "hp-above-bound": ("hp", TINY_HP, ("hp_verify", lambda rep: dataclasses.replace(
        rep, rayleigh_estimate=2.0 * rep.paper_bound)), {"rayleigh_below_bound"}),
    "identity-coarse": ("carleman-identity", ["--set", "grid.N=10", "--set", "grid.M=4"], None,
                        {"identity_residual_s1", "identity_residual_s10"}),
    "identity-no-refinement": ("carleman-identity", TINY, ("carleman_identity_check",
                               lambda rep: dataclasses.replace(rep, residual=0.01)),
                               {"identity_refinement_s1", "identity_refinement_s10"}),
    # the ratios rise at every step, so no s starts a window
    "scan-tiny": ("carleman-scan", TINY_SCAN, None,
                  {"scan_tail_nonincreasing", "scan_fitted_C_stable"}),
    "scan-nan-source": ("carleman-scan", TINY_SCAN, ("manufactured_adjoint_pair", _nan_source),
                        {"scan_ratios_finite", "scan_rhs_positive"}),
    # the known resolution limit: the weight's peak lies between nodes
    "caccioppoli-T0.5": ("caccioppoli", [*TINY, "--set", "caccioppoli.T=0.5"], None,
                         {"caccioppoli_stable_s1", "caccioppoli_stable_s2",
                          "caccioppoli_stable_s4"}),
    "observability-zero": ("observability", TINY, ("estimate_observability",
                           lambda rep: dataclasses.replace(rep, C_T_estimate=0.0)),
                           {"observability_finite_positive", "observability_stable"}),
    # a large epsilon penalizes the terminal datum: J stalls at a ratio of 0.0189
    "null-control-large-epsilon": ("null-control", [*TINY, "--set", "control.epsilon=1e-2"],
                                   None, {"terminal_norm_small"}),
    "null-control-rising-cost": ("null-control", TINY, ("synthesize_null_control", lambda sol:
                                 dataclasses.replace(sol, J_history=sol.J_history[::-1])),
                                 {"cost_functional_decreasing"}),
}


class TestEveryVerdictCanFail:
    def test_every_verdict_is_failable_or_a_restatement(self, tmp_path):
        code, out = run(tmp_path, "all", *TINY_SCAN, *TINY_HP)
        assert code != 1
        names = [v["name"] for v in json.loads((out / "summary.json").read_text())["verdicts"]]
        failable = [name for _, _, _, fails in FAILING_INPUTS.values() for name in fails]
        assert len(names) == len(set(names)) == 24
        assert len(failable) == len(set(failable)) and not RESTATEMENTS & set(failable)
        assert set(names) == RESTATEMENTS | set(failable)

    @pytest.mark.parametrize("name", FAILING_INPUTS)
    def test_input_fails_its_verdicts(self, tmp_path, monkeypatch, name):
        task, argv, patch, fails = FAILING_INPUTS[name]
        if patch is not None:
            call, change = patch
            real = getattr(cli, call)
            monkeypatch.setattr(cli, call, lambda *args, **kwargs: change(real(*args, **kwargs)))
        code, out = run(tmp_path, task, *argv)
        assert code == 2
        summary = json.loads((out / "summary.json").read_text())
        verdicts = {v["name"]: v["pass"] for v in summary["verdicts"]}
        assert fails <= set(verdicts) and not any(verdicts[n] for n in fails)


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
