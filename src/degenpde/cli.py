"""Command-line driver: configuration, verification runs, report files.

Each subcommand executes one verification or synthesis workflow, writes an
RFC-4180 CSV (with the fully resolved configuration embedded as a comment
header, so artifacts are self-describing) plus a JSON summary with verdicts,
and prints a human-readable pass/fail line per verdict.

Exit status: 0 all verdicts pass, 2 at least one verdict failed,
1 usage or configuration error (the message names the offending key).
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

from .coefficients import CoefficientModel, _hypothesis_slack, check_hypotheses
from .control import estimate_observability, synthesize_null_control
from .grid import Field, SpaceTimeGrid, assemble_operator, dirichlet_eigenmodes
from .inequalities import (HardyWeight, _require_caccioppoli_geometry,
                           _require_hardy_monotone, caccioppoli_check,
                           carleman_identity_check, carleman_scan, default_s_values,
                           hp_verify, manufactured_adjoint_pair)
from .solvers import ControlConfig, PotentialModel, _require_dominance, solve_adjoint
from .weights import WeightParams

__all__ = ["main", "DEFAULT_CONFIG", "PRESETS"]


DEFAULT_CONFIG = {
    "coefficient": {
        "kind": "power_law",      # "power_law" | "constant"
        "alpha": 0.5,
        "x0": 0.3,
        "theta": None,            # defaults to alpha
        "constant_value": 1.0,
    },
    "grid": {"N": 200, "M": 400, "T": 1.0},
    "weight": {"c1": 1.0, "c2": None},       # c2 defaults to 1.05 * c2_min
    "potential": {"value": 0.0},              # the constant c
    "control": {"omega_lo": 0.2, "omega_hi": 0.5, "epsilon": 1e-8},
    "hp": {"q": 1.5, "weight": "pure_power", "battery_size": 20,
           "N": 1000, "stability_tol": 0.05},
    "identity": {"s_values": [1.0, 10.0], "residual_tol": 5e-2,
                 "refine_factor_min": 3.0},
    "scan": {"T": 2.0, "n_s": 10, "s_start": 1.0, "s_ratio": 1.5,
             "window_tol": 0.05, "stability_tol": 0.25},
    "caccioppoli": {"T": 2.0, "omega_prime_lo": 0.35, "omega_prime_hi": 0.45,
                    "s_values": [1.0, 2.0, 4.0], "stability_tol": 0.2},
    "observability": {"T": 0.5, "n_modes": 10, "n_random": 10, "n_power": 20,
                      "stability_tol": 0.25},
    "null_control": {"T": 0.5, "tol": 1e-2, "max_iters": 500},   # datum u0 = x(1 - x)
    "run": {"seed": 0, "out_dir": "reports"},
}

# The default omega=(0.2, 0.5) excludes x0=0.5; omega=(0.3, 0.6) contains it
# and still holds caccioppoli's omega'=(0.35, 0.45), which stays away from x0.
_PRESET_SECTIONS = {0.3: {}, 0.5: {"control": {"omega_lo": 0.3, "omega_hi": 0.6}}}
PRESETS = {
    f"alpha{a}-x{x}": {"coefficient": {"alpha": a, "x0": x}, **sections}
    for a in (0.5, 1.0, 1.5) for x, sections in _PRESET_SECTIONS.items()
}

class ConfigError(Exception):
    """Configuration problem; the message names the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------

def _merge_section(base: dict, update: dict, prefix: str):
    for key, value in update.items():
        dotted = f"{prefix}{key}"
        if key not in base:
            # a lone path below the unknown key, such as --set a.b=v makes, is named whole
            while isinstance(value, dict) and len(value) == 1:
                (key, value), = value.items()
                dotted += f".{key}"
            raise ConfigError(dotted, "unknown configuration key")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(dotted, f"expected a section, got {value!r}")
            _merge_section(base[key], value, dotted + ".")
        else:
            base[key] = value


def _parse_override(text: str) -> dict:
    """``a.b=v`` as the section ``{"a": {"b": v}}``; v is JSON, else a string."""
    if "=" not in text:
        raise ConfigError(text, "override must have the form key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    for part in reversed(key.strip().split(".")):
        value = {part: value}
    return value


# Every leaf of DEFAULT_CONFIG is checked by the type of its default.  A string
# is one of _CHOICES[key], or any string for a key without choices.  A list is
# non-empty and each entry follows its first default entry's rule.  An int is
# an integer in [1, inf).  A float, or a None that selects a derived default,
# is a number in (0, inf), and None stays admissible.  _RANGES lists the keys
# whose interval differs from their kind's.  Every number must be finite: a
# nan or infinite bound or tolerance would let a verdict pass unmeasured.
_CHOICES = {
    "coefficient.kind": ("power_law", "constant"),
    "hp.weight": ("pure_power", "coefficient"),
}
_RANGES = {
    "coefficient.x0": "(0, 1)", "coefficient.alpha": "(0, 2)", "hp.q": "(1, 2)",
    "control.omega_lo": "[0, 1]", "control.omega_hi": "[0, 1]",
    "caccioppoli.omega_prime_lo": "[0, 1]", "caccioppoli.omega_prime_hi": "[0, 1]",
    "control.epsilon": "[0, inf)", "scan.window_tol": "[0, inf)",
    "observability.n_random": "[0, inf)", "observability.n_power": "[0, inf)",
    "run.seed": "[0, inf)",
    "grid.N": "[2, inf)", "grid.M": "[2, inf)", "hp.N": "[2, inf)",
    # the tail verdict of carleman-scan compares three consecutive points
    "scan.n_s": "[3, inf)",
    # c > -2/dt is checked per solving task in resolve_config, c2 > c2_min per model
    "potential.value": "(-inf, inf)", "weight.c2": "(-inf, inf)",
}


def _check_leaf(key: str, default, value):
    if isinstance(default, str):
        if not isinstance(value, str) or key in _CHOICES and value not in _CHOICES[key]:
            raise ConfigError(key, f"unsupported value {value!r}")
    elif isinstance(default, list):
        if not (isinstance(value, list) and value):
            raise ConfigError(key, f"a non-empty list is required, got {value!r}")
        for entry in value:
            _check_leaf(key, default[0], entry)
    elif not (default is None and value is None):
        if value is None or isinstance(value, (str, bool, dict, list)):
            raise ConfigError(key, f"a number is required, got {value!r}")
        try:
            v = float(value)
        except OverflowError:       # an integer beyond the floating-point range
            v = np.inf
        if not np.isfinite(v):
            raise ConfigError(key, f"a finite number is required, got {value!r}")
        if isinstance(default, int) and not v.is_integer():
            raise ConfigError(key, f"an integer is required, got {value!r}")
        interval = _RANGES.get(key, "[1, inf)" if isinstance(default, int) else "(0, inf)")
        lo, hi = (float(end) for end in interval[1:-1].split(","))
        if not ((lo < v or lo == v and interval[0] == "[")
                and (v < hi or v == hi and interval[-1] == "]")):
            raise ConfigError(key, f"value {value!r} outside {interval}")


def _name_key(key: str, check, *args):
    """``check(*args)``, with the ValueError it raises as a ConfigError naming key."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(key, str(exc))


def resolve_config(args) -> dict:
    config = copy.deepcopy(DEFAULT_CONFIG)
    if args.preset is not None:
        _merge_section(config, PRESETS[args.preset], "")
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError("--config", f"cannot read {args.config}: {exc}")
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("--config", f"invalid JSON in {args.config}: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("--config", "top level must be an object")
        _merge_section(config, data, "")
    for item in args.set or []:
        _merge_section(config, _parse_override(item), "")
    if args.out is not None:
        config["run"]["out_dir"] = args.out
    if args.seed is not None:
        config["run"]["seed"] = int(args.seed)
    validate_config(config)
    # the rules that bind only some tasks, each the library's own check
    tasks = set(TASKS) if args.subcommand == "all" else {args.subcommand}
    x0 = config["coefficient"]["x0"]
    omega = (config["control"]["omega_lo"], config["control"]["omega_hi"])
    if "hp" in tasks and config["hp"]["weight"] == "coefficient":
        weight = HardyWeight.from_coefficient(build_model(config))
        for grid in _hp_levels(config):
            _name_key("hp.weight", _require_hardy_monotone, weight, grid.x)
    if config["weight"]["c2"] is not None and tasks & {
            "carleman-identity", "carleman-scan", "caccioppoli"}:
        # c2 > c2_min depends on the model alone; T = s = 1 stand for every task's
        _name_key("weight.c2", build_weight_params, config, build_model(config), 1.0, 1.0)
    if "caccioppoli" in tasks:
        c = config["caccioppoli"]
        _name_key("caccioppoli.omega_prime_lo", _require_caccioppoli_geometry,
                  x0, (c["omega_prime_lo"], c["omega_prime_hi"]), omega)
    # c > -2/dt on the coarse grid of each task that solves with c; its fine grid halves dt
    for section in ("caccioppoli", "observability", "null_control"):
        if section.replace("_", "-") in tasks:
            _name_key("potential.value", _require_dominance, config["potential"]["value"],
                      float(config[section]["T"]) / int(config["grid"]["M"]))
    if tasks & {"observability", "null-control"}:
        _name_key("control.omega_lo", ControlConfig(*omega).require_x0_inside, x0)
    return config


def validate_config(config: dict):
    for section, leaves in DEFAULT_CONFIG.items():
        for leaf, default in leaves.items():
            _check_leaf(f"{section}.{leaf}", default, config[section][leaf])
    c = config["coefficient"]
    if c["theta"] is not None and (c["kind"] == "constant" or c["theta"] > c["alpha"]):
        raise ConfigError("coefficient.theta", f"value {c['theta']!r} needs kind power_law "
                          "and at most coefficient.alpha")
    for section in ("grid", "hp"):
        N = int(config[section]["N"])
        snapped = _name_key("coefficient.x0", SpaceTimeGrid.create, N, 1, 1.0, c["x0"]).N
        if snapped != N:
            print(f"warning: {section}.N={N} becomes N={snapped} so that x0={c['x0']} "
                  "lies on a grid node", file=sys.stderr)
    lo, hi = config["control"]["omega_lo"], config["control"]["omega_hi"]
    if not lo < hi:
        raise ConfigError("control.omega_hi", f"omega=({lo}, {hi}) is empty")


# ---------------------------------------------------------------------------
# object construction from config
# ---------------------------------------------------------------------------

def build_model(config: dict) -> CoefficientModel:
    c = config["coefficient"]
    if c["kind"] == "constant":
        return CoefficientModel.constant(c["constant_value"], c["x0"])
    return CoefficientModel.power_law(c["alpha"], c["x0"], theta=c["theta"])


def build_grid(config: dict, N=None, M=None, T=None) -> SpaceTimeGrid:
    g = config["grid"]
    return SpaceTimeGrid.create(int(N if N is not None else g["N"]),
                                int(M if M is not None else g["M"]),
                                float(T if T is not None else g["T"]),
                                config["coefficient"]["x0"])


def build_potential(config: dict) -> PotentialModel:
    return PotentialModel.constant(config["potential"]["value"])


def build_control(config: dict) -> ControlConfig:
    c = config["control"]
    return ControlConfig(c["omega_lo"], c["omega_hi"], epsilon=c["epsilon"])


def build_weight_params(config: dict, model, T: float, s: float) -> WeightParams:
    w = config["weight"]
    return WeightParams.for_model(model, T=T, s=s, c1=w["c1"], c2=w["c2"])


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _config_header(config: dict) -> str:
    # out_dir is where the artifact already lives; embedding it would make
    # otherwise-identical runs produce different bytes
    stripped = copy.deepcopy(config)
    stripped["run"].pop("out_dir", None)
    return "# config " + json.dumps(stripped, sort_keys=True) + "\n"


def write_csv(path: Path, header: list, rows: list, config: dict):
    buf = io.StringIO()
    buf.write(_config_header(config))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    path.write_text(buf.getvalue())


def verdict(name: str, ok: bool, value, threshold) -> dict:
    """A named verdict; a NaN or infinite value or threshold fails it."""
    value, threshold = (None if v is None else float(v) for v in (value, threshold))
    measured = all(np.isfinite(v) for v in (value, threshold) if v is not None)
    return {"name": name, "pass": bool(ok) and measured,
            "value": value, "threshold": threshold}


def _refinement_pair(config: dict, T=None) -> list:
    """The coarse grid (grid.N, grid.M) and the fine grid with both doubled.

    The fine level doubles the snapped coarse N, which keeps x0 on a node; doubling
    grid.N and snapping again can land on the coarse N itself.
    """
    coarse = build_grid(config, T=T)
    return [coarse, build_grid(config, N=2 * coarse.N, M=2 * coarse.M, T=T)]


def _hp_levels(config: dict) -> list:
    """The hp grids: hp.N, and the fine level that doubles its snapped N."""
    x0 = config["coefficient"]["x0"]
    coarse = SpaceTimeGrid.create(int(config["hp"]["N"]), 1, 1.0, x0)
    return [coarse, SpaceTimeGrid.create(2 * coarse.N, 1, 1.0, x0)]


def _relative_change(coarse: float, fine: float) -> float:
    """|fine - coarse| / coarse; inf unless coarse is finite and positive."""
    if np.isfinite(coarse) and coarse > 0.0:
        return abs(fine - coarse) / coarse
    return np.inf


# ---------------------------------------------------------------------------
# subcommand implementations; each returns verdicts plus csv rows
# ---------------------------------------------------------------------------

def run_check_coeff(config: dict, out_dir: Path) -> list:
    model = build_model(config)
    grid = build_grid(config, M=1)
    report = check_hypotheses(model, grid)
    verdicts = [
        verdict("hypothesis_slack", report.slack_ok, report.slack_max, report.slack_tol),
        verdict("gamma_monotone", report.gamma_monotone_ok, None, None),
        verdict("theta_monotone", report.theta_monotone_ok, None, None),
        verdict("degenerate_at_x0", report.degenerate_at_x0, None, None),
    ]
    x = grid.x
    a = model.eval_a(x)
    xap = model.eval_xa_prime(x)
    slack, _ = _hypothesis_slack(model, x, a, xap)
    write_csv(out_dir / "check_coeff.csv", ["x", "a", "xa_prime", "slack"],
              list(zip(x, a, xap, slack)), config)
    return verdicts


def run_hp(config: dict, out_dir: Path) -> list:
    c = config["hp"]
    if c["weight"] == "pure_power":
        weight = HardyWeight.pure_power(c["q"], config["coefficient"]["x0"])
    else:
        weight = HardyWeight.from_coefficient(build_model(config))
    grids = _hp_levels(config)
    coarse, fine = (hp_verify(weight, grid, battery_size=int(c["battery_size"]),
                              seed=int(config["run"]["seed"])) for grid in grids)
    change = _relative_change(coarse.rayleigh_estimate, fine.rayleigh_estimate)
    verdicts = [
        verdict("rayleigh_below_bound",
                coarse.rayleigh_estimate <= coarse.paper_bound * 1.05,
                coarse.rayleigh_estimate, coarse.paper_bound * 1.05),
        verdict("battery_below_rayleigh",
                coarse.battery_max_ratio <= coarse.rayleigh_estimate * 1.02,
                coarse.battery_max_ratio, coarse.rayleigh_estimate * 1.02),
        verdict("rayleigh_stable", change < c["stability_tol"], change, c["stability_tol"]),
    ]
    rows = [[grids[0].N, "paper_bound", coarse.paper_bound]]
    for grid, rep in zip(grids, (coarse, fine)):
        rows.append([grid.N, "rayleigh", rep.rayleigh_estimate])
        for k, ratio in enumerate(rep.battery_ratios):
            rows.append([grid.N, f"battery_{k}", ratio])
    write_csv(out_dir / "hp.csv", ["N", "sample", "ratio"], rows, config)
    return verdicts


def _identity_profile(T: float, x0: float):
    return lambda t, x: (t * (T - t)) ** 5 * (x - x0) ** 2 * x * (1.0 - x)


def run_carleman_identity(config: dict, out_dir: Path) -> list:
    model = build_model(config)
    c = config["identity"]
    T = config["grid"]["T"]
    verdicts = []
    rows = []
    for s in c["s_values"]:
        residuals = []
        for grid in _refinement_pair(config):
            params = build_weight_params(config, model, T, s)
            w = Field.from_function(grid, _identity_profile(T, model.x0))
            rep = carleman_identity_check(model, params, grid, w)
            residuals.append(rep.residual)
            rows.append([s, grid.N, grid.M, rep.lhs, rep.rhs, rep.residual])
        factor = residuals[0] / residuals[1] if residuals[1] > 0.0 else np.inf
        verdicts.append(verdict(f"identity_residual_s{s:g}",
                                residuals[1] < c["residual_tol"],
                                residuals[1], c["residual_tol"]))
        verdicts.append(verdict(f"identity_refinement_s{s:g}",
                                factor >= c["refine_factor_min"],
                                factor, c["refine_factor_min"]))
    write_csv(out_dir / "carleman_identity.csv",
              ["s", "N", "M", "lhs", "rhs", "residual"], rows, config)
    return verdicts


def _scan_profile(T: float, x0: float):
    return lambda t, x: t * (T - t) * (x - x0) ** 2 * x * (1.0 - x)


def run_carleman_scan(config: dict, out_dir: Path) -> list:
    model = build_model(config)
    potential = build_potential(config)
    c = config["scan"]
    T = c["T"]
    s_values = default_s_values(int(c["n_s"]), c["s_start"], c["s_ratio"])
    reports = []
    rows = []
    for grid in _refinement_pair(config, T):
        params = build_weight_params(config, model, T, s_values[0])
        v, h = manufactured_adjoint_pair(model, potential, grid,
                                         _scan_profile(T, model.x0))
        rep = carleman_scan(model, params, grid, v, h,
                            s_values=s_values, window_tol=c["window_tol"])
        reports.append(rep)
        for k in range(s_values.size):
            rows.append([grid.N, rep.s_values[k], rep.lhs[k], rep.rhs_source[k],
                         rep.rhs_boundary[k], rep.ratios[k]])
    coarse, fine = reports
    change = _relative_change(coarse.fitted_C, fine.fitted_C)
    tail = coarse.ratios[coarse.s_values >= coarse.s0_observed]
    nonincreasing = bool(np.all(tail[1:] <= tail[:-1] * (1.0 + c["window_tol"])))
    verdicts = [
        verdict("scan_ratios_finite", bool(np.all(np.isfinite(coarse.ratios))),
                float(np.max(coarse.ratios)), None),
        verdict("scan_rhs_positive", not coarse.nonpositive_rhs, None, None),
        verdict("scan_tail_nonincreasing", nonincreasing, coarse.s0_observed, None),
        verdict("scan_fitted_C_stable", change < c["stability_tol"],
                change, c["stability_tol"]),
    ]
    write_csv(out_dir / "carleman_scan.csv",
              ["N", "s", "lhs", "rhs_source", "rhs_boundary", "ratio"], rows, config)
    return verdicts


def run_caccioppoli(config: dict, out_dir: Path) -> list:
    model = build_model(config)
    potential = build_potential(config)
    c = config["caccioppoli"]
    T = c["T"]
    omega_p = (c["omega_prime_lo"], c["omega_prime_hi"])
    omega = (config["control"]["omega_lo"], config["control"]["omega_hi"])
    ratios = {}
    rows = []
    for grid in _refinement_pair(config, T):
        op = assemble_operator(model, grid)
        _, modes = dirichlet_eigenmodes(op, 1)
        v = solve_adjoint(model, potential, grid, modes[0])
        for s in c["s_values"]:
            params = build_weight_params(config, model, T, s)
            rep = caccioppoli_check(model, params, grid, v, omega_p, omega)
            ratios.setdefault(s, []).append(rep.ratio)
            rows.append([grid.N, s, rep.local_gradient_integral,
                         rep.outer_solution_integral, rep.ratio])
    verdicts = []
    for s, (r1, r2) in ratios.items():
        # a zero ratio means e^{2s phi} underflowed on that level: nothing was compared;
        # a non-finite ratio makes the change non-finite, which fails the verdict
        positive = r1 > 0.0 and r2 > 0.0
        scale = max(abs(r1), abs(r2), 1e-300)
        change = abs(r2 - r1) / scale
        verdicts.append(verdict(f"caccioppoli_stable_s{s:g}",
                                positive and change < c["stability_tol"],
                                change, c["stability_tol"]))
    write_csv(out_dir / "caccioppoli.csv",
              ["N", "s", "local_gradient", "outer_solution", "ratio"], rows, config)
    return verdicts


def run_observability(config: dict, out_dir: Path) -> list:
    model = build_model(config)
    potential = build_potential(config)
    control = build_control(config)
    c = config["observability"]
    seed = int(config["run"]["seed"])
    reports = []
    rows = []
    for grid in _refinement_pair(config, c["T"]):
        rep = estimate_observability(model, potential, grid, control,
                                     n_modes=int(c["n_modes"]),
                                     n_random=int(c["n_random"]),
                                     n_power=int(c["n_power"]), seed=seed)
        reports.append(rep)
        for desc, ratio in rep.samples:
            rows.append([grid.N, desc, ratio])
    coarse, fine = reports
    change = _relative_change(coarse.C_T_estimate, fine.C_T_estimate)
    verdicts = [
        verdict("observability_finite_positive", coarse.C_T_estimate > 0.0,
                coarse.C_T_estimate, None),
        verdict("observability_stable", change < c["stability_tol"],
                change, c["stability_tol"]),
        verdict("no_backward_uniqueness_violation",
                not (coarse.violation or fine.violation), None, None),
    ]
    write_csv(out_dir / "observability.csv", ["N", "sample", "ratio"], rows, config)
    return verdicts


def run_null_control(config: dict, out_dir: Path) -> list:
    model = build_model(config)
    potential = build_potential(config)
    control = build_control(config)
    c = config["null_control"]
    grid = build_grid(config, T=c["T"])
    u0 = grid.x * (1.0 - grid.x)
    sol = synthesize_null_control(model, potential, grid, control, u0,
                                  tol=c["tol"], max_iters=int(c["max_iters"]))
    ratio = sol.terminal_norm / sol.initial_norm
    J_decreasing = bool(np.all(np.diff(sol.J_history) < 0.0)) if sol.J_history.size > 1 else True
    chi = control.indicator(grid)
    outside = float(np.max(np.abs(sol.h.values[:, chi == 0.0]))) if np.any(chi == 0.0) else 0.0
    verdicts = [
        verdict("terminal_norm_small", sol.converged and ratio <= c["tol"],
                ratio, c["tol"]),
        verdict("cost_functional_decreasing", J_decreasing, None, None),
        verdict("control_supported_in_omega", outside == 0.0, outside, 0.0),
    ]
    rows = [[k, sol.residual_history[k], sol.J_history[k]]
            for k in range(sol.residual_history.size)]
    write_csv(out_dir / "null_control.csv",
              ["iteration", "terminal_norm", "cost_functional"], rows, config)
    (out_dir / "null_control_field.csv").write_text(_config_header(config) + sol.h.to_csv())
    return verdicts


TASKS = {
    "check-coeff": run_check_coeff,
    "hp": run_hp,
    "carleman-identity": run_carleman_identity,
    "carleman-scan": run_carleman_scan,
    "caccioppoli": run_caccioppoli,
    "observability": run_observability,
    "null-control": run_null_control,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenpde",
        description="Verification and control synthesis for parabolic equations "
                    "with an interior degeneracy.")
    parser.add_argument("subcommand", choices=(*TASKS, "all"))
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a configuration value (repeatable, dotted keys)")
    parser.add_argument("--out", help="output directory for reports")
    parser.add_argument("--seed", type=int, help="random seed override")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="named (alpha, x0) coefficient preset")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit status 2 for usage errors; here 2 means a
        # verdict failed, so usage problems are remapped to 1
        return 0 if exc.code == 0 else 1
    try:
        config = resolve_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(config["run"]["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    names = list(TASKS) if args.subcommand == "all" else [args.subcommand]

    all_verdicts = []
    timing = {}
    for name in names:
        t0 = time.perf_counter()
        all_verdicts.extend(TASKS[name](config, out_dir))
        timing[name] = time.perf_counter() - t0

    summary = {"config": config, "verdicts": all_verdicts, "timing": timing}
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))

    for v in all_verdicts:
        status = "PASS" if v["pass"] else "FAIL"
        detail = ""
        if v["value"] is not None:
            detail = f"  value={v['value']:.6g}"
            if v["threshold"] is not None:
                detail += f"  threshold={v['threshold']:.6g}"
        print(f"[{status}] {v['name']}{detail}")
    failed = [v for v in all_verdicts if not v["pass"]]
    print(f"{len(all_verdicts) - len(failed)}/{len(all_verdicts)} verdicts passed")
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
