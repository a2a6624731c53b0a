"""Command-line driver: configuration, verification runs, report files.

Each subcommand executes one verification or synthesis workflow, writes an
RFC-4180 CSV (with the fully resolved configuration embedded as a comment
header, so artifacts are self-describing) plus a JSON summary with verdicts,
and prints a human-readable pass/fail line per verdict.

Exit status: 0 all verdicts pass, 2 at least one verdict failed,
1 usage or configuration error, a grid too large to allocate, or a report
file that cannot be written (the message names the offending key).
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import json
import math
import operator
import sys
import time
from pathlib import Path

import numpy as np

from .coefficients import CoefficientModel, check_hypotheses
from .control import estimate_observability, synthesize_null_control
from .grid import (SpaceTimeGrid, _require_time_step, _snap_N, assemble_operator,
                   dirichlet_eigenmodes)
from .inequalities import (_S_RATIO, HardyWeight, _require_caccioppoli_geometry,
                           caccioppoli_check, carleman_identity_check, carleman_scan,
                           default_s_values, hp_verify, manufactured_adjoint_pair)
from .solvers import ControlConfig, PotentialModel, _require_dominance, solve_adjoint
from .weights import _LOG_MAX, WeightParams, _require_finite_theta

__all__ = ["main", "DEFAULT_CONFIG", "PRESETS"]


DEFAULT_CONFIG = {
    "coefficient": {
        "alpha": 0.5,             # 0 is the constant coefficient a = 1
        "x0": 0.3,
        "theta": None,            # defaults to alpha
    },
    "grid": {"N": 200, "M": 400, "T": 1.0},
    "potential": {"value": 0.0},              # the constant c
    "control": {"omega_lo": 0.2, "omega_hi": 0.5, "epsilon": 1e-8},
    "hp": {"q": 1.5, "weight": "pure_power", "battery_size": 20, "N": 1000},
    "scan": {"T": 2.0, "n_s": 10},
    "caccioppoli": {"T": 2.0, "omega_prime_lo": 0.35, "omega_prime_hi": 0.45},
    "observability": {"n_modes": 10, "n_random": 10, "n_power": 20},
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
    key, eq, raw = text.partition("=")
    if not (eq and key.strip()):
        raise ConfigError(text, "override must have the form key=value")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    for part in reversed(key.strip().split(".")):
        value = {part: value}
    return value


# Every leaf of DEFAULT_CONFIG is checked by the type of its default.  A string
# is one of _CHOICES[key], or any string for a key without choices.  An int is
# an integer in [1, inf).  A float, or a None that selects a derived default,
# is a number in (0, inf), and None stays admissible.  _RANGES lists the keys
# whose interval differs from their kind's.  Every number must be finite: a
# nan or infinite bound or tolerance would let a verdict pass unmeasured.
_CHOICES = {"hp.weight": ("pure_power", "coefficient")}
_RANGES = {
    "coefficient.x0": "(0, 1)", "coefficient.alpha": "[0, 2)", "hp.q": "(1, 2)",
    "control.omega_lo": "[0, 1]", "control.omega_hi": "[0, 1]",
    "caccioppoli.omega_prime_lo": "[0, 1]", "caccioppoli.omega_prime_hi": "[0, 1]",
    "control.epsilon": "[0, inf)", "observability.n_random": "[0, inf)",
    "observability.n_power": "[0, inf)", "run.seed": "[0, inf)",
    # (a w_x)_x extrapolates its boundary values from four nodes
    "grid.N": "[3, inf)", "grid.M": "[2, inf)", "hp.N": "[2, inf)",
    # the tail verdict of carleman-scan compares three consecutive points, in increasing s
    "scan.n_s": "[3, inf)",
    # c > -2/dt is checked per solving task in resolve_config
    "potential.value": "(-inf, inf)",
}
# the most float64 values one array can hold: NumPy refuses more with a ValueError
# before it tries to allocate, where a size it tries and fails is a MemoryError
_MAX_FLOATS = np.iinfo(np.intp).max // 8


def _check_leaf(key: str, default, value):
    if isinstance(default, str):
        if not isinstance(value, str) or key in _CHOICES and value not in _CHOICES[key]:
            raise ConfigError(key, f"unsupported value {value!r}")
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
    if "hp" in tasks:
        _name_key("hp.weight", _hardy_weight, config)
    # (k Theta)^3 of the largest s is finite at the finest level's first interior time
    M = 2 * int(config["grid"]["M"])
    if "carleman-identity" in tasks:
        T, s = float(config["grid"]["T"]), max(_IDENTITY_S)
        _require_finite_factor("grid.T", T, M, "grid.T", math.log(s), f"s = {s:g}")
        # the profile w = (t (T - t))^5 S(x) peaks in t at (T/2)^10, and |S|, |S'| <= 1:
        # w^2 and w_x^2, the largest squares the identity forms, are at most (T/2)^20
        if 20.0 * math.log(0.5 * T) >= _LOG_MAX:
            raise ConfigError("grid.T", f"T={T:g} makes the bound (T/2)^20 on w^2 overflow")
    if "carleman-scan" in tasks:
        T, n = float(config["scan"]["T"]), int(config["scan"]["n_s"]) - 1
        _require_finite_factor("scan.T", T, M, "scan.n_s", n * math.log(_S_RATIO),
                               f"s = {_S_RATIO:g}^{n}")
        # the profile v = t (T - t) S(x) peaks in t at (T/2)^2, with |S| <= 1, and at
        # T >= 1/2 its source h = v_t + (a v_x)_x - c v has |h| <= (10 + |c|) (T/2)^2, as
        # |(a S')'| <= 9.5; the integral of h^2 over [0, T] x [0, 1] is the largest
        # quantity the scan forms.  Where the c term dominates, it names potential.value
        c = config["potential"]["value"]
        if math.log(T) + 2.0 * math.log(10.0 + abs(c)) + 4.0 * math.log(0.5 * T) >= _LOG_MAX:
            raise ConfigError("potential.value" if abs(c) > 10.0 else "scan.T",
                              f"T={T:g} and c={c:g} make the bound T ((10 + |c|) (T/2)^2)^2 "
                              "on the integral of h^2 overflow")
    if "caccioppoli" in tasks:
        c = config["caccioppoli"]
        if 2.0 * math.log(0.5 * c["T"]) >= _LOG_MAX:     # Theta is a power of t (T - t)
            raise ConfigError("caccioppoli.T", f"T={c['T']:g} makes (T/2)^2, the peak of "
                              "t (T - t), overflow")
        _name_key("caccioppoli.omega_prime_lo", _require_caccioppoli_geometry,
                  x0, (c["omega_prime_lo"], c["omega_prime_hi"]), omega)
    # c > -2/dt on the coarse grid of each task that solves with c; its fine grid halves dt
    for T, solving in ((config["caccioppoli"]["T"], {"caccioppoli"}),
                       (_CONTROL_T, {"observability", "null-control"})):
        if tasks & solving:
            _name_key("potential.value", _require_dominance, config["potential"]["value"],
                      float(T) / int(config["grid"]["M"]))
    if tasks & {"observability", "null-control"}:
        _name_key("control.omega_lo", ControlConfig(*omega).require_x0_inside, x0)
    return config


def _require_finite_factor(T_key: str, T: float, M: int, k_key: str, log_k: float, k: str):
    """Raise unless Theta^3, k^3 and (k Theta)^3 are finite at t = T/M, every cube
    taken in logs.  Theta^3 names T_key, any other cube k_key, the key that sets k."""
    log_theta = _name_key(T_key, _require_finite_theta, T, M)
    if 3.0 * max(log_k, log_k + log_theta) >= _LOG_MAX:
        raise ConfigError(k_key, f"k = {k} makes k^3 or (k Theta)^3 overflow at t = T/{M}")


def validate_config(config: dict):
    for section, leaves in DEFAULT_CONFIG.items():
        for leaf, default in leaves.items():
            _check_leaf(f"{section}.{leaf}", default, config[section][leaf])
    c = config["coefficient"]
    # theta is positive, so no theta is admissible at alpha 0
    if c["theta"] is not None and c["theta"] > c["alpha"]:
        raise ConfigError("coefficient.theta",
                          f"value {c['theta']!r} exceeds coefficient.alpha={c['alpha']!r}")
    # the finest level of any task doubles the snapped N and grid.M
    nodes = {"grid.M": 2 * int(config["grid"]["M"]) + 1}
    for section in ("grid", "hp"):
        N = int(config[section]["N"])
        snapped = _name_key("coefficient.x0", _snap_N, N, c["x0"])
        if snapped != N:
            print(f"warning: {section}.N={N} becomes N={snapped} so that x0={c['x0']} "
                  "lies on a grid node", file=sys.stderr)
        nodes[f"{section}.N"] = 2 * snapped + 1
    for key, n in nodes.items():
        if n > _MAX_FLOATS:
            raise ConfigError(key, f"its finest level has more nodes than the {_MAX_FLOATS} "
                              "float64 values an array can hold")
    for section in ("grid", "scan", "caccioppoli"):
        _name_key(f"{section}.T", _require_time_step, float(config[section]["T"]),
                  2 * int(config["grid"]["M"]))
    lo, hi = config["control"]["omega_lo"], config["control"]["omega_hi"]
    if not lo < hi:
        raise ConfigError("control.omega_hi", f"omega=({lo}, {hi}) is empty")


# ---------------------------------------------------------------------------
# object construction from config
# ---------------------------------------------------------------------------

def build_model(config: dict) -> CoefficientModel:
    c = config["coefficient"]
    if c["alpha"] == 0:
        return CoefficientModel.constant(1.0, c["x0"])
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


def build_weight_params(model, T: float, s: float) -> WeightParams:
    """The weight at s, with every check's constants c1 = 1 and c2 = 1.05 c2_min."""
    return WeightParams.for_model(model, T=T, s=s)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

# null_control_field.csv is written in slices of this many characters (ASCII,
# so as many bytes), so that no second copy of the whole text is encoded at once
_CSV_SLICE_CHARS = 1 << 18


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


def verdict(name: str, ok, value=None, threshold=None) -> dict:
    """A named verdict; a NaN or infinite value or threshold fails it.  ``ok`` is
    a flag, or "<", "<=" or ">=" to pass when value compares so with threshold."""
    value, threshold = (None if v is None else float(v) for v in (value, threshold))
    measured = all(np.isfinite(v) for v in (value, threshold) if v is not None)
    if isinstance(ok, str):
        ok = {"<": operator.lt, "<=": operator.le, ">=": operator.ge}[ok](value, threshold)
    return {"name": name, "pass": bool(ok) and measured,
            "value": value, "threshold": threshold}


def _refinement_pair(config: dict, T=None) -> list:
    """The coarse grid (grid.N, grid.M) and the fine grid with both doubled.

    The fine level doubles the snapped coarse N, which keeps x0 on a node; doubling
    grid.N and snapping again can land on the coarse N itself.
    """
    coarse = build_grid(config, T=T)
    return [coarse, build_grid(config, N=2 * coarse.N, M=2 * coarse.M, T=T)]


def _level_pair(name: str, coarse: float, fine: float, tol: float, measured=True) -> dict:
    """Passes when |fine - coarse| / coarse < tol and both levels measured; the
    change is inf unless coarse is finite and positive."""
    change = abs(fine - coarse) / coarse if np.isfinite(coarse) and coarse > 0.0 else np.inf
    return verdict(name, measured and change < tol, change, tol)


def _hardy_weight(config: dict) -> HardyWeight:
    if config["hp"]["weight"] == "pure_power":
        return HardyWeight.pure_power(config["hp"]["q"], config["coefficient"]["x0"])
    return HardyWeight.from_coefficient(build_model(config))


# ---------------------------------------------------------------------------
# subcommand implementations; each writes its CSV and returns its verdicts and a
# dict that says what it ran (empty where there is nothing more to say)
# ---------------------------------------------------------------------------

def run_check_coeff(config: dict, out_dir: Path) -> tuple[list, dict]:
    model = build_model(config)
    grid = build_grid(config, M=1)
    report = check_hypotheses(model)
    verdicts = [
        verdict("hypothesis_slack", "<=", report.slack_max, 0.0),
        verdict("gamma_monotone", report.gamma_monotone_ok),
        verdict("theta_monotone", report.theta_monotone_ok),
        verdict("degenerate_at_x0", report.degenerate_at_x0),
    ]
    a = model.eval_a(grid.x)          # (x - x0) a' = alpha a; the slack is the same at every node
    write_csv(out_dir / "check_coeff.csv", ["x", "a", "xa_prime", "slack"],
              [(*row, report.slack_max) for row in zip(grid.x, a, model.alpha * a)], config)
    return verdicts, {}


def run_hp(config: dict, out_dir: Path) -> tuple[list, dict]:
    c = config["hp"]
    weight = _hardy_weight(config)
    # hp.N, and the fine level that doubles its snapped N
    x0 = config["coefficient"]["x0"]
    grids = [SpaceTimeGrid.create(int(c["N"]), 1, 1.0, x0)]
    grids.append(SpaceTimeGrid.create(2 * grids[0].N, 1, 1.0, x0))
    coarse, fine = [hp_verify(weight, grid, battery_size=int(c["battery_size"]),
                              seed=int(config["run"]["seed"])) for grid in grids]
    verdicts = [
        verdict("rayleigh_below_bound", "<=",
                coarse.rayleigh_estimate, coarse.paper_bound * 1.05),
        verdict("battery_below_rayleigh", "<=",
                coarse.battery_max_ratio, coarse.rayleigh_estimate * 1.02),
        _level_pair("rayleigh_stable", coarse.rayleigh_estimate, fine.rayleigh_estimate, 0.05),
    ]
    rows = [[grids[0].N, "paper_bound", coarse.paper_bound]]
    for grid, rep in zip(grids, (coarse, fine)):
        rows.append([grid.N, "rayleigh", rep.rayleigh_estimate])
        for k, ratio in enumerate(rep.battery_ratios):
            rows.append([grid.N, f"battery_{k}", ratio])
    write_csv(out_dir / "hp.csv", ["N", "sample", "ratio"], rows, config)
    return verdicts, {}


def _carleman_profile(T: float, x0: float, k: int):
    def profile(t, x):     # (t (T - t))^k (x - x0)^2 x (1 - x), left to right
        out = (t * (T - t)) ** k * (x - x0) ** 2
        out *= x
        out *= 1.0 - x
        return out
    return profile


# Each level of a refinement-pair task runs in its own function, which returns
# only the level's report and CSV rows: what the level holds (Caccioppoli's
# adjoint field) dies on return, before the next level builds its own.

def _identity_level(config: dict, model, grid: SpaceTimeGrid, s: float):
    T = config["grid"]["T"]
    params = build_weight_params(model, T, s)
    rep = carleman_identity_check(model, params, grid, _carleman_profile(T, model.x0, 5))
    return rep, [[s, grid.N, grid.M, rep.lhs, rep.rhs, rep.residual]]


# the large parameters each check samples; constants, like the gates and the weight's
# c1 and c2 (c1 reaches e^{2 s phi} only through s c1), so that no key can move a
# failing check onto a value where it passes
_IDENTITY_S = (1.0, 10.0)
_CACCIOPPOLI_S = (1.0, 2.0, 4.0)


def run_carleman_identity(config: dict, out_dir: Path) -> tuple[list, dict]:
    model = build_model(config)
    verdicts = []
    rows = []
    for s in _IDENTITY_S:
        (coarse, coarse_rows), (fine, fine_rows) = [
            _identity_level(config, model, grid, s) for grid in _refinement_pair(config)]
        rows += coarse_rows + fine_rows
        factor = coarse.residual / fine.residual if fine.residual > 0.0 else np.inf
        verdicts.append(verdict(f"identity_residual_s{s:g}", "<", fine.residual, 0.05))
        verdicts.append(verdict(f"identity_refinement_s{s:g}", ">=", factor, 3.0))
    write_csv(out_dir / "carleman_identity.csv",
              ["s", "N", "M", "lhs", "rhs", "residual"], rows, config)
    return verdicts, {}


def _scan_level(config: dict, model, potential, grid: SpaceTimeGrid, s_values):
    T = config["scan"]["T"]
    params = build_weight_params(model, T, s_values[0])
    pair = manufactured_adjoint_pair(model, potential, grid, _carleman_profile(T, model.x0, 1))
    rep = carleman_scan(model, params, grid, pair, s_values=s_values, window_tol=0.05)
    return rep, [[grid.N, rep.s_values[k], rep.lhs[k], rep.rhs_source[k],
                  rep.rhs_boundary[k], rep.ratios[k]] for k in range(s_values.size)]


def run_carleman_scan(config: dict, out_dir: Path) -> tuple[list, dict]:
    model = build_model(config)
    potential = build_potential(config)
    s_values = default_s_values(int(config["scan"]["n_s"]))
    (coarse, coarse_rows), (fine, fine_rows) = [
        _scan_level(config, model, potential, grid, s_values)
        for grid in _refinement_pair(config, config["scan"]["T"])]
    verdicts = [
        # a ratio of 0 is an LHS that underflowed, and measures nothing
        verdict("scan_ratios_finite",
                bool(np.all(np.isfinite(coarse.ratios) & (coarse.ratios > 0.0))),
                float(np.max(coarse.ratios))),
        verdict("scan_rhs_positive", not coarse.nonpositive_rhs),
        verdict("scan_tail_nonincreasing", coarse.window_found, coarse.s0_observed),
        # fitted_C is a constant only over a window; without one on both levels it
        # is each level's last ratio, and its change measures nothing
        _level_pair("scan_fitted_C_stable", coarse.fitted_C, fine.fitted_C, 0.25,
                    measured=coarse.window_found and fine.window_found),
    ]
    write_csv(out_dir / "carleman_scan.csv",
              ["N", "s", "lhs", "rhs_source", "rhs_boundary", "ratio"],
              coarse_rows + fine_rows, config)
    # each level's window and its largest rise, the margin left to window_tol
    return verdicts, {key: [getattr(coarse, key), getattr(fine, key)]
                      for key in ("window_found", "s0_observed", "window_max_rise")}


def _caccioppoli_level(config: dict, model, potential, grid: SpaceTimeGrid):
    c = config["caccioppoli"]
    omega_p = (c["omega_prime_lo"], c["omega_prime_hi"])
    omega = (config["control"]["omega_lo"], config["control"]["omega_hi"])
    op = assemble_operator(model, grid)
    _, modes = dirichlet_eigenmodes(op, 1)
    v = solve_adjoint(model, potential, grid, modes[0])
    reports = []
    for s in _CACCIOPPOLI_S:
        params = build_weight_params(model, c["T"], s)
        reports.append(caccioppoli_check(model, params, grid, v, omega_p, omega))
    return reports, [[grid.N, s, rep.local_gradient_integral, rep.outer_solution_integral,
                      rep.ratio, rep.log_ratio] for s, rep in zip(_CACCIOPPOLI_S, reports)]


def run_caccioppoli(config: dict, out_dir: Path) -> tuple[list, dict]:
    model = build_model(config)
    potential = build_potential(config)
    (coarse, coarse_rows), (fine, fine_rows) = [
        _caccioppoli_level(config, model, potential, grid)
        for grid in _refinement_pair(config, config["caccioppoli"]["T"])]
    # the fine ratio relative to the coarse one, from the log ratios, which stay
    # finite where e^{2s phi} underflows; inf past the floating-point range, and
    # where both log ratios are infinite.  Between finite log ratios the step is
    # the shifts' change plus the rests', which keeps what a huge shift rounds
    # away from each log ratio.
    steps = [(r2.log_shift - r1.log_shift) + (r2.log_rest - r1.log_rest)
             if math.isfinite(r1.log_ratio) and math.isfinite(r2.log_ratio)
             else r2.log_ratio - r1.log_ratio for r1, r2 in zip(coarse, fine)]
    verdicts = [_level_pair(f"caccioppoli_stable_s{s:g}", 1.0,
                            math.exp(d) if d <= _LOG_MAX else math.inf, 0.2)
                for s, d in zip(_CACCIOPPOLI_S, steps)]
    write_csv(out_dir / "caccioppoli.csv",
              ["N", "s", "local_gradient", "outer_solution", "ratio", "log_ratio"],
              coarse_rows + fine_rows, config)
    return verdicts, {}


# the horizon T of the observability inequality and, by HUM duality, of the null
# control; the CG stopping tolerance on ||u(T)|| / ||u0||, which terminal_norm_small
# reports as its gate; and the iteration cap: constants, as no key may loosen a gate
_CONTROL_T = 0.5
_NULL_CONTROL_TOL = 1e-2
_NULL_CONTROL_MAX_ITERS = 500


def run_observability(config: dict, out_dir: Path) -> tuple[list, dict]:
    model = build_model(config)
    potential = build_potential(config)
    control = build_control(config)
    c = config["observability"]
    seed = int(config["run"]["seed"])
    grids = _refinement_pair(config, _CONTROL_T)
    coarse, fine = [estimate_observability(model, potential, grid, control,
                                           n_modes=int(c["n_modes"]),
                                           n_random=int(c["n_random"]),
                                           n_power=int(c["n_power"]), seed=seed)
                    for grid in grids]
    rows = [[grid.N, desc, ratio] for grid, rep in zip(grids, (coarse, fine))
            for desc, ratio in rep.samples]
    verdicts = [
        verdict("observability_finite_positive", coarse.C_T_estimate > 0.0, coarse.C_T_estimate),
        _level_pair("observability_stable", coarse.C_T_estimate, fine.C_T_estimate, 0.25),
        verdict("no_backward_uniqueness_violation", not (coarse.violation or fine.violation)),
    ]
    write_csv(out_dir / "observability.csv", ["N", "sample", "ratio"], rows, config)
    return verdicts, {}


def run_null_control(config: dict, out_dir: Path) -> tuple[list, dict]:
    model = build_model(config)
    potential = build_potential(config)
    control = build_control(config)
    grid = build_grid(config, T=_CONTROL_T)
    u0 = grid.x * (1.0 - grid.x)
    sol = synthesize_null_control(model, potential, grid, control, u0,
                                  tol=_NULL_CONTROL_TOL, max_iters=_NULL_CONTROL_MAX_ITERS)
    ratio = sol.terminal_norm / sol.initial_norm
    # one J value is a CG that took no step: its control is 0, and no decrease of J
    # was measured (the free decay of u0 can meet the tolerance on its own)
    J_decreasing = sol.J_history.size > 1 and bool(np.all(np.diff(sol.J_history) < 0.0))
    chi = control.indicator(grid)
    outside = float(np.max(np.abs(sol.h.values[:, chi == 0.0]))) if np.any(chi == 0.0) else 0.0
    verdicts = [
        verdict("terminal_norm_small", sol.converged, ratio, _NULL_CONTROL_TOL),
        verdict("cost_functional_decreasing", J_decreasing),
        verdict("control_supported_in_omega", "<=", outside, 0.0),
    ]
    rows = [[k, sol.residual_history[k], sol.J_history[k]]
            for k in range(sol.residual_history.size)]
    write_csv(out_dir / "null_control.csv",
              ["iteration", "terminal_norm", "cost_functional"], rows, config)
    text = sol.h.to_csv()
    with open(out_dir / "null_control_field.csv", "w") as f:
        f.write(_config_header(config))
        for k in range(0, len(text), _CSV_SLICE_CHARS):
            f.write(text[k:k + _CSV_SLICE_CHARS])
    return verdicts, {"cg_iterations": sol.cg_iterations, "stop_reason": sol.stop_reason}


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
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:      # e.g. a file where it or a parent must go
        print(f"error: run.out_dir: cannot create {out_dir} ({exc})", file=sys.stderr)
        return 1
    names = list(TASKS) if args.subcommand == "all" else [args.subcommand]

    grid_sizes = {f"{k}.N": {"requested": int(config[k]["N"]),
                             "snapped": _snap_N(int(config[k]["N"]), config["coefficient"]["x0"])}
                  for k in ("grid", "hp")}
    all_verdicts = []
    diagnostics = {}
    timing = {}
    try:
        for name in names:
            t0 = time.perf_counter()
            try:
                verdicts, ran = TASKS[name](config, out_dir)
            except MemoryError as exc:
                # an in-range size too large for this machine: no fixed upper end
                # on the sizes could know what a machine holds
                section = "hp" if name == "hp" else "grid"
                sizes = f"{section}.N={int(config[section]['N'])}"
                if section == "grid":
                    sizes += f", grid.M={int(config['grid']['M'])}"
                print(f"error: {section}.N: {sizes} is too large to allocate ({exc})",
                      file=sys.stderr)
                return 1
            timing[name] = time.perf_counter() - t0
            all_verdicts.extend(verdicts)
            if ran:
                diagnostics[name] = ran
        summary = {"config": config, "grid_sizes": grid_sizes, "verdicts": all_verdicts,
                   "diagnostics": diagnostics, "timing": timing}
        (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    except OSError as exc:      # the only I/O of a run is writing its reports
        print(f"error: run.out_dir: cannot write {exc.filename or out_dir} ({exc.strerror})",
              file=sys.stderr)
        return 1

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
