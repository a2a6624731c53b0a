"""The three benchmark workloads: inputs made from a seed, one pass of the
program, and the raw outputs the oracle checks.

Every workload is split into ``setup`` (build the inputs and resolve the
configuration; timed as ``setup_s``) and ``execute`` (run the program and
collect its outputs; timed as ``wall_s``).  An *operation* is one CLI task
or one control synthesis; ``execute`` returns one outcome per operation:

    {"verdicts": [[name, passed, value], ...],
     "artifacts": {artifact name: sha256 hex digest},
     "error": None or a message}

Importing this module imports numpy and degenpde, so the worker imports it
inside the timed set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import degenpde.control
from degenpde import CoefficientModel, ControlConfig, Field, PotentialModel, SpaceTimeGrid
from degenpde import cli

PRESETS = ("alpha0.5-x0.3", "alpha1.0-x0.3", "alpha1.5-x0.3")
PRESET_TASKS = ("check-coeff", "hp", "carleman-identity", "carleman-scan", "caccioppoli")

# `--set` overrides per workload and scale; "tiny" is the smoke-test size.
CLI_OVERRIDES = {
    ("verify_default", "full"): [],
    ("verify_default", "tiny"): ["grid.N=20", "grid.M=40", "hp.N=50", "hp.battery_size=3",
                                 "observability.n_modes=2", "observability.n_random=2",
                                 "observability.n_power=2", "scan.n_s=5"],
    ("inequalities_presets", "full"): ["grid.N=400", "grid.M=800"],
    ("inequalities_presets", "tiny"): ["grid.N=20", "grid.M=40", "hp.N=50",
                                       "hp.battery_size=3", "scan.n_s=5"],
}

HUM = {"full": {"alphas": [1.0, 1.5], "x0": 0.3, "omega": [0.2, 0.5], "epsilon": 1e-8,
                "N": 200, "M": 400, "T": 0.5, "tol": 1e-3, "max_iters": 500}}
HUM["tiny"] = dict(HUM["full"], N=20, M=40, tol=1e-2)

def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def config_sha256(config) -> str:
    return sha256_bytes(json.dumps(config, sort_keys=True).encode())


# ---------------------------------------------------------------------------
# CLI workloads: verify_default and inequalities_presets
# ---------------------------------------------------------------------------

def _cli_operations(workload: str, seed: int, scale: str, out_dir: Path) -> list:
    """(operation name, argv, output directory) for every CLI task."""
    sets = [arg for kv in CLI_OVERRIDES[(workload, scale)] for arg in ("--set", kv)]
    if workload == "verify_default":
        plan = [("all", "all", [])]
    else:
        plan = [(f"{preset}/{task}", task, ["--preset", preset])
                for preset in PRESETS for task in PRESET_TASKS]
    ops = []
    for name, task, extra in plan:
        op_dir = out_dir / name
        argv = [task, "--seed", str(seed), "--out", str(op_dir)] + extra + sets
        ops.append((name, argv, op_dir))
    return ops


def _setup_cli(workload, seed, scale, out_dir):
    ops = _cli_operations(workload, seed, scale, out_dir)
    configs = {}
    for name, argv, _ in ops:
        config = cli.resolve_config(cli._build_parser().parse_args(argv))
        config["run"].pop("out_dir")   # a temporary path, not an input
        configs[name] = config
    return {"workload": workload, "ops": ops, "config_sha256": config_sha256(configs)}


def _execute_cli(state) -> dict:
    outcomes = {}
    for name, argv, op_dir in state["ops"]:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code == 1:
                raise RuntimeError("exit status 1 (configuration error)")
            summary = json.loads((op_dir / "summary.json").read_text())
            artifacts = {p.name: sha256_bytes(p.read_bytes())
                         for p in sorted(op_dir.glob("*.csv"))}
            verdicts = [[v["name"], v["pass"], v["value"]] for v in summary["verdicts"]]
            outcomes[name] = {"verdicts": verdicts,
                              "artifacts": artifacts, "error": None}
        except Exception as exc:  # an operation that raises is a failed operation
            outcomes[name] = {"verdicts": [], "artifacts": {},
                              "error": f"{type(exc).__name__}: {exc}"}
    return outcomes


# ---------------------------------------------------------------------------
# hum_timevarying: library calls with a sampled time-dependent potential
# ---------------------------------------------------------------------------

def _hum_inputs(grid: SpaceTimeGrid, seed: int):
    """Seeded smooth c(t, x) in [-1, 3] and smooth Dirichlet u0.

    c = 1 + 0.5 * sum_{i,j<2} a_ij cos(i pi t/T) cos(j pi x) with a_ij
    uniform in [-1, 1]; u0 = sin(pi x) + b_1 sin(2 pi x) + b_2 sin(3 pi x)
    with b_k uniform in [-0.3, 0.3].  Over seeds 0-9 the CG iterations of
    both syntheses together stay within 157-182, so wall time moves little
    with the seed.
    """
    rng = np.random.default_rng(seed)
    amp = rng.uniform(-1.0, 1.0, size=(2, 2))
    coef = rng.uniform(-0.3, 0.3, size=2)
    tt = grid.t[:, None] / grid.T
    xx = grid.x[None, :]
    c = 1.0 + 0.5 * sum(amp[i, j] * np.cos(i * np.pi * tt) * np.cos(j * np.pi * xx)
                        for i in range(2) for j in range(2))
    u0 = np.sin(np.pi * grid.x)
    for k in range(2):
        u0 = u0 + coef[k] * np.sin((k + 2) * np.pi * grid.x)
    return PotentialModel.sampled(Field(grid, c)), u0


def _setup_hum(seed, scale):
    p = HUM[scale]
    grid = SpaceTimeGrid.create(p["N"], p["M"], p["T"], p["x0"])
    potential, u0 = _hum_inputs(grid, seed)
    control = ControlConfig(p["omega"][0], p["omega"][1], epsilon=p["epsilon"])
    models = {f"alpha{a}": CoefficientModel.power_law(a, p["x0"]) for a in p["alphas"]}
    return {"workload": "hum_timevarying", "params": p, "grid": grid,
            "potential": potential, "u0": u0, "control": control, "models": models,
            "config_sha256": config_sha256(dict(p, seed=seed))}


def _execute_hum(state) -> dict:
    p = state["params"]
    grid, control = state["grid"], state["control"]
    chi = control.indicator(grid)
    outcomes = {}
    for name, model in state["models"].items():
        try:
            # looked up on the module at call time, so a traced run sees the call
            sol = degenpde.control.synthesize_null_control(
                model, state["potential"], grid, control, state["u0"],
                tol=p["tol"], max_iters=p["max_iters"])
            ratio = sol.terminal_norm / sol.initial_norm
            outside = float(np.max(np.abs(sol.h.values[:, chi == 0.0])))
            verdicts = [["terminal_ratio_within_tol", bool(sol.converged and ratio <= p["tol"]),
                         float(ratio)],
                        ["control_supported_in_omega", outside == 0.0, outside],
                        ["cost_finite", math.isfinite(sol.cost), float(sol.cost)]]
            outcomes[name] = {"verdicts": verdicts,
                              "artifacts": {f"control_{name}":
                                            sha256_bytes(sol.h.values.tobytes())},
                              "error": None}
        except Exception as exc:  # an operation that raises is a failed operation
            outcomes[name] = {"verdicts": [], "artifacts": {},
                              "error": f"{type(exc).__name__}: {exc}"}
    return outcomes


# ---------------------------------------------------------------------------
# dispatch and oracle
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int, scale: str, out_dir: Path) -> dict:
    """Build the inputs of one pass; ``seed`` is already the program seed."""
    if workload == "hum_timevarying":
        return _setup_hum(seed, scale)
    return _setup_cli(workload, seed, scale, out_dir)


def execute(state) -> dict:
    """Run one pass; returns {operation name: outcome}."""
    if state["workload"] == "hum_timevarying":
        return _execute_hum(state)
    return _execute_cli(state)


def check(outcomes: dict, reference: dict):
    """Compare outcomes with the reference of the same workload and seed.

    Returns (failure messages, names of changed artifacts).  An operation
    fails if it raised, reported a non-finite value, or its verdict names
    and pass flags differ from the reference.  Changed artifact bytes are
    counted, not failed.
    """
    failures = []
    changed = []
    for name, ref in reference.items():
        out = outcomes.get(name)
        if out is None:
            failures.append(f"{name}: not run")
            continue
        if out["error"] is not None:
            failures.append(f"{name}: {out['error']}")
            continue
        got = [[n, ok] for n, ok, _ in out["verdicts"]]
        want = [[n, ok] for n, ok, _ in ref["verdicts"]]
        bad_values = [n for n, _, v in out["verdicts"] if v is not None and not math.isfinite(v)]
        if got != want:
            failures.append(f"{name}: verdicts {got} differ from the reference {want}")
        elif bad_values:
            failures.append(f"{name}: non-finite values in {bad_values}")
        changed += [f"{name}/{a}" for a, digest in ref["artifacts"].items()
                    if out["artifacts"].get(a) != digest]
    return failures, changed
