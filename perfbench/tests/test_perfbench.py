"""Smoke test of the benchmark at tiny grid sizes.

Every metric BENCHMARK.json names is emitted for every workload, the
outputs pass the oracle against a reference recorded on the spot, a traced
count that differs from the reference makes the run incorrect, the tracer
sees every solver call that cProfile sees, and the benchmark refuses to run
without the program's sources.
"""

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import record_reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 3


@pytest.fixture(scope="module")
def tiny_reference(tmp_path_factory):
    path = tmp_path_factory.mktemp("perfbench") / "reference.json"
    path.write_text(json.dumps({"tiny": record_reference.record("tiny", seeds=[SEED])}))
    return path


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_emitted(workload, tiny_reference):
    metrics, summary, lines = run.run(workload, SEED, 0, True, scale="tiny",
                                      reference_path=tiny_reference)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert isinstance(metrics[m["name"]], (int, float)), m["name"]
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]] > 0, m["name"]
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 2
    assert "artifacts_changed 0 count" in lines


def test_count_mismatch_is_incorrect(tiny_reference, tmp_path):
    reference = json.loads(tiny_reference.read_text())
    reference["tiny"]["hum_timevarying"][str(SEED)]["counts"]["solvers.adjoint_calls"] += 1
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    _, summary, lines = run.run("hum_timevarying", SEED, 0, True, scale="tiny",
                                reference_path=path)
    assert not summary["correct"]
    assert any(line.startswith("FAIL traced pass") and "solvers.adjoint_calls" in line
               for line in lines)


def test_tracer_sees_every_solver_call(tmp_path):
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads
    from degenpde import control

    state = workloads.setup("verify_default", SEED, "tiny", tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    profiler = cProfile.Profile()
    try:
        profiler.runcall(workloads.execute, state)
    finally:
        tracer.uninstall()
    profiled = {fn: calls for (path, _, fn), (_, calls, *_) in pstats.Stats(profiler).stats.items()
                if path.endswith("solvers.py")}
    metrics = tracing.layer_metrics(tracer.spans, tracer.counters)
    assert metrics["solvers.adjoint_calls"] == profiled["solve_adjoint"] > 0
    assert metrics["solvers.forward_calls"] == profiled["solve_forward"] > 0
    assert not hasattr(control.solve_adjoint, "__wrapped__")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify_default",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
