"""degenpde benchmark: one workload, one seed, a closed loop of fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's passes run one at a time, each in a fresh Python
process (one client, closed loop), until S seconds have passed.  Each pass
times set-up and the workload, and checks the outputs against the
reference recorded at the seed commit (``reference.json``).  Extra set-up
only processes make at least SETUP_SAMPLES set-up times per run.

With ``--trace 0`` the last line reports the end-to-end metrics of
BENCHMARK.json: medians over the passes of the run.  With ``--trace 1``
untraced and traced passes alternate; the last line reports the per-layer
metrics (medians over the traced passes), including the tracing overhead,
traced minus untraced median wall time, and every traced pass's exact
counts (solver calls, CN steps, CG iterations, ...) are checked against
the counts in the reference.  Every other line is a
human-readable report: the environment, each pass, each metric with its
unit, the failure ratio and the number of changed artifacts.

Workload inputs come from the seed modulo REFERENCE_SEEDS, so that every
input has a reference.  BLAS runs with one thread.  Temporary outputs go
under ``.bench_build/perfbench`` in the checkout and are deleted; the spans
of the last traced pass are kept there as ``trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
REFERENCE_SEEDS = 16
WORKLOADS = ("verify_default", "hum_timevarying", "inequalities_presets")
SETUP_SAMPLES = 5
PASS_MARGIN_S = 100       # a pass is killed after --seconds plus this many seconds
BLAS_THREADS = 1


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _cpu_record() -> dict:
    record = {"nproc": os.cpu_count(), "cpu_model": None}
    try:
        with open("/proc/cpuinfo") as f:
            record["cpu_model"] = next((line.split(":", 1)[1].strip() for line in f
                                        if line.startswith("model name")), None)
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                record[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return record


def _source_record() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def run_worker(workload, pseed, scale, reference_path, work_dir, index, mode,
               timeout) -> dict:
    """Run one worker process to completion; returns its result, or a
    ``crash`` message if it failed without one."""
    result_path = work_dir / f"pass{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(pseed), scale,
           str(work_dir / f"pass{index}"), str(result_path), str(reference_path), mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "crash": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"mode": mode, "crash": f"exit {proc.returncode}: " + " | ".join(tail)}
    return dict(json.loads(result_path.read_text()), mode=mode)


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        reference_path: Path = REFERENCE):
    """Measure one run; returns (metrics {name: value}, summary dict, report lines)."""
    if not (ROOT / "src" / "degenpde" / "__init__.py").is_file():
        raise BenchError(f"no degenpde sources under {ROOT / 'src'}")
    pseed = seed % REFERENCE_SEEDS
    try:
        reference = json.loads(Path(reference_path).read_text())[scale][workload][str(pseed)]
    except (OSError, KeyError, ValueError) as exc:
        raise BenchError(f"no reference for {workload} seed {pseed}: {exc!r}")

    work_dir = ROOT / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    start = time.monotonic()
    passes = []

    def add_pass(mode):
        passes.append(run_worker(workload, pseed, scale, reference_path, work_dir,
                                 len(passes), mode, seconds + PASS_MARGIN_S))
        return "crash" not in passes[-1]

    try:
        modes = itertools.cycle(["plain", "traced"] if trace else ["plain"])
        while len(passes) < 1 + trace or time.monotonic() - start < seconds:
            if not add_pass(next(modes)):
                break
        while sum("setup_s" in p for p in passes) < SETUP_SAMPLES and "crash" not in passes[-1]:
            add_pass("setup")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    measured = [p for p in passes if p["mode"] != "setup"]
    ok = [p for p in measured if "crash" not in p]
    plain = [p for p in ok if p["mode"] == "plain"]
    traced = [p for p in ok if p["mode"] == "traced"]
    if not plain or (trace and not traced):
        raise BenchError(f"no complete pass: {[p['crash'] for p in passes if 'crash' in p]}")

    failures = [f for p in ok for f in p["failures"]] + [p["crash"] for p in measured
                                                          if "crash" in p]
    operations = len(reference["operations"])
    attempted = operations * len(measured)
    failed = sum(len(p["failures"]) for p in ok) + operations * (len(measured) - len(ok))
    changed = sorted({a for p in ok for a in p["artifacts_changed"]})
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "setup_s": statistics.median(p["setup_s"] for p in passes if "setup_s" in p),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    counts_match = True
    if trace:
        per_pass = [tracing.layer_metrics(p["spans"], p["counters"]) for p in traced]
        metrics.update({name: statistics.median(m[name] for m in per_pass)
                        for name in per_pass[0]})
        metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                       - metrics["wall_s"])
        for i, p in enumerate(traced):
            counts = tracing.exact_counts(p["spans"], p["counters"])
            if counts != reference["counts"]:
                counts_match = False
                diff = {k: [v, reference["counts"].get(k)] for k, v in counts.items()
                        if v != reference["counts"].get(k)}
                failures.append(f"traced pass {i}: counts [got, reference] {diff}")
        trace_path = ROOT / ".bench_build" / "perfbench" / f"trace-{workload}-{seed}.json"
        trace_path.write_text(json.dumps({
            "fields": ["id", "name", "start", "end", "parent", "run"],
            "spans": traced[-1]["spans"], "counters": traced[-1]["counters"]}))

    environment = dict(_cpu_record(), **ok[0]["versions"], blas_threads=BLAS_THREADS,
                       **_source_record(), workload=workload, seed=seed, program_seed=pseed,
                       scale=scale, config_sha256=ok[0]["config_sha256"])
    lines = ["environment " + json.dumps(environment)]
    for i, p in enumerate(passes):
        if "crash" in p:
            lines.append(f"pass {i} {p['mode']}: CRASH {p['crash']}")
        elif p["mode"] == "setup":
            lines.append(f"pass {i} setup: setup_s={p['setup_s']:.4f}")
        else:
            lines.append(f"pass {i} {p['mode']}: setup_s={p['setup_s']:.4f} "
                         f"wall_s={p['wall_s']:.4f} peak_rss_mb={p['peak_rss_mb']:.1f} "
                         f"failed={len(p['failures'])}/{operations}")
    lines += [f"FAIL {f}" for f in failures] + [f"CHANGED {a}" for a in changed]
    lines.append(f"fail_ratio {failed / attempted:.6g} ({failed}/{attempted} operations)")
    lines.append(f"artifacts_changed {len(changed)} count")
    summary = {"correct": failed == 0 and counts_match, "attempted": attempted,
               "failed": failed}
    return metrics, summary, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}")
        metrics, summary, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    listed = spec["per_layer" if args.trace else "end_to_end"]
    for line in lines:
        print(line)
    for m in spec["end_to_end"] + (spec["per_layer"] if args.trace else []):
        print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    summary["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in listed}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
