"""Record the reference outputs that the benchmark checks every pass against.

    python3 perfbench/record_reference.py

Run from the root of a checkout of the commit whose outputs are the
reference; it rewrites ``perfbench/reference.json`` with, for every
workload and every program seed below REFERENCE_SEEDS, each operation's
verdict names, pass flags and values, the sha256 of each artifact, and the
exact counts of a traced pass (solver calls, CN steps, CG iterations, ...).
Each workload pass runs traced in a worker process under the same
environment as the benchmark, one at a time.  A hum_timevarying operation
must pass all its verdicts.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import run


def record(scale: str = "full", seeds=range(run.REFERENCE_SEEDS)) -> dict:
    """{workload: {seed: {"operations": {operation: {"verdicts": ..., "artifacts": ...}},
    "counts": {metric: int}}}}."""
    work_dir = run.ROOT / ".bench_build" / "perfbench" / f"record-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(w, s) for w in run.WORKLOADS for s in seeds]
    reference = {w: {} for w in run.WORKLOADS}
    try:
        for index, (workload, seed) in enumerate(tasks):
            result = run.run_worker(workload, seed, scale, "-", work_dir, index, "record",
                                    timeout=600)
            if "crash" in result:
                raise RuntimeError(f"{workload} seed {seed}: {result['crash']}")
            for name, out in result["outcomes"].items():
                if out["error"] is not None:
                    raise RuntimeError(f"{workload} seed {seed} {name}: {out['error']}")
                if workload == "hum_timevarying" and not all(ok for _, ok, _ in out["verdicts"]):
                    raise RuntimeError(f"{workload} seed {seed} {name}: {out['verdicts']}")
            reference[workload][str(seed)] = {
                "operations": {name: {"verdicts": out["verdicts"], "artifacts": out["artifacts"]}
                               for name, out in result["outcomes"].items()},
                "counts": result["counts"]}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return reference


def main():
    reference = {"full": record()}
    Path(run.REFERENCE).write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
