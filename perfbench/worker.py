"""One benchmark pass in a fresh process; ``run.py`` starts one at a time.

    python3 perfbench/worker.py WORKLOAD SEED SCALE OUT_DIR RESULT REFERENCE MODE

MODE is ``setup`` (set-up only), ``plain``, ``traced`` or ``record``.  SEED
is the program seed.  The worker times set-up (importing degenpde and
resolving the configuration), then one pass of the workload and the check
of its outputs against the reference, and writes a JSON result to RESULT.
``record`` runs traced and writes the raw outputs and the exact counts
instead, for reference.json.
"""

import json
import resource
import sys
import time
from pathlib import Path


def _versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def main(argv) -> int:
    workload, seed, scale, out_dir, result_path, reference_path, mode = argv
    seed = int(seed)
    out_dir = Path(out_dir)
    if mode != "record":
        reference = json.loads(Path(reference_path).read_text())[scale][workload][str(seed)]

    t0 = time.perf_counter()
    import workloads
    state = workloads.setup(workload, seed, scale, out_dir)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "config_sha256": state["config_sha256"],
              "versions": _versions()}
    if mode == "record":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        result["outcomes"] = workloads.execute(state)
        tracer.uninstall()
        result["counts"] = tracing.exact_counts(tracer.spans, tracer.counters)
    elif mode != "setup":
        tracer = None
        if mode == "traced":
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        t1 = time.perf_counter()
        outcomes = workloads.execute(state)
        failures, changed = workloads.check(outcomes, reference["operations"])
        wall_s = time.perf_counter() - t1
        result.update(wall_s=wall_s, failures=failures,
                      artifacts_changed=changed,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
        if tracer is not None:
            tracer.uninstall()
            if out_dir.exists():
                tracer.counters["cli.artifact_bytes"] = _tree_bytes(out_dir)
            result["spans"] = tracer.spans
            result["counters"] = dict(tracer.counters)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
