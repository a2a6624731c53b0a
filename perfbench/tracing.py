"""Span tracing at the layer boundaries of degenpde, installed from outside.

``Tracer.install`` wraps every public function of each layer module (and
the few other boundaries named below) in a wrapper that records a span,
then rebinds the wrapper wherever the package holds the original: the
modules bind their imports by name (``from .solvers import solve_adjoint``),
so patching the defining module alone would miss most calls.  Spans are
kept in memory as (id, name, start, end, parent id, run id) and written out
by the caller.  A run id is shared by every span under one top-level call
into the program.

``layer_metrics`` turns spans and counters into the per-layer metrics;
``exact_counts`` keeps the integer ones, which must repeat exactly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import operator
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("coefficients", "grid", "weights", "solvers", "inequalities", "control", "cli")

# Boundaries that are not public module functions: the HUM operator apply
# and the field serialiser.
PRIVATE_TARGETS = (("control", "_hum_operator"),)
METHOD_TARGETS = (("grid", "Field", "to_csv"),)


def _count_propagation(counters, field):
    counters["solvers.steps"] += field.grid.M
    counters["solvers.field_bytes"] += field.values.nbytes


# Counters read from return values, keyed by span name.
HOOKS = {
    "solvers.solve_forward": _count_propagation,
    "solvers.solve_adjoint": _count_propagation,
    "control.synthesize_null_control":
        lambda counters, sol: counters.update({"control.cg_iterations": sol.cg_iterations}),
    "grid.Field.to_csv":
        lambda counters, text: counters.update({"grid.field_csv_bytes": len(text)}),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._ids = itertools.count()
        self._runs = itertools.count()
        self._stack = []
        self._run_id = None
        self._restore = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        if not self._stack:
            self._run_id = next(self._runs)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self._run_id))

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self.counters, result)
            return result
        return wrapper

    def install(self):
        """Wrap the layer boundaries; ``uninstall`` restores the originals."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"degenpde.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for layer, attr in PRIVATE_TARGETS:
            obj = getattr(sys.modules[f"degenpde.{layer}"], attr)
            wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)

        consumers = [m for n, m in list(sys.modules.items())
                     if n == "degenpde" or n.startswith("degenpde.")]
        for mod in consumers:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._replace(setattr, mod, attr, obj, wrappers[obj])
                elif isinstance(obj, dict):       # dispatch tables such as cli.TASKS
                    for key, value in obj.items():
                        if inspect.isfunction(value) and value in wrappers:
                            self._replace(operator.setitem, obj, key, value, wrappers[value])
        for layer, cls_name, attr in METHOD_TARGETS:
            cls = getattr(sys.modules[f"degenpde.{layer}"], cls_name)
            method = vars(cls)[attr]
            self._replace(setattr, cls, attr, method,
                          self._wrap(f"{layer}.{cls_name}.{attr}", method))

    def _replace(self, store, owner, key, old, new):
        store(owner, key, new)
        self._restore.append((store, owner, key, old))

    def uninstall(self):
        while self._restore:
            store, owner, key, old = self._restore.pop()
            store(owner, key, old)


def layer_metrics(spans, counters) -> dict:
    """Per-layer metrics from one traced pass.

    ``*_calls`` count spans; ``*_s`` sum span durations (inclusive of
    callees) unless named ``self_s``, which subtracts the time covered by
    child spans.  ``weights.calls`` and ``weights.s`` count only entries
    into the layer from another layer.
    """
    counters = Counter(counters)
    name_of = {sid: name for sid, name, *_ in spans}
    covered = defaultdict(float)
    for sid, name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    calls = Counter()
    total = defaultdict(float)
    self_name = defaultdict(float)
    self_layer = defaultdict(float)
    entry_calls = Counter()
    entry_s = defaultdict(float)
    for sid, name, start, end, parent, _ in spans:
        layer = name.split(".")[0]
        calls[name] += 1
        total[name] += end - start
        self_name[name] += end - start - covered[sid]
        self_layer[layer] += end - start - covered[sid]
        if parent is None or name_of[parent].split(".")[0] != layer:
            entry_calls[layer] += 1
            entry_s[layer] += end - start

    steps = counters["solvers.steps"]
    busy = total["solvers.solve_adjoint"] + total["solvers.solve_forward"]
    quadrature = ("grid.integrate_space", "grid.integrate_spacetime")
    metrics = {
        "solvers.adjoint_calls": calls["solvers.solve_adjoint"],
        "solvers.forward_calls": calls["solvers.solve_forward"],
        "solvers.steps": steps,
        "solvers.busy_s": busy,
        "solvers.step_us": 1e6 * busy / steps if steps else 0.0,
        "solvers.field_mb": counters["solvers.field_bytes"] / 1e6,
        "control.observability_self_s": self_name["control.estimate_observability"],
        "control.hum_self_s": (self_name["control.synthesize_null_control"]
                               + self_name["control._hum_operator"]),
        "control.cg_iterations": counters["control.cg_iterations"],
        "control.hum_applies": calls["control._hum_operator"],
        "grid.assemble_calls": calls["grid.assemble_operator"],
        "grid.assemble_s": total["grid.assemble_operator"],
        "grid.eigen_calls": calls["grid.dirichlet_eigenmodes"],
        "grid.eigen_s": total["grid.dirichlet_eigenmodes"],
        "grid.quadrature_calls": sum(calls[n] for n in quadrature),
        "grid.quadrature_s": sum(total[n] for n in quadrature),
        "grid.field_csv_s": total["grid.Field.to_csv"],
        "grid.field_csv_mb": counters["grid.field_csv_bytes"] / 1e6,
        "inequalities.hp_s": total["inequalities.hp_verify"],
        "inequalities.identity_s": total["inequalities.carleman_identity_check"],
        "inequalities.scan_s": total["inequalities.carleman_scan"],
        "inequalities.caccioppoli_s": total["inequalities.caccioppoli_check"],
        "inequalities.manufactured_s": total["inequalities.manufactured_adjoint_pair"],
        "weights.calls": entry_calls["weights"],
        "weights.s": entry_s["weights"],
        "coefficients.check_s": total["coefficients.check_hypotheses"],
        "cli.config_s": total["cli.resolve_config"],
        "cli.write_csv_s": total["cli.write_csv"],
        "cli.artifact_mb": counters["cli.artifact_bytes"] / 1e6,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_layer[layer]
    return metrics


def exact_counts(spans, counters) -> dict:
    """The integer per-layer metrics: calls, steps, iterations and spans."""
    return {name: value for name, value in layer_metrics(spans, counters).items()
            if isinstance(value, int)}
