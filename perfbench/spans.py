"""Span tracing of the ymwaves layers from outside the package.

The modules import each other's functions by name, so a wrapper only
takes effect once every ymwaves namespace that binds the function is
patched. `traced` does that for the public functions of each layer and
restores the originals on exit. Dataclass constructions are counted by
wrapping `__post_init__`, which every construction runs.

Spans are kept in memory as parallel arrays (name id, start, end,
parent index); `self_times` turns them into time per span minus the
time its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("su2", "fields", "residuals", "constraints", "observables", "cli")
CONSTRUCTED = ("AnsatzParams", "SpacetimePoint")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: Counter = Counter()
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, suffix=None, post=None):
        """fn recording a span per call; suffix(args, kwargs) refines the
        span name, post(result, counters) adds counts."""
        base = self._id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced_fn(*args, **kwargs):
            nid = base if suffix is None else self._id(f"{name}.{suffix(args, kwargs)}")
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if post is not None:
                post(result, self.counters)
            return result
        return traced_fn


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans are synchronous and nested, so children never overlap and the
    self times of one call tree sum to its root's duration.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def _mode(args, kwargs) -> str:
    return kwargs.get("mode", args[2] if len(args) > 2 else "analytic")


def _count_iterations(result, counters):
    counters["refine_alphas.iterations"] += result.iterations


def _count_points(result, counters):
    counters["grid_points.points"] += len(result)


SPECIAL = {
    "residuals.residual_sample": {"suffix": _mode},
    "constraints.refine_alphas": {"post": _count_iterations},
    "residuals.grid_points": {"post": _count_points},
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Patch every ymwaves namespace with tracing wrappers; undo on exit."""
    namespaces = [m for n, m in list(sys.modules.items())
                  if n == "ymwaves" or n.startswith("ymwaves.")]
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"ymwaves.{layer}"]
        for name, fn in _public_functions(module):
            span = f"{layer}.{name}"
            wrappers[id(fn)] = tracer.wrap(span, fn, **SPECIAL.get(span, {}))
    undo = []
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if id(value) in wrappers and inspect.isfunction(value):
                undo.append((ns, attr, value))
                setattr(ns, attr, wrappers[id(value)])
    fields = sys.modules["ymwaves.fields"]
    for cls_name in CONSTRUCTED:
        cls = getattr(fields, cls_name)
        undo.append((cls, "__post_init__", cls.__dict__["__post_init__"]))
        cls.__post_init__ = tracer.wrap(f"fields.{cls_name}", cls.__post_init__)
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


class Summary:
    """Calls, inclusive time and per-layer self time of one traced run.

    Times are multiplied by time_scale, the run's drift correction.
    """

    def __init__(self, tracer: Tracer, items: int, out_bytes: int = 0,
                 time_scale: float = 1.0):
        own = [t * time_scale for t in self_times(tracer.parent, tracer.start, tracer.end)]
        self.items = items
        self.out_bytes = out_bytes
        self.counters = tracer.counters
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.layer_self: Counter = Counter()
        for i, nid in enumerate(tracer.name):
            name = tracer.names[nid]
            self.calls[name] += 1
            self.total[name] += (tracer.end[i] - tracer.start[i]) * time_scale
            self.layer_self[name.split(".", 1)[0]] += own[i]

    def per_call(self, name: str, scale: float):
        n = self.calls[name]
        return (self.total[name] / n * scale, True) if n else (0.0, False)


def _self_ms(layer):
    return lambda s: (s.layer_self[layer] * 1e3 / s.items, s.layer_self[layer] > 0)


def _count_per_item(name):
    return lambda s: (s.calls[name] / s.items, True)


def _per_call(name, scale):
    return lambda s: s.per_call(name, scale)


# name -> (unit, value function returning (value, present)). A metric
# that is not present on the workload is taken from the layer probe.
PER_LAYER = {
    "constraints.self_ms_per_item": ("ms/item", _self_ms("constraints")),
    "constraints.nine_constraints.calls_per_item":
        ("count/item", _count_per_item("constraints.nine_constraints")),
    "constraints.refine_alphas.iters_per_seed":
        ("count/seed", lambda s: (s.counters["refine_alphas.iterations"]
                                  / s.calls["constraints.refine_alphas"], True)
         if s.calls["constraints.refine_alphas"] else (0.0, False)),
    "constraints.refine_alphas.ms_per_call": ("ms", _per_call("constraints.refine_alphas", 1e3)),
    "constraints.branch_projection.us_per_call":
        ("us", _per_call("constraints.branch_projection", 1e6)),
    "constraints.classify.us_per_call": ("us", _per_call("constraints.classify", 1e6)),
    "constraints.oracle_constraints.ms_per_call":
        ("ms", _per_call("constraints.oracle_constraints", 1e3)),
    "fields.self_ms_per_item": ("ms/item", _self_ms("fields")),
    "fields.AnsatzParams.constructions_per_item":
        ("count/item", _count_per_item("fields.AnsatzParams")),
    "fields.SpacetimePoint.constructions_per_item":
        ("count/item", _count_per_item("fields.SpacetimePoint")),
    "fields.electric_field_analytic.us_per_call":
        ("us", _per_call("fields.electric_field_analytic", 1e6)),
    "fields.magnetic_field_analytic.us_per_call":
        ("us", _per_call("fields.magnetic_field_analytic", 1e6)),
    "fields.field_strength.us_per_call": ("us", _per_call("fields.field_strength", 1e6)),
    "residuals.self_ms_per_item": ("ms/item", _self_ms("residuals")),
    "residuals.residual_sample.analytic_us_per_call":
        ("us", _per_call("residuals.residual_sample.analytic", 1e6)),
    "residuals.residual_sample.numeric_us_per_call":
        ("us", _per_call("residuals.residual_sample.numeric", 1e6)),
    "residuals.bianchi_residual.ms_per_call": ("ms", _per_call("residuals.bianchi_residual", 1e3)),
    "residuals.grid_points.us_per_point":
        ("us", lambda s: (s.total["residuals.grid_points"] * 1e6
                          / s.counters["grid_points.points"], True)
         if s.counters["grid_points.points"] else (0.0, False)),
    "su2.self_ms_per_item": ("ms/item", _self_ms("su2")),
    "su2.rotated_basis.calls_per_item": ("count/item", _count_per_item("su2.rotated_basis")),
    "su2.minus_i_commutator.calls_per_item":
        ("count/item", _count_per_item("su2.minus_i_commutator")),
    "observables.self_ms_per_item": ("ms/item", _self_ms("observables")),
    "observables.energy_density.us_per_call":
        ("us", _per_call("observables.energy_density", 1e6)),
    "cli.self_ms_per_item": ("ms/item", _self_ms("cli")),
    "cli.csv_bytes_per_item": ("B/item", lambda s: (s.out_bytes / s.items, True)),
}


def layer_metrics(run: Summary, probe: Summary) -> dict[str, tuple[float, str, bool]]:
    """name -> (value, unit, from_probe) for every per-layer metric."""
    out = {}
    for name, (unit, fn) in PER_LAYER.items():
        value, present = fn(run)
        if not present:
            value, _ = fn(probe)
        out[name] = (value, unit, not present)
    return out
