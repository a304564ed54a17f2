"""Layer spans and counters for a traced study, recorded from outside hermgrid.

`install` replaces module attributes at each layer boundary with timing
wrappers.  The attribute is replaced in the module that *calls* the
function (``hermgrid.cli`` binds its imports at import time), so each
entry of `_BOUNDARIES` names the calling module.  Spans stay in memory
until `Recorder.summary` turns them into per-layer metrics.

A span's self time is its duration minus the durations of its direct
child spans; the study runs in one thread, so children never overlap.
"""

import gc
import importlib
import os
import time

# (calling module, attribute, span name)
_BOUNDARIES = (
    ("hermgrid.cli", "threshold_set_for_budget", "cli.budget_search"),
    ("hermgrid.cli", "_ml_allocation_for_budget", "cli.budget_search"),
    ("hermgrid.cli", "write_csv", "cli.write_csv"),
    ("hermgrid.cli", "build_threshold_set", "indexset.build_threshold_set"),
    ("hermgrid.multilevel", "build_threshold_set", "indexset.build_threshold_set"),
    ("hermgrid.smolyak", "combination_coeffs", "smolyak.combination_coeffs"),
    ("hermgrid.cli", "evaluation_point_count", "smolyak.point_count"),
    ("hermgrid.cli", "quadrature", "smolyak.quadrature"),
    ("hermgrid.multilevel", "quadrature", "smolyak.quadrature"),
    ("hermgrid.cli", "construct_levels", "multilevel.construct_levels"),
    ("hermgrid.cli", "work", "multilevel.work"),
    ("hermgrid._accel", "fem_system", "accel.fem_system"),
    ("hermgrid.cli", "circulant_embed_1d", "grf.circulant_embed"),
    ("hermgrid.cli", "sample_grf", "grf.sample_grf"),
)

# (metric, span name, "self" or "inclusive"); times are summed over spans
_TIMES = (
    ("cli.budget_search_s", "cli.budget_search", "inclusive"),
    ("cli.write_csv_s", "cli.write_csv", "inclusive"),
    ("indexset.build_threshold_set_s", "indexset.build_threshold_set", "self"),
    ("smolyak.combination_coeffs_s", "smolyak.combination_coeffs", "self"),
    ("smolyak.point_count_s", "smolyak.point_count", "self"),
    ("smolyak.quadrature_s", "smolyak.quadrature", "self"),
    ("multilevel.construct_levels_s", "multilevel.construct_levels", "self"),
    ("model.exact_map_s", "model.exact_map", "self"),
    ("model.fem_map_s", "model.fem_map", "self"),
    ("accel.fem_system_s", "accel.fem_system", "self"),
    ("grf.circulant_embed_s", "grf.circulant_embed", "self"),
    ("grf.sample_grf_s", "grf.sample_grf", "self"),
)

COUNTERS = (
    "cli.threshold_builds",
    "cli.bytes_written",
    "indexset.members_built",
    "smolyak.combination_terms",
    "smolyak.distinct_points",
    "multilevel.work_predicted",
    "model.exact_calls",
    "model.fem_calls",
    "model.fem_calls_distinct",
    "model.fem_cell_units",
    "hermite.rule_misses",
    "hermite.projection_misses",
)

TIME_METRICS = tuple(metric for metric, _, _ in _TIMES) + ("process.gc_pause_s",)


class Recorder:
    """Spans (name, start, end, parent index) and counters of one traced study."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.fem_points = set()
        self.gc_pause = 0.0
        self._gc_start = None

    def inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if count is not None:
                count(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pause += time.perf_counter() - self._gc_start
            self._gc_start = None

    def summary(self) -> dict:
        """Per-layer times (s) summed over spans, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        inclusive, self_time = {}, {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start - children)
        out = {}
        for metric, span, kind in _TIMES:
            out[metric] = (self_time if kind == "self" else inclusive).get(span, 0.0)
        out["process.gc_pause_s"] = self.gc_pause
        out.update(self.counters)
        out["model.fem_calls_distinct"] = len(self.fem_points)
        hermite = importlib.import_module("hermgrid.hermite")
        smolyak = importlib.import_module("hermgrid.smolyak")
        out["hermite.rule_misses"] = hermite.gauss_hermite_rule.cache_info().misses
        out["hermite.projection_misses"] = smolyak._projection_matrix.cache_info().misses
        return out


def install(recorder: Recorder):
    """Wrap every layer boundary of an imported hermgrid with `recorder` spans."""
    from hermgrid import model

    counters = recorder.counters

    def add(key, amount):
        counters[key] += amount

    def on_build(result, args):
        add("indexset.members_built", len(result))
        if recorder.inside("cli.budget_search"):
            add("cli.threshold_builds", 1)

    def on_work(result, args):
        # work() inside a budget search prices a candidate; outside it, a row
        if not recorder.inside("cli.budget_search"):
            add("multilevel.work_predicted", int(result))

    def on_write(result, args):
        add("cli.bytes_written", os.path.getsize(args[0]))

    count = {
        "indexset.build_threshold_set": on_build,
        "smolyak.combination_coeffs": lambda r, a: add("smolyak.combination_terms", len(r)),
        "smolyak.point_count": lambda r, a: add("smolyak.distinct_points", int(r)),
        "multilevel.work": on_work,
        "cli.write_csv": on_write,
    }
    for module_name, attr, span in _BOUNDARIES:
        module = importlib.import_module(module_name)
        setattr(module, attr, recorder.wrap(span, getattr(module, attr), count.get(span)))

    call = model.ParametricMapFn.__call__
    exact = recorder.wrap("model.exact_map", call)
    fem = recorder.wrap("model.fem_map", call)

    def traced_call(self, y):
        if self.label == "exact-qoi":
            add("model.exact_calls", 1)
            return exact(self, y)
        if self.label.startswith("fem-"):
            add("model.fem_calls", 1)
            add("model.fem_cell_units", self.cost)
            recorder.fem_points.add((self.cost, tuple(float(v) for v in y)))
            return fem(self, y)
        return call(self, y)

    model.ParametricMapFn.__call__ = traced_call
    gc.callbacks.append(recorder.on_gc)
