"""Spans around the calls into each emrcache module, for the traced run.

`Tracer.install` replaces each public function named in LAYERS wherever an
emrcache module binds it (its own module, and every module that imported
it), so a call made from `report` into `placement.plan_scenario` is timed
just like one made from the benchmark. Spans keep a parent link and the
operation index; self time is a span's duration minus its child spans.
Nothing here runs unless the benchmark is started with `--trace 1`.
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc

# Defining module -> public functions timed in the traced run.
LAYERS = {
    "scenario": ("load_scenario", "scenario_digest"),
    "placement": ("plan_scenario",),
    "delay": ("expected_delay", "baseline_delay", "femtocache_delay", "monte_carlo_delay"),
    "_kernels": ("sample_sums",),
    "sharing": ("scenario_capacity", "capacity_sweep"),
    "report": ("build_report", "compare_schemes", "report_to_dict", "format_table",
               "write_json", "write_csv"),
    "dvs": ("event_volume",),
    "cli": ("build_parser", "main"),
}
ALLOC_TRACKED = "delay.monte_carlo_delay"
SAMPLE_COUNTED = "_kernels.sample_sums"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index, op index, start, end, extra]
        self.op = 0
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, self.op, 0.0, 0.0, None]
            spans.append(span)
            stack.append(index)
            if name == ALLOC_TRACKED:
                tracemalloc.start()
            elif name == SAMPLE_COUNTED:
                span[5] = len(args[0])
            span[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
                if name == ALLOC_TRACKED:
                    span[5] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every LAYERS function in every loaded emrcache module that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "emrcache" or n.startswith("emrcache.")]
        for short, names in LAYERS.items():
            defining = sys.modules.get(f"emrcache.{short}")
            if defining is None:
                continue
            for fname in names:
                fn = getattr(defining, fname)
                wrapper = self._wrap(f"{short}.{fname}", fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
        return self


def per_layer(spans, ops: int, import_ms=None) -> dict:
    """Per-layer metrics from finished spans of `ops` operations.

    Times are medians over calls, except that `kernels.sample_sums.ms` (the
    `_kernels` module) is kernel time per Monte Carlo estimate, whatever its
    partition count, and the allocation peak is the largest over estimates.
    A layer the workload never calls reads 0. `import_ms` maps "emrcache"/"numpy" to per-process import times (ms)
    from `-X importtime`, for the cold CLI workload.
    """
    child_time = [0.0] * len(spans)
    for name, parent, _op, start, end, _extra in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name = {}
    for i, (name, _parent, _op, start, end, extra) in enumerate(spans):
        by_name.setdefault(name, []).append((end - start, end - start - child_time[i], extra))

    def calls(name):
        return by_name.get(name, [])

    def med(name, field, scale):
        values = [c[field] for c in calls(name)]
        return statistics.median(values) * scale if values else 0.0

    metrics = {}

    def put(key, value, unit):
        metrics[key] = {"value": value, "unit": unit}

    us, ms = 1e6, 1e3
    put("scenario.load_scenario.us", med("scenario.load_scenario", 0, us), "us")
    put("scenario.scenario_digest.us", med("scenario.scenario_digest", 0, us), "us")
    put("scenario.scenario_digest.calls_per_op", len(calls("scenario.scenario_digest")) / ops,
        "count")
    put("placement.plan_scenario.us", med("placement.plan_scenario", 0, us), "us")
    put("placement.plan_scenario.calls_per_op", len(calls("placement.plan_scenario")) / ops,
        "count")
    put("delay.expected_delay.us", med("delay.expected_delay", 0, us), "us")
    put("delay.baseline_delay.us", med("delay.baseline_delay", 0, us), "us")
    put("delay.femtocache_delay.self_us", med("delay.femtocache_delay", 1, us), "us")
    put("delay.monte_carlo_delay.ms", med("delay.monte_carlo_delay", 0, ms), "ms")
    put("delay.monte_carlo_delay.self_ms", med("delay.monte_carlo_delay", 1, ms), "ms")
    estimates = calls("delay.monte_carlo_delay")
    put("delay.monte_carlo_delay.peak_alloc_mb",
        max((c[2] for c in estimates), default=0) / 1e6, "MB")
    kernel = calls("_kernels.sample_sums")
    busy = sum(c[0] for c in kernel)
    put("kernels.sample_sums.ms", busy / len(estimates) * ms if estimates else 0.0, "ms")
    put("kernels.sample_sums.msamples_per_s",
        sum(c[2] for c in kernel) / busy / 1e6 if busy else 0.0, "Msamples/s")
    put("sharing.scenario_capacity.us", med("sharing.scenario_capacity", 0, us), "us")
    put("sharing.capacity_sweep.ms", med("sharing.capacity_sweep", 0, ms), "ms")
    put("report.build_report.self_us", med("report.build_report", 1, us), "us")
    put("report.compare_schemes.us", med("report.compare_schemes", 0, us), "us")
    put("report.report_to_dict.us", med("report.report_to_dict", 0, us), "us")
    put("report.format_table.us", med("report.format_table", 0, us), "us")
    put("report.write_json.us", med("report.write_json", 0, us), "us")
    put("report.write_csv.us", med("report.write_csv", 0, us), "us")
    put("dvs.event_volume.us", med("dvs.event_volume", 0, us), "us")
    import_ms = import_ms or {}
    for module in ("emrcache", "numpy"):
        values = import_ms.get(module, [])
        put(f"cli.import_{module}.ms", statistics.median(values) if values else 0.0, "ms")
    put("cli.build_parser.ms", med("cli.build_parser", 0, ms), "ms")
    put("cli.main.self_ms", med("cli.main", 1, ms), "ms")
    return metrics
