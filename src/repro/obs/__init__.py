"""Deterministic observability: spans, metrics, exporters, causal queries.

``repro.obs`` is the instrumentation layer for the whole reproduction:
the sim kernel, the adaptation runtime (monitor, scheduler, steering,
exchange), the fault injector, and the profiling driver all emit
structured spans and metrics through one :class:`TraceRecorder` bound to
the simulator (``sim.obs``).  Tracing is strictly passive — it never
schedules events or draws randomness — so enabling it leaves a seeded
run's outcome byte-identical, and disabling it costs one attribute read
per instrumentation site.

See ``docs/observability.md`` for the span/metric model, the exporter
formats, and a worked causal-timeline example; ``repro trace`` and
``repro metrics`` surface all of it on the command line.
"""

from .._lazy import lazy_exports
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    TimeSeries,
)
from .instruments import Instruments
from .record import ObsError, SpanRecord, TraceRecorder

# Every import of the kernel's tracer runs this package, so only the
# recorder, the metrics and the instrument bundle load with it; the names below load from their
# module on first access (PEP 562).
_HOMES = {
    ".dash": (
        "dashboard_cell",
        "dashboard_cell_from_context",
        "dashboard_cell_from_run",
        "load_store_cells",
        "render_dashboard",
    ),
    ".diff": ("DiffResult", "diff_metrics", "diff_traces", "structural_keys"),
    ".export": ("from_jsonl", "ordered", "summary", "to_chrome", "to_jsonl"),
    ".interactive": ("InteractiveContext", "ScenarioInspector", "replay"),
    ".perf": ("KernelProfiler", "to_chrome_profile", "to_folded"),
    ".query": ("adaptation_chains", "chain", "dwell_times", "timeline"),
    ".usage": ("UsageAccountant", "owner_label"),
    "..scenarios": ("SCENARIOS", "register_scenario"),
}

__getattr__ = lazy_exports(globals(), _HOMES)
__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instruments",
    "MetricError",
    "MetricsRegistry",
    "ObsError",
    "SpanRecord",
    "TimeSeries",
    "TraceRecorder",
] + [name for names in _HOMES.values() for name in names]
