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

from .export import from_jsonl, ordered, summary, to_chrome, to_jsonl
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    TimeSeries,
)
from .dash import (
    dashboard_cell,
    dashboard_cell_from_context,
    dashboard_cell_from_run,
    load_store_cells,
    render_dashboard,
)
from .diff import DiffResult, diff_metrics, diff_traces, structural_keys
from ..scenarios import SCENARIOS, register_scenario
from .interactive import InteractiveContext, ScenarioInspector, replay
from .perf import KernelProfiler, to_chrome_profile, to_folded
from .query import adaptation_chains, chain, dwell_times, timeline
from .record import ObsError, SpanRecord, TraceRecorder
from .report import render_comparison, render_report
from .usage import UsageAccountant, owner_label

__all__ = [
    "Counter",
    "DiffResult",
    "Gauge",
    "Histogram",
    "InteractiveContext",
    "KernelProfiler",
    "MetricError",
    "MetricsRegistry",
    "ObsError",
    "SCENARIOS",
    "ScenarioInspector",
    "SpanRecord",
    "TimeSeries",
    "TraceRecorder",
    "UsageAccountant",
    "adaptation_chains",
    "chain",
    "dashboard_cell",
    "dashboard_cell_from_context",
    "dashboard_cell_from_run",
    "diff_metrics",
    "diff_traces",
    "dwell_times",
    "from_jsonl",
    "load_store_cells",
    "ordered",
    "owner_label",
    "register_scenario",
    "render_comparison",
    "render_dashboard",
    "render_report",
    "replay",
    "structural_keys",
    "summary",
    "timeline",
    "to_chrome",
    "to_chrome_profile",
    "to_folded",
    "to_jsonl",
]
