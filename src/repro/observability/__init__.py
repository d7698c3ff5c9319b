"""Unified observability: metrics, timers and structured event logs.

The instrumentation substrate every execution environment reports
through — the in-process threaded runtime, the discrete-event
simulator and the TCP cluster all emit the *same* metric names (see
:mod:`repro.observability.conventions`) and the same JSONL event
schema, so schedule-quality telemetry is comparable across them.
Dependency-free by design; see ``docs/observability.md`` for the
naming contract and export formats.
"""

from .analysis import (
    ExecutionInterval,
    PETimeline,
    TraceAnalysis,
    analyze_events,
    diff_documents,
    format_diff,
    format_report,
)
from .conventions import (
    SPAN_END_REASONS,
    SPAN_NAMES,
    SPAN_STATUSES,
    TRACE_REPORT_METRICS,
    TRACE_REPORT_PE_FIELDS,
    TRACE_REPORT_SCHEMA,
    cache_instruments,
    cluster_server_instruments,
    cluster_worker_instruments,
    finalize_run_metrics,
    master_instruments,
    service_instruments,
)
from .dashboard import render_status, run_top, status_from_snapshot
from .events import EventLog
from .exposition import (
    OPENMETRICS_CONTENT_TYPE,
    OpenMetricsParseError,
    openmetrics_text,
    parse_openmetrics,
)
from .httpd import MetricsHTTPServer
from .spans import (
    Span,
    SpanContext,
    derive_spans,
    execution_span_id,
    span_structure,
    task_trace_id,
)
from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    merge_into,
    merge_snapshots,
)
from .telemetry import (
    TELEMETRY_SCHEMA,
    TelemetrySampler,
    TelemetryWriter,
    read_telemetry,
    replay_telemetry,
    snapshot_delta,
)
from .timer import Stopwatch, Timer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "merge_into",
    "merge_snapshots",
    "OPENMETRICS_CONTENT_TYPE",
    "OpenMetricsParseError",
    "openmetrics_text",
    "parse_openmetrics",
    "TELEMETRY_SCHEMA",
    "TelemetryWriter",
    "TelemetrySampler",
    "snapshot_delta",
    "read_telemetry",
    "replay_telemetry",
    "MetricsHTTPServer",
    "status_from_snapshot",
    "render_status",
    "run_top",
    "EventLog",
    "Timer",
    "Stopwatch",
    "master_instruments",
    "cache_instruments",
    "cluster_server_instruments",
    "cluster_worker_instruments",
    "service_instruments",
    "finalize_run_metrics",
    "Span",
    "SpanContext",
    "task_trace_id",
    "execution_span_id",
    "derive_spans",
    "span_structure",
    "ExecutionInterval",
    "PETimeline",
    "TraceAnalysis",
    "analyze_events",
    "format_report",
    "diff_documents",
    "format_diff",
    "SPAN_NAMES",
    "SPAN_STATUSES",
    "SPAN_END_REASONS",
    "TRACE_REPORT_SCHEMA",
    "TRACE_REPORT_METRICS",
    "TRACE_REPORT_PE_FIELDS",
]
