"""Canonical metric names shared by every execution environment.

The DES and the threaded runtime drive the *same*
:class:`~repro.core.master.Master`, so most telemetry is declared once,
here, and both environments inherit identical metric names — the
property the parity tests (and any cross-run comparison of
``BENCH_*.json`` telemetry) depend on.  Cluster transports add their
own ``cluster_*`` families on top.

Naming rules (documented in ``docs/observability.md``):

* snake_case, unit-suffixed (``_seconds``, ``_cells``, ``_total`` for
  counters);
* the PE identity label is always ``pe``; categorical labels are
  lower-case (``kind``, ``outcome``, ``type``);
* the same physical quantity never appears under two names.
"""

from __future__ import annotations

from types import SimpleNamespace

from .registry import MetricsRegistry

__all__ = [
    "master_instruments",
    "cache_instruments",
    "cluster_server_instruments",
    "cluster_worker_instruments",
    "service_instruments",
    "finalize_run_metrics",
    "SPAN_NAMES",
    "SPAN_STATUSES",
    "SPAN_END_REASONS",
    "TRACE_REPORT_SCHEMA",
    "TRACE_REPORT_METRICS",
    "TRACE_REPORT_PE_FIELDS",
]

# ----------------------------------------------------------------------
# Span and trace-report conventions
# ----------------------------------------------------------------------
# Declared once so the analyzer, the parity tests and external tooling
# agree on the vocabulary in every execution environment.

#: Span names of a task-lifecycle trace (repro.observability.spans).
SPAN_NAMES = ("task", "execution")

#: How a span can end: the winning execution (and its completed root)
#: is ``won``; a losing execution is ``stale`` whether it completed
#: uselessly or aborted on cancellation; ``released`` marks executions
#: returned to READY by a deregistering PE; ``open`` never closed.
SPAN_STATUSES = ("open", "won", "stale", "released")

#: The mechanical reason a span closed (finer-grained than status).
SPAN_END_REASONS = ("open", "complete", "cancelled", "released")

#: Schema tag of the trace-analysis JSON document.
TRACE_REPORT_SCHEMA = "repro.trace_report.v1"

#: Top-level metric keys every trace report carries — identical across
#: the threaded runtime, the DES and the cluster (the parity set).
TRACE_REPORT_METRICS = (
    "makespan_seconds",
    "balancing_factor",
    "replica_waste_ratio",
    "assignment_latency_seconds",
    "critical_path_seconds",
    "total_busy_seconds",
)

#: Per-PE keys of the trace report's ``pes`` section.
TRACE_REPORT_PE_FIELDS = (
    "busy_seconds",
    "idle_seconds",
    "utilization",
    "tasks_won",
    "tasks_lost",
    "estimated_rate_cells_per_second",
    "rate_samples",
)

#: Task-latency bucket bounds: spans millisecond in-process tasks up to
#: multi-hour simulated SwissProt scans.
TASK_LATENCY_BUCKETS = (
    0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0, 1800.0,
    7200.0, float("inf"),
)

#: RPC/notification bucket bounds: microseconds to seconds.
RPC_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
    float("inf"),
)

#: End-to-end service-request latency (queue wait + compute): covers
#: sub-second in-process answers up to long simulated scans.
SERVICE_LATENCY_BUCKETS = (
    0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
    300.0, 1800.0, float("inf"),
)


def master_instruments(registry: MetricsRegistry) -> SimpleNamespace:
    """Declare (get-or-create) every master/scheduling metric family."""
    return SimpleNamespace(
        events=registry.counter(
            "master_events_total",
            "Master protocol events by kind",
            ("kind",),
        ),
        tasks_assigned=registry.counter(
            "tasks_assigned_total",
            "Ready tasks granted to a PE",
            ("pe",),
        ),
        replicas_assigned=registry.counter(
            "replicas_assigned_total",
            "Workload-adjustment replicas granted to a PE",
            ("pe",),
        ),
        tasks_completed=registry.counter(
            "tasks_completed_total",
            "Task completions by PE and race outcome (won/stale)",
            ("pe", "outcome"),
        ),
        tasks_cancelled=registry.counter(
            "tasks_cancelled_total",
            "Replica cancellations issued to a PE",
            ("pe",),
        ),
        progress_notifications=registry.counter(
            "progress_notifications_total",
            "PSS progress notifications received from a PE",
            ("pe",),
        ),
        wait_polls=registry.counter(
            "worker_wait_polls_total",
            "Empty assignments (PE told to wait and retry)",
            ("pe",),
        ),
        registered_pes=registry.gauge(
            "registered_pes",
            "PEs currently registered with the master",
        ),
        ready_tasks=registry.gauge(
            "ready_tasks",
            "Tasks in the READY state",
        ),
        executing_tasks=registry.gauge(
            "executing_tasks",
            "Tasks in the EXECUTING state",
        ),
        queue_depth=registry.gauge(
            "pe_queue_depth",
            "Tasks currently queued on a PE (master's view)",
            ("pe",),
        ),
        estimated_rate=registry.gauge(
            "pe_estimated_rate_cells_per_second",
            "Omega-window weighted-mean rate estimate (the PSS input)",
            ("pe",),
        ),
        realized_rate=registry.gauge(
            "pe_realized_rate_cells_per_second",
            "Realized rate of the PE's latest completed task",
            ("pe",),
        ),
        task_latency=registry.histogram(
            "task_latency_seconds",
            "Per-task execution latency as reported at completion",
            ("pe",),
            buckets=TASK_LATENCY_BUCKETS,
        ),
        busy_seconds=registry.counter(
            "pe_busy_seconds_total",
            "Cumulative task-execution seconds per PE",
            ("pe",),
        ),
        cells_completed=registry.counter(
            "cells_completed_total",
            "Matrix cells of completed tasks per PE (incl. stale)",
            ("pe",),
        ),
    )


def cache_instruments(registry: MetricsRegistry) -> SimpleNamespace:
    """Pack/profile cache metrics (the ``cache`` label names the cache)."""
    return SimpleNamespace(
        hits=registry.counter(
            "cache_hits_total",
            "Cache lookups served from a resident entry",
            ("cache",),
        ),
        misses=registry.counter(
            "cache_misses_total",
            "Cache lookups that had to build the entry",
            ("cache",),
        ),
        evictions=registry.counter(
            "cache_evictions_total",
            "Entries evicted by the LRU capacity bound",
            ("cache",),
        ),
        entries=registry.gauge(
            "cache_entries",
            "Entries currently resident in the cache",
            ("cache",),
        ),
    )


def cluster_server_instruments(registry: MetricsRegistry) -> SimpleNamespace:
    """Master-server transport metrics (one side of the wire)."""
    return SimpleNamespace(
        messages=registry.counter(
            "cluster_messages_total",
            "Wire messages handled by the master server, by type",
            ("type",),
        ),
        rpc_seconds=registry.histogram(
            "cluster_rpc_seconds",
            "Master-side service time per message, by type",
            ("type",),
            buckets=RPC_BUCKETS,
        ),
        connections=registry.counter(
            "cluster_connections_total",
            "Slave connections accepted by the master server",
        ),
        protocol_errors=registry.counter(
            "cluster_protocol_errors_total",
            "Malformed or unknown wire messages",
        ),
    )


def cluster_worker_instruments(registry: MetricsRegistry) -> SimpleNamespace:
    """Worker-side transport metrics (the other side of the wire)."""
    return SimpleNamespace(
        roundtrip_seconds=registry.histogram(
            "cluster_roundtrip_seconds",
            "Worker-observed request/notification round-trip time",
            ("pe", "type"),
            buckets=RPC_BUCKETS,
        ),
        connects=registry.counter(
            "cluster_worker_connects_total",
            "Connections (and reconnections) a worker opened",
            ("pe",),
        ),
    )


def service_instruments(registry: MetricsRegistry) -> SimpleNamespace:
    """Admission-layer metrics of the always-on search service.

    Declared once so the threaded service, the DES service model and
    the cluster front-end export identical families (same parity rule
    as the master instruments above).
    """
    return SimpleNamespace(
        requests=registry.counter(
            "service_requests_total",
            "Service requests by final outcome "
            "(admitted/shed/done/expired/cancelled)",
            ("tenant", "outcome"),
        ),
        shed=registry.counter(
            "service_shed_total",
            "Requests rejected by admission control, by reason",
            ("tenant", "reason"),
        ),
        deadline_misses=registry.counter(
            "service_deadline_misses_total",
            "Requests whose deadline expired before completion",
            ("tenant",),
        ),
        queue_depth=registry.gauge(
            "service_queue_depth",
            "Requests waiting in the admission queue",
            ("tenant",),
        ),
        backlog_seconds=registry.gauge(
            "service_backlog_seconds",
            "Estimated seconds of queued + in-flight work at the "
            "current fleet rate",
        ),
        draining=registry.gauge(
            "service_draining",
            "1 while the service refuses new admissions and drains",
        ),
        latency=registry.histogram(
            "service_request_latency_seconds",
            "Submit-to-completion latency of admitted requests",
            ("tenant",),
            buckets=SERVICE_LATENCY_BUCKETS,
        ),
        predicted_p99=registry.gauge(
            "service_predicted_p99_seconds",
            "SLO admission controller's predicted p99 completion time "
            "for the tenant's next request (rate EWMA + backlog, "
            "inflated by the observed prediction-error quantile)",
            ("tenant",),
        ),
        recovered=registry.counter(
            "service_recovered_requests_total",
            "Requests rebuilt from the service journal at cold "
            "restart, by disposition "
            "(restored/readmitted/expired/terminal)",
            ("disposition",),
        ),
    )


def finalize_run_metrics(
    registry: MetricsRegistry, makespan: float, total_cells: float
) -> None:
    """Stamp whole-run summary gauges (identical in DES and runtime).

    Derives per-PE utilization from the accumulated busy-seconds
    counter, so it only needs the numbers every environment already
    has.
    """
    registry.gauge(
        "run_makespan_seconds", "End-to-end makespan of the run"
    ).set(makespan)
    registry.gauge(
        "run_total_cells", "Matrix cells in the workload"
    ).set(total_cells)
    registry.gauge(
        "run_gcups", "Aggregate useful throughput of the run"
    ).set(total_cells / makespan / 1e9 if makespan > 0 else 0.0)
    utilization = registry.gauge(
        "pe_utilization_ratio",
        "Per-PE busy seconds / makespan (1.0 = perfectly packed)",
        ("pe",),
    )
    busy = registry.get("pe_busy_seconds_total")
    if busy is not None and makespan > 0:
        for labels, child in busy.series():
            utilization.labels(**labels).set(child.value / makespan)
