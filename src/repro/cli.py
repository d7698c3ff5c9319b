"""Command-line interface: ``repro-sw`` / ``python -m repro``.

Subcommands mirror the paper's workflow:

* ``search``  — compare a query FASTA against a database FASTA on a set
  of worker engines (the real execution environment of Fig. 4);
* ``index``   — convert a FASTA file to the paper's indexed format;
* ``simulate``— run a workload on the simulated hybrid platform;
* ``tables``  — regenerate the paper's tables and figures;
* ``metrics`` — ``metrics show`` renders/validates a snapshot
  (Prometheus/OpenMetrics text, JSON, or a summary with
  p50/p95/p99 quantile columns) and ``metrics diff`` reports
  per-family deltas between two snapshots;
  ``search``/``simulate``/``cluster`` write such snapshots via
  ``--metrics-out`` and live interval-delta streams via
  ``--telemetry-out``;
* ``top``     — terminal dashboard: poll a live master's ``/statusz``
  endpoint (``cluster``/``serve`` ``--http-port``) or tail a
  ``repro.telemetry.v1`` stream;
* ``trace``   — analyze an event log written by ``--events-out``:
  per-PE timelines, scheduling diagnostics, Gantt renderings and
  run-vs-run diffs (``repro.trace_report.v1`` documents, also written
  directly by ``--trace-out``);
* ``journal`` — inspect/verify a ``--checkpoint`` directory's
  write-ahead journal and snapshot (``repro journal verify`` checks
  every record's CRC);
* ``db``      — build/inspect/verify a persistent pre-packed database
  store (``repro.packstore.v1``); ``search``/``cluster``/``serve``/
  ``worker`` warm-start from it via ``--store``;
* ``loadgen`` — open-loop Poisson load against a ``serve --service``
  master: submit on a seeded arrival schedule, report admitted/shed
  counts and latency quantiles.
"""

from __future__ import annotations

import argparse
import sys

from .align import (
    DEFAULT_GAPS,
    affine_gap,
    align_linear_space,
    get_matrix,
    nw_align,
    semiglobal_align,
)
from .bench import (
    fig5_schedule,
    fig6_adjustment,
    format_cell_rows,
    format_fig6,
    format_headline,
    format_policy_rows,
    headline,
    table1_policies,
    table3_sse,
    table4_gpu,
    table5_hybrid,
    tasks_for_profile,
)
from .cluster.launcher import DEFAULT_HEARTBEAT_TIMEOUT
from .core import (
    HybridRuntime,
    InterSequenceEngine,
    StripedSSEEngine,
    make_policy,
)
from .sequences import SequenceDatabase, get_profile, index_fasta, read_fasta
from .simulate import HybridSimulator, gantt, hybrid_platform

__all__ = ["main", "build_parser"]


def _top_count(text: str) -> int:
    """``--top``: how many hits to keep, at least one."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree for repro-sw."""
    parser = argparse.ArgumentParser(
        prog="repro-sw",
        description="Smith-Waterman on hybrid platforms with dynamic "
        "workload adjustment (IPDPSW 2013 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    search = sub.add_parser("search", help="query x database SW search")
    search.add_argument("query", help="query FASTA file")
    search.add_argument("database", help="database FASTA file")
    search.add_argument("--matrix", default="blosum62")
    search.add_argument("--gap-open", type=int, default=DEFAULT_GAPS.open)
    search.add_argument("--gap-extend", type=int, default=DEFAULT_GAPS.extend)
    search.add_argument("--gpus", type=int, default=1,
                        help="inter-sequence engines to spawn")
    search.add_argument("--sse", type=int, default=1,
                        help="striped engines to spawn")
    search.add_argument("--policy", default="pss",
                        choices=["ss", "pss", "fixed", "wfixed"])
    search.add_argument("--no-adjustment", action="store_true")
    search.add_argument("--top", type=_top_count, default=5)
    search.add_argument(
        "--evalue", action="store_true",
        help="annotate hits with Karlin-Altschul E-values/bit scores",
    )
    search.add_argument(
        "--chunks", type=int, default=1,
        help="database chunks per query (coarse-grained decomposition; "
        "1 = the paper's very coarse tasks)",
    )
    _add_batching_flags(search)
    _add_checkpoint_flag(search)
    _add_store_flag(search)
    _add_telemetry_flags(search)

    align = sub.add_parser("align", help="pairwise alignment of two FASTAs")
    align.add_argument("query", help="FASTA with the query (first record)")
    align.add_argument("subject", help="FASTA with the subject (first record)")
    align.add_argument(
        "--mode", default="local",
        choices=["local", "global", "semiglobal"],
    )
    align.add_argument("--matrix", default="blosum62")
    align.add_argument("--gap-open", type=int, default=DEFAULT_GAPS.open)
    align.add_argument("--gap-extend", type=int, default=DEFAULT_GAPS.extend)

    index = sub.add_parser("index", help="convert FASTA to indexed format")
    index.add_argument("fasta")
    index.add_argument("output")

    cluster = sub.add_parser(
        "cluster",
        help="distributed search: TCP master + slave worker processes",
    )
    cluster.add_argument("query", help="query FASTA file")
    cluster.add_argument("database", help="database FASTA file")
    cluster.add_argument(
        "--workers", default="gpu,sse",
        help="comma-separated engine kinds, one worker each "
        "(gpu/sse/scan), e.g. 'gpu,gpu,sse'",
    )
    cluster.add_argument("--policy", default="pss",
                         choices=["ss", "pss", "fixed", "wfixed"])
    cluster.add_argument("--no-adjustment", action="store_true")
    cluster.add_argument("--top", type=_top_count, default=5)
    cluster.add_argument(
        "--threads", action="store_true",
        help="run workers as threads instead of processes",
    )
    cluster.add_argument(
        "--faults", metavar="FILE", default=None,
        help="inject a repro.fault_plan.v1 JSON plan into the workers",
    )
    cluster.add_argument(
        "--heartbeat", type=float, default=None,
        help="seconds of silence before a worker is reaped (default "
        f"{DEFAULT_HEARTBEAT_TIMEOUT:g}; 0 disables reaping)",
    )
    cluster.add_argument(
        "--http-port", type=int, default=None, metavar="PORT",
        help="serve live /metrics, /healthz and /statusz endpoints "
        "from the master for the duration of the run (0 = free port)",
    )
    _add_batching_flags(cluster)
    _add_checkpoint_flag(cluster)
    _add_store_flag(cluster)
    _add_telemetry_flags(cluster)

    simulate = sub.add_parser(
        "simulate", help="simulate a paper workload on a hybrid platform"
    )
    simulate.add_argument("--database", default="swissprot",
                          help="profile name or alias (e.g. swissprot, dog)")
    simulate.add_argument("--queries", type=int, default=40)
    simulate.add_argument("--gpus", type=int, default=4)
    simulate.add_argument("--sse", type=int, default=4)
    simulate.add_argument("--fpgas", type=int, default=0)
    simulate.add_argument("--policy", default="pss",
                          choices=["ss", "pss", "fixed", "wfixed"])
    simulate.add_argument("--no-adjustment", action="store_true")
    simulate.add_argument("--gantt", action="store_true")
    simulate.add_argument("--svg", metavar="FILE", default=None,
                          help="write the schedule as an SVG Gantt chart")
    simulate.add_argument(
        "--faults", metavar="FILE", default=None,
        help="inject a repro.fault_plan.v1 JSON plan into the simulation",
    )
    simulate.add_argument(
        "--heartbeat", type=float, default=None,
        help="virtual seconds of silence before a PE is reaped "
        "(default 10x the notify interval when faults are injected; "
        "0 disables reaping)",
    )
    _add_batching_flags(simulate)
    _add_checkpoint_flag(simulate)
    _add_telemetry_flags(simulate)

    generate = sub.add_parser(
        "generate",
        help="materialize a synthetic workload (FASTA query + database)",
    )
    generate.add_argument("--database", default="dog",
                          help="Table II profile name or alias")
    generate.add_argument("--scale", type=float, default=0.01,
                          help="fraction of the published sequence count")
    generate.add_argument("--queries", type=int, default=40)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True,
                          help="output directory")

    inspect = sub.add_parser(
        "inspect", help="print the header/stats of an indexed file"
    )
    inspect.add_argument("indexed")
    inspect.add_argument("--records", type=int, default=3,
                         help="number of leading records to preview")

    serve = sub.add_parser(
        "serve",
        help="run a standalone TCP master for remote workers "
        "(the paper's multi-host deployment)",
    )
    serve.add_argument("query", help="query FASTA file")
    serve.add_argument("database", help="database FASTA file")
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address for the master socket (default loopback; "
        "pass an interface address or 0.0.0.0 explicitly to accept "
        "workers from other hosts)",
    )
    serve.add_argument("--port", type=int, default=7171)
    serve.add_argument("--policy", default="pss",
                       choices=["ss", "pss", "fixed", "wfixed"])
    serve.add_argument("--no-adjustment", action="store_true")
    serve.add_argument(
        "--heartbeat", type=float, default=DEFAULT_HEARTBEAT_TIMEOUT,
        help="silent-worker reap timeout in seconds (default "
        f"{DEFAULT_HEARTBEAT_TIMEOUT:g}, shared with `repro cluster`; "
        "0 disables reaping)",
    )
    serve.add_argument("--timeout", type=float, default=3600.0)
    serve.add_argument("--top", type=_top_count, default=5)
    serve.add_argument(
        "--export", default=None,
        help="directory to write the indexed query/database files that "
        "workers must be pointed at (default: a temp directory)",
    )
    serve.add_argument(
        "--http-port", type=int, default=None, metavar="PORT",
        help="serve live /metrics, /healthz and /statusz endpoints "
        "alongside the master (0 = free port)",
    )
    serve.add_argument(
        "--service", action="store_true",
        help="always-on mode: accept submit/poll/cancel/drain requests "
        "(protocol 4) on top of the initial workload; the master keeps "
        "running until SIGTERM or a drain request, then finishes "
        "in-flight queries and exits 0 with a final service record",
    )
    serve.add_argument(
        "--max-queue-depth", type=int, default=16,
        help="per-tenant admission queue bound; a full lane sheds with "
        "reason queue_full (service mode)",
    )
    serve.add_argument(
        "--max-backlog-seconds", type=float, default=60.0,
        help="shed new requests with reason backlog when estimated "
        "queued+in-flight work exceeds this many seconds of fleet "
        "throughput (0 disables the gate; service mode)",
    )
    serve.add_argument(
        "--default-deadline", type=float, default=None, metavar="SECONDS",
        help="deadline applied to submissions that carry none; expired "
        "requests are cancelled wherever they run (service mode)",
    )
    serve.add_argument(
        "--tenant-weight", action="append", default=None,
        metavar="TENANT=WEIGHT",
        help="fair-dequeue weight for one tenant (repeatable; "
        "default weight 1)",
    )
    serve.add_argument(
        "--admission", default="static", choices=["static", "slo"],
        help="admission gate: static (fixed --max-backlog-seconds "
        "bound) or slo (shed a deadline-carrying request when its "
        "predicted completion — service-rate EWMA + backlog, inflated "
        "by the observed error quantile — would overshoot the "
        "deadline); service mode",
    )
    _add_checkpoint_flag(serve)
    _add_store_flag(serve)

    worker = sub.add_parser(
        "worker", help="run a standalone slave against a remote master"
    )
    worker.add_argument("--host", required=True)
    worker.add_argument("--port", type=int, required=True)
    worker.add_argument("--pe-id", required=True)
    worker.add_argument("--engine", default="sse",
                        choices=["gpu", "sse", "scan"])
    worker.add_argument("--queries", required=True,
                        help="indexed query file (from `serve --export`)")
    worker.add_argument("--database", required=True,
                        help="indexed database file")
    worker.add_argument("--matrix", default="blosum62")
    worker.add_argument("--gap-open", type=int, default=10)
    worker.add_argument("--gap-extend", type=int, default=2)
    worker.add_argument("--top", type=_top_count, default=5)
    worker.add_argument("--chunk-size", type=int, default=16)
    _add_store_flag(worker)

    loadgen = sub.add_parser(
        "loadgen",
        help="open-loop Poisson load against a `serve --service` master",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True)
    loadgen.add_argument("--rate", type=float, required=True,
                         help="mean arrival rate lambda (requests/second)")
    loadgen.add_argument("--horizon", type=float, required=True,
                         help="submission window in seconds")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="rng seed: same seed, same schedule and "
                         "queries")
    loadgen.add_argument("--tenants", default="default",
                         help="comma-separated tenant names, assigned "
                         "round-robin")
    loadgen.add_argument("--deadline", type=float, default=None,
                         help="relative per-request deadline in seconds")
    loadgen.add_argument("--min-length", type=int, default=40)
    loadgen.add_argument("--max-length", type=int, default=120)
    loadgen.add_argument("--wait-timeout", type=float, default=60.0,
                         help="seconds to wait for each admitted request "
                         "after the submission window closes")
    loadgen.add_argument("--retries", type=int, default=0,
                         help="submit attempts per request with jittered "
                         "exponential backoff (idempotent resubmission "
                         "under stable request ids; 0 = single attempt)")
    loadgen.add_argument("--request-id-prefix", default=None,
                         metavar="PREFIX",
                         help="pin request ids to PREFIX-NNNNN so a "
                         "recovery harness can poll them after a master "
                         "restart")
    loadgen.add_argument("--json", action="store_true",
                         help="print the report as JSON instead of a "
                         "summary")

    tables = sub.add_parser("tables", help="regenerate paper tables/figures")
    tables.add_argument(
        "which",
        choices=["1", "3", "4", "5", "fig5", "fig6", "headline", "all"],
    )
    tables.add_argument(
        "--csv", metavar="DIR", default=None,
        help="also write machine-readable CSV files into DIR",
    )

    metrics = sub.add_parser(
        "metrics",
        help="render/summarize metrics snapshots written by "
        "--metrics-out (bare `metrics FILE` is shorthand for "
        "`metrics show FILE`)",
    )
    metrics_sub = metrics.add_subparsers(dest="metrics_command",
                                         required=True)

    mshow = metrics_sub.add_parser(
        "show", help="render/validate one snapshot"
    )
    mshow.add_argument("snapshot", help="metrics snapshot JSON file")
    mshow.add_argument(
        "--format", default="prom",
        choices=["prom", "openmetrics", "json", "names", "summary"],
        help="prom: Prometheus text exposition; openmetrics: "
        "OpenMetrics 1.0 text (with # EOF); json: normalized "
        "snapshot; names: metric names only; summary: one line per "
        "series with p50/p95/p99 quantile columns for histograms",
    )

    mdiff = metrics_sub.add_parser(
        "diff",
        help="per-family deltas between two snapshots (counters and "
        "histograms subtract; gauges show before -> after; families "
        "absent from the second snapshot are dropped)",
    )
    mdiff.add_argument("first", help="baseline snapshot JSON file")
    mdiff.add_argument("second", help="comparison snapshot JSON file")

    top = sub.add_parser(
        "top",
        help="terminal dashboard: poll a live master's /statusz "
        "(--http-port) or tail a repro.telemetry.v1 stream",
    )
    top.add_argument(
        "source",
        help="master base URL (http://host:port) or telemetry JSONL path",
    )
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between frames")
    top.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="stop after N frames (default: until the run finishes or "
        "interrupted)",
    )
    top.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen "
        "(the default when stdout is not a terminal)",
    )

    trace = sub.add_parser(
        "trace",
        help="analyze an event log written by --events-out "
        "(timelines, diagnostics, Gantt, diffs)",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    analyze = trace_sub.add_parser(
        "analyze", help="reconstruct timelines and diagnostics"
    )
    analyze.add_argument("events", help="event-log JSONL file")
    analyze.add_argument(
        "--format", default="text", choices=["text", "json"],
    )
    analyze.add_argument(
        "--out", metavar="FILE", default=None,
        help="also write the repro.trace_report.v1 JSON document",
    )
    analyze.add_argument("--omega", type=int, default=8,
                         help="rate-reconstruction window length")

    tgantt = trace_sub.add_parser(
        "gantt", help="render the reconstructed schedule as a Gantt chart"
    )
    tgantt.add_argument("events", help="event-log JSONL file")
    tgantt.add_argument("--width", type=int, default=72)
    tgantt.add_argument(
        "--svg", metavar="FILE", default=None,
        help="write an SVG rendering instead of ASCII",
    )
    tgantt.add_argument("--title", default="")
    tgantt.add_argument("--omega", type=int, default=8)

    tdiff = trace_sub.add_parser(
        "diff",
        help="compare two runs (event logs or trace reports), e.g. "
        "SS vs PSS",
    )
    tdiff.add_argument("first", help="event-log JSONL or trace-report JSON")
    tdiff.add_argument("second", help="event-log JSONL or trace-report JSON")
    tdiff.add_argument(
        "--format", default="text", choices=["text", "json"],
    )
    tdiff.add_argument("--omega", type=int, default=8)

    journal = sub.add_parser(
        "journal",
        help="inspect/verify a checkpoint journal written by --checkpoint",
    )
    journal_sub = journal.add_subparsers(dest="journal_command",
                                         required=True)

    jinspect = journal_sub.add_parser(
        "inspect", help="summarize a journal: records, tasks, PEs"
    )
    jinspect.add_argument(
        "path", help="checkpoint directory or journal.jsonl file"
    )
    jinspect.add_argument(
        "--format", default="text", choices=["text", "json"],
    )

    jverify = journal_sub.add_parser(
        "verify",
        help="check every record's CRC and the snapshot/journal schema",
    )
    jverify.add_argument(
        "path", help="checkpoint directory or journal.jsonl file"
    )

    db = sub.add_parser(
        "db",
        help="build/inspect/verify a persistent pre-packed database "
        "store (repro.packstore.v1) for warm-started engines",
    )
    db_sub = db.add_subparsers(dest="db_command", required=True)

    dbuild = db_sub.add_parser(
        "build",
        help="serialize a database's lane packs (and optional query "
        "profiles) into a store directory",
    )
    dbuild.add_argument("database", help="database FASTA file")
    dbuild.add_argument(
        "--store", required=True, metavar="DIR",
        help="store directory (created if missing)",
    )
    dbuild.add_argument(
        "--queries", default=None, metavar="FASTA",
        help="also serialize these queries' padded/striped profiles",
    )
    dbuild.add_argument("--matrix", default="blosum62")
    dbuild.add_argument(
        "--lanes", default="32", metavar="N[,N...]",
        help="comma-separated lane widths to pack at (default: 32, "
        "the inter-sequence engine's width)",
    )
    # Accepted and ignored, hidden from --help: perfbench/fixtures.py
    # still passes it when it builds the search_batched store.
    dbuild.add_argument("--screen-lanes", help=argparse.SUPPRESS)

    dinspect = db_sub.add_parser(
        "inspect", help="list a store's entries and their geometry"
    )
    dinspect.add_argument("store", metavar="DIR")
    dinspect.add_argument(
        "--format", default="text", choices=["text", "json"],
    )

    dverify = db_sub.add_parser(
        "verify",
        help="re-check every manifest and array CRC; non-zero exit on "
        "any corruption",
    )
    dverify.add_argument("store", metavar="DIR")
    return parser


def _add_batching_flags(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--batch", type=int, default=1, metavar="K",
        help="coalesce up to K compatible queries per assignment into "
        "one multi-query sweep (1 = the paper's per-task granularity; "
        "results are bit-identical either way)",
    )
    command.add_argument(
        "--cache", action="store_true",
        help="enable the process-wide pack/profile caches so repeated "
        "tasks skip database conversion (the simulator models timing "
        "only, so there the flag is accepted but has no kernel state "
        "to cache)",
    )


def _add_store_flag(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--store", metavar="DIR", default=None,
        help="warm-start from a repro.packstore.v1 directory (see "
        "`repro-sw db build`): engines memory-map pre-packed database "
        "shards and profiles instead of re-packing on start",
    )


def _add_checkpoint_flag(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--checkpoint", metavar="DIR", default=None,
        help="journal master state under DIR (crash-safe write-ahead "
        "log); re-running with the same DIR resumes, skipping tasks "
        "that already finished",
    )


def _add_telemetry_flags(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write the run's metrics snapshot as JSON",
    )
    command.add_argument(
        "--events-out", metavar="FILE", default=None,
        help="write the run's structured event log as JSONL",
    )
    command.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write the run's trace analysis "
        "(repro.trace_report.v1 JSON)",
    )
    command.add_argument(
        "--telemetry-out", metavar="FILE", default=None,
        help="append a live repro.telemetry.v1 JSONL stream of "
        "interval-delta metric samples during the run (virtual-clock "
        "samples in the simulator)",
    )
    command.add_argument(
        "--telemetry-interval", type=float, default=1.0,
        metavar="SECONDS",
        help="sampling cadence for --telemetry-out (default 1.0)",
    )


def _write_telemetry(args: argparse.Namespace, metrics: dict, events) -> None:
    """Honour --metrics-out/--events-out/--trace-out on a run report."""
    import json

    if getattr(args, "metrics_out", None):
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle, indent=2)
            handle.write("\n")
        print(f"(wrote metrics snapshot {args.metrics_out})")
    if getattr(args, "events_out", None):
        events.to_jsonl(args.events_out)
        print(f"(wrote event log {args.events_out})")
    if getattr(args, "trace_out", None):
        from .observability import analyze_events

        document = analyze_events(events).to_document()
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"(wrote trace report {args.trace_out})")


def _cmd_search(args: argparse.Namespace) -> int:
    matrix = get_matrix(args.matrix)
    gaps = affine_gap(args.gap_open, args.gap_extend)
    queries = read_fasta(args.query, alphabet=matrix.alphabet)
    database = SequenceDatabase.from_fasta(
        args.database, alphabet=matrix.alphabet
    )
    store = None
    if args.store is not None:
        from .store import PackStore, StoreError

        # Fail before the run starts: a StoreError surfacing inside a
        # PE thread would stall the master instead of aborting.
        try:
            store = PackStore(args.store)
            store.verify()
        except StoreError as exc:
            print(f"store verification FAILED: {exc}", file=sys.stderr)
            return 1
    engines = {}
    for i in range(args.gpus):
        engines[f"gpu{i}"] = InterSequenceEngine(
            matrix, gaps, top=args.top, cache=args.cache, store=store
        )
    for i in range(args.sse):
        engines[f"sse{i}"] = StripedSSEEngine(
            matrix, gaps, top=args.top, cache=args.cache, store=store
        )
    runtime = HybridRuntime(
        engines,
        policy=make_policy(args.policy),
        adjustment=not args.no_adjustment,
        checkpoint_dir=args.checkpoint,
        batch=args.batch,
        telemetry_path=args.telemetry_out,
        telemetry_interval=args.telemetry_interval,
    )
    report = runtime.run(
        queries, database, chunks_per_query=args.chunks, top=args.top
    )
    params = None
    if args.evalue:
        from .align.statistics import stock_parameters

        params = stock_parameters(matrix, gaps)
        if params is None:
            import numpy as np

            from .align.statistics import calibrate

            params = calibrate(matrix, gaps, np.random.default_rng(0))
    for query in queries:
        print(f"# query {query.id} ({len(query)} residues)")
        for hit in report.results[query.id]:
            stats = ""
            if params is not None:
                evalue = params.evalue(
                    hit.score, len(query), database.total_residues
                )
                stats = (
                    f" bits={params.bit_score(hit.score):<7.1f}"
                    f" E={evalue:.2g}"
                )
            print(
                f"  {hit.subject_id:<30} score={hit.score:<6}"
                f" length={hit.subject_length}{stats}"
            )
    print(
        f"# makespan {report.makespan:.2f}s"
        f"  {report.gcups:.4f} GCUPS  tasks by PE: {report.tasks_by_pe}"
    )
    _write_telemetry(args, report.metrics, report.events)
    return 0


def _cmd_align(args: argparse.Namespace) -> int:
    matrix = get_matrix(args.matrix)
    gaps = affine_gap(args.gap_open, args.gap_extend)
    query = read_fasta(args.query, alphabet=matrix.alphabet)[0]
    subject = read_fasta(args.subject, alphabet=matrix.alphabet)[0]
    if args.mode == "local":
        alignment = align_linear_space(query, subject, matrix, gaps)
    elif args.mode == "global":
        alignment = nw_align(query, subject, matrix, gaps)
    else:
        alignment = semiglobal_align(query, subject, matrix, gaps)
    print(f"# mode={args.mode} matrix={matrix.name} gaps={gaps}")
    print(alignment.pretty())
    print(f"# CIGAR {alignment.cigar()}")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    stats = index_fasta(args.fasta, args.output)
    print(
        f"indexed {stats.count} sequences (longest {stats.longest}) "
        f"-> {args.output}"
    )
    return 0


def _load_fault_plan(path: str | None):
    if path is None:
        return None
    from .faults import FaultPlan

    return FaultPlan.load(path)


def _cmd_cluster(args: argparse.Namespace) -> int:
    from .cluster import run_cluster

    kinds = [k.strip() for k in args.workers.split(",") if k.strip()]
    workers = {f"{kind}{i}": kind for i, kind in enumerate(kinds)}
    report = run_cluster(
        args.query,
        args.database,
        workers,
        policy=make_policy(args.policy),
        adjustment=not args.no_adjustment,
        top=args.top,
        use_processes=not args.threads,
        heartbeat_timeout=args.heartbeat,
        faults=_load_fault_plan(args.faults),
        checkpoint_dir=args.checkpoint,
        batch=args.batch,
        cache=args.cache,
        store_dir=args.store,
        http_port=args.http_port,
        telemetry_path=args.telemetry_out,
        telemetry_interval=args.telemetry_interval,
    )
    for query_id, hits in report.results.items():
        print(f"# query {query_id}")
        for hit in hits:
            print(f"  {hit.subject_id:<30} score={hit.score:<6}"
                  f" length={hit.subject_length}")
    print(f"# makespan {report.makespan:.2f}s  {report.gcups:.4f} GCUPS  "
          f"workers: {sorted(workers)}")
    _write_telemetry(args, report.metrics, report.events)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    profile = get_profile(args.database)
    tasks = tasks_for_profile(profile, args.queries)
    simulator = HybridSimulator(
        hybrid_platform(args.gpus, args.sse, num_fpgas=args.fpgas),
        policy=make_policy(args.policy),
        adjustment=not args.no_adjustment,
        faults=_load_fault_plan(args.faults),
        heartbeat_timeout=args.heartbeat,
        checkpoint_dir=args.checkpoint,
        batch=args.batch,
        telemetry_path=args.telemetry_out,
        telemetry_interval=args.telemetry_interval,
    )
    report = simulator.run(tasks)
    extras = f" + {args.fpgas} FPGAs" if args.fpgas else ""
    print(
        f"{profile.name}: {args.gpus} GPUs + {args.sse} SSE cores{extras}, "
        f"policy={report.policy_name}, adjustment={report.adjustment}"
    )
    print(
        f"  makespan {report.makespan:.1f}s  {report.gcups:.2f} GCUPS  "
        f"replicas {report.replicas_assigned}  won {report.tasks_won}"
    )
    if args.gantt:
        print(gantt(report))
    if args.svg:
        from .simulate import write_gantt_svg

        write_gantt_svg(
            report, args.svg,
            title=f"{profile.name} on {args.gpus} GPUs + {args.sse} SSEs",
        )
        print(f"(wrote {args.svg})")
    _write_telemetry(args, report.metrics, report.events)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    import os

    import numpy as np

    from .sequences import query_set, write_fasta

    profile = get_profile(args.database)
    rng = np.random.default_rng(args.seed)
    os.makedirs(args.out, exist_ok=True)
    database = profile.materialize(rng, scale=args.scale)
    db_path = os.path.join(args.out, "database.fasta")
    write_fasta(database, db_path)
    queries = query_set(
        args.queries, rng,
        min_length=profile.shortest,
        max_length=min(profile.longest, 5000),
    )
    q_path = os.path.join(args.out, "queries.fasta")
    write_fasta(queries, q_path)
    print(f"database: {db_path} ({len(database)} sequences, "
          f"{database.total_residues} residues)")
    print(f"queries:  {q_path} ({len(queries)} sequences, "
          f"{sum(len(q) for q in queries)} residues)")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from .sequences import IndexedReader

    with IndexedReader(args.indexed) as reader:
        print(f"records: {len(reader)}")
        print(f"longest: {reader.longest} residues")
        offsets = reader.offsets
        if offsets:
            print(f"offset table: {offsets[0]} .. {offsets[-1]}")
        for record in reader[: args.records]:
            preview = record.residues[:50]
            ellipsis = "..." if len(record) > 50 else ""
            print(f"  >{record.id} ({len(record)} aa) {preview}{ellipsis}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import os
    import tempfile

    from .cluster import MasterServer
    from .core.runtime import build_tasks
    from .sequences import SequenceDatabase, write_indexed

    queries = read_fasta(args.query)
    database = SequenceDatabase.from_fasta(args.database)
    export_dir = args.export or tempfile.mkdtemp(prefix="repro-serve-")
    os.makedirs(export_dir, exist_ok=True)
    q_path = os.path.join(export_dir, "queries.seqx")
    d_path = os.path.join(export_dir, "database.seqx")
    write_indexed(queries, q_path)
    write_indexed(list(database), d_path)
    if args.store is not None:
        # Populate (idempotently) before verifying, so a fresh serve
        # both builds the warm-start shards and vouches for them.
        from .store import build_store

        build_store(
            args.store, database, get_matrix("blosum62"), queries=queries
        )

    service_config = None
    if args.service:
        from .service import ServiceConfig

        weights = {}
        for item in args.tenant_weight or ():
            name, _, value = item.partition("=")
            if not name or not value:
                print(f"error: malformed --tenant-weight {item!r} "
                      "(expected TENANT=WEIGHT)", file=sys.stderr)
                return 2
            weights[name] = float(value)
        service_config = ServiceConfig(
            max_queue_depth=args.max_queue_depth,
            max_backlog_seconds=args.max_backlog_seconds,
            default_deadline=args.default_deadline,
            weights=weights,
            admission=args.admission,
        )
    server = MasterServer(
        build_tasks(queries, database),
        policy=make_policy(args.policy),
        adjustment=not args.no_adjustment,
        host=args.host,
        port=args.port,
        heartbeat_timeout=args.heartbeat,
        checkpoint=args.checkpoint,
        store=args.store,
        http_port=args.http_port,
        service=service_config,
        top=args.top,
    )
    server.start()
    host, port = server.address
    print(f"master listening on {host}:{port}")
    if server.httpd is not None:
        print(f"live endpoints at {server.httpd.url('/metrics')} "
              "( /metrics /healthz /statusz )")
    print(f"indexed files for workers:\n  {q_path}\n  {d_path}")
    print("start workers with e.g.:")
    store_hint = f" --store {args.store}" if args.store else ""
    print(
        f"  repro-sw worker --host <this-host> --port {port} "
        f"--pe-id sse0 --engine sse --queries {q_path} "
        f"--database {d_path}{store_hint}"
    )
    if args.service:
        import json
        import signal

        # SIGTERM/SIGINT stop admission and drain: in-flight and queued
        # requests finish, new submissions are shed with reason
        # "draining", then the master exits 0 with a final record.
        def _drain(signum, frame):
            outstanding = server.drain()
            print(f"\ndrain requested (signal {signum}); "
                  f"{outstanding} requests outstanding", flush=True)

        signal.signal(signal.SIGTERM, _drain)
        signal.signal(signal.SIGINT, _drain)
        print("service mode: accepting submit/poll/cancel/drain "
              "(SIGTERM drains)")
        try:
            server.wait_drained(timeout=args.timeout)
            print(json.dumps(server.final_record()))
            return 0
        finally:
            server.stop()
    try:
        server.wait_finished(timeout=args.timeout)
        print("\nall tasks finished; merged results:")
        for query in queries:
            hits = server.results()[query.id][: args.top]
            print(f"# query {query.id}")
            for hit in hits:
                print(f"  {hit.subject_id:<30} score={hit.score}")
        return 0
    finally:
        server.stop()


def _cmd_worker(args: argparse.Namespace) -> int:
    from .cluster import WorkerConfig, run_worker

    config = WorkerConfig(
        host=args.host,
        port=args.port,
        pe_id=args.pe_id,
        engine=args.engine,
        query_path=args.queries,
        database_path=args.database,
        matrix=args.matrix,
        gap_open=args.gap_open,
        gap_extend=args.gap_extend,
        top=args.top,
        chunk_size=args.chunk_size,
        store=args.store,
    )
    completed = run_worker(config)
    print(f"worker {args.pe_id} completed {completed} tasks")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    import numpy as np

    from .service import run_loadgen

    tenants = tuple(t for t in args.tenants.split(",") if t)
    if not tenants:
        print("error: --tenants must name at least one tenant",
              file=sys.stderr)
        return 2
    report = run_loadgen(
        args.host,
        args.port,
        rate=args.rate,
        horizon=args.horizon,
        rng=np.random.default_rng(args.seed),
        tenants=tenants,
        deadline=args.deadline,
        min_length=args.min_length,
        max_length=args.max_length,
        wait_timeout=args.wait_timeout,
        retries=args.retries,
        request_id_prefix=args.request_id_prefix,
    )
    if args.json:
        print(json.dumps(report.to_dict()))
        return 0
    print(f"offered {report.offered} requests over {args.horizon:g}s "
          f"(lambda={args.rate:g}/s, seed={args.seed})")
    print(f"  admitted  {report.admitted}")
    print(f"  completed {report.completed}")
    print(f"  expired   {report.expired}")
    print(f"  cancelled {report.cancelled}")
    if report.unreachable:
        print(f"  unreachable {report.unreachable}")
    shed = ", ".join(f"{k}={v}" for k, v in sorted(report.shed.items()))
    print(f"  shed      {report.shed_total}" + (f" ({shed})" if shed else ""))
    if report.latencies:
        print(f"  latency   p50={report.p50 * 1e3:.1f}ms "
              f"p99={report.p99 * 1e3:.1f}ms")
    return 0


def _cmd_db(args: argparse.Namespace) -> int:
    """Build/inspect/verify a ``repro.packstore.v1`` directory."""
    import json

    from .store import PackStore, StoreError, build_store

    if args.db_command == "build":
        matrix = get_matrix(args.matrix)
        database = SequenceDatabase.from_fasta(
            args.database, alphabet=matrix.alphabet
        )
        queries = (
            read_fasta(args.queries, alphabet=matrix.alphabet)
            if args.queries
            else None
        )
        lanes = tuple(
            int(part) for part in str(args.lanes).split(",") if part.strip()
        )
        store = build_store(
            args.store, database, matrix, queries=queries, lanes_list=lanes
        )
        counts = store.verify()
        print(
            f"store {args.store}: {counts['packs']} pack entries, "
            f"{counts['profiles']} profile entries "
            f"(db {len(database)} seqs / {database.total_residues} "
            f"residues, matrix {matrix.name}, lanes {list(lanes)})"
        )
        return 0

    try:
        store = PackStore(args.store)
        if args.db_command == "verify":
            counts = store.verify()
            print(
                f"OK: {counts['entries']} entries verified "
                f"({counts['packs']} packs, {counts['profiles']} profiles)"
            )
            return 0
        entries = list(store.entries())
    except StoreError as exc:
        print(f"store verification FAILED: {exc}", file=sys.stderr)
        return 1

    # inspect
    if args.format == "json":
        print(json.dumps(entries, indent=2, sort_keys=True))
        return 0
    print(f"# {args.store}: {len(entries)} entries")
    for entry in entries:
        if entry["kind"] == "packs":
            db = entry["database"]
            print(
                f"  packs    {entry['key'][:12]}  lanes={entry['lanes']:<3} "
                f"batches={len(entry['packs'])} "
                f"db={db['name']} ({db['records']} seqs, "
                f"{db['residues']} residues)  matrix={entry['matrix']['name']}"
            )
        else:
            print(
                f"  profile  {entry['key'][:12]}  "
                f"kind={entry['profile_kind']:<8} "
                f"params={entry['params']}  "
                f"matrix={entry['matrix']['name']}"
            )
    return 0


def _load_metrics_snapshot(path: str) -> dict:
    import json

    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _format_series_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _metrics_summary_lines(registry) -> list[str]:
    """One line per series; histograms get count/mean + p50/p95/p99."""
    lines: list[str] = []
    snapshot = registry.snapshot()
    for family in snapshot["metrics"]:
        kind = family["type"]
        for series in family["series"]:
            label = family["name"] + _format_series_labels(series["labels"])
            if kind == "histogram":
                histogram = registry.get(family["name"]).labels(
                    **series["labels"]
                )
                count = series["count"]
                mean = series["sum"] / count if count else 0.0
                quantiles = "  ".join(
                    f"p{int(q * 100)}={histogram.quantile(q):.6g}"
                    for q in (0.5, 0.95, 0.99)
                )
                lines.append(
                    f"{label}  count={count}  sum={series['sum']:.6g}  "
                    f"mean={mean:.6g}  {quantiles}"
                )
            else:
                lines.append(f"{label}  {series['value']:.6g}")
    return lines


def _cmd_metrics_show(args: argparse.Namespace) -> int:
    from .observability import MetricsRegistry, openmetrics_text

    snapshot = _load_metrics_snapshot(args.snapshot)
    registry = MetricsRegistry.from_snapshot(snapshot)  # validates
    if args.format == "prom":
        sys.stdout.write(registry.prometheus_text())
    elif args.format == "openmetrics":
        sys.stdout.write(openmetrics_text(registry))
    elif args.format == "json":
        print(registry.to_json())
    elif args.format == "summary":
        for line in _metrics_summary_lines(registry):
            print(line)
    else:
        for name in registry.names():
            print(name)
    return 0


def _cmd_metrics_diff(args: argparse.Namespace) -> int:
    """Per-family deltas between two snapshots of the same run."""
    from .observability import MetricsRegistry, snapshot_delta

    first = _load_metrics_snapshot(args.first)
    second = _load_metrics_snapshot(args.second)
    before = MetricsRegistry.from_snapshot(first)  # validates both
    MetricsRegistry.from_snapshot(second)
    delta = snapshot_delta(first, second)
    delta_registry = MetricsRegistry.from_snapshot(delta)
    before_gauges = {
        family["name"]: {
            tuple(sorted(series["labels"].items())): series["value"]
            for series in family["series"]
        }
        for family in first["metrics"]
        if family["type"] == "gauge"
    }
    for family in delta["metrics"]:
        kind = family["type"]
        for series in family["series"]:
            label = family["name"] + _format_series_labels(series["labels"])
            if kind == "histogram":
                histogram = delta_registry.get(family["name"]).labels(
                    **series["labels"]
                )
                count = series["count"]
                quantiles = "  ".join(
                    f"p{int(q * 100)}={histogram.quantile(q):.6g}"
                    for q in (0.5, 0.95, 0.99)
                )
                print(
                    f"{label}  +count={count}  +sum={series['sum']:.6g}  "
                    f"{quantiles}"
                )
            elif kind == "gauge":
                key = tuple(sorted(series["labels"].items()))
                previous = before_gauges.get(family["name"], {}).get(key)
                if previous is None:
                    print(f"{label}  -> {series['value']:.6g}")
                else:
                    print(
                        f"{label}  {previous:.6g} -> {series['value']:.6g}"
                    )
            else:
                print(f"{label}  +{series['value']:.6g}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Dispatch ``metrics show`` / ``metrics diff``."""
    if args.metrics_command == "diff":
        return _cmd_metrics_diff(args)
    return _cmd_metrics_show(args)


def _cmd_top(args: argparse.Namespace) -> int:
    """Live terminal dashboard over an endpoint or telemetry stream."""
    from .observability import run_top

    try:
        return run_top(
            args.source,
            interval=args.interval,
            iterations=args.iterations,
            clear=False if args.no_clear else None,
        )
    except KeyboardInterrupt:
        return 0


def _load_trace_document(path: str, omega: int) -> dict:
    """Load a run for ``trace diff``: report JSON or event-log JSONL.

    A file whose first JSON object carries the trace-report schema tag
    is used as-is; anything else is parsed as an event log and
    analyzed on the fly, so diffing two fresh ``--events-out`` files
    needs no intermediate ``trace analyze`` step.
    """
    import json

    from .observability import (
        TRACE_REPORT_SCHEMA,
        EventLog,
        analyze_events,
    )

    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        document = None  # multiple lines: an event-log JSONL
    if isinstance(document, dict) and "schema" in document:
        if document["schema"] == TRACE_REPORT_SCHEMA:
            return document
        raise ValueError(
            f"{path}: JSON document is not a {TRACE_REPORT_SCHEMA} report"
        )
    import io

    events = EventLog.from_jsonl(io.StringIO(text))
    return analyze_events(events, omega=omega).to_document()


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .observability import EventLog, analyze_events, format_report

    if args.trace_command == "analyze":
        analysis = analyze_events(
            EventLog.from_jsonl(args.events), omega=args.omega
        )
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(analysis.to_document(), handle, indent=2)
                handle.write("\n")
            print(f"(wrote trace report {args.out})")
        if args.format == "json":
            print(json.dumps(analysis.to_document(), indent=2))
        else:
            print(format_report(analysis))
        return 0

    if args.trace_command == "gantt":
        analysis = analyze_events(
            EventLog.from_jsonl(args.events), omega=args.omega
        )
        intervals = [iv for iv in analysis.intervals if iv.duration > 0]
        if args.svg:
            from .simulate.svg import render_gantt_svg

            with open(args.svg, "w", encoding="utf-8") as handle:
                handle.write(render_gantt_svg(intervals, title=args.title))
            print(f"(wrote {args.svg})")
        else:
            print(gantt(intervals, width=args.width))
        return 0

    # diff
    from .observability import diff_documents, format_diff

    first = _load_trace_document(args.first, args.omega)
    second = _load_trace_document(args.second, args.omega)
    diff = diff_documents(first, second)
    if args.format == "json":
        print(json.dumps(diff, indent=2))
    else:
        print(format_diff(diff, labels=(args.first, args.second)))
    return 0


def _journal_paths(path: str) -> tuple[str, str | None]:
    """Resolve a CLI path to (journal file, snapshot file or None)."""
    import os

    from .durability import CheckpointStore

    if os.path.isdir(path):
        journal = os.path.join(path, CheckpointStore.JOURNAL_NAME)
        snapshot = os.path.join(path, CheckpointStore.SNAPSHOT_NAME)
        return journal, snapshot if os.path.exists(snapshot) else None
    sibling = os.path.join(
        os.path.dirname(path) or ".", CheckpointStore.SNAPSHOT_NAME
    )
    return path, sibling if os.path.exists(sibling) else None


def _cmd_journal(args: argparse.Namespace) -> int:
    import json
    import os

    from .durability import JOURNAL_SCHEMA, SNAPSHOT_SCHEMA, scan_journal

    journal_path, snapshot_path = _journal_paths(args.path)
    if not os.path.exists(journal_path) and snapshot_path is None:
        print(f"error: no journal at {journal_path}", file=sys.stderr)
        return 1
    scan = scan_journal(journal_path)
    if not scan.ok:
        print(
            f"error: {journal_path}: corrupt record at line "
            f"{scan.error_line}: {scan.error}",
            file=sys.stderr,
        )
        return 1

    header = next(
        (r for r in scan.records if r.get("type") == "header"), None
    )
    if header is not None and header.get("schema") != JOURNAL_SCHEMA:
        print(
            f"error: {journal_path}: unsupported journal schema "
            f"{header.get('schema')!r}",
            file=sys.stderr,
        )
        return 1

    snapshot = None
    if snapshot_path is not None:
        with open(snapshot_path, "r", encoding="utf-8") as handle:
            text = handle.read()
        if text.strip():
            try:
                snapshot = json.loads(text)
            except json.JSONDecodeError as err:
                print(
                    f"error: {snapshot_path}: unreadable snapshot: {err}",
                    file=sys.stderr,
                )
                return 1
            if snapshot.get("schema") != SNAPSHOT_SCHEMA:
                print(
                    f"error: {snapshot_path}: not a "
                    f"{SNAPSHOT_SCHEMA} snapshot",
                    file=sys.stderr,
                )
                return 1

    by_type: dict[str, int] = {}
    finished: dict[int, str] = {}
    pes: set[str] = set()
    if snapshot is not None:
        for record in snapshot.get("finished", []):
            finished.setdefault(record["task"], record["pe"])
            pes.add(record["pe"])
    for record in scan.records:
        kind = record.get("type", "?")
        by_type[kind] = by_type.get(kind, 0) + 1
        if kind == "complete":
            finished.setdefault(record["task"], record["pe"])
            pes.add(record["pe"])
        elif kind == "register":
            pes.add(record["pe"])

    if args.journal_command == "verify":
        print(f"{journal_path}: {len(scan.records)} records ok "
              f"({scan.good_bytes} bytes)")
        if scan.torn:
            print("  torn final record (tolerated; truncated on resume)")
        if snapshot_path is not None:
            print(f"{snapshot_path}: snapshot ok "
                  f"({len((snapshot or {}).get('finished', []))} "
                  f"finished tasks)")
        print(f"finished tasks: {len(finished)}")
        return 0

    # inspect
    workload = (header or {}).get("workload") or (
        (snapshot or {}).get("workload")
    )
    if args.format == "json":
        document = {
            "journal": journal_path,
            "snapshot": snapshot_path,
            "records": len(scan.records),
            "records_by_type": dict(sorted(by_type.items())),
            "torn_tail": scan.torn,
            "workload": workload,
            "finished_tasks": sorted(finished),
            "pes": sorted(pes),
        }
        print(json.dumps(document, indent=2))
        return 0
    print(f"journal:  {journal_path} ({len(scan.records)} records"
          f"{', torn tail' if scan.torn else ''})")
    if snapshot_path is not None:
        print(f"snapshot: {snapshot_path} "
              f"({len((snapshot or {}).get('finished', []))} "
              f"finished tasks)")
    if workload:
        print(f"workload: {workload.get('tasks')} tasks, "
              f"{workload.get('cells')} cells, "
              f"digest {workload.get('digest', '')[:12]}")
    for kind in sorted(by_type):
        print(f"  {kind:<12} {by_type[kind]}")
    print(f"finished tasks ({len(finished)}): "
          f"{', '.join(str(t) for t in sorted(finished)) or '-'}")
    print(f"PEs seen ({len(pes)}): {', '.join(sorted(pes)) or '-'}")
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    import os

    from .bench import cell_rows_to_csv, fig6_to_csv

    which = args.which
    csv_dir = args.csv
    if csv_dir:
        os.makedirs(csv_dir, exist_ok=True)

    def save_csv(name: str, text: str) -> None:
        if csv_dir:
            path = os.path.join(csv_dir, name)
            with open(path, "w", encoding="ascii") as handle:
                handle.write(text)
            print(f"(wrote {path})")

    if which in ("1", "all"):
        print(format_policy_rows(table1_policies(), "Table I (policy survey)"))
        print()
    if which in ("3", "all"):
        rows = table3_sse()
        print(format_cell_rows(rows, "Table III (SSE cores)"))
        save_csv("table3_sse.csv", cell_rows_to_csv(rows))
        print()
    if which in ("4", "all"):
        rows = table4_gpu()
        print(format_cell_rows(rows, "Table IV (GPUs)"))
        save_csv("table4_gpu.csv", cell_rows_to_csv(rows))
        print()
    if which in ("5", "all"):
        rows = table5_hybrid()
        print(format_cell_rows(rows, "Table V (hybrid)"))
        save_csv("table5_hybrid.csv", cell_rows_to_csv(rows))
        print()
    if which in ("fig5", "all"):
        print(fig5_schedule().render())
        print()
    if which in ("fig6", "all"):
        result = fig6_adjustment()
        print(format_fig6(result))
        save_csv("fig6_adjustment.csv", fig6_to_csv(result))
        print()
    if which in ("headline", "all"):
        print(format_headline(headline()))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # Back-compat shim: ``repro metrics FILE`` (pre-subcommand shape)
    # still works by defaulting to the ``show`` subcommand.
    if (
        argv
        and argv[0] == "metrics"
        and len(argv) > 1
        and argv[1] not in ("show", "diff", "-h", "--help")
    ):
        argv.insert(1, "show")
    args = build_parser().parse_args(argv)
    handlers = {
        "search": _cmd_search,
        "align": _cmd_align,
        "index": _cmd_index,
        "cluster": _cmd_cluster,
        "simulate": _cmd_simulate,
        "generate": _cmd_generate,
        "inspect": _cmd_inspect,
        "serve": _cmd_serve,
        "worker": _cmd_worker,
        "loadgen": _cmd_loadgen,
        "tables": _cmd_tables,
        "metrics": _cmd_metrics,
        "top": _cmd_top,
        "trace": _cmd_trace,
        "journal": _cmd_journal,
        "db": _cmd_db,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
