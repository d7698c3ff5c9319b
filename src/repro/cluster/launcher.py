"""Launch a whole local cluster: master server + worker processes.

The highest-level entry point of the distributed runtime: given
query/database files and a worker roster, it converts the inputs to the
indexed format (the master's *acquire sequences / convert format* step
of Fig. 4), starts the TCP master, spawns one OS process per slave,
waits for the merge and returns the results.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass, field

from ..align.api import SearchHit
from ..core.policies import AllocationPolicy
from ..core.runtime import build_tasks
from ..core.master import TraceEvent
from ..core.shared import Periodic
from ..faults import FaultPlan, InjectedCrash
from ..observability import (
    EventLog,
    MetricsRegistry,
    TelemetryWriter,
    merge_snapshots,
)
from ..sequences.database import SequenceDatabase
from ..sequences.fasta import read_fasta
from ..sequences.indexed import write_indexed
from ..sequences.records import Sequence
from .server import MasterServer
from .worker import WorkerConfig, run_worker

__all__ = ["ClusterReport", "DEFAULT_HEARTBEAT_TIMEOUT", "run_cluster"]

#: Default silence (seconds) before the master reaps a worker — about
#: 10x a worker's progress-notification cadence, so transient stalls
#: survive but a dead process is recovered within seconds.  Pass
#: ``heartbeat_timeout=0`` to opt out of reaping entirely.
DEFAULT_HEARTBEAT_TIMEOUT = 10.0


def _worker_main(
    config: WorkerConfig,
    metrics: MetricsRegistry | None = None,
    events: EventLog | None = None,
    clock=None,
    faults: FaultPlan | None = None,
) -> int:
    """Process/thread entry point: a planned crash is a silent exit."""
    try:
        return run_worker(
            config, metrics=metrics, events=events, clock=clock,
            faults=faults,
        )
    except InjectedCrash:
        return 0


@dataclass
class ClusterReport:
    """Outcome of one distributed run."""

    makespan: float
    total_cells: int
    results: dict[str, tuple[SearchHit, ...]]
    trace: list[TraceEvent] = field(default_factory=list)
    #: Merged metrics snapshot: master + transport (+ worker-side
    #: round-trips when workers ran as threads).
    metrics: dict = field(default_factory=dict)
    #: The master's unified structured event log.
    events: EventLog = field(default_factory=EventLog)

    @property
    def gcups(self) -> float:
        return self.total_cells / self.makespan / 1e9 if self.makespan else 0.0


def _materialize_indexed(
    records: list[Sequence], directory: str, name: str
) -> str:
    path = os.path.join(directory, name)
    write_indexed(records, path)
    return path


def run_cluster(
    queries: list[Sequence] | str,
    database: SequenceDatabase | str,
    workers: dict[str, str],
    policy: AllocationPolicy | None = None,
    adjustment: bool = True,
    top: int = 10,
    chunk_size: int = 16,
    matrix: str = "blosum62",
    gap_open: int = 10,
    gap_extend: int = 2,
    timeout: float = 300.0,
    use_processes: bool = True,
    heartbeat_timeout: float | None = None,
    faults: FaultPlan | None = None,
    checkpoint_dir: str | None = None,
    batch: int = 1,
    cache: bool = False,
    store_dir: str | None = None,
    http_port: int | None = None,
    telemetry_path: str | None = None,
    telemetry_interval: float = 1.0,
) -> ClusterReport:
    """Run a workload on a freshly spawned local cluster.

    Parameters
    ----------
    queries, database:
        In-memory records/database, or paths to FASTA files.
    workers:
        Maps PE ids to engine kinds, e.g. ``{"gpu0": "gpu",
        "sse0": "sse"}``.
    use_processes:
        Spawn real OS processes (the paper's deployment shape).  Set to
        ``False`` to run workers in threads — handy on machines where
        process spawning is restricted.
    heartbeat_timeout:
        Silent-worker reaping on the master: seconds of silence before
        a worker is deregistered and its tasks re-queued.  Defaults to
        :data:`DEFAULT_HEARTBEAT_TIMEOUT`; pass ``0`` to disable
        reaping (a crashed worker then hangs the run until *timeout*).
    faults:
        Optional deterministic :class:`~repro.faults.FaultPlan` every
        worker injects against (crashes, stragglers, message chaos).
    checkpoint_dir:
        Journal the master's state under this directory.  A directory
        left behind by a killed run is recovered before workers spawn,
        so the restarted cluster executes only the remaining tasks.
    batch:
        Coalesce up to this many compatible queries per assignment into
        one multi-query engine sweep (1 = the paper's per-task shape).
        Results are bit-identical either way.
    cache:
        Enable each worker's process-wide pack/profile caches so
        repeated tasks skip database conversion.
    store_dir:
        Persistent ``repro.packstore.v1`` directory: the launcher
        populates it with the workload's lane packs and query profiles
        (idempotent — a directory left by an earlier run is reused
        as-is), the master verifies it before accepting workers, and
        every worker memory-maps its shards instead of re-packing on
        start.  This is the warm-start path for restarted clusters.
    http_port:
        Serve live ``/metrics`` (OpenMetrics), ``/healthz`` and
        ``/statusz`` endpoints from the master for the duration of the
        run (0 = pick a free port; ``None`` = no endpoint).
    telemetry_path:
        Append a ``repro.telemetry.v1`` JSONL stream of fleet-wide
        interval deltas, sampled every *telemetry_interval* seconds.
    """
    if isinstance(queries, str):
        queries = read_fasta(queries)
    if isinstance(database, str):
        database = SequenceDatabase.from_fasta(database)
    if not workers:
        raise ValueError("at least one worker is required")
    if heartbeat_timeout is None:
        heartbeat_timeout = DEFAULT_HEARTBEAT_TIMEOUT
    # 0 (or negative) = reaping disabled = server's ``None``.
    server_heartbeat = heartbeat_timeout if heartbeat_timeout > 0 else None

    if store_dir is not None:
        # Populate the warm-start store up front (content addressing
        # makes this a no-op when a previous run already built it) so
        # the workers below find their shards on first request.
        from ..align.scoring import get_matrix
        from ..store import build_store

        build_store(
            store_dir, database, get_matrix(matrix), queries=list(queries)
        )

    with tempfile.TemporaryDirectory(prefix="repro-cluster-") as tmp:
        query_path = _materialize_indexed(list(queries), tmp, "queries.seqx")
        db_path = _materialize_indexed(list(database), tmp, "database.seqx")
        tasks = build_tasks(list(queries), database)
        server = MasterServer(
            tasks,
            policy=policy,
            adjustment=adjustment,
            heartbeat_timeout=server_heartbeat,
            checkpoint=checkpoint_dir,
            batch=batch,
            store=store_dir,
            http_port=http_port,
        )
        server.start()
        writer = None
        sampler: Periodic | None = None
        if telemetry_path is not None:
            writer = TelemetryWriter(
                telemetry_path,
                server.metrics_snapshot,
                server.clock,
                interval=telemetry_interval,
                environment="cluster",
            )
            sampler = Periodic(
                telemetry_interval, writer.sample, "telemetry"
            ).start()
        host, port = server.address
        started = time.perf_counter()
        procs: list = []
        # Worker-side metrics/events live in the worker's process; only
        # the thread deployment can share them with the launcher.  The
        # worker event log runs on the *server's* clock so it merges
        # cleanly onto the master timeline.
        worker_metrics = None if use_processes else MetricsRegistry()
        worker_events = None if use_processes else EventLog()
        try:
            for pe_id, engine in workers.items():
                config = WorkerConfig(
                    host=host,
                    port=port,
                    pe_id=pe_id,
                    engine=engine,
                    query_path=query_path,
                    database_path=db_path,
                    matrix=matrix,
                    gap_open=gap_open,
                    gap_extend=gap_extend,
                    top=top,
                    chunk_size=chunk_size,
                    batch=batch,
                    cache=cache,
                    store=store_dir,
                )
                if use_processes:
                    proc = multiprocessing.Process(
                        target=_worker_main,
                        args=(config, None, None, None, faults),
                        daemon=True,
                    )
                else:
                    import threading

                    proc = threading.Thread(
                        target=_worker_main,
                        args=(config, worker_metrics, worker_events,
                              server.clock, faults),
                        daemon=True,
                    )
                proc.start()
                procs.append(proc)
            server.wait_finished(timeout=timeout)
            makespan = time.perf_counter() - started
            for proc in procs:
                proc.join(timeout=30)
            results = server.results()
            trace = server.trace()
            snapshots = [server.metrics_snapshot()]
            if worker_metrics is not None:
                snapshots.append(worker_metrics.snapshot())
            metrics = merge_snapshots(*snapshots)
            events = server.events
            if worker_events is not None and len(worker_events):
                events = EventLog.merge(server.events, worker_events)
        finally:
            if sampler is not None:
                # Final record = the fleet snapshot at close (the
                # cluster has no finalize step to wait for).
                sampler.stop()
                writer.close()
            for proc in procs:
                if use_processes and proc.is_alive():
                    proc.terminate()
            server.stop()
    return ClusterReport(
        makespan=makespan,
        total_cells=sum(t.cells for t in tasks),
        results=results,
        trace=trace,
        metrics=metrics,
        events=events,
    )
