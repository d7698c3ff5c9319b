"""Threaded master/slave runtime with real kernels.

This is the execution environment of Fig. 4 running for real: one
worker thread per PE, each driving its engine over actual sequence
data, with the shared :class:`~repro.core.master.Master` arbitrating
behind a lock (the lock plays the role of the Gigabit Ethernet link —
every interaction slaves have with the master goes through it).

The same master also runs under virtual time in :mod:`repro.simulate`;
this runtime exists so that correctness-scale workloads exercise the
full stack end to end: indexed files, engines, policies, adjustment,
cancellation, merging.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..align.api import SearchHit
from ..durability import CheckpointStore, open_master
from ..faults import FaultInjector, FaultPlan, InjectedCrash, MasterCrashed
from ..observability import EventLog, MetricsRegistry, finalize_run_metrics
from ..sequences.database import SequenceDatabase
from ..sequences.records import Sequence
from .engines import Engine
from .master import Assignment, TraceEvent
from .policies import AllocationPolicy, PackageWeightedSelfScheduling
from .results import merge_hits, offset_hits
from .shared import Periodic, SharedMaster
from .slave import serve
from .task import Task, TaskResult

__all__ = [
    "HybridRuntime",
    "LocalLink",
    "RunReport",
    "WorkerThread",
    "build_tasks",
    "start_workers",
]

#: Idle slaves poll the master at this period when told to wait.
_WAIT_POLL_SECONDS = 0.002

#: Heartbeat reap timeout used when faults are injected but no explicit
#: ``heartbeat_timeout`` was given — generous against progress
#: notifications that arrive every few milliseconds.
_DEFAULT_HEARTBEAT_SECONDS = 1.0


def build_tasks(
    queries: list[Sequence],
    database: SequenceDatabase,
    chunks: list[SequenceDatabase] | None = None,
) -> list[Task]:
    """Build the task list for a workload.

    With the default single chunk this is the paper's very
    coarse-grained decomposition (one task per query x whole database);
    passing the output of :meth:`SequenceDatabase.chunks` produces the
    coarse-grained (Fig. 3b) variant, one task per (query, chunk).
    """
    if chunks is None:
        chunks = [database]
    tasks = []
    for q_index, query in enumerate(queries):
        for c_index, chunk in enumerate(chunks):
            tasks.append(
                Task(
                    task_id=q_index * len(chunks) + c_index,
                    query_id=query.id,
                    query_length=len(query),
                    cells=len(query) * chunk.total_residues,
                    query_index=q_index,
                    chunk_index=c_index,
                )
            )
    return tasks


@dataclass
class RunReport:
    """Outcome of one full workload execution."""

    makespan: float
    total_cells: int
    results: dict[str, tuple[SearchHit, ...]]  # query_id -> ranked hits
    trace: list[TraceEvent]
    tasks_by_pe: dict[str, int] = field(default_factory=dict)
    #: Metrics snapshot (``repro.metrics.v1``) of the run's registry.
    metrics: dict = field(default_factory=dict)
    #: The unified structured event log backing :attr:`trace`.
    events: EventLog = field(default_factory=EventLog)

    @property
    def gcups(self) -> float:
        return self.total_cells / self.makespan / 1e9 if self.makespan else 0.0


class LocalLink:
    """One worker thread's link to the in-process master (see ``slave``).

    Calls the :class:`SharedMaster` directly, applies the chunk offsets
    (engines rank hits within their chunk; the master merges
    database-wide indices), resolves service tasks' queries from the
    payloads granted with them, and counts completions.
    """

    idle_seconds = _WAIT_POLL_SECONDS

    def __init__(
        self,
        pe_id: str,
        shared: SharedMaster,
        queries: list[Sequence],
        chunk_offsets: list[int],
        batch: int,
    ):
        self.pe_id = pe_id
        self.cancels: set[int] = set()
        self.tasks_done = 0
        self._shared = shared
        self._queries = queries
        self._offsets = chunk_offsets
        self._batch = batch
        #: Query payloads of the service tasks in the last assignment
        #: (the slave loop runs an assignment out before asking again).
        self._payloads: dict[int, dict] = {}

    def request(self) -> tuple[Assignment, int]:
        assignment, cancels, self._payloads = self._shared.request(
            self.pe_id, self._shared.clock()
        )
        self.cancels.update(cancels)
        return assignment, self._batch

    def query(self, task: Task) -> Sequence:
        if task.query_index >= 0:
            return self._queries[task.query_index]
        payload = self._payloads[task.task_id]
        return Sequence(payload["id"], payload["residues"])

    def progress(self, task: Task, cells: float, interval: float) -> None:
        self.cancels.update(
            self._shared.progress(
                self.pe_id, self._shared.clock(), cells, interval
            )
        )

    def complete(self, task: Task, hits, elapsed: float):
        result = TaskResult(
            task_id=task.task_id,
            pe_id=self.pe_id,
            elapsed=elapsed,
            cells=task.cells,
            payload=offset_hits(hits, self._offsets[task.chunk_index]),
        )
        self.tasks_done += 1
        return lambda: self.cancels.update(
            self._shared.complete(self.pe_id, result, self._shared.clock())
        )

    def cancelled(self, task: Task):
        return lambda: self.cancels.update(
            self._shared.cancelled(
                self.pe_id, task.task_id, self._shared.clock()
            )
        )


class WorkerThread(threading.Thread):
    """One slave PE thread running :func:`~repro.core.slave.serve`."""

    def __init__(
        self,
        link: LocalLink,
        engine: Engine,
        chunks: list[SequenceDatabase],
        clock,
        injector: FaultInjector | None = None,
    ):
        super().__init__(
            name=link.pe_id, daemon=True, target=serve,
            args=(link, engine, chunks),
            kwargs={"clock": clock, "injector": injector},
        )
        self.pe_id = link.pe_id
        self.link = link
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            super().run()
        except BaseException as exc:  # surfaced by the runtime
            self.error = exc


def start_workers(
    shared: SharedMaster,
    engines: dict[str, Engine],
    chunks: list[SequenceDatabase],
    *,
    queries: list[Sequence] | None = None,
    offsets: list[int] | None = None,
    batch: int = 1,
    injector: FaultInjector | None = None,
) -> list[WorkerThread]:
    """Register one worker thread per engine with *shared*; start them.

    *queries* and *offsets* resolve preloaded tasks' queries and chunk
    offsets; *injector* applies a fault plan to every worker.
    """
    clock = shared.clock
    workers = [
        WorkerThread(
            LocalLink(
                pe_id, shared, queries or [], offsets or [0], batch
            ),
            engine,
            chunks,
            clock,
            injector,
        )
        for pe_id, engine in engines.items()
    ]
    for worker in workers:
        shared.register(worker.pe_id, clock())
    for worker in workers:
        worker.start()
    return workers


class HybridRuntime:
    """Run a whole workload on a set of engine-backed worker threads.

    ``engines`` maps PE ids to :class:`Engine` instances, e.g. two
    GPU-analogues and four SSE-analogues for a miniature of the paper's
    platform.
    """

    def __init__(
        self,
        engines: dict[str, Engine],
        policy: AllocationPolicy | None = None,
        adjustment: bool = True,
        omega: int = 8,
        faults: FaultPlan | None = None,
        heartbeat_timeout: float | None = None,
        checkpoint_dir: "str | CheckpointStore | None" = None,
        batch: int = 1,
        telemetry_path: str | None = None,
        telemetry_interval: float = 1.0,
    ):
        if not engines:
            raise ValueError("at least one engine is required")
        if batch < 1:
            raise ValueError("batch must be at least 1")
        if telemetry_interval <= 0:
            raise ValueError("telemetry_interval must be positive")
        self.engines = dict(engines)
        self.policy = policy or PackageWeightedSelfScheduling()
        self.adjustment = adjustment
        self.omega = omega
        #: Optional fault plan injected at the worker/master boundary.
        self.faults = faults
        #: Reap slaves silent for this long.  ``None`` enables a safe
        #: default whenever faults are injected; ``0`` disables reaping.
        self.heartbeat_timeout = heartbeat_timeout
        #: Journal master state under this directory (or into this
        #: unopened :class:`CheckpointStore`, for a non-default sync or
        #: compaction cadence); a directory left behind by a crashed
        #: run is recovered before workers start, so finished tasks are
        #: never recomputed.
        self.checkpoint_dir = checkpoint_dir
        #: Coalesce up to this many compatible tasks per assignment into
        #: one multi-query engine sweep (1 = the paper's behaviour).
        self.batch = batch
        #: Append a ``repro.telemetry.v1`` JSONL stream of interval
        #: deltas sampled by a wall-clock thread every
        #: ``telemetry_interval`` seconds.
        self.telemetry_path = telemetry_path
        self.telemetry_interval = telemetry_interval

    def run(
        self,
        queries: list[Sequence],
        database: SequenceDatabase,
        chunks_per_query: int = 1,
        top: int = 10,
    ) -> RunReport:
        """Execute the workload; returns merged per-query hit lists.

        ``chunks_per_query > 1`` switches to the coarse-grained
        decomposition: the database is split into that many contiguous
        chunks and every (query, chunk) pair becomes a task; the master
        merges the per-chunk hit lists (Fig. 4's *merge results*).
        """
        if chunks_per_query < 1:
            raise ValueError("chunks_per_query must be at least 1")
        if chunks_per_query == 1:
            chunks = [database]
        else:
            chunk_size = -(-len(database) // chunks_per_query)
            chunks = list(database.chunks(chunk_size))
        offsets = []
        position = 0
        for chunk in chunks:
            offsets.append(position)
            position += len(chunk)

        tasks = build_tasks(queries, database, chunks=chunks)
        metrics = MetricsRegistry()
        events = EventLog()
        start = time.perf_counter()

        def clock() -> float:
            return time.perf_counter() - start

        writer = None
        sampler: Periodic | None = None
        if self.telemetry_path is not None:
            from ..observability import TelemetryWriter

            writer = TelemetryWriter(
                self.telemetry_path,
                metrics.snapshot,
                clock,
                interval=self.telemetry_interval,
                environment="threaded",
            )
            sampler = Periodic(
                self.telemetry_interval, writer.sample, "telemetry"
            ).start()

        master, store, _ = open_master(
            tasks,
            self.checkpoint_dir,
            now=clock(),
            policy=self.policy,
            adjustment=self.adjustment,
            omega=self.omega,
            metrics=metrics,
            events=events,
            batch=self.batch,
        )
        for engine in self.engines.values():
            engine.bind_caches(metrics)
        injector = (
            FaultInjector(self.faults, events=events, clock=clock)
            if self.faults is not None
            else None
        )
        crash_at = (
            self.faults.master_crash.at_time
            if self.faults is not None and self.faults.master_crash
            else None
        )
        heartbeat = self.heartbeat_timeout
        if heartbeat is None and self.faults is not None:
            heartbeat = _DEFAULT_HEARTBEAT_SECONDS
        shared = SharedMaster(
            master, clock, heartbeat=heartbeat,
            crash_at=crash_at, injector=injector,
        )
        workers: list[WorkerThread] = []
        try:
            shared.start()
            workers = start_workers(
                shared,
                self.engines,
                chunks,
                queries=queries,
                offsets=offsets,
                batch=self.batch,
                injector=injector,
            )
            for worker in workers:
                worker.join()
        finally:
            shared.stop()
            if store is not None:
                store.close()
            if sampler is not None:
                # The stream is finalized only after end-of-run gauges
                # are stamped (so ``final`` matches the report
                # snapshot), or on the failure paths below.
                sampler.stop()
        for worker in workers:
            if worker.error is not None and not isinstance(
                worker.error, (InjectedCrash, MasterCrashed)
            ):
                if writer is not None:
                    writer.close()
                raise worker.error
        if shared.crashed:
            # The journal holds everything completed before the crash;
            # running again with the same checkpoint_dir resumes there.
            if writer is not None:
                writer.close()
            raise MasterCrashed(crash_at)
        makespan = clock()

        by_query: dict[str, list[tuple[SearchHit, ...]]] = {}
        for task_result in master.merged_results():
            task = master.pool.task(task_result.task_id)
            by_query.setdefault(task.query_id, []).append(
                task_result.payload  # type: ignore[arg-type]
            )
        results = {
            query_id: merge_hits(hit_lists, top=top)
            for query_id, hit_lists in by_query.items()
        }
        total_cells = sum(t.cells for t in tasks)
        finalize_run_metrics(metrics, makespan, total_cells)
        if writer is not None:
            writer.close()
        return RunReport(
            makespan=makespan,
            total_cells=total_cells,
            results=results,
            trace=list(master.trace),
            tasks_by_pe={w.pe_id: w.link.tasks_done for w in workers},
            metrics=metrics.snapshot(),
            events=events,
        )
