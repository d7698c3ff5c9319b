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
from ..durability import open_master
from ..faults import FaultInjector, FaultPlan, InjectedCrash, MasterCrashed
from ..observability import EventLog, MetricsRegistry, finalize_run_metrics
from ..sequences.database import SequenceDatabase
from ..sequences.records import Sequence
from .engines import Engine
from .master import Assignment, Master, TraceEvent
from .policies import AllocationPolicy, PackageWeightedSelfScheduling
from .results import merge_hits, offset_hits
from .slave import serve
from .task import Task, TaskResult

__all__ = ["RunReport", "HybridRuntime", "build_tasks"]

#: Idle slaves poll the master at this period when told to wait.
_WAIT_POLL_SECONDS = 0.002

#: Heartbeat reap timeout used when faults are injected but no explicit
#: ``heartbeat_timeout`` was given — generous against progress
#: notifications that arrive every few milliseconds.
_DEFAULT_HEARTBEAT_SECONDS = 1.0

#: Pause before a dropped-but-required message is retransmitted.
_RETRANSMIT_SECONDS = 0.005


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


class _SharedMaster:
    """Lock-guarded facade over :class:`Master`: the master side of Fig. 4.

    All real-environment slave traffic goes through one of these (the
    lock plays the role of the network): the threaded runtime and
    service call it in process, the TCP server calls it per decoded
    frame.  Besides serialising access it owns two protocol rules:

    * a PE the master reaped while it was still alive simply rejoins on
      its next contact, under the next attempt id (its released tasks
      are already back in the ready queue);
    * per-PE pending cancellations — losers of a replica race and
      service cancels/expiries (:meth:`add_cancels`) — are handed to
      the PE on its next call, exactly as the wire ``ack``/``assign``
      replies carry them.

    The lock is re-entrant so callers can bracket several facade calls
    (plus their own bookkeeping) in one critical section.

    ``crash_at`` arms the plan's master-crash fault: once the clock
    passes it, every interaction with the master raises
    :class:`MasterCrashed` — from the slaves' point of view the master
    simply stops answering, exactly like a killed process.  Only the
    journal (written before the crash fired) survives.
    """

    def __init__(
        self,
        master: Master,
        crash_at: float | None = None,
        injector: FaultInjector | None = None,
    ):
        self.master = master
        self.lock = threading.RLock()
        self._attempts: dict[str, int] = {}
        self._cancels: dict[str, set[int]] = {}
        self._crash_at = crash_at
        self._injector = injector
        self.crashed = False

    def _check_crash(self, now: float) -> None:
        """Caller holds the lock."""
        if self._crash_at is None:
            return
        if not self.crashed and now >= self._crash_at:
            self.crashed = True
            if self._injector is not None:
                self._injector.record("master_crash", time=now)
        if self.crashed:
            raise MasterCrashed(self._crash_at)

    def _contact(self, pe_id: str, now: float) -> None:
        """Crash check + re-register-on-contact.  Caller holds the lock."""
        self._check_crash(now)
        if not self.master.is_registered(pe_id):
            attempt = self._attempts.get(pe_id, 0) + 1
            self._attempts[pe_id] = attempt
            self.master.register(pe_id, now, attempt=attempt)

    def _handover(self, pe_id: str) -> list[int]:
        """Pop the PE's pending cancellations.  Caller holds the lock."""
        pending = self._cancels.pop(pe_id, None)
        return sorted(pending) if pending else []

    def crash(self) -> None:
        """Fire the master-crash fault now (hard-kill simulation)."""
        with self.lock:
            self._crash_at = -1.0
            self.crashed = True

    def register(self, pe_id: str, now: float, attempt: int = 0) -> None:
        """(Re-)register a PE; a live registration is a stale incarnation.

        The stale one is retired first, so its queued tasks go back to
        READY before the new incarnation starts pulling.
        """
        with self.lock:
            if self.master.is_registered(pe_id):
                self.master.deregister(pe_id, now, reason="reconnect")
            self._attempts[pe_id] = attempt
            self._cancels.pop(pe_id, None)
            self.master.register(pe_id, now, attempt=attempt)

    def add_cancels(self, cancels) -> None:
        """Queue ``(pe_id, task_id)`` cancellations for delivery."""
        with self.lock:
            for pe_id, task_id in cancels:
                self._cancels.setdefault(pe_id, set()).add(task_id)

    def request(self, pe_id: str, now: float) -> tuple[Assignment, list[int]]:
        with self.lock:
            self._contact(pe_id, now)
            return self.master.on_request(pe_id, now), self._handover(pe_id)

    def progress(
        self, pe_id: str, now: float, cells: float, interval: float
    ) -> list[int]:
        with self.lock:
            self._contact(pe_id, now)
            self.master.on_progress(pe_id, now, cells, interval)
            return self._handover(pe_id)

    def complete(
        self, pe_id: str, result: TaskResult, now: float
    ) -> list[int]:
        with self.lock:
            self._contact(pe_id, now)
            losers = self.master.on_complete(pe_id, result, now)
            self.add_cancels((loser, result.task_id) for loser in losers)
            return self._handover(pe_id)

    def cancelled(self, pe_id: str, task_id: int, now: float) -> list[int]:
        with self.lock:
            self._contact(pe_id, now)
            self.master.on_cancelled(pe_id, task_id, now)
            return self._handover(pe_id)

    def reap(self, now: float, timeout: float) -> None:
        with self.lock:
            self._check_crash(now)
            if not self.master.finished:
                self.master.reap_silent(now, timeout)

    @property
    def finished(self) -> bool:
        with self.lock:
            return self.master.finished


class _FaultyChannel:
    """Transport-fault decorator over :class:`_SharedMaster`.

    Models the worker-master link as at-least-once: messages the
    protocol cannot afford to lose (``complete``/``cancelled``) are
    retransmitted after a short pause instead of vanishing, while
    ``request`` polls and ``progress`` samples are genuinely lossy (the
    worker polls again / the next sample subsumes the lost one).
    Partitioned PEs stall: their deliveries block until the window
    heals, which is exactly what lets the heartbeat reaper fire.
    """

    def __init__(self, shared: _SharedMaster, injector: FaultInjector, clock):
        self._shared = shared
        self._injector = injector
        self._clock = clock

    def request(self, pe_id: str, now: float):
        if self._injector.partition_remaining(pe_id, now) > 0:
            time.sleep(_WAIT_POLL_SECONDS)
            return Assignment(), []
        action = self._injector.message_action(
            pe_id, "request", now, allow=("drop", "delay")
        )
        if action == "drop":
            return Assignment(), []  # lost poll: the worker asks again
        if action == "delay":
            time.sleep(self._injector.delay_seconds)
        return self._shared.request(pe_id, self._clock())

    def progress(self, pe_id: str, now: float, cells: float, interval: float):
        if self._injector.partition_remaining(pe_id, now) > 0:
            return []  # sample lost in the partition
        action = self._injector.message_action(
            pe_id, "progress", now, allow=("drop", "duplicate", "delay")
        )
        if action == "drop":
            return []
        if action == "delay":
            time.sleep(self._injector.delay_seconds)
            now = self._clock()
        cancels = self._shared.progress(pe_id, now, cells, interval)
        if action == "duplicate":
            cancels += self._shared.progress(pe_id, now, cells, interval)
        return cancels

    def _must_deliver(self, pe_id: str, kind: str, now: float, send):
        """Deliver ``send(now)`` at least once, through partitions/drops."""
        wait = self._injector.partition_remaining(pe_id, now)
        if wait > 0:
            time.sleep(wait)
            now = self._clock()
        action = self._injector.message_action(
            pe_id, kind, now, allow=("drop", "duplicate", "delay")
        )
        if action == "drop":
            time.sleep(_RETRANSMIT_SECONDS)  # retransmission pause
            now = self._clock()
        elif action == "delay":
            time.sleep(self._injector.delay_seconds)
            now = self._clock()
        cancels = send(now)
        if action == "duplicate":
            # The duplicate is stale by definition; the master dedupes.
            cancels += send(self._clock())
        return cancels

    def complete(self, pe_id: str, result: TaskResult, now: float):
        return self._must_deliver(
            pe_id, "complete", now,
            lambda t: self._shared.complete(pe_id, result, t),
        )

    def cancelled(self, pe_id: str, task_id: int, now: float):
        return self._must_deliver(
            pe_id, "cancelled", now,
            lambda t: self._shared.cancelled(pe_id, task_id, t),
        )


class _LocalLink:
    """One worker thread's link to the in-process master (see ``slave``).

    Applies the chunk offsets (engines rank hits within their chunk;
    the master merges database-wide indices) and counts completions.
    """

    idle_seconds = _WAIT_POLL_SECONDS

    def __init__(
        self,
        pe_id: str,
        channel: "_SharedMaster | _FaultyChannel",
        queries: list[Sequence],
        chunk_offsets: list[int],
        batch: int,
        clock,
    ):
        self.pe_id = pe_id
        self.cancels: set[int] = set()
        self.tasks_done = 0
        self._channel = channel
        self._queries = queries
        self._offsets = chunk_offsets
        self._batch = batch
        self._clock = clock

    def request(self) -> tuple[Assignment, int]:
        assignment, cancels = self._channel.request(self.pe_id, self._clock())
        self.cancels.update(cancels)
        return assignment, self._batch

    def query(self, task: Task) -> Sequence:
        return self._queries[task.query_index]

    def progress(self, task: Task, cells: float, interval: float) -> None:
        self.cancels.update(
            self._channel.progress(self.pe_id, self._clock(), cells, interval)
        )

    def complete(self, task: Task, hits, elapsed: float) -> None:
        result = TaskResult(
            task_id=task.task_id,
            pe_id=self.pe_id,
            elapsed=elapsed,
            cells=task.cells,
            payload=offset_hits(hits, self._offsets[task.chunk_index]),
        )
        self.cancels.update(
            self._channel.complete(self.pe_id, result, self._clock())
        )
        self.tasks_done += 1

    def cancelled(self, task: Task) -> None:
        self.cancels.update(
            self._channel.cancelled(self.pe_id, task.task_id, self._clock())
        )


class _Worker(threading.Thread):
    """One slave PE thread running :func:`~repro.core.slave.serve`."""

    def __init__(
        self,
        link: _LocalLink,
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
        checkpoint_dir: str | None = None,
        checkpoint_sync_every: int = 1,
        checkpoint_compact_every: int = 0,
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
        #: Journal master state under this directory; a directory left
        #: behind by a crashed run is recovered before workers start,
        #: so finished tasks are never recomputed.
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_sync_every = checkpoint_sync_every
        self.checkpoint_compact_every = checkpoint_compact_every
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

        sampler: "TelemetrySampler | None" = None
        if self.telemetry_path is not None:
            from ..observability import TelemetrySampler, TelemetryWriter

            sampler = TelemetrySampler(
                TelemetryWriter(
                    self.telemetry_path,
                    metrics.snapshot,
                    clock,
                    interval=self.telemetry_interval,
                    environment="threaded",
                )
            ).start()

        master, store, _ = open_master(
            tasks,
            self.checkpoint_dir,
            sync_every=self.checkpoint_sync_every,
            compact_every=self.checkpoint_compact_every,
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
        shared = _SharedMaster(master, crash_at=crash_at, injector=injector)
        channel = (
            _FaultyChannel(shared, injector, clock)
            if injector is not None
            else shared
        )
        heartbeat = self.heartbeat_timeout
        if heartbeat is None and self.faults is not None:
            heartbeat = _DEFAULT_HEARTBEAT_SECONDS

        workers = [
            _Worker(
                _LocalLink(
                    pe_id, channel, queries, offsets, self.batch, clock
                ),
                engine,
                chunks,
                clock,
                injector,
            )
            for pe_id, engine in self.engines.items()
        ]
        for worker in workers:
            shared.register(worker.pe_id, clock())

        reaper_stop = threading.Event()
        reaper: threading.Thread | None = None
        if heartbeat:
            def _reap_loop() -> None:
                while not reaper_stop.wait(heartbeat / 4):
                    if shared.finished:
                        return
                    try:
                        shared.reap(clock(), heartbeat)
                    except MasterCrashed:
                        return

            reaper = threading.Thread(
                target=_reap_loop, name="reaper", daemon=True
            )
            reaper.start()

        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            reaper_stop.set()
            if reaper is not None:
                reaper.join()
            if store is not None:
                store.close()
            if sampler is not None:
                # Stop the sampling thread here; the stream is
                # finalized only after end-of-run gauges are stamped
                # (so ``final`` matches the report snapshot), or on the
                # failure paths below.
                sampler.stop()
        for worker in workers:
            if worker.error is not None and not isinstance(
                worker.error, (InjectedCrash, MasterCrashed)
            ):
                if sampler is not None:
                    sampler.close()
                raise worker.error
        if shared.crashed:
            # The journal holds everything completed before the crash;
            # running again with the same checkpoint_dir resumes there.
            if sampler is not None:
                sampler.close()
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
        if sampler is not None:
            sampler.close()
        return RunReport(
            makespan=makespan,
            total_cells=total_cells,
            results=results,
            trace=list(master.trace),
            tasks_by_pe={w.pe_id: w.link.tasks_done for w in workers},
            metrics=metrics.snapshot(),
            events=events,
        )
