"""Discrete-event simulator of the hybrid platform.

Runs the *actual* :class:`~repro.core.master.Master` — same policies,
same workload-adjustment mechanism, same traces — against virtual PEs
whose speeds come from the calibrated models in
:mod:`repro.simulate.pe_models`.  This is the substitution that lets the
benchmarks regenerate every table and figure of the paper at full
published scale (tens of teracells) on a laptop: scheduling decisions
are real, only the DP arithmetic is replaced by its exact cell count.

Semantics mirrored from the paper's environment:

* slaves register, then ask for work; the first allocation is whatever
  the policy grants with no history (one task);
* slaves notify progress every ``notify_interval`` seconds (the PSS
  input stream);
* a slave executes its assigned batch sequentially and asks for more
  when the batch drains;
* when no ready task exists the master hands out replicas of executing
  tasks (if adjustment is on); the first finisher wins and the master
  cancels the losers, which abort at once and ask for more work;
* communication costs ``comm_latency`` per hop (Gigabit Ethernet scale);
* non-dedicated load (the superpi experiment) is a per-PE piecewise-
  constant capacity multiplier that re-times in-flight work.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.master import Master, TraceEvent
from ..core.policies import AllocationPolicy, PackageWeightedSelfScheduling
from ..core.task import Task, TaskResult
from ..durability import CheckpointStore, open_master
from ..faults import MESSAGE_RULES, FaultInjector, FaultPlan
from ..observability import (
    EventLog,
    MetricsRegistry,
    TelemetryWriter,
    finalize_run_metrics,
)
from .events import EventHandle, EventQueue
from .network import NetworkModel
from .pe_models import PEModel

if TYPE_CHECKING:
    from ..service.core import ServiceCore

__all__ = [
    "PESpec",
    "TaskInterval",
    "SimReport",
    "HybridSimulator",
    "ServiceArrival",
    "ServiceSimReport",
    "ServiceSimulator",
    "service_arrivals",
]


@dataclass(frozen=True)
class PESpec:
    """One simulated processing element.

    ``load_profile`` is a sequence of ``(time, capacity)`` steps; the PE
    runs at ``capacity`` (1.0 = dedicated) from each step time until the
    next.  An empty profile means fully dedicated.

    ``join_time``/``leave_time`` model platform churn (the paper's
    future-work scenario): the PE registers with the master at
    ``join_time`` and deregisters at ``leave_time`` — any tasks it still
    holds are released back to the ready queue, so no work is lost.

    ``host`` locates the PE for the optional host-aware network model
    (the paper's two hosts on Gigabit Ethernet).
    """

    pe_id: str
    model: PEModel
    load_profile: tuple[tuple[float, float], ...] = ()
    join_time: float = 0.0
    leave_time: float | None = None
    host: str = "host0"

    def __post_init__(self) -> None:
        if self.join_time < 0:
            raise ValueError("join_time must be non-negative")
        if self.leave_time is not None and self.leave_time <= self.join_time:
            raise ValueError("leave_time must come after join_time")


@dataclass(frozen=True)
class TaskInterval:
    """One PE-task execution interval (drives the Gantt renderings)."""

    pe_id: str
    task_id: int
    start: float
    end: float
    outcome: str  # "won" | "lost" | "cancelled"


@dataclass
class SimReport:
    """Everything a benchmark needs from one simulated run."""

    makespan: float
    total_cells: int
    tasks_won: dict[str, int]
    replicas_assigned: int
    intervals: list[TaskInterval]
    trace: list[TraceEvent]
    policy_name: str
    adjustment: bool
    results: dict[int, TaskResult] = field(default_factory=dict)
    #: Metrics snapshot (``repro.metrics.v1``); same metric names as the
    #: threaded runtime, timestamped in virtual seconds.
    metrics: dict = field(default_factory=dict)
    #: The unified structured event log backing :attr:`trace`.
    events: EventLog = field(default_factory=EventLog)

    @property
    def gcups(self) -> float:
        """Aggregate useful throughput: total cells / makespan / 1e9."""
        return self.total_cells / self.makespan / 1e9 if self.makespan else 0.0

    def progress_series(self, pe_id: str) -> list[tuple[float, float]]:
        """(time, cells/s) samples of one PE — the Fig. 7/8 time series."""
        return [
            (event.time, event.value)
            for event in self.trace
            if event.kind == "progress" and event.pe_id == pe_id
        ]

    def to_json(self) -> str:
        """Serialize the report for external analysis/plotting tools.

        Includes the summary, per-PE wins, every task interval and the
        full master trace; progress samples carry their raw cells/s
        rates.
        """
        import json

        return json.dumps(
            {
                "makespan": self.makespan,
                "total_cells": self.total_cells,
                "gcups": self.gcups,
                "policy": self.policy_name,
                "adjustment": self.adjustment,
                "replicas_assigned": self.replicas_assigned,
                "tasks_won": self.tasks_won,
                "intervals": [
                    {
                        "pe": iv.pe_id,
                        "task": iv.task_id,
                        "start": iv.start,
                        "end": iv.end,
                        "outcome": iv.outcome,
                    }
                    for iv in self.intervals
                ],
                "trace": [
                    {
                        "kind": e.kind,
                        "time": e.time,
                        "pe": e.pe_id,
                        "task": e.task_id,
                        "value": e.value,
                    }
                    for e in self.trace
                ],
            },
            indent=2,
        )


class _SimPE:
    """Runtime state of one virtual PE."""

    __slots__ = (
        "spec", "capacity", "queue", "current", "total_work", "done_work",
        "rate", "task_start", "last_update", "processed", "last_reported",
        "completion", "finished", "intervals", "fault_factor",
        "tasks_completed",
    )

    def __init__(self, spec: PESpec):
        self.spec = spec
        self.capacity = 1.0
        self.fault_factor = 1.0  # straggler slow-down multiplier
        self.tasks_completed = 0  # local completions (drives crash-after-N)
        self.queue: deque[Task] = deque()
        self.current: Task | None = None
        self.total_work = 0.0
        self.done_work = 0.0
        self.rate = 0.0  # work units per second at current capacity
        self.task_start = 0.0
        self.last_update = 0.0
        self.processed = 0.0  # cumulative work units, feeds notifications
        self.last_reported = 0.0
        self.completion: EventHandle | None = None
        self.finished = False
        self.intervals: list[TaskInterval] = []

    @property
    def pe_id(self) -> str:
        """The PE identifier from the spec."""
        return self.spec.pe_id


class HybridSimulator:
    """Simulate one workload on a set of PE specs.

    Parameters default to the paper's environment: PSS policy,
    adjustment on, half-second progress notifications, and a 1 ms
    master round-trip hop.
    """

    def __init__(
        self,
        pes: list[PESpec],
        policy: AllocationPolicy | None = None,
        adjustment: bool = True,
        omega: int = 8,
        comm_latency: float = 0.001,
        notify_interval: float = 0.5,
        retry_interval: float = 0.25,
        network: "NetworkModel | None" = None,
        master_service_time: float = 0.0,
        checkpoint_replicas: bool = False,
        faults: FaultPlan | None = None,
        heartbeat_timeout: float | None = None,
        checkpoint_dir: str | None = None,
        batch: int = 1,
        telemetry_path: str | None = None,
        telemetry_interval: float = 1.0,
    ):
        if not pes:
            raise ValueError("at least one PE is required")
        if batch < 1:
            raise ValueError("batch must be at least 1")
        ids = [spec.pe_id for spec in pes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate PE ids")
        self.specs = list(pes)
        self.policy = policy or PackageWeightedSelfScheduling()
        self.adjustment = adjustment
        self.omega = omega
        self.comm_latency = comm_latency
        self.notify_interval = notify_interval
        self.retry_interval = retry_interval
        #: Optional host-aware message-cost model; when set it replaces
        #: the flat ``comm_latency`` for requests, deliveries and result
        #: uploads.
        self.network = network
        #: CPU time the master spends handling one task request.  The
        #: master is a single serial resource: overlapping requests
        #: queue behind each other, which is what eventually bottlenecks
        #: per-task policies (SS) on large platforms.
        if master_service_time < 0:
            raise ValueError("master_service_time must be non-negative")
        self.master_service_time = master_service_time
        #: Ablation knob (beyond the paper): when True, a replica starts
        #: from the most-advanced executor's checkpoint instead of from
        #: scratch — the idealized "task migration" upper bound on what
        #: the replication mechanism could gain if tasks were
        #: checkpointable.
        self.checkpoint_replicas = checkpoint_replicas
        #: Optional seed-deterministic fault plan; crashes, stragglers,
        #: message faults and partitions become scheduled events.
        self.faults = faults
        #: Reap slaves silent for this long (virtual seconds).  ``None``
        #: enables ``10 x notify_interval`` whenever faults are
        #: injected; ``0`` disables reaping (a crash with no reaper can
        #: strand tasks and the run will fail loudly).
        self.heartbeat_timeout = heartbeat_timeout
        #: Journal master state under this directory (virtual-time runs
        #: journal too: the records are what makes the ``master_crash``
        #: fault recoverable, and an aborted run's directory resumes).
        self.checkpoint_dir = checkpoint_dir
        #: Minimum tasks per non-empty grant (see ``Master(batch=...)``).
        #: A simulated slave still executes its batch sequentially, so
        #: batching here models the amortized request round-trips, not a
        #: kernel-level speedup.
        self.batch = batch
        #: Append a ``repro.telemetry.v1`` JSONL stream sampled on the
        #: *virtual* clock every ``telemetry_interval`` simulated
        #: seconds — an hour-long simulated trajectory costs
        #: milliseconds of wall time.
        self.telemetry_path = telemetry_path
        if telemetry_interval <= 0:
            raise ValueError("telemetry_interval must be positive")
        self.telemetry_interval = telemetry_interval

    # ------------------------------------------------------------------
    def run(self, tasks: list[Task]) -> SimReport:
        """Simulate the workload to completion; returns the report.

        Registers every (non-late-joining) PE, pumps the event queue
        until it drains, then derives the makespan, per-PE wins, task
        intervals and trace from the master's records.
        """
        state = _RunState(self, list(tasks))
        self._simulate(state)

        # A master crash replaces state.master mid-run; everything below
        # must look at the surviving master and the stitched trace.
        master = state.master
        full_trace = state.trace_prefix + list(master.trace)
        if not master.finished:
            raise RuntimeError("simulation drained without finishing tasks")
        makespan = max(
            (e.time for e in full_trace if e.kind == "complete" and e.value),
            default=0.0,
        )
        intervals: list[TaskInterval] = []
        for pe in state.pes.values():
            intervals.extend(pe.intervals)
        tasks_won = {spec.pe_id: 0 for spec in self.specs}
        for task_id in master.results:
            winner = master.pool.finished_by(task_id)
            assert winner is not None
            tasks_won[winner] += 1
        replicas = sum(1 for e in full_trace if e.kind == "replica")
        total_cells = sum(t.cells for t in tasks)
        metrics = state.finalize(makespan, total_cells)
        return SimReport(
            makespan=makespan,
            total_cells=total_cells,
            tasks_won=tasks_won,
            replicas_assigned=replicas,
            intervals=sorted(intervals, key=lambda iv: (iv.start, iv.pe_id)),
            trace=full_trace,
            policy_name=getattr(self.policy, "name", "custom"),
            adjustment=self.adjustment,
            results=dict(master.results),
            metrics=metrics,
            events=state.events,
        )

    def _simulate(
        self,
        state: "_RunState",
        workload: Iterable[tuple[float, Callable[[], None]]] = (),
    ) -> None:
        """Bring up, pump and tear down one virtual-time run.

        The one run path behind :meth:`run` and
        :meth:`ServiceSimulator.run_service`: opens the master, schedules
        the fault plan, the heartbeat reaper, the telemetry tick and
        every PE's registration or join/leave/load steps, then the
        caller's *workload* ``(time, action)`` events (the service's
        arrivals, drain and sweep), and pumps the queue until it
        drains.  The queue breaks time ties in insertion order, so this
        scheduling order is part of the simulated behaviour.
        """
        faults = self.faults
        if (
            faults is not None
            and faults.master_crash is not None
            and self.checkpoint_dir is None
        ):
            raise ValueError(
                "a master_crash fault requires checkpoint_dir: without a "
                "journal there is nothing for the replacement master to "
                "recover from"
            )
        queue = state.queue
        pes = state.pes
        state.open()

        if state.injector is not None:
            if faults.master_crash is not None:
                queue.schedule(
                    faults.master_crash.at_time, state.on_master_crash
                )
            for crash in faults.crashes:
                pe = pes.get(crash.pe_id)
                if pe is not None and crash.at_time is not None:
                    queue.schedule(
                        crash.at_time, lambda p=pe: state.on_crash(p)
                    )
            for straggler in faults.stragglers:
                pe = pes.get(straggler.pe_id)
                if pe is None:
                    continue
                queue.schedule(
                    straggler.start, lambda p=pe: state.on_straggle(p)
                )
                if straggler.end is not None:
                    queue.schedule(
                        straggler.end, lambda p=pe: state.on_straggle(p)
                    )
        if state.heartbeat:
            queue.schedule(state.heartbeat / 4, state.on_reap)

        if self.telemetry_path is not None:
            # Clock-agnostic sampling: the writer is driven by virtual-
            # time events (:meth:`_RunState.on_telemetry`), not a thread.
            state.writer = TelemetryWriter(
                self.telemetry_path,
                state.metrics.snapshot,
                lambda: queue.now,
                interval=self.telemetry_interval,
                environment="des",
            )
            queue.schedule(self.telemetry_interval, state.on_telemetry)

        for spec in self.specs:
            pe = pes[spec.pe_id]
            if spec.join_time <= 0:
                state.enroll(pe)
            else:
                queue.schedule(
                    spec.join_time, lambda p=pe: state.on_join(p)
                )
            if spec.leave_time is not None:
                queue.schedule(
                    spec.leave_time, lambda p=pe: state.on_leave(p)
                )
            for at, capacity in spec.load_profile:
                queue.schedule(
                    at, lambda p=pe, c=capacity: state.on_load(p, c)
                )
        for at, action in workload:
            queue.schedule(at, action)
        try:
            queue.run()
        finally:
            if state.store is not None:
                state.store.close()


class _RunState:
    """Event handlers binding the master to the virtual PEs.

    Owns what one run shares across master incarnations: the virtual
    clock and event queue, the metrics registry and event log (a
    master crash keeps them — they model persistent telemetry sinks),
    the virtual PEs and the fault injector.
    """

    def __init__(self, config: HybridSimulator, tasks: list[Task]):
        self.config = config
        self.tasks = tasks
        self.queue = EventQueue()
        self.metrics = MetricsRegistry()
        self.events = EventLog()
        self.pes = {spec.pe_id: _SimPE(spec) for spec in config.specs}
        self.injector: FaultInjector | None = None
        heartbeat = config.heartbeat_timeout
        if config.faults is not None:
            self.injector = FaultInjector(
                config.faults, events=self.events, clock=lambda: self.queue.now
            )
            if heartbeat is None:
                heartbeat = 10 * config.notify_interval
        self.heartbeat = heartbeat or 0.0
        self.master: Master
        self.store: CheckpointStore | None = None
        self.writer: TelemetryWriter | None = None
        #: Trace of masters that crashed, stitched before the survivor's.
        self.trace_prefix: list[TraceEvent] = []
        #: The master is unreachable until this virtual time (a
        #: ``master_crash`` fault fired and recovery is in progress).
        self.master_down_until = 0.0
        self._master_free_at = 0.0  # serial master-CPU availability
        self._pending_restarts = 0  # keeps the reaper alive across gaps

    def open(self, now: float = 0.0):
        """Open the master: at t=0, and again after a master crash.

        With a checkpoint directory the journal is opened (or resumed)
        and every journaled winning result restored at *now*, so a
        replacement master never re-executes a finished task.  Returns
        the recovered journal state (``None`` without a directory).
        """
        config = self.config
        self.master, self.store, recovered = open_master(
            self.tasks,
            config.checkpoint_dir,
            now=now,
            policy=config.policy,
            adjustment=config.adjustment,
            omega=config.omega,
            metrics=self.metrics,
            events=self.events,
            batch=config.batch,
        )
        return recovered

    def finalize(self, makespan: float, total_cells: int) -> dict:
        """Finalize the run metrics and the telemetry stream.

        Returns the ``repro.metrics.v1`` snapshot; the stream closes
        after finalize, so its ``final`` record matches that snapshot
        byte for byte.
        """
        finalize_run_metrics(self.metrics, makespan, total_cells)
        if self.writer is not None:
            self.writer.close()
        return self.metrics.snapshot()

    def _master_down(self) -> bool:
        return self.queue.now < self.master_down_until

    # -- communication costs ----------------------------------------------
    def _uplink(self, pe: _SimPE) -> float:
        """Slave -> master message cost (request)."""
        network = self.config.network
        if network is None:
            return self.config.comm_latency
        return network.request_seconds(pe.spec.host)

    def _downlink(self, pe: _SimPE, num_tasks: int) -> float:
        """Master -> slave assignment delivery cost."""
        network = self.config.network
        if network is None:
            return self.config.comm_latency
        return network.assignment_seconds(pe.spec.host, num_tasks)

    def _upload(self, pe: _SimPE) -> float:
        """Slave -> master result upload cost (0 under the flat model,
        which charges only the request/delivery hops, preserving the
        paper's 'negligible communication' scenarios)."""
        network = self.config.network
        if network is None:
            return 0.0
        return network.result_seconds(pe.spec.host)

    # -- bookkeeping ----------------------------------------------------
    def _advance(self, pe: _SimPE) -> None:
        """Accrue work done by the in-flight task up to the current time."""
        now = self.queue.now
        if pe.current is not None and pe.rate > 0:
            delta = (now - pe.last_update) * pe.rate
            usable = min(delta, pe.total_work - pe.done_work)
            pe.done_work += usable
            pe.processed += usable
        pe.last_update = now

    def _retime(self, pe: _SimPE) -> None:
        """Re-derive the in-flight task's rate, reschedule its completion.

        The rate is the model's task rate scaled by the external load
        (``capacity``) and any straggler window (``fault_factor``).
        """
        assert pe.current is not None
        pe.rate = (
            pe.spec.model.task_rate(pe.current)
            * pe.capacity
            * pe.fault_factor
        )
        if pe.completion is not None:
            pe.completion.cancel()
            pe.completion = None
        if pe.rate <= 0:
            return  # stalled until capacity returns
        remaining = max(0.0, pe.total_work - pe.done_work)
        task = pe.current
        pe.completion = self.queue.schedule(
            self.queue.now + remaining / pe.rate + self._upload(pe),
            lambda p=pe, t=task: self.on_complete(p, t),
        )

    def _start_next(self, pe: _SimPE) -> None:
        if pe.current is not None or not pe.queue:
            return
        task = pe.queue.popleft()
        model = pe.spec.model
        pe.current = task
        pe.total_work = model.work_units(task)
        pe.done_work = 0.0
        if self.config.checkpoint_replicas:
            pe.done_work = pe.total_work * self._checkpoint_fraction(
                task, exclude=pe
            )
        pe.task_start = self.queue.now
        pe.last_update = self.queue.now
        self._retime(pe)

    def _checkpoint_fraction(self, task, exclude: _SimPE) -> float:
        """Progress fraction of the task's most-advanced other executor.

        Only meaningful under ``checkpoint_replicas``: an idealized
        migration hands the replica the winner-so-far's checkpoint.
        """
        best = 0.0
        for other in self.pes.values():
            if other is exclude or other.current is None:
                continue
            if other.current.task_id != task.task_id:
                continue
            self._advance(other)
            if other.total_work > 0:
                best = max(best, other.done_work / other.total_work)
        return min(best, 1.0)

    def _become_idle(self, pe: _SimPE) -> None:
        if pe.queue:
            self._start_next(pe)
        else:
            self.queue.schedule(
                self.queue.now + self._uplink(pe),
                lambda p=pe: self.on_request(p),
            )

    # -- event handlers ---------------------------------------------------
    def on_request(self, pe: _SimPE) -> None:
        """An idle slave asks the master for work.

        With faults injected the request first crosses the transport
        gate: partitioned PEs retry once the window heals, dropped or
        corrupted requests retry after ``retry_interval`` (the slave
        gets no reply and asks again), delayed requests arrive late.
        """
        if pe.finished:
            return
        if self.injector is not None:
            now = self.queue.now
            wait = self.injector.partition_remaining(pe.pe_id, now)
            if wait > 0:
                self.queue.schedule(
                    now + wait + self._uplink(pe),
                    lambda p=pe: self.on_request(p),
                )
                return
            action = self.injector.message_action(
                pe.pe_id, "request", now,
                allow=MESSAGE_RULES["request"].allow,
            )
            if action in ("drop", "corrupt"):
                self.queue.schedule(
                    now + self.config.retry_interval,
                    lambda p=pe: self.on_request(p),
                )
                return
            if action == "delay":
                self.queue.schedule(
                    now + self.injector.delay_seconds,
                    lambda p=pe: self._do_request(p),
                )
                return
        self._do_request(pe)

    def _do_request(self, pe: _SimPE) -> None:
        """The request actually reaches the master."""
        if pe.finished:
            return
        if self._master_down():
            # No reply from a dead master: the slave retries once the
            # replacement is back up.
            self.queue.schedule(
                self.master_down_until + self._uplink(pe),
                lambda p=pe: self.on_request(p),
            )
            return
        if (
            self.injector is not None
            and not self.master.is_registered(pe.pe_id)
        ):
            # The reaper deregistered this PE while it was partitioned
            # or its messages were lost; it simply rejoins.
            self.master.register(pe.pe_id, self.queue.now)
        assignment = self.master.on_request(pe.pe_id, self.queue.now)
        if assignment.done:
            pe.finished = True
            return
        if assignment.empty:
            self.queue.schedule(
                self.queue.now + self.config.retry_interval,
                lambda p=pe: self.on_request(p),
            )
            return
        pe.queue.extend(assignment.tasks)
        pe.queue.extend(assignment.replicas)
        granted = len(assignment.tasks) + len(assignment.replicas)
        # Preparing an allocation costs serial master CPU (reading the
        # indexed files, packaging tasks); concurrent grants queue
        # behind each other.  Idle polls are trivial lookups and are
        # not charged — the paper's master "waits" alongside idle
        # slaves rather than re-planning for them.
        now = self.queue.now
        service = self.config.master_service_time
        if service > 0:
            start = max(now, self._master_free_at)
            self._master_free_at = start + service
            ready_at = self._master_free_at
        else:
            ready_at = now
        # Delivery hop back to the slave before execution starts.
        self.queue.schedule(
            ready_at + self._downlink(pe, granted),
            lambda p=pe: self._start_next(p),
        )

    def on_complete(self, pe: _SimPE, task: Task) -> None:
        """A slave finishes (or loses the race for) a task.

        The local completion (the PE's own bookkeeping) is separated
        from the delivery of the result to the master so the transport
        gate can drop, duplicate, delay or defer the upload; the PE
        moves on to its next task either way.
        """
        self._advance(pe)
        pe.done_work = pe.total_work  # authoritative at completion time
        now = self.queue.now
        pe.tasks_completed += 1
        result = TaskResult(
            task_id=task.task_id,
            pe_id=pe.pe_id,
            elapsed=max(now - pe.task_start, 1e-12),
            cells=task.cells,
        )
        start, end = pe.task_start, now
        pe.current = None
        pe.completion = None
        crash_now = (
            self.injector is not None
            and self.injector.crash_due(pe.pe_id, now, pe.tasks_completed)
        )
        self._send_complete(pe, task, result, start, end, {"recorded": False})
        if crash_now:
            self.on_crash(pe)
            return
        self._become_idle(pe)

    def _send_complete(
        self,
        pe: _SimPE,
        task: Task,
        result: TaskResult,
        start: float,
        end: float,
        pending: dict,
    ) -> None:
        """Transport gate for the result upload (at-least-once).

        A dropped/corrupted upload is retransmitted after
        ``retry_interval``; a partitioned PE's upload is held until the
        window heals; a PE that crashed before its deferred upload left
        the host loses the result entirely (the reaper recovers the
        task).  ``pending`` makes the execution interval recorded
        exactly once even when the message is duplicated.
        """
        now = self.queue.now
        if self.injector is not None:
            if self.injector.crashed(pe.pe_id):
                return  # died with the result still on the host
            wait = self.injector.partition_remaining(pe.pe_id, now)
            if wait > 0:
                self.queue.schedule(
                    now + wait + self._upload(pe),
                    lambda: self._send_complete(
                        pe, task, result, start, end, pending
                    ),
                )
                return
            action = self.injector.message_action(
                pe.pe_id, "complete", now,
                allow=MESSAGE_RULES["complete"].allow,
            )
            if action in ("drop", "corrupt"):
                self.queue.schedule(
                    now + self.config.retry_interval,
                    lambda: self._send_complete(
                        pe, task, result, start, end, pending
                    ),
                )
                return
            if action == "delay":
                self.queue.schedule(
                    now + self.injector.delay_seconds,
                    lambda: self._deliver_complete(
                        pe, task, result, start, end, pending
                    ),
                )
                return
            if action == "duplicate":
                self._deliver_complete(pe, task, result, start, end, pending)
        self._deliver_complete(pe, task, result, start, end, pending)

    def _deliver_complete(
        self,
        pe: _SimPE,
        task: Task,
        result: TaskResult,
        start: float,
        end: float,
        pending: dict,
    ) -> None:
        """The result reaches the master; first delivery decides the race."""
        if self._master_down():
            # The upload bounced off a dead master; the slave holds the
            # result and retransmits after recovery (at-least-once), so
            # work finished during the outage is adopted, not redone.
            self.queue.schedule(
                self.master_down_until + self._upload(pe),
                lambda: self._deliver_complete(
                    pe, task, result, start, end, pending
                ),
            )
            return
        losers = self.master.on_complete(pe.pe_id, result, self.queue.now)
        won = self.master.pool.finished_by(task.task_id) == pe.pe_id
        if not pending["recorded"]:
            pending["recorded"] = True
            pe.intervals.append(
                TaskInterval(
                    pe_id=pe.pe_id,
                    task_id=task.task_id,
                    start=start,
                    end=end,
                    outcome="won" if won else "lost",
                )
            )
        for loser_id in losers:
            self._cancel(self.pes[loser_id], task.task_id)

    def _cancel(self, pe: _SimPE, task_id: int) -> None:
        """Master-initiated cancellation of a losing replica."""
        if (
            self.injector is not None
            and self.injector.partitioned(pe.pe_id, self.queue.now)
        ):
            # The cancel message cannot reach a partitioned PE: it
            # keeps computing and its eventual completion arrives
            # stale, exactly as on a real network.
            return
        if pe.current is not None and pe.current.task_id == task_id:
            self._abort(pe)
            self.master.on_cancelled(pe.pe_id, task_id, self.queue.now)
            self._become_idle(pe)
            return
        for queued in list(pe.queue):
            if queued.task_id == task_id:
                pe.queue.remove(queued)
                self.master.on_cancelled(pe.pe_id, task_id, self.queue.now)
                if pe.current is None and not pe.queue:
                    # The cancellation emptied an idle PE's queue (its
                    # granted replica lost the race before delivery);
                    # without a fresh request the PE would stall forever.
                    self._become_idle(pe)
                return

    def on_notify(self, pe: _SimPE) -> None:
        """Periodic progress notification (the PSS input stream).

        Samples lost to drops or partitions are not retransmitted —
        the next successful notification reports the accumulated delta,
        which is exactly how a cumulative progress counter behaves.
        """
        if pe.finished:
            return
        self._advance(pe)
        now = self.queue.now
        delta = pe.processed - pe.last_reported
        # A down master hears nothing; the next sample after recovery
        # carries the accumulated delta.
        deliver = delta > 0 and not self._master_down()
        if deliver and self.injector is not None:
            if self.injector.partition_remaining(pe.pe_id, now) > 0:
                deliver = False
            else:
                action = self.injector.message_action(
                    pe.pe_id, "progress", now,
                    allow=MESSAGE_RULES["progress"].allow,
                )
                if action in ("drop", "corrupt"):
                    deliver = False
                elif action == "delay":
                    deliver = False
                    pe.last_reported = pe.processed
                    interval = self.config.notify_interval
                    self.queue.schedule(
                        now + self.injector.delay_seconds,
                        lambda p=pe, d=delta, i=interval: (
                            self.master.on_progress(
                                p.pe_id, self.queue.now, d, i
                            )
                        ),
                    )
                elif action == "duplicate":
                    self.master.on_progress(
                        pe.pe_id, now, delta, self.config.notify_interval
                    )
        if deliver:
            self.master.on_progress(
                pe.pe_id, now, delta, self.config.notify_interval
            )
            pe.last_reported = pe.processed
        self.queue.schedule(
            now + self.config.notify_interval,
            lambda p=pe: self.on_notify(p),
        )

    def _abort(self, pe: _SimPE) -> None:
        """Stop the in-flight task and record its ``cancelled`` interval."""
        if pe.completion is not None:
            pe.completion.cancel()
            pe.completion = None
        if pe.current is not None:
            self._advance(pe)
            pe.intervals.append(
                TaskInterval(
                    pe_id=pe.pe_id,
                    task_id=pe.current.task_id,
                    start=pe.task_start,
                    end=self.queue.now,
                    outcome="cancelled",
                )
            )
            pe.current = None

    def enroll(self, pe: _SimPE) -> None:
        """Register *pe*; its first request and notification follow."""
        now = self.queue.now
        self.master.register(pe.pe_id, now)
        self.queue.schedule(
            now + self._uplink(pe), lambda p=pe: self.on_request(p)
        )
        self.queue.schedule(
            now + self.config.notify_interval, lambda p=pe: self.on_notify(p)
        )

    def on_join(self, pe: _SimPE) -> None:
        """Platform churn: a PE arrives mid-run and registers."""
        if self.master.finished:
            pe.finished = True
            return
        if self._master_down():
            self.queue.schedule(
                self.master_down_until, lambda p=pe: self.on_join(p)
            )
            return
        self.enroll(pe)

    def on_leave(self, pe: _SimPE) -> None:
        """Platform churn: a PE departs; its tasks go back to READY."""
        if pe.finished:
            return
        pe.finished = True  # stops notify/request events
        self._abort(pe)
        pe.queue.clear()
        if self.master.is_registered(pe.pe_id):
            # A recovered master may not have heard from this PE yet (it
            # re-registers on its next request); nothing to retire then.
            self.master.deregister(pe.pe_id, self.queue.now)

    def on_load(self, pe: _SimPE, capacity: float) -> None:
        """External-load step: re-time the in-flight task (superpi model)."""
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self._advance(pe)
        pe.capacity = capacity
        if pe.current is not None:
            self._retime(pe)

    # -- fault handlers ---------------------------------------------------
    def on_crash(self, pe: _SimPE) -> None:
        """Injected crash: the PE dies silently, mid-task or not.

        Unlike :meth:`on_leave` there is no goodbye to the master — its
        tasks stay EXECUTING until the heartbeat reaper notices the
        silence and releases them, which is the whole recovery path
        this layer exists to exercise.
        """
        if pe.finished or self.injector is None:
            return
        now = self.queue.now
        if not self.injector.mark_crashed(pe.pe_id, now):
            return
        pe.finished = True
        self._abort(pe)
        pe.queue.clear()
        spec = self.injector.crash_spec(pe.pe_id)
        if spec is not None and spec.restart_after is not None:
            self._pending_restarts += 1
            self.queue.schedule(
                now + spec.restart_after, lambda p=pe: self.on_restart(p)
            )

    def on_restart(self, pe: _SimPE) -> None:
        """A crashed PE comes back as a fresh incarnation."""
        if self._master_down():
            self.queue.schedule(
                self.master_down_until, lambda p=pe: self.on_restart(p)
            )
            return
        self._pending_restarts -= 1
        if self.master.finished:
            return
        now = self.queue.now
        self.injector.mark_restarted(pe.pe_id, now)
        if self.master.is_registered(pe.pe_id):
            # The reaper never noticed the crash; retire the stale
            # incarnation (releasing any tasks it still held) first.
            self.master.deregister(pe.pe_id, now, reason="restart")
        pe.finished = False
        pe.current = None
        pe.completion = None
        pe.queue.clear()
        pe.tasks_completed = 0
        self.enroll(pe)

    def on_straggle(self, pe: _SimPE) -> None:
        """A straggler window opens or closes: re-time in-flight work."""
        if self.injector is None:
            return
        self._advance(pe)
        pe.fault_factor = self.injector.rate_factor(
            pe.pe_id, self.queue.now
        )
        if pe.current is not None and not pe.finished:
            self._retime(pe)

    def on_master_crash(self) -> None:
        """The plan's ``master_crash`` fault fires: the brain dies.

        Every in-memory structure of the current master is lost; only
        the journal survives.  The outage window ``[now, now +
        recovery_after)`` bounces all slave traffic (gates in
        :meth:`_do_request`, :meth:`_deliver_complete`, :meth:`on_notify`
        and friends), after which :meth:`on_master_recover` rebuilds a
        replacement from the checkpoint directory.
        """
        if self.master.finished:
            return  # nothing left to lose
        fault = self.config.faults.master_crash
        now = self.queue.now
        self.injector.record("master_crash", time=now)
        self.master_down_until = now + fault.recovery_after
        self.queue.schedule(self.master_down_until, self.on_master_recover)

    def on_master_recover(self) -> None:
        """A replacement master recovers from the journal and takes over.

        The old master's trace is stitched into :attr:`trace_prefix`
        (it happened; the report keeps it), its metrics/event log carry
        over — they model persistent telemetry sinks — and every
        journaled winning result is restored, so finished tasks are
        never re-executed.  Slaves re-register lazily on their next
        request, exactly like reaped PEs.
        """
        self.trace_prefix.extend(self.master.trace)
        self.store.close()
        self.open(self.queue.now)

    def on_reap(self) -> None:
        """Periodic heartbeat sweep: deregister silent PEs.

        Stops rescheduling itself once the workload finished, or once
        every PE is gone with no restart pending (the run can then only
        drain — and fail loudly — rather than spin forever).
        """
        if self.master.finished:
            return
        if not self._master_down():
            # A dead master reaps nobody; the replacement starts with a
            # clean slate anyway (no PE is registered until it speaks).
            self.master.reap_silent(self.queue.now, self.heartbeat)
        if (
            all(p.finished for p in self.pes.values())
            and self._pending_restarts == 0
        ):
            return
        self.queue.schedule(
            self.queue.now + self.heartbeat / 4, self.on_reap
        )

    def on_telemetry(self) -> None:
        """Periodic telemetry sample on the virtual clock.

        Reads ``self.master`` (a crash replaces it but keeps the
        registry) and stops rescheduling once the workload is finished
        so the event queue can drain.
        """
        if self.master.finished:
            return
        self.writer.sample()
        self.queue.schedule(
            self.queue.now + self.writer.interval, self.on_telemetry
        )


# ----------------------------------------------------------------------
# Always-on service model
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceArrival:
    """One request offered to the simulated service.

    ``deadline`` is *relative* seconds from the arrival instant, the
    same convention as the wire protocol; ``cells`` defaults to
    ``query_length * database_residues`` of the run.
    """

    time: float
    tenant: str = "default"
    query_id: str = ""
    query_length: int = 100
    cells: int | None = None
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("arrival time must be non-negative")
        if self.query_length <= 0:
            raise ValueError("query_length must be positive")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive")


def service_arrivals(
    rate: float,
    horizon: float,
    rng,
    tenants: tuple[str, ...] = ("default",),
    min_length: int = 40,
    max_length: int = 120,
    deadline: float | None = None,
) -> tuple[ServiceArrival, ...]:
    """Seeded open-loop Poisson request stream for the service model.

    The virtual-clock counterpart of
    :func:`repro.service.client.run_loadgen`'s schedule: arrival times
    from :func:`~repro.simulate.loadgen.poisson_arrivals`, query
    lengths uniform in ``[min_length, max_length]``, tenants assigned
    round-robin.  Same seed, same stream — sweeps are replayable.
    """
    from .loadgen import poisson_arrivals

    times = poisson_arrivals(rate, horizon, rng)
    if not times:
        return ()
    lengths = rng.integers(min_length, max_length + 1, size=len(times))
    return tuple(
        ServiceArrival(
            time=at,
            tenant=tenants[index % len(tenants)],
            query_id=f"q{index:05d}",
            query_length=int(lengths[index]),
            deadline=deadline,
        )
        for index, at in enumerate(times)
    )


@dataclass
class ServiceSimReport:
    """Outcome of one virtual-clock service run."""

    offered: int
    admitted: int
    #: Shed counts by reason (``queue_full`` / ``backlog`` / ``draining``).
    shed: dict[str, int]
    #: Terminal request states (admitted = completed+expired+cancelled).
    completed: int
    expired: int
    cancelled: int
    #: Virtual time the drain finished (last outstanding request done).
    drained_at: float
    #: tenant -> submit-to-done latencies of completed requests.
    latencies: dict[str, list[float]]
    requests: dict
    trace: list[TraceEvent]
    metrics: dict
    events: EventLog
    #: Arrivals that found the master dead (a ``master_crash`` outage):
    #: not offered to admission at all, so neither admitted nor shed.
    unreachable: int = 0

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    def latency_quantile(self, q: float, tenant: str | None = None) -> float:
        """Latency quantile over completed requests (0.0 when none)."""
        import numpy as np

        if tenant is None:
            values = [v for vs in self.latencies.values() for v in vs]
        else:
            values = list(self.latencies.get(tenant, ()))
        if not values:
            return 0.0
        return float(np.quantile(np.asarray(values, dtype=float), q))

    def to_dict(self) -> dict:
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "shed": dict(self.shed),
            "shed_total": self.shed_total,
            "completed": self.completed,
            "expired": self.expired,
            "cancelled": self.cancelled,
            "unreachable": self.unreachable,
            "drained_at": self.drained_at,
            "latency_p50": self.latency_quantile(0.50),
            "latency_p99": self.latency_quantile(0.99),
        }


class _ServiceRunState(_RunState):
    """Run state plus the service brain: arrivals, ticks, drain.

    The admission logic lives in :class:`~repro.service.core.ServiceCore`
    — the exact object the threaded front-end and the cluster server
    drive — so shed decisions, deadline semantics and drain behaviour
    are identical across environments by construction.
    """

    def __init__(self, config: "ServiceSimulator", service_config):
        super().__init__(config, [])
        self.service_config = service_config
        self.service: ServiceCore
        self.offered = 0
        self.admitted_cells = 0
        self.shed: dict[str, int] = {}
        self.drained_at: float | None = None
        #: Arrivals during a master outage: the front door is simply
        #: gone (connection refused), which is neither an admission nor
        #: a shed decision — the report buckets them separately.
        self.unreachable = 0

    def service_tick(self) -> None:
        if self._master_down():
            return
        actions = self.service.tick(self.queue.now)
        for pe_id, task_id in actions.cancels:
            pe = self.pes.get(pe_id)
            if pe is not None:
                self._cancel(pe, task_id)
        self._note_drained()

    def _note_drained(self) -> None:
        if self.service.drained and self.drained_at is None:
            self.drained_at = self.queue.now

    def on_arrival(self, arrival: ServiceArrival) -> None:
        now = self.queue.now
        self.offered += 1
        if self._master_down():
            self.unreachable += 1
            return
        deadline = (
            None if arrival.deadline is None else now + arrival.deadline
        )
        cells = arrival.cells
        if cells is None:
            cells = arrival.query_length * self.config.database_residues
        outcome = self.service.submit(
            arrival.tenant,
            arrival.query_id or f"q{self.offered:05d}",
            arrival.query_length,
            cells,
            now,
            deadline=deadline,
        )
        if outcome.accepted:
            self.admitted_cells += cells
            if deadline is not None:
                # Exact-expiry tick: the request is retired (and its
                # executors interrupted) the instant its deadline
                # passes, not at the next completion or sweep.
                self.queue.schedule(deadline, self.service_tick)
        else:
            reason = outcome.reason or "unknown"
            self.shed[reason] = self.shed.get(reason, 0) + 1

    def on_drain(self) -> None:
        if self._master_down():
            # The drain request bounces off the dead master too; retry
            # the moment the replacement is up.
            self.queue.schedule(self.master_down_until, self.on_drain)
            return
        self.service.drain(self.queue.now)
        self.service_tick()

    def on_sweep(self) -> None:
        """Periodic service tick — progress without request traffic."""
        self.service_tick()
        if self.service.drained:
            return
        self.queue.schedule(
            self.queue.now + self.config.notify_interval, self.on_sweep
        )

    def _deliver_complete(self, pe, task, result, start, end, pending):
        super()._deliver_complete(pe, task, result, start, end, pending)
        # Finalize immediately: the request flips to ``done`` at the
        # completion instant, and the freed window refills.
        self.service_tick()

    def open(self, now: float = 0.0):
        """Open the master, then the service over it.

        After a master crash this cold-restarts the service from the
        journal pair (:meth:`~repro.service.core.ServiceCore.open`):
        requests the dead service had finished readopt their journaled
        results, unfinished ones re-enter the fair queue with their
        original deadlines, and ones that expired during the outage
        are cancelled loudly.  Nothing is carried over in memory.
        """
        from ..service.core import ServiceCore

        recovered = super().open(now)
        self.service = ServiceCore.open(
            self.master, self.store, recovered, self.service_config, now=now
        )
        return recovered

    def on_master_recover(self) -> None:
        super().on_master_recover()
        # A replacement whose journal already holds the whole drain is
        # drained from its first instant.
        self._note_drained()


class ServiceSimulator(HybridSimulator):
    """Virtual-clock model of the always-on service.

    Replaces the fixed workload of :meth:`HybridSimulator.run` with an
    open-loop arrival stream feeding the *real*
    :class:`~repro.service.core.ServiceCore` on the *real*
    :class:`~repro.core.master.Master`: admission, weighted fair
    dequeue, backlog shedding, deadlines and drain all execute the
    production code paths — only the DP arithmetic is replaced by its
    cell count, so a λ sweep over an hour of simulated service costs
    milliseconds.

    ``database_residues`` sizes each request's matrix
    (``query_length * database_residues`` cells).  The run always ends
    in a drain — at ``drain_at``, or right after the last arrival — and
    fails loudly if the drain cannot complete (e.g. every PE crashed
    with no restart).
    """

    def __init__(self, *args, database_residues: int = 100_000, **kwargs):
        super().__init__(*args, **kwargs)
        if database_residues <= 0:
            raise ValueError("database_residues must be positive")
        self.database_residues = database_residues

    def run_service(
        self,
        arrivals,
        service=None,
        drain_at: float | None = None,
    ) -> ServiceSimReport:
        from ..service.core import ServiceConfig

        arrivals = sorted(arrivals, key=lambda a: a.time)
        state = _ServiceRunState(self, service or ServiceConfig())
        workload = [
            (arrival.time, lambda a=arrival: state.on_arrival(a))
            for arrival in arrivals
        ]
        last_arrival = arrivals[-1].time if arrivals else 0.0
        if drain_at is None:
            # Default experiment shape: offered load for the whole
            # horizon, then a graceful drain of whatever was admitted.
            drain_at = last_arrival
        workload.append((drain_at, state.on_drain))
        workload.append((self.notify_interval, state.on_sweep))
        self._simulate(state, workload)

        # A master crash replaces state.master/state.service mid-run;
        # everything below must look at the survivors.
        master = state.master
        core = state.service
        if not core.drained or not master.finished:
            raise RuntimeError(
                "service simulation drained its event queue without "
                "completing the drain"
            )
        counts = core.counts()
        latencies: dict[str, list[float]] = {}
        for request in core.requests.values():
            if request.state == "done" and request.latency is not None:
                latencies.setdefault(request.tenant, []).append(
                    request.latency
                )
        drained_at = state.drained_at if state.drained_at is not None else 0.0
        metrics = state.finalize(drained_at, state.admitted_cells)
        return ServiceSimReport(
            offered=state.offered,
            admitted=len(core.requests),
            shed=dict(state.shed),
            completed=counts["done"],
            expired=counts["expired"],
            cancelled=counts["cancelled"],
            drained_at=drained_at,
            latencies=latencies,
            requests=dict(core.requests),
            trace=state.trace_prefix + list(master.trace),
            metrics=metrics,
            events=state.events,
            unreachable=state.unreachable,
        )
