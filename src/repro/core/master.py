"""The master process: registration, allocation, adjustment, merging.

Fig. 4 of the paper: the master acquires and converts the sequence
files, waits for slaves to register, allocates tasks according to the
user-selected policy, applies the workload-adjustment mechanism when the
ready queue drains, and merges the results the slaves send back.

:class:`Master` is *pure scheduling logic* — it has no threads, sockets
or clocks of its own.  The threaded runtime and the discrete-event
simulator both drive it through the same four entry points
(:meth:`register`, :meth:`on_request`, :meth:`on_progress`,
:meth:`on_complete`), which is what lets the simulator make paper-scale
claims about exactly the code that also runs for real.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..observability import (
    EventLog,
    MetricsRegistry,
    SpanContext,
    execution_span_id,
    master_instruments,
    task_trace_id,
)
from .history import DEFAULT_OMEGA, HistoryBook, RateSample
from .policies import AllocationPolicy, PolicyContext
from .task import Task, TaskPool, TaskResult

__all__ = ["Assignment", "TraceEvent", "Master"]


@dataclass(frozen=True)
class Assignment:
    """Master's reply to one task request."""

    tasks: tuple[Task, ...] = ()
    replicas: tuple[Task, ...] = ()
    done: bool = False

    @property
    def empty(self) -> bool:
        """True when the slave got nothing and should wait (not exit)."""
        return not self.tasks and not self.replicas and not self.done


@dataclass(frozen=True)
class TraceEvent:
    """One entry of the master's execution trace (feeds Figs. 5-8)."""

    kind: str  # "register" | "assign" | "replica" | "complete" | "progress" | "cancel" | "cancelled" | ...
    time: float
    pe_id: str
    task_id: int = -1
    value: float = 0.0  # rate for progress events; 1.0 for winning completes


@dataclass
class _PEState:
    """Master-side bookkeeping for one slave."""

    queue: list[int] = field(default_factory=list)  # pending task ids, FIFO
    granted: int = 0  # ready tasks ever granted (drives Fixed/WFixed)
    last_contact: float = 0.0  # time of the slave's latest message


class Master:
    """Scheduling brain of the execution environment.

    Parameters
    ----------
    tasks:
        The full workload (already converted to :class:`Task` records).
    policy:
        The user-selected allocation policy (Section IV-A).
    adjustment:
        Enables the workload-adjustment mechanism (Section IV-A-3).
        Benchmarks toggle this to regenerate Fig. 6.
    omega:
        PSS notification-window length.
    metrics:
        Shared :class:`~repro.observability.MetricsRegistry`; created
        fresh when omitted.  Every scheduling decision is counted here
        under the canonical names, so the DES and the threaded runtime
        (which both drive this class) report identical telemetry.
    events:
        Shared :class:`~repro.observability.EventLog`; every legacy
        :class:`TraceEvent` is mirrored into it as a structured record.
    spans:
        Allocate span contexts (``trace``/``span``/``parent`` fields on
        the emitted events) for every granted execution, so one task's
        lifecycle is a single causal trace.  Span ids are deterministic
        functions of the schedule, identical in every environment.  The
        overhead benchmark toggles this off to price the mechanism.
    journal:
        Optional durability sink (duck-typed to
        :class:`~repro.durability.CheckpointStore`): every registration,
        retirement, assignment, winning completion and cancellation is
        journaled through it, so a crashed master can be rebuilt from
        disk.  ``None`` (the default) journals nothing.
    batch:
        Minimum tasks granted per non-empty assignment (default 1 =
        the paper's behaviour).  With ``batch=K`` a request that the
        policy would satisfy with fewer tasks is widened to up to K, so
        a slave can coalesce compatible queries into one multi-query
        sweep.  Widening never shrinks a policy grant, every task is
        still journaled/traced individually, and replicas are unaffected
        — so results, recovery sets and replica semantics are identical
        to singleton assignment.
    """

    def __init__(
        self,
        tasks: list[Task],
        policy: AllocationPolicy,
        adjustment: bool = True,
        omega: int = DEFAULT_OMEGA,
        metrics: MetricsRegistry | None = None,
        events: EventLog | None = None,
        spans: bool = True,
        journal: object | None = None,
        batch: int = 1,
    ):
        if batch < 1:
            raise ValueError("batch must be at least 1")
        self.pool = TaskPool(tasks)
        self.policy = policy
        self.adjustment = adjustment
        self.history = HistoryBook(omega)
        self.results: dict[int, TaskResult] = {}
        self.trace: list[TraceEvent] = []
        self._pes: dict[str, _PEState] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events if events is not None else EventLog()
        self._inst = master_instruments(self.metrics)
        self.spans = spans
        self.journal = journal
        self.batch = batch
        #: Always-on service mode: while True the master never reports
        #: ``done`` to its slaves — an empty pool means *wait*, because
        #: the admission layer may dispatch more work at any moment.
        #: The service front-end (:mod:`repro.service`) sets this on
        #: attach and clears it once a drain has retired every admitted
        #: request, which is what finally releases the slaves.
        self.serving = False
        #: Attempt counter per (task, pe) — keeps replica span ids
        #: unique when a task revisits a PE after a release.
        self._span_attempts: dict[tuple[int, str], int] = {}
        #: Open execution-span contexts keyed by (pe, task).
        self._active_spans: dict[tuple[str, int], SpanContext] = {}
        self._sync_pool_gauges()

    # ------------------------------------------------------------------
    # Instrumentation plumbing
    # ------------------------------------------------------------------
    def _record(
        self,
        kind: str,
        now: float,
        pe_id: str,
        task_id: int = -1,
        value: float = 0.0,
        **extra: object,
    ) -> None:
        """Append to the legacy trace and mirror into the event log.

        ``extra`` fields (span context, progress payloads) go only to
        the structured log — the legacy :class:`TraceEvent` tuple stays
        exactly the five fields it always was.
        """
        self.trace.append(TraceEvent(kind, now, pe_id, task_id, value))
        self.events.emit(
            kind, now, pe=pe_id, task=task_id, value=value, **extra
        )
        self._inst.events.labels(kind=kind).inc()

    def _open_span(self, pe_id: str, task_id: int) -> dict:
        """Allocate the span context for a freshly granted execution."""
        if not self.spans:
            return {}
        attempt = self._span_attempts.get((task_id, pe_id), 0)
        self._span_attempts[(task_id, pe_id)] = attempt + 1
        trace = task_trace_id(task_id)
        context = SpanContext(
            trace_id=trace,
            span_id=execution_span_id(task_id, pe_id, attempt),
            parent_id=trace,
        )
        self._active_spans[(pe_id, task_id)] = context
        return context.as_fields()

    def _span_fields(
        self, pe_id: str, task_id: int, close: bool = False
    ) -> dict:
        """Context fields of the open execution span, if any."""
        key = (pe_id, task_id)
        context = (
            self._active_spans.pop(key, None)
            if close
            else self._active_spans.get(key)
        )
        return context.as_fields() if context is not None else {}

    def execution_span(
        self, pe_id: str, task_id: int
    ) -> SpanContext | None:
        """The open span context of one granted execution.

        The cluster server forwards this over the wire so worker-side
        events join the same causal trace.
        """
        return self._active_spans.get((pe_id, task_id))

    def _sync_pool_gauges(self) -> None:
        self._inst.ready_tasks.set(self.pool.num_ready)
        self._inst.executing_tasks.set(self.pool.num_executing)
        self._inst.registered_pes.set(len(self._pes))

    def _sync_queue_gauge(self, pe_id: str) -> None:
        state = self._pes.get(pe_id)
        depth = len(state.queue) if state is not None else 0
        self._inst.queue_depth.labels(pe=pe_id).set(depth)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_pes(self) -> int:
        return len(self._pes)

    @property
    def finished(self) -> bool:
        return self.pool.all_finished and not self.serving

    def pending_of(self, pe_id: str) -> tuple[int, ...]:
        return tuple(self._pes[pe_id].queue)

    def is_registered(self, pe_id: str) -> bool:
        return pe_id in self._pes

    def registered_pes(self) -> tuple[str, ...]:
        return tuple(self._pes)

    def merged_results(self) -> list[TaskResult]:
        """Winning result of every task, in task-id order (Fig. 4 merge)."""
        if not self.pool.all_finished:
            raise RuntimeError("cannot merge: tasks still outstanding")
        return [self.results[task_id] for task_id in sorted(self.results)]

    # ------------------------------------------------------------------
    # Slave-facing protocol
    # ------------------------------------------------------------------
    def register(self, pe_id: str, now: float = 0.0, attempt: int = 0) -> None:
        """A slave announces itself (Fig. 4, *register with master*).

        ``attempt`` is the slave's reconnect attempt id — ``0`` for the
        first registration of a run, incremented by the resilient
        cluster transport each time the worker re-registers after a
        reconnect.  It only annotates the event log; re-registration
        itself is deregister-then-register at the call site.
        """
        if pe_id in self._pes:
            raise ValueError(f"PE {pe_id!r} registered twice")
        self._pes[pe_id] = _PEState(last_contact=now)
        self.history.register(pe_id)
        extra = {"attempt": attempt} if attempt else {}
        self._record("register", now, pe_id, **extra)
        if self.journal is not None:
            self.journal.on_register(pe_id, now, attempt)
        self._sync_pool_gauges()
        self._sync_queue_gauge(pe_id)

    def last_contact(self, pe_id: str) -> float:
        """Time of the slave's most recent message."""
        return self._pes[pe_id].last_contact

    def reap_silent(self, now: float, timeout: float) -> tuple[str, ...]:
        """Deregister every slave silent for longer than *timeout*.

        Failure detection for the distributed runtime: a crashed worker
        process stops sending progress notifications; reaping it
        releases its tasks back to the ready queue so the remaining
        slaves finish the workload.  Returns the reaped PE ids.
        """
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        silent = [
            pe_id
            for pe_id, state in self._pes.items()
            if now - state.last_contact > timeout
        ]
        for pe_id in silent:
            self.deregister(pe_id, now, reason="reap")
        return tuple(silent)

    def deregister(
        self, pe_id: str, now: float = 0.0, reason: str = "leave"
    ) -> tuple[int, ...]:
        """A slave leaves the platform (churn or failure).

        Every task the slave still held is released; tasks it was the
        sole executor of transition back to READY, so no work is lost —
        the robustness the paper's future-work section asks for.
        Returns the released task ids.
        """
        state = self._pes.pop(pe_id, None)
        if state is None:
            raise KeyError(f"PE {pe_id!r} is not registered")
        released = tuple(state.queue)
        for task_id in released:
            self.pool.release(task_id, pe_id)
        for key in [k for k in self._active_spans if k[0] == pe_id]:
            del self._active_spans[key]
        self.history.remove(pe_id)
        self._record(
            "deregister", now, pe_id,
            released=list(released), reason=reason,
        )
        if self.journal is not None:
            self.journal.on_deregister(pe_id, now, reason, released)
        self._sync_pool_gauges()
        self._sync_queue_gauge(pe_id)
        return released

    def on_progress(
        self, pe_id: str, now: float, cells: float, interval: float
    ) -> None:
        """Periodic progress notification (the PSS input stream).

        Notifications from PEs that are not (or no longer) registered —
        e.g. a reaped slave whose messages were in flight — are dropped
        silently; the slave re-registers on its next request.
        """
        state = self._pes.get(pe_id)
        if state is None:
            return
        state.last_contact = now
        sample = RateSample(time=now, cells=cells, interval=interval)
        self.history.observe(pe_id, sample)
        # The queue head is the task the PE is currently executing, so
        # its span context annotates the notification.
        span = (
            self._span_fields(pe_id, state.queue[0]) if state.queue else {}
        )
        self._record(
            "progress", now, pe_id, value=sample.rate,
            cells=cells, interval=interval, **span,
        )
        self._inst.progress_notifications.labels(pe=pe_id).inc()
        estimated = self.history.rate(pe_id)
        if estimated is not None:
            self._inst.estimated_rate.labels(pe=pe_id).set(estimated)

    def on_request(self, pe_id: str, now: float) -> Assignment:
        """An idle slave asks for work.

        Ready tasks are granted according to the policy; once the ready
        queue is empty the workload-adjustment mechanism hands out a
        replica of an executing task instead.  An :class:`Assignment`
        with ``done=True`` tells the slave the whole workload finished.
        """
        state = self._pes[pe_id]
        state.last_contact = now
        self._record("request", now, pe_id)
        if self.pool.all_finished:
            # In service mode an empty pool means "wait for the front
            # door", not "the run is over".
            return Assignment(done=self.finished)

        ctx = PolicyContext(
            pe_id=pe_id,
            num_pes=len(self._pes),
            total_tasks=len(self.pool),
            ready_tasks=self.pool.num_ready,
            tasks_already_assigned={
                pe: st.granted for pe, st in self._pes.items()
            },
            history=self.history,
        )
        count = self.policy.batch_size(ctx)
        if count > 0 and self.batch > 1:
            # Widen (never shrink) the grant so the slave can coalesce
            # the tasks into one multi-query sweep.
            count = max(count, self.batch)
        tasks = self.pool.acquire(pe_id, count) if count > 0 else []
        if tasks:
            if len(tasks) > 1 and self.batch > 1:
                self._record("batch", now, pe_id, value=float(len(tasks)))
            state.granted += len(tasks)
            state.queue.extend(t.task_id for t in tasks)
            for t in tasks:
                self._record(
                    "assign", now, pe_id, t.task_id,
                    **self._open_span(pe_id, t.task_id),
                )
                if self.journal is not None:
                    self.journal.on_assign(pe_id, t.task_id, now, "assign")
            self._inst.tasks_assigned.labels(pe=pe_id).inc(len(tasks))
            self._sync_pool_gauges()
            self._sync_queue_gauge(pe_id)
            return Assignment(tasks=tuple(tasks))

        if self.adjustment:
            candidates = self.pool.replica_candidates(pe_id)
            if candidates:
                chosen = self._pick_replica(candidates)
                replica = self.pool.assign_replica(pe_id, chosen.task_id)
                state.queue.append(replica.task_id)
                self._record(
                    "replica", now, pe_id, replica.task_id,
                    **self._open_span(pe_id, replica.task_id),
                )
                if self.journal is not None:
                    self.journal.on_assign(
                        pe_id, replica.task_id, now, "replica"
                    )
                self._inst.replicas_assigned.labels(pe=pe_id).inc()
                self._sync_pool_gauges()
                self._sync_queue_gauge(pe_id)
                return Assignment(replicas=(replica,))
        if not self.pool.all_finished:
            self._inst.wait_polls.labels(pe=pe_id).inc()
        return Assignment(done=self.finished)

    def on_complete(
        self, pe_id: str, result: TaskResult, now: float
    ) -> tuple[str, ...]:
        """A slave finished a task; returns the PEs to cancel.

        The first completion wins and its result is merged; a stale
        completion (the task already finished elsewhere, or the same
        result delivered twice by an at-least-once transport) is
        dropped, as the mechanism prescribes.  Completions from PEs
        that were reaped or re-registered meanwhile are *adopted*: the
        work is real, so if the task is still unfinished this result
        wins and any replicas are cancelled.
        """
        state = self._pes.get(pe_id)
        if state is not None:
            state.last_contact = now
            if result.task_id in state.queue:
                state.queue.remove(result.task_id)
        if result.task_id not in self.pool:
            # A completion for a task this master never created: a
            # cold-restarted service master re-queued the request in its
            # fair queue, so the old execution's task id is not in the
            # pool (yet).  Drop it as stale — the re-dispatch reuses the
            # same task id, and a later redelivery will be adopted.
            self._record(
                "complete", now, pe_id, result.task_id, value=0.0
            )
            self._inst.tasks_completed.labels(
                pe=pe_id, outcome="unknown"
            ).inc()
            return ()
        first, losers = self.pool.complete(
            result.task_id, pe_id, adopt=True
        )
        if first:
            self.results[result.task_id] = result
        if self.journal is not None:
            self.journal.on_complete(result, first, losers, now)
        self._record(
            "complete", now, pe_id, result.task_id,
            value=1.0 if first else 0.0,
            **self._span_fields(pe_id, result.task_id, close=True),
        )
        outcome = "won" if first else "stale"
        self._inst.tasks_completed.labels(pe=pe_id, outcome=outcome).inc()
        if result.elapsed > 0:
            self._inst.task_latency.labels(pe=pe_id).observe(result.elapsed)
            self._inst.busy_seconds.labels(pe=pe_id).inc(result.elapsed)
            self._inst.realized_rate.labels(pe=pe_id).set(
                result.cells / result.elapsed
            )
        self._inst.cells_completed.labels(pe=pe_id).inc(result.cells)
        for loser in losers:
            self._record(
                "cancel", now, loser, result.task_id,
                **self._span_fields(loser, result.task_id),
            )
            self._inst.tasks_cancelled.labels(pe=loser).inc()
        self._sync_pool_gauges()
        self._sync_queue_gauge(pe_id)
        return losers

    def on_cancelled(
        self, pe_id: str, task_id: int, now: float = 0.0
    ) -> None:
        """A slave acknowledges dropping a cancelled (or failed) task.

        Tolerates acknowledgements from PEs that already deregistered
        (their tasks were released at departure).
        """
        state = self._pes.get(pe_id)
        if state is None:
            return
        state.last_contact = max(state.last_contact, now)
        if task_id in state.queue:
            state.queue.remove(task_id)
        if task_id not in self.pool:
            return  # ack for a task a cold-restarted master never made
        self._record(
            "cancelled", now, pe_id, task_id,
            **self._span_fields(pe_id, task_id, close=True),
        )
        if self.journal is not None:
            self.journal.on_cancelled(pe_id, task_id, now)
        self.pool.release(task_id, pe_id)
        self._sync_pool_gauges()
        self._sync_queue_gauge(pe_id)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def restore_result(self, result: TaskResult, now: float = 0.0) -> bool:
        """Adopt a journaled winning result during crash recovery.

        The task transitions straight to FINISHED (without re-executing)
        and the result rejoins :attr:`results` so the final merge is
        identical to the fault-free run.  Emits a ``recovery_task``
        event; deliberately does *not* re-journal — the record being
        restored is already durable.  Returns False when the task is
        already finished (snapshot/journal overlap).
        """
        if not self.pool.restore_finished(result.task_id, result.pe_id):
            return False
        self.results[result.task_id] = result
        self._record(
            "recovery_task", now, result.pe_id, result.task_id, value=1.0
        )
        self._sync_pool_gauges()
        return True

    # ------------------------------------------------------------------
    # Service admission (dynamic workload)
    # ------------------------------------------------------------------
    def add_tasks(
        self,
        tasks: list[Task],
        now: float = 0.0,
        tenant: str = "",
    ) -> None:
        """Dispatch admitted service work into the ready queue.

        The admission layer (:mod:`repro.service`) holds requests in
        per-tenant queues and releases them here in weighted-fair
        order; from this point on they are ordinary tasks — assigned,
        replicated, journaled and merged exactly like the preloaded
        workload.  Dynamic tasks are not part of the checkpoint's
        workload fingerprint (it covers only the preloaded set); their
        identity and lifecycle live in the sibling service journal
        (``repro.service_journal.v1``), which is what lets a cold
        restart recover the admitted queue from disk.
        """
        for task in tasks:
            self.pool.add(task)
            extra = {"tenant": tenant} if tenant else {}
            self._record("dispatch", now, "service", task.task_id, **extra)
        self._sync_pool_gauges()

    def abandon(
        self, task_id: int, now: float = 0.0, reason: str = "deadline"
    ) -> tuple[str, ...]:
        """Retire a task without computing it (expiry / client cancel).

        The scheduler half of deadline propagation: a READY task is
        removed before any PE ever sees it, an EXECUTING task's
        executors are returned so the caller can flag cancellations
        (piggybacked exactly like replica-race losers), and a FINISHED
        task is left alone — its result beat the deadline and stands.
        Late completions from cancelled executors arrive stale and are
        dropped by the usual first-winner rule.
        """
        executors = self.pool.abandon(task_id)
        if executors is None:
            return ()
        self._record("abandon", now, "service", task_id, reason=reason)
        for pe_id in executors:
            self._record(
                "cancel", now, pe_id, task_id,
                **self._span_fields(pe_id, task_id),
            )
            self._inst.tasks_cancelled.labels(pe=pe_id).inc()
        self._sync_pool_gauges()
        return executors

    # ------------------------------------------------------------------
    # Replica selection
    # ------------------------------------------------------------------
    def _pick_replica(self, candidates: list[Task]) -> Task:
        """Choose the executing task most worth duplicating.

        Heuristic: the task whose earliest estimated completion (over
        its current executors, from the master's queue bookkeeping and
        the Ω-window rates) is the *latest* — i.e. the task most likely
        to retard the end of the computation, the exact situation the
        mechanism exists for.  Ties fall back to fewest executors, then
        task id, keeping the choice deterministic.
        """
        rates = self.history.known_rates()

        def earliest_finish(task: Task) -> float:
            best = float("inf")
            for pe in self.pool.executors(task.task_id):
                rate = rates.get(pe)
                if rate is None or rate <= 0:
                    continue
                queue = self._pes[pe].queue
                pending_cells = 0
                for queued_id in queue:
                    pending_cells += self.pool.task(queued_id).cells
                    if queued_id == task.task_id:
                        break
                best = min(best, pending_cells / rate)
            return best

        return max(
            candidates,
            key=lambda t: (
                earliest_finish(t),
                -len(self.pool.executors(t.task_id)),
                -t.task_id,
            ),
        )
