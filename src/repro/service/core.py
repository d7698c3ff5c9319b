"""Admission control, backpressure, deadlines and drain — pure logic.

:class:`ServiceCore` turns a one-shot :class:`~repro.core.master.Master`
into the brain of an always-on search service.  It owns the front-door
policy — *which* requests enter the system and *when* their tasks join
the scheduler's ready queue — while the master keeps owning everything
the paper describes: allocation, replication, first-completion-wins.

Like :class:`~repro.core.task.TaskPool`, this class knows nothing about
threads, sockets or wall clocks.  Every method takes ``now`` explicitly
and returns plain data; the threaded front-end
(:mod:`repro.service.threaded`), the DES model
(:class:`~repro.simulate.des.ServiceSimulator`) and the cluster server
(:mod:`repro.cluster.server`) drive the *same* admission semantics and
therefore export the same metrics and shed decisions.

Admission pipeline (per :meth:`submit`):

1. **drain gate** — a draining service admits nothing (reason
   ``draining``);
2. **backlog gate** — if the estimated backlog
   ``(queued + in-flight cells) / fleet rate`` exceeds
   ``max_backlog_seconds``, shed with reason ``backlog`` and a
   retry-after hint (the gate is skipped until the fleet has a rate
   estimate);
3. **queue gate** — the tenant's bounded FIFO
   (:class:`~repro.service.admission.FairQueue`); a full lane sheds
   with reason ``queue_full``.

Dispatch keeps at most ``dispatch_window`` tasks READY in the pool so
the weighted fair dequeue — not the scheduler's FIFO — decides
inter-tenant order under load.

Deadlines are absolute timestamps.  :meth:`tick` retires expired
requests: queued ones are dropped before ever becoming tasks, running
ones are abandoned in the pool and the returned
:class:`TickActions.cancels` tells the environment which PEs to
interrupt — computing a result nobody will read is the one waste the
paper's replica mechanism cannot see.

When the master journals into a
:class:`~repro.durability.CheckpointStore`, the service journals its
own admission lifecycle (``admit``/``dispatch``/``complete``/
``cancel``/``expire``/``drain``) into the sibling
``repro.service_journal.v1`` file, and :meth:`ServiceCore.recover`
cold-restarts a killed service master from disk alone: per-tenant
queues and in-flight sets are rebuilt, unfinished requests re-enter the
queue with their original deadlines (already-expired ones are cancelled
loudly), and finished requests keep their journaled hits — so results
are byte-identical to an uninterrupted run.

Admission can also run in SLO mode (``admission="slo"``): instead of
the static ``max_backlog_seconds`` knob, a request with a deadline is
shed when the predicted completion time — backlog over a service-rate
EWMA, inflated by the observed per-tenant prediction-error quantile —
would push its predicted p99 past the deadline (reason ``slo``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..core.master import Master
from ..core.task import Task, TaskResult
from ..durability.journal import JournalError
from ..observability import service_instruments
from .admission import FairQueue

__all__ = [
    "ServiceConfig",
    "ServiceRequest",
    "SubmitOutcome",
    "TickActions",
    "ServiceCore",
    "SHED_REASONS",
    "REQUEST_STATES",
    "ADMISSION_MODES",
]

#: Why admission may refuse a request (the wire error's ``reason``).
SHED_REASONS = ("queue_full", "backlog", "draining", "slo")

#: Admission gate flavours: ``static`` is the fixed
#: ``max_backlog_seconds`` bound; ``slo`` sheds on predicted-deadline
#: overshoot instead.
ADMISSION_MODES = ("static", "slo")

#: Lifecycle of an admitted request.
REQUEST_STATES = ("queued", "running", "done", "expired", "cancelled")


@dataclass(frozen=True)
class ServiceConfig:
    """Front-door policy knobs (defaults match ``repro serve``)."""

    #: Per-tenant admission queue bound (requests, not cells).
    max_queue_depth: int = 16
    #: Shed when estimated backlog exceeds this many seconds; ``0``
    #: disables the gate.
    max_backlog_seconds: float = 60.0
    #: Fleet rate (cells/s) to assume before any PE has a measured
    #: rate; ``0`` skips the backlog gate until rates exist.
    default_rate: float = 0.0
    #: Deadline applied to requests that do not carry one (seconds
    #: from submit); ``None`` means no implicit deadline.
    default_deadline: float | None = None
    #: Tenant -> fair-share weight; unlisted tenants get
    #: ``default_weight``.
    weights: dict[str, float] = field(default_factory=dict)
    default_weight: float = 1.0
    #: Keep at most this many admitted tasks READY in the pool; the
    #: rest wait in the fair queue where tenant weights apply.
    dispatch_window: int = 4
    #: Bounds of the retry-after hint attached to shed responses.
    min_retry_after: float = 0.1
    max_retry_after: float = 30.0
    #: Admission gate: ``static`` (fixed ``max_backlog_seconds``) or
    #: ``slo`` (shed when predicted completion overshoots the request
    #: deadline).  Requests without a deadline always fall back to the
    #: static gate.
    admission: str = "static"
    #: Smoothing factor of the fleet service-rate EWMA the SLO gate
    #: predicts from.
    ewma_alpha: float = 0.3
    #: Quantile of the observed actual/predicted latency ratios used
    #: to inflate the prediction into a p99 estimate.
    slo_quantile: float = 0.99
    #: Per-tenant window of prediction-error samples.
    error_window: int = 64

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1")
        if self.max_backlog_seconds < 0:
            raise ValueError("max_backlog_seconds must be non-negative")
        if self.dispatch_window < 1:
            raise ValueError("dispatch_window must be at least 1")
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ValueError("default_deadline must be positive")
        if self.admission not in ADMISSION_MODES:
            raise ValueError(
                f"admission must be one of {ADMISSION_MODES}, "
                f"not {self.admission!r}"
            )
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if not 0 < self.slo_quantile <= 1:
            raise ValueError("slo_quantile must be in (0, 1]")
        if self.error_window < 1:
            raise ValueError("error_window must be at least 1")


@dataclass
class ServiceRequest:
    """One admitted search request and its lifecycle record."""

    request_id: str
    tenant: str
    task: Task
    submitted_at: float
    deadline: float | None = None
    state: str = "queued"
    dispatched_at: float | None = None
    finished_at: float | None = None
    #: Winning task payload (tuple of SearchHit) once ``done``.
    hits: object = None

    @property
    def latency(self) -> float | None:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "deadline": self.deadline,
            "dispatched_at": self.dispatched_at,
            "finished_at": self.finished_at,
        }


@dataclass(frozen=True)
class SubmitOutcome:
    """What the front door tells the client about one submission."""

    accepted: bool
    request_id: str | None = None
    reason: str | None = None
    retry_after: float | None = None

    def to_dict(self) -> dict:
        if self.accepted:
            return {"accepted": True, "request_id": self.request_id}
        return {
            "accepted": False,
            "error": "overloaded",
            "reason": self.reason,
            "retry_after": self.retry_after,
        }


@dataclass(frozen=True)
class TickActions:
    """Side effects the environment must carry out after a tick.

    ``cancels`` are (pe_id, task_id) pairs whose execution should be
    interrupted (deadline expiry / client cancel); ``retired`` are task
    ids that left the system this tick (done, expired or cancelled) —
    the cluster server uses them to garbage-collect inline query
    payloads.
    """

    cancels: tuple[tuple[str, int], ...] = ()
    retired: tuple[int, ...] = ()

    def merge(self, other: "TickActions") -> "TickActions":
        return TickActions(
            cancels=self.cancels + other.cancels,
            retired=self.retired + other.retired,
        )


class ServiceCore:
    """Admission layer over one :class:`Master` (not thread-safe).

    When *journal* (defaulting to ``master.journal``) is a
    :class:`~repro.durability.CheckpointStore`, every admission-
    lifecycle transition is journaled into the sibling service journal
    before the environment replies to the client, which is what makes
    :meth:`recover` possible.  A plain construction refuses a store
    that already holds service state — that state belongs to a crashed
    service and must be recovered, not silently shadowed.
    """

    def __init__(
        self,
        master: Master,
        config: ServiceConfig | None = None,
        journal: object | None = None,
    ):
        self.master = master
        self.config = config or ServiceConfig()
        self.journal = journal if journal is not None else master.journal
        if self.journal is not None and hasattr(
            self.journal, "open_service"
        ):
            if not getattr(self.journal, "service_open", False):
                state = self.journal.open_service()
                if state.requests or state.draining:
                    raise JournalError(
                        "checkpoint directory holds service state from a "
                        "previous run; cold-restart it with "
                        "ServiceCore.recover() instead of discarding it"
                    )
        self.queue = FairQueue(
            max_depth=self.config.max_queue_depth,
            weights=self.config.weights,
            default_weight=self.config.default_weight,
        )
        self.requests: dict[str, ServiceRequest] = {}
        self._by_task: dict[int, ServiceRequest] = {}
        self._inflight_cells = 0
        self._seq = 0
        ids = master.pool.task_ids()
        self._next_task_id = (max(ids) + 1) if ids else 0
        self.draining = False
        self.drained = False
        #: Task ids :meth:`_refill` retired outside a tick (a submit
        #: found a queued request past its deadline); the next
        #: :meth:`tick` reports them, so payload stores can drop them.
        self._refill_retired: list[int] = []
        #: SLO admission state: fleet-rate EWMA, per-tenant prediction
        #: error samples (actual/predicted latency ratios) and the
        #: prediction recorded for each in-flight admitted request.
        self._rate_ewma: float | None = None
        self._errors: dict[str, deque] = {}
        self._predicted_at_admit: dict[str, float] = {}
        self._inst = service_instruments(master.metrics)
        self._inst.draining.set(0.0)
        self._inst.backlog_seconds.set(0.0)
        master.serving = True

    # ------------------------------------------------------------------
    # Capacity model
    # ------------------------------------------------------------------
    def fleet_rate(self) -> float:
        """Aggregate cells/s of the fleet (Ω-window estimates)."""
        rates = self.master.history.known_rates()
        total = sum(rate for rate in rates.values() if rate > 0)
        return total if total > 0 else self.config.default_rate

    def backlog_seconds(self) -> float:
        """Estimated seconds of queued + in-flight work; 0 if unknown."""
        rate = self.fleet_rate()
        if rate <= 0:
            return 0.0
        return (self.queue.queued_cells + self._inflight_cells) / rate

    def _retry_after(self, hint: float | None = None) -> float:
        if hint is None:
            hint = self.backlog_seconds() / 2.0
        return min(
            self.config.max_retry_after,
            max(self.config.min_retry_after, hint),
        )

    def _journal_call(self, method: str, *args, **kwargs) -> None:
        if self.journal is None:
            return
        hook = getattr(self.journal, method, None)
        if hook is not None:
            hook(*args, **kwargs)

    # ------------------------------------------------------------------
    # SLO admission model
    # ------------------------------------------------------------------
    def _error_quantile(self, tenant: str) -> float:
        """Observed actual/predicted ratio at the configured quantile.

        Until a handful of completions calibrate the model the raw
        prediction is trusted as-is (factor 1.0) — early conservatism
        would shed below saturation, exactly what the adaptive gate
        must not do.
        """
        samples = self._errors.get(tenant)
        if samples is None or len(samples) < 4:
            return 1.0
        ordered = sorted(samples)
        rank = max(
            0,
            min(
                len(ordered) - 1,
                int(self.config.slo_quantile * len(ordered) + 0.5) - 1,
            ),
        )
        return max(ordered[rank], 1.0)

    def predicted_completion(
        self, tenant: str, cells: int
    ) -> float | None:
        """Predicted p99 seconds until a *cells*-sized request finishes.

        Backlog (queued + in-flight + the candidate itself) over the
        fleet-rate EWMA, inflated by the tenant's observed prediction-
        error quantile.  ``None`` while no rate estimate exists (the
        gate is skipped, mirroring the static gate's warm-up).
        """
        rate = self._rate_ewma if self._rate_ewma else self.fleet_rate()
        if rate is None or rate <= 0:
            return None
        backlog = self.queue.queued_cells + self._inflight_cells + cells
        return (backlog / rate) * self._error_quantile(tenant)

    def _observe_completion(
        self, request: ServiceRequest, now: float
    ) -> None:
        """Feed one completion into the EWMA and error window."""
        sample = self.fleet_rate()
        if sample > 0:
            alpha = self.config.ewma_alpha
            self._rate_ewma = (
                sample
                if self._rate_ewma is None
                else alpha * sample + (1 - alpha) * self._rate_ewma
            )
        predicted = self._predicted_at_admit.pop(
            request.request_id, None
        )
        actual = now - request.submitted_at
        if predicted is not None and predicted > 0 and actual > 0:
            window = self._errors.setdefault(
                request.tenant, deque(maxlen=self.config.error_window)
            )
            window.append(actual / predicted)

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def submit(
        self,
        tenant: str,
        query_id: str,
        query_length: int,
        cells: int,
        now: float,
        deadline: float | None = None,
        query_index: int = -1,
        request_id: str | None = None,
        query: dict | None = None,
    ) -> SubmitOutcome:
        """Admit or shed one request; refills the dispatch window.

        A client-supplied *request_id* makes resubmission idempotent:
        an id the service already admitted (in this incarnation or, via
        the journal, before a crash) is acknowledged again without a
        second admission — the retry key a reconnecting client needs
        after a master restart.  *query* is the inline payload
        (``{"id", "residues"}``) journaled with the admit record so a
        cold-restarted master can re-execute the request.
        """
        if request_id is not None and request_id in self.requests:
            return SubmitOutcome(accepted=True, request_id=request_id)
        if deadline is None and self.config.default_deadline is not None:
            deadline = now + self.config.default_deadline
        if self.draining:
            return self._shed(tenant, "draining", now, retry_after=None)
        if self.config.admission == "slo" and deadline is not None:
            predicted = self.predicted_completion(tenant, cells)
            if predicted is not None:
                self._inst.predicted_p99.labels(tenant=tenant).set(
                    predicted
                )
                if now + predicted > deadline:
                    overshoot = (now + predicted) - deadline
                    return self._shed(
                        tenant, "slo", now, self._retry_after(overshoot)
                    )
        elif (
            self.config.max_backlog_seconds > 0
            and self.backlog_seconds() > self.config.max_backlog_seconds
        ):
            return self._shed(tenant, "backlog", now, self._retry_after())
        task = Task(
            task_id=self._next_task_id,
            query_id=query_id,
            query_length=query_length,
            cells=cells,
            query_index=query_index,
        )
        if request_id is None:
            self._seq += 1
            request_id = f"{tenant}-{self._seq}"
            while request_id in self.requests:
                self._seq += 1
                request_id = f"{tenant}-{self._seq}"
        request = ServiceRequest(
            request_id=request_id,
            tenant=tenant,
            task=task,
            submitted_at=now,
            deadline=deadline,
        )
        if not self.queue.offer(tenant, request):
            return self._shed(tenant, "queue_full", now, self._retry_after())
        self._next_task_id += 1
        self.requests[request.request_id] = request
        self._by_task[task.task_id] = request
        if (
            self.config.admission == "slo"
            and deadline is not None
        ):
            predicted = self.predicted_completion(tenant, 0)
            if predicted is not None:
                self._predicted_at_admit[request.request_id] = predicted
        self._journal_call(
            "on_service_admit",
            request.request_id, tenant, task.task_id, query_id,
            query_length, cells, now,
            deadline=deadline, query=query,
        )
        self._inst.requests.labels(tenant=tenant, outcome="admitted").inc()
        self.master.events.emit(
            "submit", now, pe="service",
            request_id=request.request_id, tenant=tenant, task=task.task_id,
        )
        self._refill(now)
        self._sync_gauges()
        return SubmitOutcome(accepted=True, request_id=request.request_id)

    def _shed(
        self, tenant: str, reason: str, now: float,
        retry_after: float | None,
    ) -> SubmitOutcome:
        self._inst.requests.labels(tenant=tenant, outcome="shed").inc()
        self._inst.shed.labels(tenant=tenant, reason=reason).inc()
        self.master.events.emit(
            "shed", now, pe="service", tenant=tenant, reason=reason,
        )
        return SubmitOutcome(
            accepted=False, reason=reason, retry_after=retry_after,
        )

    def poll(self, request_id: str) -> ServiceRequest:
        """Current state of a request (KeyError for unknown ids)."""
        return self.requests[request_id]

    def results_for(self, request_id: str):
        """The winning hits of a ``done`` request (else ``None``)."""
        return self.requests[request_id].hits

    def cancel(self, request_id: str, now: float) -> TickActions:
        """Client-initiated cancel; returns executions to interrupt."""
        request = self.requests[request_id]
        if request.state in ("done", "expired", "cancelled"):
            return TickActions()
        return self._retire(request, "cancelled", now)

    def drain(self, now: float) -> int:
        """Stop admission; returns outstanding (queued + running) count.

        Idempotent.  Once the last outstanding request retires (seen by
        :meth:`tick`), ``master.serving`` flips off and every
        environment's workers run to completion naturally.
        """
        if not self.draining:
            self.draining = True
            self._inst.draining.set(1.0)
            self._journal_call("on_service_drain", now)
            self.master.events.emit("drain", now, pe="service")
        outstanding = self._check_drained(now)
        self._sync_gauges()
        return outstanding

    # ------------------------------------------------------------------
    # Cold-restart recovery
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        master: Master,
        store,
        recovered,
        config: ServiceConfig | None = None,
        *,
        now: float = 0.0,
        query_index_of=None,
        wall_now: float | None = None,
    ):
        """The one service-open step of every environment.

        Takes what :func:`~repro.durability.open_master` returned: with
        a journal *store* the service cold-restarts through
        :meth:`recover` (master results first, so finished requests
        readopt their journaled hits), without one it starts empty.
        """
        if store is None:
            return cls(master, config)
        return cls.recover(
            master,
            store,
            config,
            now=now,
            results={r.task_id: r for r in recovered.results()},
            query_index_of=query_index_of,
            wall_now=wall_now,
        )

    @classmethod
    def recover(
        cls,
        master: Master,
        store,
        config: ServiceConfig | None = None,
        now: float = 0.0,
        results: dict[int, TaskResult] | None = None,
        query_index_of=None,
        wall_now: float | None = None,
    ):
        """Rebuild a killed service master's admission state from disk.

        *store* is the :class:`~repro.durability.CheckpointStore` the
        dead process journaled into (already ``open()``-ed and, for the
        master journal, ``restore_into()``-ed).  *results* maps task id
        to the :class:`TaskResult` the master journal recovered — a
        request the service journal marks ``done`` keeps those hits
        byte-for-byte.  A ``done`` record whose result never reached
        the master journal (the crash fell between the two appends) is
        downgraded to ``running`` and re-executed — deterministic
        search makes the recomputed hits identical.  *query_index_of*
        maps a folded admit record back to the environment's query
        index (re-registering inline payloads as it goes); it is only
        consulted for requests that still need to run.

        Queued and running requests re-enter the fair queue with their
        original deadlines (``force=True`` — they were already
        admitted once).  Requests whose deadline passed during the
        outage are cancelled loudly (outcome ``expired``, event reason
        ``expired_during_outage``) rather than silently dropped.

        Journaled timestamps live in the *dead* incarnation's clock
        domain.  A real-time environment whose monotonic clock restarts
        at zero passes ``wall_now`` (its current ``time.time()``): each
        record's wall anchor then re-expresses ``submitted_at`` and the
        deadline in the new clock, so outage time counts against the
        original deadline budget.  The DES shares one virtual clock
        across incarnations and omits it.
        """
        state = store.open_service()
        core = cls(master, config, journal=store)
        results = results or {}
        counts = {
            "restored": 0, "readmitted": 0, "expired": 0, "terminal": 0,
        }
        max_seq = 0
        max_task = max(master.pool.task_ids(), default=-1)
        for rec in state.requests:
            request_id = rec["request_id"]
            tenant = rec["tenant"]
            prefix, _, tail = request_id.rpartition("-")
            if prefix == tenant and tail.isdigit():
                max_seq = max(max_seq, int(tail))
            result = results.get(rec["task"])
            rstate = rec["state"]
            if rstate == "done" and result is None:
                # The crash fell between the service journal's
                # ``complete`` append and the master journal's result
                # record: the hits are gone, so re-execute — the search
                # is deterministic, the recomputed hits identical.
                rstate = "running"
            query_index = -1
            if query_index_of is not None and rstate in (
                "queued", "running"
            ):
                query_index = query_index_of(rec)
            task = Task(
                task_id=rec["task"],
                query_id=rec["query_id"],
                query_length=rec["query_length"],
                cells=rec["cells"],
                query_index=query_index,
            )
            max_task = max(max_task, task.task_id)
            submitted_at = rec["submitted_at"]
            deadline = rec["deadline"]
            if wall_now is not None and rec.get("wall") is not None:
                age = max(0.0, wall_now - float(rec["wall"]))
                if deadline is not None:
                    deadline = (now - age) + (deadline - submitted_at)
                submitted_at = now - age
            request = ServiceRequest(
                request_id=request_id,
                tenant=tenant,
                task=task,
                submitted_at=submitted_at,
                deadline=deadline,
            )
            core.requests[request_id] = request
            if rstate == "done":
                if task.task_id not in master.pool:
                    master.pool.add(task)
                    master.restore_result(result, now)
                request.state = "done"
                request.dispatched_at = rec["dispatched_at"]
                request.finished_at = rec["finished_at"]
                request.hits = result.payload
                counts["restored"] += 1
            elif rstate in ("queued", "running"):
                if request.deadline is not None and request.deadline <= now:
                    request.state = "expired"
                    request.finished_at = now
                    core._journal_call(
                        "on_service_retire", request_id, "expired", now
                    )
                    core._inst.requests.labels(
                        tenant=tenant, outcome="expired"
                    ).inc()
                    core._inst.deadline_misses.labels(tenant=tenant).inc()
                    master.events.emit(
                        "expired", now, pe="service",
                        request_id=request_id, tenant=tenant,
                        task=task.task_id,
                        reason="expired_during_outage",
                    )
                    counts["expired"] += 1
                else:
                    core.queue.offer(tenant, request, force=True)
                    core._by_task[task.task_id] = request
                    counts["readmitted"] += 1
            else:
                request.state = rstate
                request.dispatched_at = rec["dispatched_at"]
                request.finished_at = rec["finished_at"]
                counts["terminal"] += 1
        core._seq = max(core._seq, max_seq)
        core._next_task_id = max_task + 1
        if state.draining:
            core.draining = True
            core._inst.draining.set(1.0)
        for disposition, count in counts.items():
            if count:
                core._inst.recovered.labels(
                    disposition=disposition
                ).inc(count)
        if state.requests or state.draining:
            # A fresh store recovers nothing — no event noise then.
            master.events.emit(
                "service_recovery", now, pe="service",
                draining=state.draining, torn_tail=state.torn_tail,
                **counts,
            )
        core._refill(now)
        core._check_drained(now)
        core._sync_gauges()
        return core

    # ------------------------------------------------------------------
    # Periodic maintenance (environment-driven)
    # ------------------------------------------------------------------
    def tick(self, now: float) -> TickActions:
        """Finalize completions, expire deadlines, refill the window.

        Order matters: completions are finalized *before* deadlines are
        checked, so a result that beat the deadline stands — abandoning
        it would discard real work, the exact waste the service exists
        to avoid.
        """
        actions = self._finalize(now)
        actions = actions.merge(self._expire(now))
        self._refill(now)
        self._check_drained(now)
        self._sync_gauges()
        retired, self._refill_retired = self._refill_retired, []
        return actions.merge(TickActions(retired=tuple(retired)))

    def _finalize(self, now: float) -> TickActions:
        retired: list[int] = []
        for task_id in list(self._by_task):
            if task_id not in self.master.results:
                continue
            request = self._by_task.pop(task_id)
            if request.state != "running":
                continue  # pragma: no cover - completion raced a retire
            result = self.master.results[task_id]
            request.state = "done"
            request.finished_at = now
            request.hits = result.payload
            self._inflight_cells -= request.task.cells
            retired.append(task_id)
            self._observe_completion(request, now)
            self._journal_call(
                "on_service_retire", request.request_id, "done", now
            )
            self._inst.requests.labels(
                tenant=request.tenant, outcome="done"
            ).inc()
            self._inst.latency.labels(tenant=request.tenant).observe(
                now - request.submitted_at
            )
        return TickActions(retired=tuple(retired))

    def _expire(self, now: float) -> TickActions:
        actions = TickActions()
        # ``_by_task`` holds exactly the outstanding requests, in
        # admission order: a tick costs O(outstanding), not O(admitted).
        expired = [
            request
            for request in self._by_task.values()
            if request.state in ("queued", "running")
            and request.deadline is not None
            and request.deadline <= now
        ]
        for request in expired:
            actions = actions.merge(self._retire(request, "expired", now))
        return actions

    def _retire(
        self, request: ServiceRequest, outcome: str, now: float
    ) -> TickActions:
        """Take a queued/running request out of the system."""
        cancels: tuple[tuple[str, int], ...] = ()
        if request.state == "queued":
            self.queue.remove(request)
            self._by_task.pop(request.task.task_id, None)
        elif request.state == "running":
            executors = self.master.abandon(
                request.task.task_id, now=now, reason=outcome
            )
            cancels = tuple(
                (pe_id, request.task.task_id) for pe_id in executors
            )
            self._inflight_cells -= request.task.cells
            self._by_task.pop(request.task.task_id, None)
        request.state = outcome
        request.finished_at = now
        self._predicted_at_admit.pop(request.request_id, None)
        self._journal_call(
            "on_service_retire", request.request_id, outcome, now
        )
        self._inst.requests.labels(
            tenant=request.tenant, outcome=outcome
        ).inc()
        if outcome == "expired":
            self._inst.deadline_misses.labels(tenant=request.tenant).inc()
        self.master.events.emit(
            outcome, now, pe="service",
            request_id=request.request_id, tenant=request.tenant,
            task=request.task.task_id,
        )
        return TickActions(
            cancels=cancels, retired=(request.task.task_id,)
        )

    def _refill(self, now: float) -> None:
        """Dispatch queued requests while the window has room.

        Requests already past their deadline are retired here instead
        of dispatched — a task for an expired request would be computed
        for nobody.
        """
        while self.master.pool.num_ready < self.config.dispatch_window:
            request = self.queue.pop()
            if request is None:
                return
            if request.deadline is not None and request.deadline <= now:
                # Already out of the fair queue: mark running=False path
                # directly rather than via _retire's queue.remove.
                self._by_task.pop(request.task.task_id, None)
                self._refill_retired.append(request.task.task_id)
                request.state = "expired"
                request.finished_at = now
                self._predicted_at_admit.pop(request.request_id, None)
                self._journal_call(
                    "on_service_retire", request.request_id,
                    "expired", now,
                )
                self._inst.requests.labels(
                    tenant=request.tenant, outcome="expired"
                ).inc()
                self._inst.deadline_misses.labels(
                    tenant=request.tenant
                ).inc()
                self.master.events.emit(
                    "expired", now, pe="service",
                    request_id=request.request_id, tenant=request.tenant,
                    task=request.task.task_id,
                )
                continue
            request.state = "running"
            request.dispatched_at = now
            self._inflight_cells += request.task.cells
            self._journal_call(
                "on_service_dispatch", request.request_id, now
            )
            self.master.add_tasks(
                [request.task], now=now, tenant=request.tenant
            )

    def _check_drained(self, now: float) -> int:
        if not self.draining:
            return 0
        outstanding = len(self.queue) + sum(
            1 for r in self.requests.values() if r.state == "running"
        )
        if self.draining and outstanding == 0 and not self.drained:
            self.drained = True
            self.master.serving = False
            self._journal_call("on_service_drain_complete", now)
            self.master.events.emit("drain_complete", now, pe="service")
        return outstanding

    def _sync_gauges(self) -> None:
        for tenant in self.queue.tenants():
            self._inst.queue_depth.labels(tenant=tenant).set(
                self.queue.depth(tenant)
            )
        self._inst.backlog_seconds.set(self.backlog_seconds())

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Requests by state (for status RPCs and final records)."""
        counts = {state: 0 for state in REQUEST_STATES}
        for request in self.requests.values():
            counts[request.state] += 1
        return counts

    def final_record(self, now: float) -> dict:
        """The summary a draining service emits before exiting."""
        return {
            "kind": "service_final",
            "time": now,
            "draining": self.draining,
            "drained": self.drained,
            "requests": self.counts(),
            "backlog_seconds": self.backlog_seconds(),
        }
