"""The wall-clock master side of Fig. 4, written once.

All real-environment traffic reaches the master through one
:class:`SharedMaster` (its lock plays the role of the network): the
threaded runtime and the threaded service call it in process, the TCP
server calls it per decoded frame.  Like the DES's simulation object,
it owns the clock and the periodic work (heartbeat reaping and the
service backstop tick, each a :class:`Periodic` thread), so the
environments only move messages.  With a
:class:`~repro.service.core.ServiceCore` it is also the service's one
front door: the client operations, the payload store of admitted
queries and the tick rule live here.
"""

from __future__ import annotations

import threading
import time

from ..faults import FaultInjector, MasterCrashed
from .master import Assignment, Master
from .results import merge_hits
from .task import TaskResult

__all__ = ["Periodic", "SharedMaster"]

#: The service backstop tick.  Completions finalize on ``complete`` and
#: the dispatch window refills on ``request``; this tick only bounds how
#: late a deadline expires (or a drain completes) when no slave traffic
#: arrives, e.g. while every worker is busy.
_TICK_SECONDS = 0.05


class Periodic:
    """Call ``fn()`` every *period* seconds on a daemon thread.

    The thread ends once ``fn`` returns a true value or :meth:`stop` is
    called; :meth:`stop` also joins it.
    """

    def __init__(self, period: float, fn, name: str):
        self._period = period
        self._fn = fn
        self._halt = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name=name, daemon=True
        )

    def start(self) -> "Periodic":
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._halt.wait(self._period):
            if self._fn():
                return

    def stop(self) -> None:
        self._halt.set()
        if self._thread.ident is not None:
            self._thread.join()


class SharedMaster:
    """Lock-guarded facade over :class:`Master` on a wall *clock*.

    Protocol rules it owns:

    * a PE the master reaped while it was still alive simply rejoins on
      its next contact, under the next attempt id (its released tasks
      are already back in the ready queue);
    * per-PE pending cancellations — losers of a replica race and
      service cancels/expiries — are handed to the PE on its next call,
      exactly as the wire ``ack``/``assign`` replies carry them;
    * with a *service*, the tick rule: the dispatch window refills
      before every ``request``, completions finalize after every
      ``complete``, and each tick's cancels and retirements are applied
      here (a retired request's query payload is dropped).

    The lock is re-entrant so callers can bracket several facade calls
    (plus their own bookkeeping) in one critical section, and
    :meth:`wait_until` blocks on a condition over it.

    ``crash_at`` arms the plan's master-crash fault: once the clock
    passes it, every interaction with the master raises
    :class:`MasterCrashed` — from the slaves' point of view the master
    simply stops answering, exactly like a killed process.  Only the
    journal (written before the crash fired) survives.
    """

    def __init__(
        self,
        master: Master,
        clock,
        *,
        service=None,
        heartbeat: float | None = None,
        crash_at: float | None = None,
        injector: FaultInjector | None = None,
        top: int = 10,
        database_residues: int = 0,
    ):
        self.master = master
        self.clock = clock
        self.lock = threading.RLock()
        self._changed = threading.Condition(self.lock)
        self._attempts: dict[str, int] = {}
        self._cancels: dict[str, set[int]] = {}
        self._crash_at = crash_at
        self._injector = injector
        self.crashed = False
        #: Reap slaves silent for this many seconds (``None``/0: never).
        self.heartbeat = heartbeat
        self.service = service
        #: Ranked-hit cutoff of :meth:`result` — the one-shot search's
        #: ``top``, so served results stay byte-identical.
        self.top = top
        #: Admission cost is query length x this.
        self.database_residues = database_residues
        #: ``{"id", "residues"}`` of every unfinished service-admitted
        #: task, keyed by task id: no indexed file holds these queries,
        #: so they travel with the assignment.
        self.queries: dict[int, dict] = {}
        self._periodic: list[Periodic] = []

    # ------------------------------------------------------------------
    # Internals (caller holds the lock)
    # ------------------------------------------------------------------
    def _check_crash(self, now: float) -> None:
        if self._crash_at is None:
            return
        if not self.crashed and now >= self._crash_at:
            self.crashed = True
            self._changed.notify_all()
            if self._injector is not None:
                self._injector.record("master_crash", time=now)
        if self.crashed:
            raise MasterCrashed(self._crash_at)

    def _contact(self, pe_id: str, now: float) -> None:
        """Crash check + re-register-on-contact."""
        self._check_crash(now)
        if not self.master.is_registered(pe_id):
            attempt = self._attempts.get(pe_id, 0) + 1
            self._attempts[pe_id] = attempt
            self.master.register(pe_id, now, attempt=attempt)

    def _handover(self, pe_id: str) -> list[int]:
        """Pop the PE's pending cancellations."""
        pending = self._cancels.pop(pe_id, None)
        return sorted(pending) if pending else []

    def _add_cancels(self, cancels) -> None:
        """Queue ``(pe_id, task_id)`` cancellations for delivery."""
        for pe_id, task_id in cancels:
            self._cancels.setdefault(pe_id, set()).add(task_id)

    def _apply(self, actions) -> None:
        """Carry out a service tick's cancels and retirements."""
        self._add_cancels(actions.cancels)
        for task_id in actions.retired:
            self.queries.pop(task_id, None)
        self._changed.notify_all()

    def _tick(self, now: float) -> None:
        if self.service is not None:
            self._apply(self.service.tick(now))

    def _core(self):
        if self.service is None:
            raise RuntimeError("this master does not run a service")
        return self.service

    # ------------------------------------------------------------------
    # Periodic work and waiting
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start heartbeat reaping and the service backstop tick."""
        if self.heartbeat:
            self._periodic.append(
                Periodic(max(self.heartbeat / 4, 0.01), self.reap, "reaper")
            )
        if self.service is not None:
            self._periodic.append(
                Periodic(_TICK_SECONDS, self.tick, "service-tick")
            )
        for periodic in self._periodic:
            periodic.start()

    def stop(self) -> None:
        """Stop (and join) the periodic work."""
        while self._periodic:
            self._periodic.pop().stop()

    def reap(self) -> bool:
        """One heartbeat sweep; True once nothing is left to reap."""
        with self.lock:
            if self.master.finished:
                return True
            now = self.clock()
            try:
                self._check_crash(now)
            except MasterCrashed:
                return True
            self.master.reap_silent(now, self.heartbeat)
            self._changed.notify_all()
            return False

    def tick(self) -> bool:
        """One service tick; True once the service has drained."""
        with self.lock:
            if self.crashed:
                return True
            self._tick(self.clock())
            return self.service.drained

    def wait_until(self, predicate, timeout: float) -> bool:
        """Block until ``predicate()`` holds; False after *timeout* s.

        The predicate is evaluated under the lock, and re-evaluated
        whenever a ``complete``, ``cancelled``, reap, tick, drain,
        client cancel or crash changed the master's state.
        """
        with self._changed:
            return bool(self._changed.wait_for(predicate, timeout))

    def crash(self) -> None:
        """Fire the master-crash fault now (hard-kill simulation)."""
        self.stop()
        with self.lock:
            self._crash_at = -1.0
            self.crashed = True
            self._changed.notify_all()

    @property
    def finished(self) -> bool:
        with self.lock:
            return self.master.finished

    @property
    def drained(self) -> bool:
        """A drain completed and the workload finished."""
        with self.lock:
            return self._core().drained and self.master.finished

    # ------------------------------------------------------------------
    # Slave side
    # ------------------------------------------------------------------
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

    def request(
        self, pe_id: str, now: float
    ) -> tuple[Assignment, list[int], dict[int, dict]]:
        """Grant work; also the query payloads of granted service tasks."""
        with self.lock:
            self._contact(pe_id, now)
            self._tick(now)
            assignment = self.master.on_request(pe_id, now)
            queries = {
                t.task_id: self.queries[t.task_id]
                for t in (*assignment.tasks, *assignment.replicas)
                if t.query_index < 0 and t.task_id in self.queries
            }
            return assignment, self._handover(pe_id), queries

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
            self._add_cancels((loser, result.task_id) for loser in losers)
            self._tick(now)
            self._changed.notify_all()
            return self._handover(pe_id)

    def cancelled(self, pe_id: str, task_id: int, now: float) -> list[int]:
        with self.lock:
            self._contact(pe_id, now)
            self.master.on_cancelled(pe_id, task_id, now)
            self._changed.notify_all()
            return self._handover(pe_id)

    # ------------------------------------------------------------------
    # Service front door (every call needs a service)
    # ------------------------------------------------------------------
    def open_service(self, store, recovered, config=None):
        """Recover or start the service on this facade.

        Wraps :meth:`ServiceCore.open
        <repro.service.core.ServiceCore.open>`: a journaled request that
        still has to run gets its inline query payload back in
        :attr:`queries`.
        """
        from ..service.core import ServiceCore

        self.service = ServiceCore.open(
            self.master,
            store,
            recovered,
            config,
            query_index_of=self._recover_query,
            wall_now=time.time(),
        )
        return self.service

    def _recover_query(self, record: dict) -> int:
        payload = record.get("query")
        if payload is not None:
            self.queries[int(record["task"])] = {
                "id": str(payload["id"]),
                "residues": str(payload["residues"]),
            }
        return -1

    def submit(
        self,
        tenant: str,
        query_id: str,
        residues: str,
        deadline: float | None = None,
        request_id: str | None = None,
    ):
        """Admit a query for *tenant*; ``deadline`` is seconds from now.

        A client-supplied *request_id* makes the call idempotent —
        resubmitting an id the service already admitted (including one
        recovered from the journal after a restart) acknowledges the
        original admission instead of creating a duplicate.
        """
        payload = {"id": query_id, "residues": residues}
        with self.lock:
            core = self._core()
            now = self.clock()
            outcome = core.submit(
                tenant=tenant,
                query_id=query_id,
                query_length=len(residues),
                cells=len(residues) * self.database_residues,
                now=now,
                deadline=None if deadline is None else now + deadline,
                request_id=request_id,
                query=payload,
            )
            if outcome.accepted:
                request = core.requests[outcome.request_id]
                if request.state in ("queued", "running"):
                    self.queries.setdefault(request.task.task_id, payload)
            return outcome

    def poll(self, request_id: str):
        """The request's :class:`ServiceRequest` (KeyError if unknown)."""
        with self.lock:
            return self._core().poll(request_id)

    def result(self, request_id: str):
        """Ranked hits of a ``done`` request (``None`` otherwise)."""
        with self.lock:
            hits = self._core().results_for(request_id)
        if hits is None:
            return None
        return merge_hits([hits], top=self.top)

    def cancel(self, request_id: str):
        """Client cancel; the request afterwards (KeyError if unknown)."""
        with self.lock:
            core = self._core()
            self._apply(core.cancel(request_id, self.clock()))
            return core.requests[request_id]

    def drain(self) -> int:
        """Stop admission; returns the outstanding request count."""
        with self.lock:
            core = self._core()
            now = self.clock()
            outstanding = core.drain(now)
            self._apply(core.tick(now))
            return outstanding

    def final_record(self) -> dict:
        """The service's exit summary (``service_final``)."""
        with self.lock:
            return self._core().final_record(self.clock())
