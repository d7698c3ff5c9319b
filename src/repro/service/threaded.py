"""In-process always-on search service (threaded environment).

The service analogue of :class:`~repro.core.runtime.HybridRuntime`:
the same worker threads running the one slave loop
(:func:`repro.core.slave.serve`) through an in-process link to the same
lock-guarded master facade, but the workload arrives over
:meth:`ThreadedSearchService.submit` while the workers run, instead of
being preloaded.  A ticker thread drives :meth:`ServiceCore.tick` so
completions finalize, deadlines expire (queueing cancellations on the
facade, which hands them to the executing workers exactly like the
losers of a replica race) and the dispatch window refills.

Results for admitted requests are byte-identical to the one-shot
:class:`~repro.core.runtime.HybridRuntime` path: one task per request
against the whole database, ranked by the same
:func:`~repro.core.results.merge_hits`.
"""

from __future__ import annotations

import threading
import time

from ..align.api import SearchHit
from ..core.engines import Engine
from ..core.policies import AllocationPolicy, PackageWeightedSelfScheduling
from ..core.results import merge_hits
from ..core.runtime import _LocalLink, _SharedMaster, _Worker
from ..durability import open_master
from ..sequences.database import SequenceDatabase
from ..sequences.records import Sequence
from .core import ServiceConfig, ServiceCore, ServiceRequest, SubmitOutcome

__all__ = ["ThreadedSearchService"]

_TICK_SECONDS = 0.005
_WAIT_SECONDS = 0.002


class ThreadedSearchService:
    """A long-running search front door over worker threads.

    Usage::

        service = ThreadedSearchService(engines, database).start()
        outcome = service.submit("tenant-a", query, deadline=5.0)
        hits = service.wait(outcome.request_id)
        service.drain()
        service.close()
    """

    def __init__(
        self,
        engines: dict[str, Engine],
        database: SequenceDatabase,
        policy: AllocationPolicy | None = None,
        adjustment: bool = True,
        omega: int = 8,
        config: ServiceConfig | None = None,
        top: int = 10,
        tick_interval: float = _TICK_SECONDS,
        checkpoint_dir: str | None = None,
        checkpoint_sync_every: int = 1,
        checkpoint_compact_every: int = 0,
    ):
        if not engines:
            raise ValueError("at least one engine is required")
        if tick_interval <= 0:
            raise ValueError("tick_interval must be positive")
        self.engines = dict(engines)
        self.database = database
        self.top = top
        self.tick_interval = tick_interval
        self._start_time = time.perf_counter()
        self.master, self._store, recovered = open_master(
            [],
            checkpoint_dir,
            sync_every=checkpoint_sync_every,
            compact_every=checkpoint_compact_every,
            policy=policy or PackageWeightedSelfScheduling(),
            adjustment=adjustment,
            omega=omega,
        )
        #: Growing query catalog; task.query_index points into it.  New
        #: entries are appended *before* the task becomes visible (the
        #: submit happens under the master lock), so workers never see
        #: an index they cannot resolve.
        self.queries: list[Sequence] = []
        # Cold restart: master results first (so finished requests can
        # readopt their journaled hits), then the service journal
        # rebuilds queues and re-admits unfinished work.
        self.core = ServiceCore.open(
            self.master,
            self._store,
            recovered,
            config,
            query_index_of=self._recover_query,
            wall_now=time.time(),
        )
        self.shared = _SharedMaster(self.master)
        self._workers: list[_Worker] = []
        self._ticker: threading.Thread | None = None
        self._ticker_stop = threading.Event()
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    def _clock(self) -> float:
        return time.perf_counter() - self._start_time

    def _recover_query(self, record: dict) -> int:
        """Re-register a journaled inline query payload; its new index.

        Called by :meth:`ServiceCore.recover` for every request that
        still needs (re-)execution.  A record admitted without a
        payload cannot be re-run and keeps index ``-1`` — workers would
        fail on it, so such admits only happen journal-less.
        """
        payload = record.get("query")
        if payload is None:
            return -1
        self.queries.append(
            Sequence(payload["id"], payload["residues"])
        )
        return len(self.queries) - 1

    def start(self) -> "ThreadedSearchService":
        if self._started:
            return self
        self._started = True
        self._workers = [
            _Worker(
                _LocalLink(
                    pe_id, self.shared, self.queries,
                    chunk_offsets=[0], batch=1, clock=self._clock,
                ),
                engine,
                [self.database],
                self._clock,
            )
            for pe_id, engine in self.engines.items()
        ]
        for worker in self._workers:
            self.shared.register(worker.pe_id, self._clock())
        for worker in self._workers:
            worker.start()
        self._ticker = threading.Thread(
            target=self._tick_loop, name="service-ticker", daemon=True
        )
        self._ticker.start()
        return self

    def _tick_loop(self) -> None:
        while not self._ticker_stop.wait(self.tick_interval):
            with self.shared.lock:
                actions = self.core.tick(self._clock())
                self.shared.add_cancels(actions.cancels)
            if self.core.drained:
                return

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def submit(
        self,
        tenant: str,
        query: Sequence,
        deadline: float | None = None,
        request_id: str | None = None,
    ) -> SubmitOutcome:
        """Admit *query* for *tenant*; ``deadline`` is seconds from now.

        A client-supplied *request_id* makes the call idempotent —
        resubmitting an id the service already admitted (including one
        recovered from the journal after a restart) acknowledges the
        original admission instead of creating a duplicate.
        """
        if not self._started or self._closed:
            raise RuntimeError("service is not running")

        with self.shared.lock:
            if (
                request_id is not None
                and request_id in self.core.requests
            ):
                return SubmitOutcome(accepted=True, request_id=request_id)
            now = self._clock()
            self.queries.append(query)
            outcome = self.core.submit(
                tenant=tenant,
                query_id=query.id,
                query_length=len(query),
                cells=len(query) * self.database.total_residues,
                now=now,
                deadline=None if deadline is None else now + deadline,
                query_index=len(self.queries) - 1,
                request_id=request_id,
                query={"id": query.id, "residues": query.residues},
            )
            if not outcome.accepted:
                self.queries.pop()
            return outcome

    def poll(self, request_id: str) -> ServiceRequest:
        with self.shared.lock:
            return self.core.poll(request_id)

    def result(self, request_id: str) -> tuple[SearchHit, ...] | None:
        """Ranked hits of a ``done`` request (``None`` otherwise).

        Identical ranking to the one-shot runtime: the winning task's
        payload through :func:`merge_hits` with the service's ``top``.
        """
        with self.shared.lock:
            hits = self.core.results_for(request_id)
        if hits is None:
            return None
        return merge_hits([hits], top=self.top)

    def wait(
        self, request_id: str, timeout: float = 60.0
    ) -> ServiceRequest:
        """Block until *request_id* reaches a terminal state."""
        limit = time.perf_counter() + timeout
        while True:
            request = self.poll(request_id)
            if request.state in ("done", "expired", "cancelled"):
                return request
            if time.perf_counter() >= limit:
                raise TimeoutError(
                    f"request {request_id} still {request.state!r} "
                    f"after {timeout}s"
                )
            time.sleep(_WAIT_SECONDS)

    def cancel(self, request_id: str) -> None:
        with self.shared.lock:
            actions = self.core.cancel(request_id, self._clock())
            self.shared.add_cancels(actions.cancels)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout: float = 60.0) -> dict:
        """Stop admission, finish in-flight work, return a final record.

        Returns once every outstanding request has retired and the
        worker threads have exited (the drained master reports *done*
        to their next poll).
        """
        with self.shared.lock:
            self.core.drain(self._clock())
        limit = time.perf_counter() + timeout
        while not self.core.drained:
            if time.perf_counter() >= limit:
                raise TimeoutError("drain did not complete in time")
            time.sleep(_WAIT_SECONDS)
        for worker in self._workers:
            worker.join(timeout=max(0.0, limit - time.perf_counter()))
        with self.shared.lock:
            return self.core.final_record(self._clock())

    def crash(self) -> None:
        """Hard-kill simulation for chaos tests: no drain, no farewell.

        Arms the :class:`~repro.faults.MasterCrashed` fault on the
        shared facade — workers see a dead master and exit — then stops
        the ticker and closes the journal handles.  With the default
        ``sync_every=1`` every acknowledged admission is already on
        disk, so what remains is exactly the state a ``kill -9`` leaves
        behind; a new :class:`ThreadedSearchService` pointed at the
        same ``checkpoint_dir`` cold-restarts from it.
        """
        if self._closed:
            return
        self._closed = True
        self._ticker_stop.set()
        if self._ticker is not None:
            self._ticker.join()
        self.shared.crash()
        for worker in self._workers:
            worker.join(timeout=5.0)
        if self._store is not None:
            self._store.close()
            self._store = None

    def close(self) -> None:
        """Drain (if not already) and stop the ticker."""
        if self._closed:
            return
        self._closed = True
        if self._started and not self.core.drained:
            self.drain()
        self._ticker_stop.set()
        if self._ticker is not None:
            self._ticker.join()
        for worker in self._workers:
            worker.join(timeout=5.0)
            if worker.error is not None:
                raise worker.error
        if self._store is not None:
            self._store.close()
            self._store = None

    def __enter__(self) -> "ThreadedSearchService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
