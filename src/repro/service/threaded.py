"""In-process always-on search service (threaded environment).

The service analogue of :class:`~repro.core.runtime.HybridRuntime`:
the same worker threads running the one slave loop
(:func:`repro.core.slave.serve`) through an in-process link to the same
master facade, :class:`~repro.core.shared.SharedMaster`, but the
workload arrives over :meth:`ThreadedSearchService.submit` while the
workers run, instead of being preloaded.  The facade is the service's
front door (the TCP server uses the very same one): it admits, ticks
the :class:`ServiceCore`, hands the admitted queries to the workers
and drops them as requests retire.

Results for admitted requests are byte-identical to the one-shot
:class:`~repro.core.runtime.HybridRuntime` path: one task per request
against the whole database, ranked by the same
:func:`~repro.core.results.merge_hits`.
"""

from __future__ import annotations

import time

from ..align.api import SearchHit
from ..core.engines import Engine
from ..core.policies import AllocationPolicy, PackageWeightedSelfScheduling
from ..core.runtime import WorkerThread, start_workers
from ..core.shared import SharedMaster
from ..durability import CheckpointStore, open_master
from ..sequences.database import SequenceDatabase
from ..sequences.records import Sequence
from .core import ServiceConfig, ServiceRequest, SubmitOutcome

__all__ = ["ThreadedSearchService"]


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
        checkpoint_dir: "str | CheckpointStore | None" = None,
    ):
        if not engines:
            raise ValueError("at least one engine is required")
        self.engines = dict(engines)
        self.database = database
        self._start_time = time.perf_counter()
        self.master, self._store, recovered = open_master(
            [],
            checkpoint_dir,
            policy=policy or PackageWeightedSelfScheduling(),
            adjustment=adjustment,
            omega=omega,
        )
        self.shared = SharedMaster(
            self.master, self._clock,
            top=top, database_residues=database.total_residues,
        )
        # Cold restart: master results first (so finished requests can
        # readopt their journaled hits), then the service journal
        # rebuilds queues and re-admits unfinished work.
        self.core = self.shared.open_service(self._store, recovered, config)
        self._workers: list[WorkerThread] = []
        self._started = False
        self._closed = False

    def _clock(self) -> float:
        return time.perf_counter() - self._start_time

    def start(self) -> "ThreadedSearchService":
        if self._started:
            return self
        self._started = True
        self._workers = start_workers(
            self.shared, self.engines, [self.database]
        )
        self.shared.start()
        return self

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
        """Admit *query* for *tenant* (see :meth:`SharedMaster.submit`)."""
        if not self._started or self._closed:
            raise RuntimeError("service is not running")
        return self.shared.submit(
            tenant, query.id, query.residues,
            deadline=deadline, request_id=request_id,
        )

    def poll(self, request_id: str) -> ServiceRequest:
        return self.shared.poll(request_id)

    def result(self, request_id: str) -> tuple[SearchHit, ...] | None:
        """Ranked hits of a ``done`` request (``None`` otherwise).

        Identical ranking to the one-shot runtime: the winning task's
        payload through :func:`merge_hits` with the service's ``top``.
        """
        return self.shared.result(request_id)

    def wait(
        self, request_id: str, timeout: float = 60.0
    ) -> ServiceRequest:
        """Block until *request_id* reaches a terminal state."""
        request = self.poll(request_id)
        if not self.shared.wait_until(
            lambda: request.state in ("done", "expired", "cancelled"),
            timeout,
        ):
            raise TimeoutError(
                f"request {request_id} still {request.state!r} "
                f"after {timeout}s"
            )
        return request

    def cancel(self, request_id: str) -> None:
        self.shared.cancel(request_id)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout: float = 60.0) -> dict:
        """Stop admission, finish in-flight work, return a final record.

        Returns once every outstanding request has retired and the
        worker threads have exited (the drained master reports *done*
        to their next poll).
        """
        limit = time.perf_counter() + timeout
        self.shared.drain()
        if not self.shared.wait_until(lambda: self.shared.drained, timeout):
            raise TimeoutError("drain did not complete in time")
        for worker in self._workers:
            worker.join(timeout=max(0.0, limit - time.perf_counter()))
        return self.shared.final_record()

    def crash(self) -> None:
        """Hard-kill simulation for chaos tests: no drain, no farewell.

        Arms the :class:`~repro.faults.MasterCrashed` fault on the
        shared facade — its periodic work stops and workers see a dead
        master and exit — then closes the journal handles.  With the
        default ``sync_every=1`` every acknowledged admission is already
        on disk, so what remains is exactly the state a ``kill -9``
        leaves behind; a new :class:`ThreadedSearchService` pointed at
        the same ``checkpoint_dir`` cold-restarts from it.
        """
        if self._closed:
            return
        self._closed = True
        self.shared.crash()
        self._shutdown(raise_errors=False)

    def close(self) -> None:
        """Drain (if not already) and stop the periodic work."""
        if self._closed:
            return
        self._closed = True
        if self._started and not self.core.drained:
            self.drain()
        self.shared.stop()
        self._shutdown(raise_errors=True)

    def _shutdown(self, raise_errors: bool) -> None:
        for worker in self._workers:
            worker.join(timeout=5.0)
            if raise_errors and worker.error is not None:
                raise worker.error
        if self._store is not None:
            self._store.close()
            self._store = None

    def __enter__(self) -> "ThreadedSearchService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
