"""The master as a TCP server.

Wraps :class:`repro.core.master.Master` behind a threaded socket server:
each slave keeps one persistent connection whose handler translates
wire messages into master calls.  Replica cancellations are delivered
by piggybacking on the acknowledgement of the loser's next ``progress``
or ``request`` message — the slave polls the master often (every engine
chunk), so cancellation latency is one chunk, the same granularity the
threaded runtime achieves.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time

from ..align.api import SearchHit
from ..core.master import Master, TraceEvent
from ..core.policies import AllocationPolicy, PackageWeightedSelfScheduling
from ..core.shared import SharedMaster
from ..core.task import Task, TaskResult
from ..durability import CheckpointStore, open_master
from ..observability import (
    EventLog,
    MetricsHTTPServer,
    MetricsRegistry,
    cluster_server_instruments,
    merge_into,
    status_from_snapshot,
)
from ..service.core import ServiceConfig, ServiceCore
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    check_protocol_version,
    decode_hit,
    encode_hit,
    encode_task,
    recv_message,
    send_message,
)

__all__ = ["MasterServer"]

class _Handler(socketserver.StreamRequestHandler):
    """One slave connection."""

    server: "MasterServer"

    def handle(self) -> None:  # noqa: C901 - protocol dispatch
        server = self.server
        server.inst.connections.inc()
        while True:
            try:
                message = recv_message(self.rfile)
            except ProtocolError as exc:
                server.inst.protocol_errors.inc()
                send_message(self.connection, {"type": "error",
                                               "message": str(exc)})
                return
            if message is None:
                return  # slave hung up
            kind = message.get("type")
            started = time.perf_counter()
            try:
                if not self._dispatch(server, message, kind):
                    return
            finally:
                # Master-side service time per message: recv done ->
                # reply written (the in-host half of the round trip).
                label = str(kind)
                server.inst.messages.labels(type=label).inc()
                server.inst.rpc_seconds.labels(type=label).observe(
                    time.perf_counter() - started
                )

    def _dispatch(self, server: "MasterServer", message: dict,
                  kind: object) -> bool:
        """Handle one message; False ends the connection."""
        shared = server.shared
        if kind == "register":
            try:
                check_protocol_version(message)
            except ProtocolError as exc:
                # A worker from another protocol generation: refuse it
                # at the handshake instead of mis-parsing its frames.
                server.inst.protocol_errors.inc()
                send_message(
                    self.connection,
                    {"type": "error", "message": str(exc)},
                )
                return False
            shared.register(
                str(message["pe_id"]), server.clock(),
                attempt=int(message.get("attempt", 0)),
            )
            # Echo the master's own version so a newer worker can tell
            # what it is talking to.
            reply = {
                "type": "ack", "cancel": [], "protocol": PROTOCOL_VERSION
            }
        elif kind == "request":
            pe_id = str(message["pe_id"])
            with shared.lock:
                assignment, cancel, queries = shared.request(
                    pe_id, server.clock()
                )
                # Span contexts of the granted executions, forwarded so
                # worker-side events join the same causal trace.
                spans = {}
                for t in (*assignment.tasks, *assignment.replicas):
                    context = server.master.execution_span(
                        pe_id, t.task_id
                    )
                    if context is not None:
                        spans[str(t.task_id)] = context.as_fields()
            reply = {
                "type": "assign",
                "tasks": [encode_task(t) for t in assignment.tasks],
                "replicas": [
                    encode_task(t) for t in assignment.replicas
                ],
                "done": assignment.done,
                "wait": assignment.empty,
                "cancel": cancel,
                "spans": spans,
                # Master-selected coalescing width: workers group
                # granted tasks into multi-query sweeps up to this
                # size (1 = execute singly).
                "batch": server.master.batch,
            }
            if queries:
                # Service-admitted tasks: no indexed file holds their
                # queries, so the residues travel inline (protocol 4).
                reply["queries"] = {
                    str(task_id): payload
                    for task_id, payload in queries.items()
                }
        elif kind == "progress":
            pe_id = str(message["pe_id"])
            server.ingest_worker_stats(pe_id, message.get("stats"))
            cancel = shared.progress(
                pe_id,
                server.clock(),
                float(message["cells"]),
                float(message["interval"]),
            )
            reply = {"type": "ack", "cancel": cancel}
        elif kind == "complete":
            pe_id = str(message["pe_id"])
            server.ingest_worker_stats(pe_id, message.get("stats"))
            result = TaskResult(
                task_id=int(message["task_id"]),
                pe_id=pe_id,
                elapsed=float(message["elapsed"]),
                cells=int(message["cells"]),
                payload=tuple(
                    decode_hit(h) for h in message.get("hits", [])
                ),
            )
            cancel = shared.complete(pe_id, result, server.clock())
            reply = {"type": "ack", "cancel": cancel}
        elif kind == "cancelled":
            cancel = shared.cancelled(
                str(message["pe_id"]), int(message["task_id"]),
                server.clock(),
            )
            reply = {"type": "ack", "cancel": cancel}
        elif kind in ("submit", "poll", "cancel", "drain"):
            if server.service is None:
                send_message(
                    self.connection,
                    {
                        "type": "error",
                        "message": "this master does not run a service "
                        "(start it with service=)",
                    },
                )
                return True
            return self._dispatch_service(server, message, kind)
        else:
            server.inst.protocol_errors.inc()
            send_message(
                self.connection,
                {"type": "error", "message": f"unknown type {kind!r}"},
            )
            return False
        send_message(self.connection, reply)
        return True

    def _dispatch_service(self, server: "MasterServer", message: dict,
                          kind: str) -> bool:
        """Client surface of the always-on service (protocol 4)."""
        shared = server.shared
        request_id = str(message.get("request_id", ""))
        if kind == "submit":
            query = message.get("query")
            if (
                not isinstance(query, dict)
                or not query.get("id")
                or not query.get("residues")
            ):
                server.inst.protocol_errors.inc()
                return self._error("submit needs query{id, residues}")
            deadline = message.get("deadline")
            given_id = message.get("request_id")
            outcome = shared.submit(
                str(message.get("tenant", "default")),
                str(query["id"]),
                str(query["residues"]),
                deadline=None if deadline is None else float(deadline),
                request_id=None if given_id is None else str(given_id),
            )
            reply = outcome.to_dict()
            reply["type"] = "accepted" if outcome.accepted else "rejected"
        elif kind == "drain":
            reply = {
                "type": "status",
                "state": "draining",
                "outstanding": shared.drain(),
            }
        else:  # poll / cancel
            with shared.lock:
                try:
                    if kind == "poll":
                        reply = shared.poll(request_id).to_dict()
                        hits = shared.result(request_id)
                        reply["hits"] = (
                            None if hits is None
                            else [encode_hit(h) for h in hits]
                        )
                    else:
                        reply = shared.cancel(request_id).to_dict()
                except KeyError:
                    return self._error(f"unknown request {request_id!r}")
            reply["type"] = "status"
            reply.setdefault("hits", None)  # a cancel reply has no hits
        send_message(self.connection, reply)
        return True

    def _error(self, text: str) -> bool:
        send_message(self.connection, {"type": "error", "message": text})
        return True


class MasterServer(socketserver.ThreadingTCPServer):
    """Threaded TCP master bound to ``(host, port)``.

    ``port=0`` picks a free port (see :attr:`address`).  Run with
    :meth:`start` (background thread) and stop with :meth:`shutdown`.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        tasks: list[Task],
        policy: AllocationPolicy | None = None,
        adjustment: bool = True,
        omega: int = 8,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_timeout: float | None = None,
        master: Master | None = None,
        checkpoint: "str | CheckpointStore | None" = None,
        batch: int = 1,
        store: "str | None" = None,
        http_port: int | None = None,
        http_host: str = "127.0.0.1",
        service: "ServiceConfig | ServiceCore | bool | None" = None,
        database_residues: int | None = None,
        top: int = 10,
    ):
        # Every argument is checked before the port is bound, so a
        # refused configuration leaks no socket.
        if master is not None and checkpoint is not None:
            raise ValueError(
                "pass either master= (adopt live state) or checkpoint= "
                "(recover from disk), not both"
            )
        if isinstance(service, ServiceCore) and service.master is not master:
            raise ValueError(
                "adopted ServiceCore must wrap the adopted master"
            )
        #: Database residue count used to cost admitted requests
        #: (query_length x this).  Inferred from the preloaded tasks
        #: when possible.
        if database_residues is None and tasks:
            first = tasks[0]
            if first.query_length > 0:
                database_residues = first.cells // first.query_length
        self.database_residues = int(database_residues or 0)
        if service and self.database_residues <= 0:
            raise ValueError(
                "service mode needs database_residues= (no preloaded "
                "tasks to infer the database size from)"
            )
        #: Warm-start pack store the fleet's workers mmap from.  The
        #: master never reads packs itself; verifying the store fails
        #: the deployment up front instead of letting a worker trip
        #: over a corrupt shard mid-run.
        self.pack_store = None
        if store is not None:
            from ..store import PackStore

            self.pack_store = (
                store if isinstance(store, PackStore) else PackStore(store)
            )
            self.pack_store.verify()
        super().__init__((host, port), _Handler)
        self._store: CheckpointStore | None = None
        self._recovered = None
        if master is not None:
            # Adopt an existing master (and its metrics/event history):
            # the master-restart story — a new server process picks up
            # the workload where the crashed one left off, and
            # reconnecting workers resume against the same task pool.
            self.master = master
            self.metrics = master.metrics
            self.events = master.events
        else:
            # With checkpoint=: master-restart-from-disk.  Open (or
            # resume) the journal and restore every durable winning
            # result before any worker connects, so a server killed
            # mid-run and restarted on the same directory keeps only
            # the remaining tasks.
            self.metrics = MetricsRegistry()
            self.events = EventLog()
            self.master, self._store, self._recovered = open_master(
                tasks,
                checkpoint,
                policy=policy or PackageWeightedSelfScheduling(),
                adjustment=adjustment,
                omega=omega,
                metrics=self.metrics,
                events=self.events,
                batch=batch,
            )
        self.inst = cluster_server_instruments(self.metrics)
        self._started = time.perf_counter()
        #: The one master facade every handler goes through; its
        #: (re-entrant) lock serialises all master and service state,
        #: and it runs the heartbeat reaper (workers silent for longer
        #: than ``heartbeat_timeout`` seconds are deregistered and
        #: their tasks re-queued; ``None`` disables reaping) and the
        #: service tick.
        #:
        #: Always-on service front door (protocol 4): ``service=True``
        #: uses default :class:`ServiceConfig`; a config instance
        #: customizes admission policy; a :class:`ServiceCore` is
        #: adopted with the master (the master-restart story, service
        #: flavour — copy the old server's :attr:`inline_queries` too,
        #: or reassigned service tasks are undeliverable).  Composes
        #: with ``checkpoint=``: a server restarted on the same
        #: directory cold-recovers every admitted request, with its
        #: inline query payload, from disk.
        self.shared = SharedMaster(
            self.master,
            self.clock,
            service=service if isinstance(service, ServiceCore) else None,
            heartbeat=heartbeat_timeout,
            top=top,
            database_residues=self.database_residues,
        )
        self.lock = self.shared.lock
        if service and not isinstance(service, ServiceCore):
            self.shared.open_service(
                self._store,
                self._recovered,
                service if isinstance(service, ServiceConfig) else None,
            )
        #: Residues of every service-admitted query, keyed by task id,
        #: forwarded inline on ``assign`` (the facade's payload store).
        self.inline_queries = self.shared.queries
        self._thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self._connections: set = set()
        self._conn_lock = threading.Lock()
        #: Latest cumulative metric snapshot piggybacked by each worker
        #: (protocol v3 ``stats`` field).  Keyed by PE; merged into
        #: :meth:`metrics_snapshot` on read, so re-sends are idempotent
        #: and a dead worker's last contribution survives it.
        self.worker_stats: dict[str, dict] = {}
        #: Optional live endpoints (``/metrics``, ``/healthz``,
        #: ``/statusz``); started alongside :meth:`start` when
        #: ``http_port`` is not ``None`` (0 = ephemeral port).
        self.httpd: MetricsHTTPServer | None = None
        if http_port is not None:
            self.httpd = MetricsHTTPServer(
                self.metrics_snapshot,
                status_fn=self.status,
                health_fn=lambda: not self._stopping.is_set(),
                host=http_host,
                port=http_port,
            )

    # ------------------------------------------------------------------
    def clock(self) -> float:
        return time.perf_counter() - self._started

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.server_address[:2]
        return str(host), int(port)

    def start(self) -> None:
        """Serve in a daemon thread until :meth:`shutdown`."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="master-server", daemon=True
        )
        self._thread.start()
        if self.httpd is not None:
            self.httpd.start()
        self.shared.start()

    @property
    def service(self) -> ServiceCore | None:
        return self.shared.service

    # Track live slave connections so ``stop`` can sever them: daemon
    # handler threads otherwise keep serving a "stopped" master, which
    # would let a simulated master crash go unnoticed by its workers.
    def process_request(self, request, client_address) -> None:
        with self._conn_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._conn_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def stop(self) -> None:
        self._stopping.set()
        self.shared.stop()
        if self.httpd is not None:
            self.httpd.stop()
        self.shutdown()
        self.server_close()
        with self._conn_lock:
            lingering = list(self._connections)
            self._connections.clear()
        for conn in lingering:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=5)
        if self._store is not None:
            self._store.close()
            self._store = None

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.shared.finished

    def wait_finished(self, timeout: float = 120.0) -> None:
        """Block until every task is finished (or raise on timeout).

        The :class:`TimeoutError` carries a diagnostic snapshot —
        outstanding task ids, each registered PE's queue depth and the
        age of its last contact — so a hung run says *which* worker
        stalled instead of just "did not finish".
        """
        if not self.shared.wait_until(lambda: self.master.finished, timeout):
            raise TimeoutError(self._timeout_diagnostics(timeout))

    def _timeout_diagnostics(self, timeout: float) -> str:
        with self.lock:
            now = self.clock()
            outstanding = self.master.pool.unfinished_ids()
            pes = [
                f"{pe_id}: queue={len(self.master.pending_of(pe_id))} "
                f"last_contact={now - self.master.last_contact(pe_id):.1f}s ago"
                for pe_id in self.master.registered_pes()
            ]
        shown = ", ".join(str(t) for t in outstanding[:20])
        if len(outstanding) > 20:
            shown += ", ..."
        detail = "; ".join(pes) if pes else "no PEs registered"
        return (
            f"workload did not finish within {timeout:.1f}s: "
            f"{len(outstanding)} outstanding task(s) [{shown}]; {detail}"
        )

    # ------------------------------------------------------------------
    # Service lifecycle (drain RPC / SIGTERM both land here)
    # ------------------------------------------------------------------
    def drain(self) -> int:
        """Stop admission; returns the outstanding request count."""
        return self.shared.drain()

    def wait_drained(self, timeout: float = 120.0) -> None:
        """Block until a drain completed and the workload finished."""
        if not self.shared.wait_until(lambda: self.shared.drained, timeout):
            raise TimeoutError(self._timeout_diagnostics(timeout))

    def final_record(self) -> dict:
        """The service's exit summary (emit before process exit)."""
        return self.shared.final_record()

    def results(self) -> dict[str, tuple[SearchHit, ...]]:
        """Merged per-query hits (requires :attr:`finished`)."""
        with self.lock:
            merged = self.master.merged_results()
            out: dict[str, tuple[SearchHit, ...]] = {}
            for result in merged:
                task = self.master.pool.task(result.task_id)
                out[task.query_id] = result.payload  # type: ignore[assignment]
            return out

    def trace(self) -> list[TraceEvent]:
        with self.lock:
            return list(self.master.trace)

    # ------------------------------------------------------------------
    # Fleet telemetry
    # ------------------------------------------------------------------
    def ingest_worker_stats(self, pe_id: str, stats) -> None:
        """Store a worker's piggybacked metric snapshot (latest wins).

        Snapshots are *cumulative*, so keeping only the newest per PE —
        rather than adding each arrival — makes re-delivery (retries,
        duplicated frames) harmless.  Anything that does not look like
        a ``repro.metrics.v1`` dict is dropped: stats must never be
        able to take down the control protocol.
        """
        if not isinstance(stats, dict):
            return
        if stats.get("schema") != "repro.metrics.v1":
            return
        with self.lock:
            self.worker_stats[str(pe_id)] = stats

    def metrics_snapshot(self) -> dict:
        """Fleet-wide metrics as a ``repro.metrics.v1`` dict.

        Master + transport metrics, plus the latest snapshot each
        worker piggybacked on its heartbeats (per-PE labelled series
        survive the merge unchanged).  A malformed worker snapshot is
        skipped, never fatal — ``/metrics`` must answer even when one
        worker misbehaves.
        """
        with self.lock:
            base = self.metrics.snapshot()
            fleet = list(self.worker_stats.values())
        if not fleet:
            return base
        merged = MetricsRegistry.from_snapshot(base)
        for stats in fleet:
            try:
                merge_into(merged, stats)
            except (KeyError, TypeError, ValueError):
                continue
        return merged.snapshot()

    def status(self) -> dict:
        """Operator summary for ``/statusz`` (``repro.status.v1``)."""
        status = status_from_snapshot(self.metrics_snapshot())
        with self.lock:
            now = self.clock()
            status["uptime_seconds"] = now
            status["finished"] = self.master.finished
            status["outstanding_tasks"] = len(
                self.master.pool.unfinished_ids()
            )
            status["workers"] = {
                pe_id: {
                    "queue": len(self.master.pending_of(pe_id)),
                    "last_contact_seconds_ago": (
                        now - self.master.last_contact(pe_id)
                    ),
                }
                for pe_id in self.master.registered_pes()
            }
        return status
