"""The slave process: connect, register, execute, notify.

A worker is fully described by a :class:`WorkerConfig` (so it can be
spawned in a separate process): where the master listens, which engine
class to instantiate, and the paths of the *indexed* query/database
files — slaves read sequence data directly from those files, exactly
the role the paper's indexed format plays (Section IV-B), so the wire
carries only task ids and scores.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass

from ..align.gaps import affine_gap
from ..align.scoring import get_matrix
from ..core.engines import Engine, InterSequenceEngine, ScanEngine, StripedSSEEngine
from ..core.master import Assignment
from ..core.slave import serve
from ..core.task import Task
from ..faults import FaultInjector, FaultPlan
from ..observability import (
    EventLog,
    MetricsRegistry,
    cluster_worker_instruments,
)
from ..sequences.database import SequenceDatabase
from ..sequences.indexed import IndexedReader
from ..sequences.records import Sequence
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_task,
    encode_hit,
    recv_message,
    send_message,
)

__all__ = ["WorkerConfig", "ResilientLink", "run_worker"]

_ENGINE_CLASSES: dict[str, "type[Engine]"] = {
    "gpu": InterSequenceEngine,
    "sse": StripedSSEEngine,
    "scan": ScanEngine,
}

#: Idle wait between polls when the master says "wait".
_WAIT_SECONDS = 0.02

#: Pause before retransmitting a dropped must-deliver message.
_RETRANSMIT_SECONDS = 0.005


@dataclass(frozen=True)
class WorkerConfig:
    """Everything needed to run one slave (picklable for spawning).

    The timeout/backoff fields shape the resilient transport: slow
    connects and silent masters fail fast (``connect_timeout`` /
    ``io_timeout`` instead of hanging on the OS default), and a broken
    link is re-established up to ``reconnect_attempts`` times with
    exponential backoff between ``backoff_base`` and ``backoff_max``
    seconds (jittered so a restarted master is not hit by a thundering
    herd of identical retry schedules).
    """

    host: str
    port: int
    pe_id: str
    engine: str  # "gpu" | "sse" | "scan"
    query_path: str
    database_path: str
    matrix: str = "blosum62"
    gap_open: int = 10
    gap_extend: int = 2
    top: int = 10
    chunk_size: int = 16
    #: Fallback coalescing width when the master's ``assign`` reply
    #: carries no ``batch`` field; the reply's value wins otherwise.
    batch: int = 1
    #: Enable the process-wide pack/profile caches in this worker's
    #: engine, so repeated tasks skip database conversion.
    cache: bool = False
    #: Warm-start directory: a ``repro.packstore.v1`` store built by
    #: ``repro db build``.  The engine memory-maps pre-packed database
    #: shards and profiles from it instead of re-packing on start
    #: (implies private engine caches; see ``docs/storage.md``).
    store: str | None = None
    connect_timeout: float = 10.0
    io_timeout: float = 60.0
    reconnect_attempts: int = 8
    backoff_base: float = 0.05
    backoff_max: float = 2.0

    def build_engine(self) -> Engine:
        try:
            cls = _ENGINE_CLASSES[self.engine]
        except KeyError:
            raise ValueError(
                f"unknown engine {self.engine!r}; "
                f"known: {sorted(_ENGINE_CLASSES)}"
            ) from None
        return cls(
            get_matrix(self.matrix),
            affine_gap(self.gap_open, self.gap_extend),
            top=self.top,
            chunk_size=self.chunk_size,
            cache=self.cache,
            store=self.store,
        )


class _Link:
    """One persistent connection with request/response semantics.

    ``observe`` is an optional ``(message_type, seconds) -> None`` sink
    fed the worker-observed round-trip time of every call.  Passing
    shared ``cancelled``/``spans`` containers lets
    :class:`ResilientLink` carry task bookkeeping across reconnects.
    """

    def __init__(
        self,
        host: str,
        port: int,
        observe=None,
        connect_timeout: float = 10.0,
        io_timeout: float = 60.0,
        cancelled: set[int] | None = None,
        spans: dict[int, dict] | None = None,
    ):
        self._sock = socket.create_connection(
            (host, port), timeout=connect_timeout
        )
        self._sock.settimeout(io_timeout)
        # The protocol is tiny request/response frames; Nagle only adds
        # latency here.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")
        self.cancelled: set[int] = set() if cancelled is None else cancelled
        #: Span context of each granted task, from the assign reply's
        #: ``spans`` map; echoed back on progress/complete/cancelled.
        self.spans: dict[int, dict] = {} if spans is None else spans
        self._observe = observe

    def send_raw(self, payload: bytes) -> None:
        """Ship raw bytes, bypassing framing (fault injection only)."""
        self._sock.sendall(payload)

    def call(self, message: dict) -> dict:
        started = time.perf_counter()
        send_message(self._sock, message)
        reply = recv_message(self._reader)
        if self._observe is not None:
            self._observe(
                str(message.get("type")), time.perf_counter() - started
            )
        if reply is None:
            raise ProtocolError("master closed the connection")
        if reply.get("type") == "error":
            raise ProtocolError(f"master error: {reply.get('message')}")
        self.cancelled.update(int(t) for t in reply.get("cancel", []))
        for task_id, fields in (reply.get("spans") or {}).items():
            if isinstance(fields, dict):
                self.spans[int(task_id)] = {
                    key: str(value)
                    for key, value in fields.items()
                    if key in ("trace", "span", "parent") and value
                }
        return reply

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()


class _StatsPublisher:
    """Throttled metric snapshots piggybacked on outgoing messages.

    Process-mode workers cannot share a registry with the master, so
    the fleet's worker-side series (round-trip histograms, connect
    counters — all labelled by PE) would be invisible to ``/metrics``.
    Instead the worker attaches its *cumulative* ``repro.metrics.v1``
    snapshot to ``progress`` messages (rate-limited, default twice a
    second) and to every ``complete`` (so end-of-task totals land
    promptly).  Cumulative + latest-wins on the master means a lost or
    duplicated piggyback changes nothing.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        min_interval: float = 0.5,
        clock=time.monotonic,
    ):
        self._registry = registry
        self._min_interval = min_interval
        self._clock = clock
        self._last: float | None = None

    def attach(self, message: dict) -> dict:
        mtype = message.get("type")
        if mtype not in ("progress", "complete"):
            return message
        now = self._clock()
        if (
            mtype != "complete"
            and self._last is not None
            and now - self._last < self._min_interval
        ):
            return message
        self._last = now
        out = dict(message)
        out["stats"] = self._registry.snapshot()
        return out


class ResilientLink:
    """A self-healing connection to the master.

    Wraps :class:`_Link` with reconnect-and-retry semantics: when a
    call fails with a socket or protocol error the link is dropped and
    re-established with exponential backoff (deterministically jittered
    per PE), the worker re-registers under a fresh ``attempt`` id — the
    master retires the stale registration and re-queues its tasks — and
    the failed message is re-sent.  Cancellation flags and span
    contexts live here, not in the transient :class:`_Link`, so they
    survive reconnects.

    An optional :class:`FaultInjector` perturbs outgoing traffic for
    chaos tests: partitions stall the worker until the window heals,
    dropped ``complete``/``cancelled`` frames are retransmitted
    (at-least-once — the master dedupes), dropped polls simply yield an
    empty grant, and corrupted frames poison the connection so the
    reconnect path is exercised for real.
    """

    def __init__(
        self,
        config: WorkerConfig,
        observe=None,
        injector: FaultInjector | None = None,
        clock=None,
        on_connect=None,
        stats: _StatsPublisher | None = None,
    ):
        self._config = config
        self._observe = observe
        self._injector = injector
        self._clock = clock or time.perf_counter
        self._on_connect = on_connect
        self._stats = stats
        self.cancelled: set[int] = set()
        self.spans: dict[int, dict] = {}
        #: Incarnation counter sent with ``register``; bumped on every
        #: successful (re-)connect so the master can tell a reconnect
        #: from a duplicate.
        self.attempt = 0
        self._jitter = random.Random(f"repro.worker:{config.pe_id}")
        self._link: _Link | None = None

    def connect(self) -> None:
        """(Re-)establish the link and register a fresh incarnation."""
        config = self._config
        delay = config.backoff_base
        for tries in range(config.reconnect_attempts + 1):
            link = None
            try:
                link = _Link(
                    config.host,
                    config.port,
                    observe=self._observe,
                    connect_timeout=config.connect_timeout,
                    io_timeout=config.io_timeout,
                    cancelled=self.cancelled,
                    spans=self.spans,
                )
                message: dict = {
                    "type": "register",
                    "pe_id": config.pe_id,
                    "protocol": PROTOCOL_VERSION,
                }
                if self.attempt:
                    message["attempt"] = self.attempt
                link.call(message)
            except (OSError, ProtocolError):
                if link is not None:
                    link.close()
                if tries >= config.reconnect_attempts:
                    raise
                time.sleep(delay * (0.5 + self._jitter.random()))
                delay = min(delay * 2, config.backoff_max)
                continue
            self._link = link
            self.attempt += 1
            if self._on_connect is not None:
                self._on_connect()
            return

    def _drop(self) -> None:
        if self._link is not None:
            self._link.close()
            self._link = None

    def _call_once(self, message: dict) -> dict:
        """One delivery attempt, reconnecting on a broken link."""
        config = self._config
        for tries in range(config.reconnect_attempts + 1):
            if self._link is None:
                self.connect()
            assert self._link is not None
            try:
                return self._link.call(message)
            except (OSError, ProtocolError):
                self._drop()
                if tries >= config.reconnect_attempts:
                    raise
        raise ConnectionError(
            f"{config.pe_id}: master unreachable after "
            f"{config.reconnect_attempts} reconnect attempts"
        )

    def call(self, message: dict) -> dict:
        if self._stats is not None:
            message = self._stats.attach(message)
        mtype = str(message.get("type"))
        injector = self._injector
        if injector is not None:
            pe = self._config.pe_id
            wait = injector.partition_remaining(pe, self._clock())
            if wait > 0:
                time.sleep(wait)
            action = injector.message_action(pe, mtype, now=self._clock())
            if action == "drop":
                if mtype in ("complete", "cancelled"):
                    # Must-deliver message: the frame is lost, the
                    # worker notices the missing ack and retransmits.
                    time.sleep(_RETRANSMIT_SECONDS)
                else:
                    # A lost poll just looks like an empty grant.
                    return {"type": "ack", "wait": True, "cancel": []}
            elif action == "delay":
                time.sleep(injector.delay_seconds)
            elif action == "corrupt":
                # Poison the stream: the master answers with an error
                # and hangs up, so the resend below must reconnect.
                link = self._link
                if link is not None:
                    try:
                        link.send_raw(b"!corrupt-frame!\n")
                    except OSError:
                        pass
            elif action == "duplicate":
                self._call_once(message)  # extra copy; master dedupes
        return self._call_once(message)

    def close(self) -> None:
        self._drop()


def run_worker(
    config: WorkerConfig,
    metrics: MetricsRegistry | None = None,
    events: EventLog | None = None,
    clock=None,
    faults: FaultPlan | FaultInjector | None = None,
) -> int:
    """Slave main loop; returns the number of tasks completed.

    Designed to run inside a separate process
    (``multiprocessing.Process(target=run_worker, args=(config,))``) but
    equally callable from a thread in tests.  Passing a shared
    *metrics* registry (thread deployments only — registries do not
    cross process boundaries) collects the worker-observed round-trip
    times and connection counts under the ``cluster_*`` names.

    *events* (thread deployments only) records worker-side
    ``worker_task_start``/``worker_task_end`` events tagged with the
    span context the master forwarded, timestamped by *clock* (pass the
    server's clock so worker events merge onto the master timeline;
    defaults to seconds since this worker started).

    *faults* subjects this worker to a deterministic
    :class:`~repro.faults.FaultPlan` (or an already-built, possibly
    shared, :class:`~repro.faults.FaultInjector`): planned crashes
    raise :class:`~repro.faults.InjectedCrash` — the worker dies
    silently, exactly like a killed process, and the master's
    heartbeat reaper recovers its tasks.
    """
    engine = config.build_engine()
    matrix = get_matrix(config.matrix)
    # Process-mode workers (no shared registry) piggyback their private
    # registry onto the wire instead, so the master's /metrics stays
    # fleet-complete either way.  Thread-mode workers share *metrics*
    # with the launcher, which merges directly — piggybacking there
    # would double-count.
    registry = metrics if metrics is not None else MetricsRegistry()
    inst = cluster_worker_instruments(registry)
    publisher = _StatsPublisher(registry) if metrics is None else None
    if clock is None:
        t0 = time.perf_counter()
        clock = lambda: time.perf_counter() - t0  # noqa: E731
    injector: FaultInjector | None
    if faults is None:
        injector = None
    elif isinstance(faults, FaultInjector):
        injector = faults
    else:
        injector = FaultInjector(faults, events=events, clock=clock)

    def observe_roundtrip(message_type: str, seconds: float) -> None:
        inst.roundtrip_seconds.labels(
            pe=config.pe_id, type=message_type
        ).observe(seconds)

    with IndexedReader(config.query_path, alphabet=matrix.alphabet) as queries:
        database = SequenceDatabase.from_indexed(
            config.database_path, alphabet=matrix.alphabet
        )
        link = ResilientLink(
            config,
            observe=observe_roundtrip,
            injector=injector,
            clock=clock,
            on_connect=lambda: inst.connects.labels(pe=config.pe_id).inc(),
            stats=publisher,
        )
        try:
            link.connect()
            wire = _WireLink(
                link, config, queries, matrix.alphabet, events, clock
            )
            return serve(
                wire, engine, [database], clock=clock, injector=injector
            )
        finally:
            link.close()


class _WireLink:
    """The slave loop's link over TCP (see :mod:`repro.core.slave`).

    Encodes each notification as a wire message carrying the task's
    span context, decodes ``assign`` replies (inline queries of
    service-admitted tasks included) and, given an event log, records
    ``worker_task_start``/``worker_task_end`` on the master's timeline.
    """

    idle_seconds = _WAIT_SECONDS

    def __init__(
        self,
        link: ResilientLink,
        config: WorkerConfig,
        queries: IndexedReader,
        alphabet,
        events: EventLog | None,
        clock,
    ):
        self.pe_id = config.pe_id
        self.cancels = link.cancelled
        self._link = link
        self._batch = config.batch
        self._queries = queries
        self._alphabet = alphabet
        self._events = events
        self._clock = clock
        #: Inline query sequences of service-admitted tasks (protocol
        #: 4 ``queries`` map on assign), keyed by task id.
        self._inline: dict[int, Sequence] = {}

    def request(self) -> tuple[Assignment, int]:
        reply = self._link.call({"type": "request", "pe_id": self.pe_id})
        # Decoded with the engine's alphabet so scoring is identical to
        # an indexed-file fetch.
        for task_id, data in (reply.get("queries") or {}).items():
            self._inline[int(task_id)] = Sequence(
                id=str(data["id"]),
                residues=str(data["residues"]),
                alphabet=self._alphabet,
            )
        assignment = Assignment(
            tasks=tuple(decode_task(t) for t in reply.get("tasks", [])),
            replicas=tuple(
                decode_task(t) for t in reply.get("replicas", [])
            ),
            done=bool(reply.get("done")),
        )
        return assignment, int(reply.get("batch", self._batch) or 1)

    def query(self, task: Task) -> Sequence:
        """The task's query: indexed file, or inline for service tasks."""
        if task.query_index >= 0:
            query = self._queries[task.query_index]
        else:
            query = self._inline.get(task.task_id)
            if query is None:
                raise ProtocolError(
                    f"task {task.task_id} has no query_index and the "
                    "master sent no inline query (protocol 4 required)"
                )
        if self._events is not None:
            self._events.emit(
                "worker_task_start", self._clock(), pe=self.pe_id,
                task=task.task_id, **self._link.spans.get(task.task_id, {}),
            )
        return query

    def progress(self, task: Task, cells: float, interval: float) -> None:
        span = self._link.spans.get(task.task_id, {})
        self._link.call({
            "type": "progress", "pe_id": self.pe_id,
            "cells": cells, "interval": interval, **span,
        })

    def _finish(self, task: Task, outcome: str, message: dict) -> None:
        self._inline.pop(task.task_id, None)
        span = self._link.spans.pop(task.task_id, {})
        self._link.call({
            "type": outcome, "pe_id": self.pe_id,
            "task_id": task.task_id, **message, **span,
        })
        if self._events is not None:
            self._events.emit(
                "worker_task_end", self._clock(), pe=self.pe_id,
                task=task.task_id, outcome=outcome, **span,
            )

    def complete(self, task: Task, hits, elapsed: float) -> None:
        self._finish(task, "complete", {
            "elapsed": elapsed,
            "cells": task.cells,
            "hits": [encode_hit(h) for h in hits],
        })

    def cancelled(self, task: Task) -> None:
        self._finish(task, "cancelled", {})
