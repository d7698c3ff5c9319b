"""Service client and open-loop load generator (protocol 4).

:class:`ServiceClient` is the thin wire client of the always-on
service: one persistent connection, ``submit``/``poll``/``cancel``/
``drain`` calls, newline-delimited JSON — debuggable with ``nc`` like
the rest of the cluster protocol.

:func:`run_loadgen` drives a live master with an **open-loop** Poisson
arrival schedule: requests are submitted on the schedule's clock no
matter how the service responds, so saturation shows up as shed
requests and growing latency instead of a slowing client.  This is the
wall-clock twin of the DES service model
(:class:`~repro.simulate.des.ServiceSimulator`); both consume the same
:func:`~repro.simulate.loadgen.poisson_arrivals` schedules.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, field

import numpy as np

from ..align.api import SearchHit
from ..cluster.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_hit,
    recv_message,
    send_message,
)
from ..sequences.records import Sequence
from ..sequences.synthetic import query_set

__all__ = ["ServiceClient", "LoadgenReport", "run_loadgen"]


class ServiceClient:
    """One client connection to a service-running master."""

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 10.0,
        io_timeout: float = 60.0,
    ):
        self._host = host
        self._port = port
        self._connect_timeout = connect_timeout
        self._io_timeout = io_timeout
        self._sock: socket.socket | None = None
        self._reader = None
        self._connect()

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._connect_timeout
        )
        self._sock.settimeout(self._io_timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")

    def reconnect(self) -> None:
        """Tear down and re-dial (e.g. after a master restart)."""
        try:
            self.close()
        except OSError:
            pass
        self._connect()

    def _call(self, message: dict) -> dict:
        send_message(self._sock, message)
        reply = recv_message(self._reader)
        if reply is None:
            raise ProtocolError("master closed the connection")
        return reply

    def submit(
        self,
        query: Sequence,
        tenant: str = "default",
        deadline: float | None = None,
        request_id: str | None = None,
    ) -> dict:
        """Submit one query; returns the ``accepted``/``rejected`` reply.

        ``deadline`` is relative seconds — the master applies it to its
        own clock, so client/master clock skew never matters.  A
        client-supplied *request_id* is the idempotency key: the master
        acknowledges a resubmitted id it already admitted (in memory or
        recovered from its journal) instead of admitting it twice.
        """
        message: dict = {
            "type": "submit",
            "protocol": PROTOCOL_VERSION,
            "tenant": tenant,
            "query": {"id": query.id, "residues": query.residues},
        }
        if deadline is not None:
            message["deadline"] = float(deadline)
        if request_id is not None:
            message["request_id"] = str(request_id)
        return self._call(message)

    def _backoff(
        self, attempt: int, base: float, cap: float, rng
    ) -> float:
        delay = min(cap, base * (2.0 ** attempt))
        jitter = rng.uniform(0.5, 1.5) if rng is not None else 1.0
        return delay * float(jitter)

    def submit_with_retry(
        self,
        query: Sequence,
        tenant: str = "default",
        deadline: float | None = None,
        request_id: str | None = None,
        attempts: int = 6,
        base_backoff: float = 0.05,
        max_backoff: float = 2.0,
        rng: np.random.Generator | None = None,
    ) -> dict:
        """Submit with jittered exponential backoff and resubmission.

        Retries shed replies — sleeping the master's ``retry_after``
        hint when it exceeds the backoff — and connection failures,
        re-dialing first (the master may be restarting).  The stable
        *request_id* (generated once here when not supplied) makes
        every retry idempotent: an id the master already admitted, even
        one it recovered from its journal after a crash, is
        acknowledged without a second admission, so a reply lost to a
        broken pipe never duplicates work.
        """
        if attempts < 1:
            raise ValueError("attempts must be at least 1")
        if request_id is None:
            import uuid

            request_id = f"{tenant}-{uuid.uuid4().hex[:12]}"
        reply: dict = {}
        for attempt in range(attempts):
            try:
                if self._sock is None:
                    self._connect()
                reply = self.submit(
                    query, tenant=tenant, deadline=deadline,
                    request_id=request_id,
                )
            except (OSError, ProtocolError):
                reply = {"type": "unreachable", "request_id": request_id}
                if attempt + 1 >= attempts:
                    break
                time.sleep(
                    self._backoff(attempt, base_backoff, max_backoff, rng)
                )
                try:
                    self.reconnect()
                except OSError:
                    pass  # still down; the next attempt backs off again
                continue
            if reply.get("type") == "accepted":
                return reply
            if attempt + 1 >= attempts:
                break
            hint = reply.get("retry_after")
            time.sleep(max(
                self._backoff(attempt, base_backoff, max_backoff, rng),
                float(hint) if hint else 0.0,
            ))
        return reply

    def poll(self, request_id: str) -> dict:
        """Request state; a ``done`` reply carries decoded ``hits``."""
        reply = self._call({"type": "poll", "request_id": request_id})
        if reply.get("type") == "status" and reply.get("hits") is not None:
            reply["hits"] = tuple(
                decode_hit(h) for h in reply["hits"]
            )
        return reply

    def wait(
        self, request_id: str, timeout: float = 60.0, poll: float = 0.01
    ) -> dict:
        """Poll until the request reaches a terminal state."""
        limit = time.perf_counter() + timeout
        while True:
            reply = self.poll(request_id)
            if reply.get("type") == "error" or reply.get("state") in (
                "done", "expired", "cancelled",
            ):
                return reply
            if time.perf_counter() >= limit:
                raise TimeoutError(
                    f"request {request_id} still "
                    f"{reply.get('state')!r} after {timeout}s"
                )
            time.sleep(poll)

    def cancel(self, request_id: str) -> dict:
        return self._call({"type": "cancel", "request_id": request_id})

    def drain(self) -> dict:
        """Ask the master to stop admission and drain."""
        return self._call({"type": "drain"})

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=float), q))


@dataclass
class LoadgenReport:
    """Outcome of one open-loop run against a live service."""

    rate: float
    horizon: float
    offered: int = 0
    admitted: int = 0
    completed: int = 0
    expired: int = 0
    cancelled: int = 0
    shed: dict[str, int] = field(default_factory=dict)
    #: Submits that never reached the master (connection refused or
    #: dropped after exhausting retries) — distinct from shed, where
    #: the master answered and said no.
    unreachable: int = 0
    #: Submit-to-done latency of every completed request (seconds),
    #: ``finished_at - submitted_at`` on the service's clock.
    latencies: list[float] = field(default_factory=list)
    #: request_id -> decoded hits of completed requests.
    hits: dict[str, tuple[SearchHit, ...]] = field(default_factory=dict)

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    @property
    def p50(self) -> float:
        return _quantile(self.latencies, 0.50)

    @property
    def p99(self) -> float:
        return _quantile(self.latencies, 0.99)

    def to_dict(self) -> dict:
        return {
            "rate": self.rate,
            "horizon": self.horizon,
            "offered": self.offered,
            "admitted": self.admitted,
            "completed": self.completed,
            "expired": self.expired,
            "cancelled": self.cancelled,
            "unreachable": self.unreachable,
            "shed": dict(self.shed),
            "shed_total": self.shed_total,
            # Where each offered request ended up, by admission stage:
            # refused at the front door, admitted but past its deadline,
            # or completed.
            "breakdown": {
                "shed_at_admission": self.shed_total,
                "deadline_missed_after_admission": self.expired,
                "completed": self.completed,
            },
            "latency_p50": self.p50,
            "latency_p99": self.p99,
        }


def run_loadgen(
    host: str,
    port: int,
    rate: float,
    horizon: float,
    rng: np.random.Generator,
    tenants: tuple[str, ...] = ("default",),
    deadline: float | None = None,
    min_length: int = 40,
    max_length: int = 120,
    wait_timeout: float = 60.0,
    collect_hits: bool = False,
    retries: int = 0,
    request_id_prefix: str | None = None,
) -> LoadgenReport:
    """Open-loop Poisson load against a live service master.

    Synthesizes one random query per arrival (seeded by *rng*, so runs
    replay exactly), round-robins them over *tenants*, submits on the
    arrival schedule, then waits for every admitted request to reach a
    terminal state.  Late submissions never block the schedule: a slow
    ``submit`` simply delays subsequent arrivals the way a real
    client's stalled connection would.

    ``retries > 0`` switches each submission to
    :meth:`ServiceClient.submit_with_retry` with that many attempts —
    the loadgen then survives a master restart mid-run, resubmitting
    idempotently under stable request ids.  *request_id_prefix* pins
    those ids (``{prefix}-{index:05d}``) so a recovery harness can poll
    them against a restarted master.
    """
    from ..simulate.loadgen import poisson_arrivals

    arrivals = poisson_arrivals(rate, horizon, rng)
    queries = query_set(
        max(len(arrivals), 1), rng,
        min_length=min_length, max_length=max_length,
    )
    report = LoadgenReport(rate=rate, horizon=horizon)
    pending: list[str] = []  # admitted request ids
    client = ServiceClient(host, port)
    try:
        start = time.perf_counter()
        for index, at in enumerate(arrivals):
            delay = at - (time.perf_counter() - start)
            if delay > 0:
                time.sleep(delay)
            report.offered += 1
            request_id = (
                f"{request_id_prefix}-{index:05d}"
                if request_id_prefix is not None
                else None
            )
            if retries > 0:
                reply = client.submit_with_retry(
                    queries[index],
                    tenant=tenants[index % len(tenants)],
                    deadline=deadline,
                    request_id=request_id,
                    attempts=retries,
                    rng=rng,
                )
            else:
                reply = client.submit(
                    queries[index],
                    tenant=tenants[index % len(tenants)],
                    deadline=deadline,
                    request_id=request_id,
                )
            if reply.get("type") == "accepted":
                report.admitted += 1
                pending.append(str(reply["request_id"]))
            elif reply.get("type") == "unreachable":
                report.unreachable += 1
            else:
                reason = str(reply.get("reason", "unknown"))
                report.shed[reason] = report.shed.get(reason, 0) + 1
        for request_id in pending:
            reply = client.wait(request_id, timeout=wait_timeout)
            state = reply.get("state")
            if state == "done":
                report.completed += 1
                # The service's own clock: waiting starts only after the
                # last arrival, so a client-side stopwatch would charge
                # early requests for the rest of the horizon.
                report.latencies.append(
                    reply["finished_at"] - reply["submitted_at"]
                )
                if collect_hits:
                    report.hits[request_id] = reply.get("hits") or ()
            elif state == "expired":
                report.expired += 1
            elif state == "cancelled":
                report.cancelled += 1
    finally:
        client.close()
    return report
