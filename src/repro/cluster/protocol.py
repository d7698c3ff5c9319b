"""Wire protocol of the distributed master/slave runtime.

The paper's environment runs the master and the slaves as separate
processes on two hosts joined by Gigabit Ethernet.  This module defines
the message vocabulary of that interaction — a direct transcription of
Fig. 4's arrows — and a tiny newline-delimited JSON framing so the
protocol is debuggable with ``nc``.

Message types (all carry ``type`` plus the listed fields):

==============  =====================================================
``register``    pe_id, protocol [, attempt]  (attempt > 0 marks a
                reconnecting worker's fresh incarnation; the master
                retires the stale registration and re-queues its
                tasks.  ``protocol`` is the worker's wire version; the
                master refuses any other version — or none — with an
                ``error`` reply and hangs up instead of mis-parsing
                later frames)
``request``     pe_id
``assign``      tasks[], replicas[], done, wait,   (master -> slave)
                spans{task_id: {trace, span, parent}} [, batch]
                (``batch`` > 1 invites the slave to coalesce up to that
                many granted tasks into one multi-query sweep; slaves
                that ignore it simply execute singly — results are
                identical either way)
``progress``    pe_id, cells, interval [, trace, span, parent]
                [, stats]  (``stats`` is an optional cumulative
                ``repro.metrics.v1`` snapshot of the worker's own
                registry — the fleet-telemetry piggyback; the master
                keeps the latest per PE and merges them on scrape, so
                resending is idempotent)
``ack``         cancel[]                           (master -> slave;
                piggybacks pending cancellations)
``complete``    pe_id, task_id, elapsed, cells, hits[]
                [, trace, span, parent] [, stats]
``cancelled``   pe_id, task_id [, trace, span, parent]
``error``       message
==============  =====================================================

Client surface of the always-on service (protocol 4, master side of
:mod:`repro.service`) — spoken by search clients, not workers:

==============  =====================================================
``submit``      tenant, query{id, residues} [, deadline] [, protocol]
                (``deadline`` is relative seconds from submission —
                client and master clocks are never compared)
``accepted``    request_id                          (master -> client)
``rejected``    error="overloaded", reason, retry_after
                                                    (master -> client)
``poll``        request_id
``status``      request_id, state, hits[] | null    (master -> client)
``cancel``      request_id
``drain``       (stop admission; reply ``status`` with outstanding)
==============  =====================================================

Service-admitted tasks reference queries no indexed file contains, so
the ``assign`` reply gains an optional ``queries`` map
(``{task_id: {id, residues}}``) carrying their residues inline;
workers use it for any task whose ``query_index`` is negative.

The optional ``trace``/``span``/``parent`` fields carry the task's span
context (see :mod:`repro.observability.spans`): the master allocates it
when granting work, forwards it in the ``assign`` reply's ``spans``
map, and slaves echo it on every message about that task so worker-side
events join the same causal trace.  All span fields are optional.

Tasks travel as plain dicts mirroring :class:`repro.core.task.Task`;
hits mirror :class:`repro.align.api.SearchHit`.  Slaves fetch the
actual residues themselves from the shared indexed files (Section
IV-B's design: the offsets make any query one ``seek`` away), so
messages stay tiny.
"""

from __future__ import annotations

import json
import socket
from typing import Any

from ..align.api import SearchHit
from ..core.task import Task
from ..sequences.records import Sequence

__all__ = [
    "PROTOCOL_VERSION",
    "MIN_PROTOCOL_VERSION",
    "ProtocolError",
    "check_protocol_version",
    "send_message",
    "recv_message",
    "encode_task",
    "decode_task",
    "encode_hit",
    "decode_hit",
    "encode_query",
    "decode_query",
    "span_fields",
]

#: Upper bound on one frame; a sanity guard against stream corruption.
MAX_FRAME_BYTES = 4 * 1024 * 1024

#: Current wire version.  Version history:
#: 1 — the original Fig. 4 vocabulary (``register`` carries no
#:     ``protocol`` field);
#: 2 — adds the ``protocol`` handshake on ``register``/``ack`` and the
#:     store-backed warm-start deployment shape;
#: 3 — adds the optional ``stats`` piggyback on ``progress`` and
#:     ``complete`` (worker-side metric snapshots for fleet-wide
#:     aggregation);
#: 4 — adds the always-on service surface: ``submit``/``poll``/
#:     ``cancel``/``drain`` from clients, ``accepted``/``rejected``/
#:     ``status`` replies, and the inline ``queries`` map on ``assign``
#:     for service-admitted tasks (``query_index < 0``).
PROTOCOL_VERSION = 4

#: Oldest version the master accepts: workers and master ship
#: together, so the wire is pinned to the current version.
MIN_PROTOCOL_VERSION = PROTOCOL_VERSION


class ProtocolError(RuntimeError):
    """Malformed or unexpected wire traffic."""


def check_protocol_version(message: dict[str, Any]) -> int:
    """Validate the ``protocol`` field of a ``register`` message.

    Returns the peer's version; raises :class:`ProtocolError` when the
    field is absent, malformed or outside the supported range.
    """
    raw = message.get("protocol")
    if raw is None:
        raise ProtocolError(
            f"register without a protocol version; this master speaks "
            f"{MIN_PROTOCOL_VERSION}..{PROTOCOL_VERSION}"
        )
    try:
        version = int(raw)
    except (TypeError, ValueError):
        raise ProtocolError(f"malformed protocol version {raw!r}") from None
    if version < MIN_PROTOCOL_VERSION or version > PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version}; this master "
            f"speaks {MIN_PROTOCOL_VERSION}..{PROTOCOL_VERSION}"
        )
    return version


def send_message(sock: socket.socket, message: dict[str, Any]) -> None:
    """Serialize one message as a JSON line."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError("message exceeds frame limit")
    sock.sendall(payload + b"\n")


def recv_message(reader) -> dict[str, Any] | None:
    """Read one JSON line from a file-like reader; ``None`` on EOF."""
    line = reader.readline(MAX_FRAME_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError("frame exceeds limit")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"bad frame: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("frame is not a typed message")
    return message


def encode_task(task: Task) -> dict[str, Any]:
    return {
        "task_id": task.task_id,
        "query_id": task.query_id,
        "query_length": task.query_length,
        "cells": task.cells,
        "query_index": task.query_index,
    }


def decode_task(data: dict[str, Any]) -> Task:
    try:
        return Task(
            task_id=int(data["task_id"]),
            query_id=str(data["query_id"]),
            query_length=int(data["query_length"]),
            cells=int(data["cells"]),
            query_index=int(data["query_index"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad task payload: {exc}") from exc


def span_fields(message: dict[str, Any]) -> dict[str, str]:
    """Extract the optional span-context fields of one wire message.

    Returns ``{}`` when the peer sent none (pre-span slaves), so
    callers can splat the result into an event-log ``emit`` unchanged.
    """
    return {
        key: str(message[key])
        for key in ("trace", "span", "parent")
        if message.get(key)
    }


def encode_query(query: Sequence) -> dict[str, Any]:
    """Inline query payload for service-admitted tasks (protocol 4)."""
    return {"id": query.id, "residues": query.residues}


def decode_query(data: dict[str, Any]) -> Sequence:
    try:
        return Sequence(id=str(data["id"]), residues=str(data["residues"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad query payload: {exc}") from exc


def encode_hit(hit: SearchHit) -> list[Any]:
    return [hit.subject_id, hit.subject_index, hit.score, hit.subject_length]


def decode_hit(data: list[Any]) -> SearchHit:
    try:
        subject_id, subject_index, score, subject_length = data
        return SearchHit(
            subject_id=str(subject_id),
            subject_index=int(subject_index),
            score=int(score),
            subject_length=int(subject_length),
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad hit payload: {exc}") from exc
