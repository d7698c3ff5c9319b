"""Checkpoint store: journal + compacted snapshot + recovery.

A :class:`CheckpointStore` owns one directory holding a write-ahead
journal (``journal.jsonl``, :mod:`repro.durability.journal`) and an
optional compacted snapshot (``snapshot.json``, ``repro.snapshot.v1``).
It doubles as the :class:`~repro.core.master.Master`'s journal sink:
the master calls the ``on_*`` hooks on every scheduling transition and
the store turns them into durable records.

Recovery replays snapshot + journal: every journaled winning
completion is restored onto a fresh master via
:func:`restore_into` (the task transitions READY → FINISHED without
re-execution and its :class:`~repro.core.task.TaskResult` — payload
included — rejoins ``master.results``), while tasks that were merely
assigned or in flight simply stay READY and are re-scheduled.  A torn
final record is dropped and truncated away; anything worse raises
:class:`~repro.durability.journal.JournalError`.

Snapshots are written atomically (tmp file, fsync, ``os.replace``,
directory fsync) so a crash during compaction can never destroy the
previous snapshot; compaction then restarts the journal with a bare
header, bounding replay time on long runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..align.api import SearchHit
from ..core.task import Task, TaskResult
from .journal import (
    JOURNAL_SCHEMA,
    SERVICE_JOURNAL_SCHEMA,
    SNAPSHOT_SCHEMA,
    Journal,
    JournalError,
    scan_journal,
)

__all__ = [
    "CheckpointStore",
    "RecoveredState",
    "ServiceRecoveredState",
    "workload_fingerprint",
    "restore_into",
]


def workload_fingerprint(tasks: list[Task]) -> dict:
    """Identify a workload so a checkpoint can refuse the wrong one.

    The digest covers every task's identity and size; resuming a
    checkpoint against a different workload is a loud
    :class:`JournalError` instead of silently merged garbage.
    """
    hasher = hashlib.sha256()
    for task in sorted(tasks, key=lambda t: t.task_id):
        hasher.update(
            f"{task.task_id}:{task.query_id}:{task.query_length}:"
            f"{task.cells}:{task.chunk_index}\n".encode("utf-8")
        )
    return {
        "tasks": len(tasks),
        "cells": sum(t.cells for t in tasks),
        "digest": hasher.hexdigest(),
    }


def _encode_payload(payload: object) -> object:
    """JSON-encode a TaskResult payload (hit tuples or None)."""
    if payload is None:
        return None
    if isinstance(payload, (tuple, list)) and all(
        isinstance(hit, SearchHit) for hit in payload
    ):
        return {
            "hits": [
                [h.subject_id, h.subject_index, h.score, h.subject_length]
                for h in payload
            ]
        }
    raise JournalError(
        f"cannot journal result payload of type {type(payload).__name__}"
    )


def _decode_payload(encoded: object) -> object:
    if encoded is None:
        return None
    if isinstance(encoded, dict) and "hits" in encoded:
        return tuple(
            SearchHit(
                subject_id=str(sid),
                subject_index=int(sidx),
                score=int(score),
                subject_length=int(slen),
            )
            for sid, sidx, score, slen in encoded["hits"]
        )
    raise JournalError(f"unrecognized journaled payload: {encoded!r}")


def _complete_record(result: TaskResult, now: float) -> dict:
    return {
        "type": "complete",
        "time": now,
        "task": result.task_id,
        "pe": result.pe_id,
        "elapsed": result.elapsed,
        "cells": result.cells,
        "payload": _encode_payload(result.payload),
    }


def _decode_result(record: dict) -> TaskResult:
    return TaskResult(
        task_id=int(record["task"]),
        pe_id=str(record["pe"]),
        elapsed=float(record["elapsed"]),
        cells=int(record["cells"]),
        payload=_decode_payload(record.get("payload")),
    )


@dataclass
class RecoveredState:
    """Everything recovery extracted from one checkpoint directory."""

    #: Winning ``complete`` records, task-id order (first write wins).
    finished_records: list[dict] = field(default_factory=list)
    header: dict | None = None
    journal_records: int = 0
    journal_good_bytes: int = 0
    torn_tail: bool = False
    snapshot_tasks: int = 0

    @property
    def empty(self) -> bool:
        return not self.finished_records and self.header is None

    def results(self) -> list[TaskResult]:
        """The recovered winning results, payloads decoded."""
        return [_decode_result(r) for r in self.finished_records]


#: Admission-lifecycle record types of ``repro.service_journal.v1``.
SERVICE_RECORD_TYPES = (
    "header", "admit", "dispatch", "complete", "cancel", "expire",
    "drain", "drain_complete",
)

#: Request outcome -> service journal record type.
_SERVICE_OUTCOME_TYPES = {
    "done": "complete",
    "cancelled": "cancel",
    "expired": "expire",
}


@dataclass
class ServiceRecoveredState:
    """Folded admission state replayed from one service journal.

    ``requests`` holds one dict per ever-admitted request, in original
    admission order, each carrying the last-known lifecycle state
    (``queued``/``running``/``done``/``expired``/``cancelled``) plus
    everything needed to re-create its task and — for cluster/threaded
    environments — the inline query payload to re-execute it.
    """

    requests: list[dict] = field(default_factory=list)
    draining: bool = False
    drained: bool = False
    records: int = 0
    good_bytes: int = 0
    torn_tail: bool = False

    @property
    def empty(self) -> bool:
        return not self.requests and not self.draining


def _fold_service_records(
    records: list[dict], path: Path
) -> ServiceRecoveredState:
    """Collapse a service journal into per-request final states."""
    state = ServiceRecoveredState(records=len(records))
    by_id: dict[str, dict] = {}
    for record in records:
        kind = record.get("type")
        if kind == "header":
            if record.get("schema") != SERVICE_JOURNAL_SCHEMA:
                raise JournalError(
                    f"{path}: unsupported service journal schema "
                    f"{record.get('schema')!r}"
                )
        elif kind == "admit":
            request_id = str(record["request"])
            if request_id in by_id:
                continue  # duplicate admit (idempotent resubmission)
            folded = {
                "request_id": request_id,
                "tenant": str(record["tenant"]),
                "task": int(record["task"]),
                "query_id": str(record["query_id"]),
                "query_length": int(record["query_length"]),
                "cells": int(record["cells"]),
                "submitted_at": float(record["submitted_at"]),
                "deadline": (
                    None if record.get("deadline") is None
                    else float(record["deadline"])
                ),
                "query": record.get("query"),
                "wall": record.get("wall"),
                # Compaction folds terminal state into the admit record
                # so a compacted journal replays without its history.
                "state": str(record.get("state", "queued")),
                "dispatched_at": record.get("dispatched_at"),
                "finished_at": record.get("finished_at"),
            }
            by_id[request_id] = folded
            state.requests.append(folded)
        elif kind == "dispatch":
            folded = by_id.get(str(record["request"]))
            if folded is not None and folded["state"] == "queued":
                folded["state"] = "running"
                folded["dispatched_at"] = float(record["time"])
        elif kind in ("complete", "cancel", "expire"):
            folded = by_id.get(str(record["request"]))
            if folded is not None:
                folded["state"] = {
                    "complete": "done", "cancel": "cancelled",
                    "expire": "expired",
                }[kind]
                folded["finished_at"] = float(record["time"])
        elif kind == "drain":
            state.draining = True
        elif kind == "drain_complete":
            state.drained = True
    return state


class CheckpointStore:
    """Journal + snapshot pair under one directory.

    Acts as the master's journal sink (the ``on_*`` hooks) and as the
    recovery source (:meth:`recover`/:meth:`open`).  ``sync_every``
    maps straight onto :class:`Journal`; ``compact_every`` writes a
    snapshot and restarts the journal every N winning completions
    (``0`` disables compaction).

    A service-running master additionally journals its admission
    lifecycle into a sibling file (``service.jsonl``,
    ``repro.service_journal.v1``) through the ``on_service_*`` hooks;
    :meth:`open_service` replays it so a cold-restarted service master
    can rebuild its per-tenant queues and in-flight sets from disk.
    """

    JOURNAL_NAME = "journal.jsonl"
    SNAPSHOT_NAME = "snapshot.json"
    SERVICE_NAME = "service.jsonl"

    def __init__(
        self,
        directory: str | Path,
        sync_every: int = 1,
        compact_every: int = 0,
    ):
        if compact_every < 0:
            raise ValueError("compact_every must be non-negative")
        self.directory = Path(directory)
        self.sync_every = sync_every
        self.compact_every = compact_every
        self._journal: Journal | None = None
        self._workload: dict | None = None
        #: task id -> winning complete record (journaled or recovered).
        self._finished: dict[int, dict] = {}
        self._since_compaction = 0
        self._service_journal: Journal | None = None
        #: request id -> folded admission record (mirrors the service
        #: journal so compaction can rewrite it from memory).
        self._service_state: dict[str, dict] = {}
        self._service_draining = False

    @property
    def journal_path(self) -> Path:
        return self.directory / self.JOURNAL_NAME

    @property
    def snapshot_path(self) -> Path:
        return self.directory / self.SNAPSHOT_NAME

    @property
    def service_path(self) -> Path:
        return self.directory / self.SERVICE_NAME

    @property
    def service_open(self) -> bool:
        """True once :meth:`open_service` opened the service journal."""
        return self._service_journal is not None

    # -- recovery -------------------------------------------------------
    def _load_snapshot(self, workload: dict | None) -> list[dict]:
        path = self.snapshot_path
        if not path.exists():
            return []
        text = path.read_text(encoding="utf-8")
        if not text.strip():
            return []  # an empty snapshot is the same as no snapshot
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise JournalError(f"{path}: unreadable snapshot: {exc}") from None
        if not isinstance(document, dict) or (
            document.get("schema") != SNAPSHOT_SCHEMA
        ):
            raise JournalError(
                f"{path}: not a {SNAPSHOT_SCHEMA} snapshot"
            )
        self._check_workload(workload, document.get("workload"), path)
        finished = document.get("finished", [])
        if not isinstance(finished, list):
            raise JournalError(f"{path}: malformed finished list")
        return finished

    @staticmethod
    def _check_workload(
        expected: dict | None, found: object, path: Path
    ) -> None:
        if expected is None or found is None:
            return
        if expected.get("digest") != (found or {}).get("digest"):
            raise JournalError(
                f"{path}: checkpoint belongs to a different workload "
                f"(digest {(found or {}).get('digest')!r}, "
                f"expected {expected.get('digest')!r})"
            )

    def recover(self, workload: dict | None = None) -> RecoveredState:
        """Replay snapshot + journal into a :class:`RecoveredState`.

        Read-only: safe to call on a directory another process wrote,
        or mid-run on an open store (after :meth:`sync`).  Passing the
        current ``workload`` fingerprint validates the checkpoint
        against it.
        """
        state = RecoveredState()
        for record in self._load_snapshot(workload):
            task_id = int(record["task"])
            if task_id not in self._snapshot_seen(state):
                state.finished_records.append(record)
        state.snapshot_tasks = len(state.finished_records)

        scan = scan_journal(self.journal_path)
        if not scan.ok:
            raise JournalError(
                f"{self.journal_path}: corrupt record at line "
                f"{scan.error_line}: {scan.error}"
            )
        state.torn_tail = scan.torn
        state.journal_records = len(scan.records)
        state.journal_good_bytes = scan.good_bytes
        seen = {int(r["task"]) for r in state.finished_records}
        for record in scan.records:
            kind = record.get("type")
            if kind == "header":
                if record.get("schema") != JOURNAL_SCHEMA:
                    raise JournalError(
                        f"{self.journal_path}: unsupported journal schema "
                        f"{record.get('schema')!r}"
                    )
                self._check_workload(
                    workload, record.get("workload"), self.journal_path
                )
                if state.header is None:
                    state.header = record
            elif kind == "complete":
                task_id = int(record["task"])
                if task_id not in seen:
                    seen.add(task_id)
                    state.finished_records.append(record)
        state.finished_records.sort(key=lambda r: int(r["task"]))
        return state

    @staticmethod
    def _snapshot_seen(state: RecoveredState) -> set[int]:
        return {int(r["task"]) for r in state.finished_records}

    def open(self, workload: dict) -> RecoveredState:
        """Recover what exists, heal a torn tail, open for appending.

        Creates the directory on first use; writes a header record when
        the journal is fresh (or was just compacted away).  Returns the
        recovered state so the caller can restore it onto its master.
        """
        if self._journal is not None:
            raise JournalError("checkpoint store is already open")
        self.directory.mkdir(parents=True, exist_ok=True)
        recovered = self.recover(workload)
        if recovered.torn_tail:
            with open(self.journal_path, "r+b") as handle:
                handle.truncate(recovered.journal_good_bytes)
        self._workload = dict(workload)
        self._finished = {
            int(r["task"]): r for r in recovered.finished_records
        }
        self._since_compaction = 0
        self._journal = Journal(self.journal_path, self.sync_every)
        if recovered.header is None:
            self._append(self._header_record())
        return recovered

    def _header_record(self, now: float = 0.0) -> dict:
        return {
            "type": "header",
            "schema": JOURNAL_SCHEMA,
            "workload": self._workload,
            "time": now,
        }

    # -- service journal ------------------------------------------------
    def recover_service(self) -> ServiceRecoveredState:
        """Replay the service journal into folded per-request states.

        Read-only, same failure semantics as :meth:`recover`: a torn
        final record is dropped (flagged via ``torn_tail``), mid-file
        corruption raises :class:`JournalError` loudly.  A missing file
        replays as empty — the service never admitted anything.
        """
        scan = scan_journal(self.service_path)
        if not scan.ok:
            raise JournalError(
                f"{self.service_path}: corrupt record at line "
                f"{scan.error_line}: {scan.error}"
            )
        state = _fold_service_records(scan.records, self.service_path)
        state.torn_tail = scan.torn
        state.good_bytes = scan.good_bytes
        return state

    def open_service(self) -> ServiceRecoveredState:
        """Recover the service journal, heal its tail, open for appends.

        The service analogue of :meth:`open`: replays what exists (so a
        cold-restarted :class:`~repro.service.core.ServiceCore` can
        rebuild its queues), truncates a torn tail, seeds the in-memory
        mirror compaction rewrites from, and appends a header when the
        file is fresh.  Requires the store itself to be open.
        """
        if self._journal is None:
            raise JournalError("checkpoint store is not open")
        if self._service_journal is not None:
            raise JournalError("service journal is already open")
        recovered = self.recover_service()
        if recovered.torn_tail:
            with open(self.service_path, "r+b") as handle:
                handle.truncate(recovered.good_bytes)
        self._service_state = {
            dict(r)["request_id"]: dict(r) for r in recovered.requests
        }
        self._service_draining = recovered.draining
        self._service_journal = Journal(self.service_path, self.sync_every)
        if recovered.records == 0:
            self._service_append(self._service_header())
        return recovered

    def _service_header(self, now: float = 0.0) -> dict:
        return {
            "type": "header",
            "schema": SERVICE_JOURNAL_SCHEMA,
            "time": now,
        }

    def _service_append(self, record: dict) -> None:
        if self._service_journal is None:
            raise JournalError("service journal is not open")
        self._service_journal.append(record)

    def on_service_admit(
        self,
        request_id: str,
        tenant: str,
        task_id: int,
        query_id: str,
        query_length: int,
        cells: int,
        now: float,
        deadline: float | None = None,
        query: dict | None = None,
    ) -> None:
        """One request cleared admission (durable before the reply)."""
        record = {
            "type": "admit",
            "time": now,
            "request": request_id,
            "tenant": tenant,
            "task": task_id,
            "query_id": query_id,
            "query_length": query_length,
            "cells": cells,
            "submitted_at": now,
            "deadline": deadline,
            # Wall-clock anchor: ``now`` lives in the dead process's
            # monotonic clock, which restarts at zero on recovery.  A
            # real-time environment translates deadlines into its new
            # clock domain through this anchor (the DES shares one
            # virtual clock across incarnations and ignores it).
            "wall": time.time(),
        }
        if query is not None:
            record["query"] = dict(query)
        self._service_append(record)
        folded = dict(record)
        folded["request_id"] = request_id
        folded["state"] = "queued"
        folded["dispatched_at"] = None
        folded["finished_at"] = None
        self._service_state[request_id] = folded

    def on_service_dispatch(self, request_id: str, now: float) -> None:
        self._service_append(
            {"type": "dispatch", "time": now, "request": request_id}
        )
        folded = self._service_state.get(request_id)
        if folded is not None:
            folded["state"] = "running"
            folded["dispatched_at"] = now

    def on_service_retire(
        self, request_id: str, outcome: str, now: float
    ) -> None:
        """A request reached a terminal state (done/cancelled/expired)."""
        kind = _SERVICE_OUTCOME_TYPES.get(outcome)
        if kind is None:
            raise JournalError(f"unknown service outcome {outcome!r}")
        self._service_append(
            {"type": kind, "time": now, "request": request_id}
        )
        folded = self._service_state.get(request_id)
        if folded is not None:
            folded["state"] = outcome
            folded["finished_at"] = now

    def on_service_drain(self, now: float) -> None:
        self._service_append({"type": "drain", "time": now})
        self._service_draining = True

    def on_service_drain_complete(self, now: float) -> None:
        self._service_append({"type": "drain_complete", "time": now})

    def _compact_service(self, now: float) -> None:
        """Rewrite the service journal as folded admit records.

        Mirrors master compaction: one ``admit`` record per request with
        its terminal/last-known state embedded, so replay after
        compaction never needs the retired history.
        """
        if self._service_journal is None:
            return
        self._service_journal.close()
        self._service_journal = Journal(
            self.service_path, self.sync_every, fresh=True
        )
        self._service_append(self._service_header(now))
        for request_id, folded in self._service_state.items():
            record = {
                "type": "admit",
                "time": now,
                "request": request_id,
                "tenant": folded["tenant"],
                "task": folded["task"],
                "query_id": folded["query_id"],
                "query_length": folded["query_length"],
                "cells": folded["cells"],
                "submitted_at": folded["submitted_at"],
                "deadline": folded["deadline"],
                "wall": folded.get("wall"),
                "state": folded["state"],
                "dispatched_at": folded["dispatched_at"],
                "finished_at": folded["finished_at"],
            }
            if folded.get("query") is not None:
                record["query"] = dict(folded["query"])
            self._service_append(record)
        if self._service_draining:
            self._service_append({"type": "drain", "time": now})

    # -- journal sink (the Master's hooks) ------------------------------
    def _append(self, record: dict) -> None:
        if self._journal is None:
            raise JournalError("checkpoint store is not open")
        self._journal.append(record)

    def on_register(self, pe_id: str, now: float, attempt: int = 0) -> None:
        self._append(
            {"type": "register", "time": now, "pe": pe_id,
             "attempt": attempt}
        )

    def on_deregister(
        self, pe_id: str, now: float, reason: str, released: tuple[int, ...]
    ) -> None:
        self._append(
            {"type": "deregister", "time": now, "pe": pe_id,
             "reason": reason, "released": list(released)}
        )

    def on_assign(
        self, pe_id: str, task_id: int, now: float, kind: str = "assign"
    ) -> None:
        self._append(
            {"type": "assign", "time": now, "pe": pe_id, "task": task_id,
             "kind": kind}
        )

    def on_complete(
        self,
        result: TaskResult,
        first: bool,
        losers: tuple[str, ...],
        now: float,
    ) -> None:
        if not first:
            return  # a stale completion changes no durable state
        record = _complete_record(result, now)
        self._append(record)
        self._finished[result.task_id] = record
        for loser in losers:
            self._append(
                {"type": "cancel", "time": now, "pe": loser,
                 "task": result.task_id}
            )
        self._since_compaction += 1
        if self.compact_every and (
            self._since_compaction >= self.compact_every
        ):
            self.compact(now)

    def on_cancelled(self, pe_id: str, task_id: int, now: float) -> None:
        self._append(
            {"type": "cancelled", "time": now, "pe": pe_id, "task": task_id}
        )

    # -- snapshots ------------------------------------------------------
    def compact(self, now: float = 0.0) -> None:
        """Snapshot all finished results atomically, restart the journal.

        Write order is what makes this crash-safe: the snapshot reaches
        disk (tmp + fsync + rename + directory fsync) *before* the
        journal is truncated, so every instant in time has either the
        old journal or the new snapshot holding the full finished set.
        """
        if self._journal is None:
            raise JournalError("checkpoint store is not open")
        document = {
            "schema": SNAPSHOT_SCHEMA,
            "workload": self._workload,
            "time": now,
            "finished": [
                self._finished[task_id] for task_id in sorted(self._finished)
            ],
        }
        tmp = self.snapshot_path.with_name(self.SNAPSHOT_NAME + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.snapshot_path)
        directory_fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(directory_fd)
        finally:
            os.close(directory_fd)
        self._journal.close()
        self._journal = Journal(
            self.journal_path, self.sync_every, fresh=True
        )
        self._append(self._header_record(now))
        self._compact_service(now)
        self._since_compaction = 0

    # -- lifecycle ------------------------------------------------------
    def sync(self) -> None:
        if self._journal is not None:
            self._journal.sync()
        if self._service_journal is not None:
            self._service_journal.sync()

    def close(self) -> None:
        if self._service_journal is not None:
            self._service_journal.close()
            self._service_journal = None
        if self._journal is not None:
            self._journal.close()
            self._journal = None


def restore_into(master, recovered: RecoveredState, now: float = 0.0) -> int:
    """Mark every recovered result finished on a fresh master.

    Emits one ``recovery_task`` event per restored task (via
    ``Master.restore_result``) and a single ``recovery_resume``
    summary event, so ``repro trace analyze`` can report recovered
    versus recomputed work.  Returns the number of restored tasks.

    Results whose task ids the pool does not know are skipped: they
    belong to service-admitted requests (created after the preloaded
    workload), and service recovery re-creates their tasks — with these
    same results — from the service journal's admit records.
    """
    restored = 0
    for result in recovered.results():
        if result.task_id not in master.pool:
            continue
        if master.restore_result(result, now):
            restored += 1
    master.events.emit(
        "recovery_resume",
        now,
        pe="",
        restored=restored,
        journal_records=recovered.journal_records,
        snapshot_tasks=recovered.snapshot_tasks,
        torn_tail=recovered.torn_tail,
    )
    return restored


def open_master(
    tasks: list[Task],
    checkpoint: "str | Path | CheckpointStore | None" = None,
    *,
    now: float = 0.0,
    **master_kwargs,
):
    """Open (or resume) a journal, build a master over it, restore it.

    *checkpoint* is a directory, an unopened :class:`CheckpointStore`,
    or ``None`` for a journal-less master.  The master journals into
    the opened store, and every durable winning result is restored
    onto it at *now* before anything else touches it.  Returns
    ``(master, store, recovered)``; the last two are ``None`` without
    a checkpoint.  *master_kwargs* go to :class:`~repro.core.master.Master`.
    """
    from ..core.master import Master

    store = recovered = None
    if checkpoint is not None:
        store = (
            checkpoint
            if isinstance(checkpoint, CheckpointStore)
            else CheckpointStore(checkpoint)
        )
        recovered = store.open(workload_fingerprint(list(tasks)))
    master = Master(list(tasks), journal=store, **master_kwargs)
    if recovered is not None and not recovered.empty:
        restore_into(master, recovered, now=now)
    return master, store, recovered
