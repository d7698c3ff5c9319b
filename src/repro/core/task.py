"""Task model and task pool — the heart of Section IV.

The paper defines a task as *the comparison of one query sequence to one
genomic database* (very coarse-grained, Fig. 3c) and gives each task one
of three states: **ready**, **executing**, **finished** (Section
IV-A-3).  The workload-adjustment mechanism follows directly from the
state machine: an idle PE that finds no *ready* task receives a
**replica** of an *executing* one; the first executor to finish wins and
the others are cancelled.

:class:`TaskPool` owns that state machine and its invariants.  It is
deliberately free of any notion of time or transport so that the
threaded runtime (:mod:`repro.core.runtime`) and the discrete-event
simulator (:mod:`repro.simulate`) drive the *same* scheduling logic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable

__all__ = [
    "TaskState",
    "Task",
    "TaskBatch",
    "TaskResult",
    "TaskPool",
    "group_into_batches",
]


class TaskState(enum.Enum):
    """The paper's three task states."""

    READY = "ready"
    EXECUTING = "executing"
    FINISHED = "finished"


@dataclass(frozen=True)
class Task:
    """One unit of work: one query against one whole database.

    ``cells`` (query length x database residues) is the task's exact
    cost in DP-cell updates; every performance model and GCUPS figure is
    derived from it.  ``query_index`` points into the indexed query file
    so slaves can fetch the sequence with one seek (Section IV-B).

    ``chunk_index`` identifies the database chunk for the coarse-grained
    (Fig. 3b) decomposition; the paper's very coarse tasks always use
    chunk 0 of a single-chunk database.
    """

    task_id: int
    query_id: str
    query_length: int
    cells: int
    query_index: int = -1
    chunk_index: int = 0

    def __post_init__(self) -> None:
        if self.query_length < 0 or self.cells < 0:
            raise ValueError("task sizes must be non-negative")


@dataclass(frozen=True)
class TaskBatch:
    """Several compatible tasks one slave executes in a single sweep.

    A batch is a *worker-side* grouping of an assignment: the master
    still tracks, journals and replicates the member tasks individually
    (batch → per-task fan-out on completion), so scheduling semantics
    are untouched.  Compatibility means the tasks share one database
    chunk (``chunk_index``), which is what lets one multi-query kernel
    sweep serve them all.
    """

    tasks: tuple[Task, ...]

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("a batch needs at least one task")
        chunks = {t.chunk_index for t in self.tasks}
        if len(chunks) != 1:
            raise ValueError(
                f"batch spans database chunks {sorted(chunks)}; "
                "members must share one chunk"
            )

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def chunk_index(self) -> int:
        return self.tasks[0].chunk_index

    @property
    def cells(self) -> int:
        return sum(t.cells for t in self.tasks)


def group_into_batches(
    tasks: Iterable[Task], max_batch: int
) -> list[TaskBatch]:
    """Group an assignment into compatible batches of at most *max_batch*.

    Tasks are grouped by database chunk in arrival order — assignment
    order is preserved within and across batches, so per-task effects
    (progress, completion fan-out) happen in the same order a singleton
    worker would produce them.
    """
    if max_batch < 1:
        raise ValueError("max_batch must be at least 1")
    batches: list[TaskBatch] = []
    current: list[Task] = []
    for task in tasks:
        if current and (
            task.chunk_index != current[0].chunk_index
            or len(current) >= max_batch
        ):
            batches.append(TaskBatch(tasks=tuple(current)))
            current = []
        current.append(task)
    if current:
        batches.append(TaskBatch(tasks=tuple(current)))
    return batches


@dataclass(frozen=True)
class TaskResult:
    """What a slave hands back for one finished task."""

    task_id: int
    pe_id: str
    elapsed: float
    cells: int
    payload: object = None  # e.g. a tuple of SearchHit from a real engine

    @property
    def gcups(self) -> float:
        return self.cells / self.elapsed / 1e9 if self.elapsed > 0 else 0.0


class TaskPoolError(RuntimeError):
    """Raised on an illegal task-state transition."""


@dataclass
class _TaskRecord:
    task: Task
    state: TaskState = TaskState.READY
    executors: set[str] = field(default_factory=set)
    finished_by: str | None = None


class TaskPool:
    """State machine over a set of tasks, with replication.

    The pool starts from the workload given at construction; the
    always-on service grows it with :meth:`add` as admitted requests
    are dispatched (the state machine per task is unchanged).

    Invariants maintained (and asserted by the test suite):

    * a task is FINISHED at most once — by exactly one PE, or by nobody
      when it was abandoned (deadline expiry / client cancellation);
    * a READY task has no executors; an EXECUTING task has >= 1;
    * replicas are only created for EXECUTING tasks and never handed to
      a PE that is already executing the same task;
    * FINISHED is absorbing — no transition leaves it.
    """

    def __init__(self, tasks: Iterable[Task]):
        self._records: dict[int, _TaskRecord] = {}
        self._ready: list[int] = []
        for task in tasks:
            if task.task_id in self._records:
                raise ValueError(f"duplicate task id {task.task_id}")
            self._records[task.task_id] = _TaskRecord(task)
            self._ready.append(task.task_id)
        self._ready.reverse()  # pop() from the end = FIFO by insertion

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._records

    def task(self, task_id: int) -> Task:
        return self._records[task_id].task

    def task_ids(self) -> tuple[int, ...]:
        """Every task id in the pool (any state), unordered."""
        return tuple(self._records)

    def state(self, task_id: int) -> TaskState:
        return self._records[task_id].state

    def executors(self, task_id: int) -> frozenset[str]:
        return frozenset(self._records[task_id].executors)

    def finished_by(self, task_id: int) -> str | None:
        return self._records[task_id].finished_by

    @property
    def num_ready(self) -> int:
        return len(self._ready)

    @property
    def num_executing(self) -> int:
        return sum(
            1
            for r in self._records.values()
            if r.state is TaskState.EXECUTING
        )

    @property
    def num_finished(self) -> int:
        return sum(
            1 for r in self._records.values() if r.state is TaskState.FINISHED
        )

    @property
    def all_finished(self) -> bool:
        return self.num_finished == len(self._records)

    def unfinished_ids(self) -> list[int]:
        """Task ids not yet FINISHED, in id order (for diagnostics)."""
        return sorted(
            task_id
            for task_id, r in self._records.items()
            if r.state is not TaskState.FINISHED
        )

    def executing_tasks(self) -> list[Task]:
        return [
            r.task
            for r in self._records.values()
            if r.state is TaskState.EXECUTING
        ]

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def add(self, task: Task) -> None:
        """Append a new READY task (service-admitted work).

        The task joins the back of the FIFO, behind every task already
        waiting, so admitted requests never overtake the preloaded
        workload or each other.
        """
        if task.task_id in self._records:
            raise ValueError(f"duplicate task id {task.task_id}")
        self._records[task.task_id] = _TaskRecord(task)
        self._ready.insert(0, task.task_id)  # back of the FIFO

    def abandon(self, task_id: int) -> tuple[str, ...] | None:
        """Retire *task_id* without a result (deadline expiry / cancel).

        The task transitions straight to FINISHED with ``finished_by``
        ``None`` — FINISHED is absorbing, so a late completion from a
        still-running executor is stale and its result is dropped,
        exactly like losing a replica race.  Returns the executors that
        must now be told to stop, sorted, or ``None`` when the task
        already finished (the completion beat the deadline: its result
        stands).
        """
        record = self._records[task_id]
        if record.state is TaskState.FINISHED:
            return None
        executors = tuple(sorted(record.executors))
        if record.state is TaskState.READY:
            self._ready.remove(task_id)
        record.state = TaskState.FINISHED
        record.finished_by = None
        record.executors = set()
        return executors

    def acquire(self, pe_id: str, count: int) -> list[Task]:
        """Hand up to *count* READY tasks to *pe_id* (FIFO order)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        granted: list[Task] = []
        while self._ready and len(granted) < count:
            task_id = self._ready.pop()
            record = self._records[task_id]
            record.state = TaskState.EXECUTING
            record.executors.add(pe_id)
            granted.append(record.task)
        return granted

    def replica_candidates(self, pe_id: str) -> list[Task]:
        """EXECUTING tasks that *pe_id* is not already working on."""
        return [
            r.task
            for r in self._records.values()
            if r.state is TaskState.EXECUTING and pe_id not in r.executors
        ]

    def assign_replica(self, pe_id: str, task_id: int) -> Task:
        """Give *pe_id* a replica of an EXECUTING task (the adjustment)."""
        record = self._records[task_id]
        if record.state is not TaskState.EXECUTING:
            raise TaskPoolError(
                f"cannot replicate task {task_id} in state {record.state}"
            )
        if pe_id in record.executors:
            raise TaskPoolError(
                f"PE {pe_id!r} already executes task {task_id}"
            )
        record.executors.add(pe_id)
        return record.task

    def complete(
        self, task_id: int, pe_id: str, adopt: bool = False
    ) -> tuple[bool, tuple[str, ...]]:
        """Record that *pe_id* finished *task_id*.

        Returns ``(first, losers)``: *first* is False for a stale
        completion (another executor won the race — the result must be
        discarded), and *losers* are the other PEs whose replicas should
        now be cancelled, sorted so every caller acts on them in the
        same order in every process.

        With ``adopt=True`` a completion from a PE that is *not* a
        registered executor of an unfinished task is accepted instead
        of rejected.  That is the at-least-once path: a reaped or
        re-registered worker whose queue was released may still hand in
        real finished work, and discarding it would waste the
        computation.  First-winner semantics are unchanged — if the
        task already FINISHED the adoption is stale.
        """
        record = self._records[task_id]
        if record.state is TaskState.FINISHED:
            return False, ()
        if pe_id not in record.executors:
            if not adopt:
                raise TaskPoolError(
                    f"PE {pe_id!r} completed task {task_id} it never acquired"
                )
            if record.state is TaskState.READY:
                self._ready.remove(task_id)
            record.executors.add(pe_id)
        record.state = TaskState.FINISHED
        record.finished_by = pe_id
        losers = tuple(sorted(record.executors - {pe_id}))
        record.executors = {pe_id}
        return True, losers

    def restore_finished(self, task_id: int, pe_id: str) -> bool:
        """Mark *task_id* FINISHED by *pe_id* during journal recovery.

        Only valid on a READY task of a freshly built pool (recovery
        replays the journal before any scheduling happens).  Returns
        False if the task is already FINISHED — snapshot and journal
        legitimately overlap, so restoring twice is a no-op — and
        raises :class:`TaskPoolError` on an EXECUTING task, which would
        mean recovery raced live scheduling.
        """
        record = self._records[task_id]
        if record.state is TaskState.FINISHED:
            return False
        if record.state is not TaskState.READY:
            raise TaskPoolError(
                f"cannot restore task {task_id} in state {record.state}"
            )
        self._ready.remove(task_id)
        record.state = TaskState.FINISHED
        record.finished_by = pe_id
        record.executors = {pe_id}
        return True

    def release(self, task_id: int, pe_id: str) -> None:
        """*pe_id* stops executing *task_id* (cancellation or failure).

        If this removed the last executor of a still-unfinished task,
        the task transitions back to READY so no work is ever lost —
        the robustness property the paper's future-work section asks for
        (nodes leaving the platform mid-run).
        """
        record = self._records[task_id]
        if record.state is TaskState.FINISHED:
            return  # post-finish cancellation: nothing to do
        record.executors.discard(pe_id)
        if not record.executors and record.state is not TaskState.READY:
            # The READY guard makes release idempotent: an at-least-once
            # transport may deliver the same cancellation twice, and the
            # task must not be enqueued twice.
            record.state = TaskState.READY
            self._ready.insert(0, task_id)  # back of the FIFO
