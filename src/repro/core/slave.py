"""The slave side of Fig. 4: request -> execute -> notify, until done.

One loop drives every real environment.  The threaded runtime, the
threaded service and the TCP cluster worker differ only in the *link*
they hand to :func:`serve` — a small object that carries the slave's
messages to the master and answers with its replies:

``pe_id``, ``idle_seconds``
    The slave's id, and how long to pause when the master says "wait".
``cancels``
    Set of task ids the master asked this slave to abandon; every reply
    may add to it (losers of a replica race, expired service requests).
``request() -> (Assignment, batch)``
    Ask for work; *batch* is the master-selected coalescing width.
``query(task) -> Sequence``
    The task's query; called once per execution, as it starts.
``progress(task, cells, interval)``
    A progress notification of Fig. 4.
``complete(task, hits, elapsed) -> deliver``, ``cancelled(task) -> deliver``
    The task-end notifications.  Each does the task's once-only
    bookkeeping and returns ``deliver()``, which carries one copy of the
    prepared message to the master.
``poison()`` (optional)
    Links with a byte stream: corrupt it, so the next message goes out
    over a fresh connection.

``request``, ``progress`` and every ``deliver`` reach the master only
through :func:`message_gate`, which under a fault plan sends each
message 0, 1 or 2 times.  The loop owns everything the environments
share: that gate, crash checks, stale cancel flags, batching, straggle
dilation and the per-task fan-out of a multi-query sweep.

Every group of tasks, a lone task or replica included, runs as one
:meth:`~repro.core.engines.Engine.search_batch` call.  After each chunk
of the database the engine polls each live task's cancel flag (in
``cancels``) and then reports its progress; a cancelled task, or one
whose progress reply says it was cancelled, is scored no further and
ends with ``cancelled``.
"""

from __future__ import annotations

import time

from ..faults import MESSAGE_RULES, FaultInjector, InjectedCrash
from ..sequences.database import SequenceDatabase
from .engines import ChunkProgress, Engine
from .master import Assignment
from .task import Task, group_into_batches

__all__ = ["message_gate", "serve"]

#: Pause before a dropped must-deliver message is retransmitted.
_RETRANSMIT_SECONDS = 0.005


def message_gate(link, injector: FaultInjector | None, clock):
    """The fault gate every message from *link* to the master crosses.

    Returns ``send(kind, deliver)``, which decides the message's fate
    from :data:`~repro.faults.MESSAGE_RULES` and calls ``deliver()`` 0,
    1 or 2 times; it returns the last reply, or ``None`` when the
    message was lost.  Without an *injector* it delivers once.
    """
    if injector is None:
        return lambda kind, deliver: deliver()
    pe_id = link.pe_id
    poison = getattr(link, "poison", None)

    def send(kind: str, deliver):
        rule = MESSAGE_RULES[kind]
        while (wait := injector.partition_remaining(pe_id, clock())) > 0:
            if not rule.hold:
                return None  # lost in the partition
            time.sleep(wait)
        action = injector.message_action(
            pe_id, kind, clock(), allow=rule.allow
        )
        if action == "corrupt":
            if poison is None:
                action = "drop"
            else:
                poison()
        if action == "drop":
            if not rule.retransmit:
                return None
            time.sleep(_RETRANSMIT_SECONDS)
        elif action == "delay":
            time.sleep(injector.delay_seconds)
        reply = deliver()
        if action == "duplicate":
            reply = deliver()  # the same message again; the master dedupes
        return reply

    return send


def serve(
    link,
    engine: Engine,
    chunks: list[SequenceDatabase],
    *,
    clock,
    injector: FaultInjector | None = None,
) -> int:
    """Serve the master over *link* until it says done.

    *chunks* are the database chunks tasks index by ``chunk_index``;
    *clock* times progress intervals and elapsed times; *injector*
    applies the fault plan to this slave: its crashes, stragglers and,
    through :func:`message_gate`, message faults and partitions.
    Returns the number of tasks completed.  A planned crash raises
    :class:`~repro.faults.InjectedCrash` — the slave dies silently.
    """
    pe_id = link.pe_id
    completed = 0
    send = message_gate(link, injector, clock)

    def check_crash() -> None:
        if injector is not None and injector.crash_due(
            pe_id, clock(), completed
        ):
            injector.mark_crashed(pe_id, clock())
            raise InjectedCrash(pe_id)

    def execute(tasks: tuple[Task, ...]) -> int:
        """One engine call over *tasks*, fanned back out per task.

        Each task still reports its own progress and its own
        complete/cancelled, so the master, the journal and any replica
        race see the singleton protocol; a sweep's wall-clock time is
        apportioned to its members by cell share.
        """
        database = chunks[tasks[0].chunk_index]
        queries = [link.query(task) for task in tasks]
        started = last = clock()

        def progress(position: int, chunk: ChunkProgress) -> bool:
            nonlocal last
            check_crash()  # crashes can fire mid-task
            now = clock()
            if injector is not None:
                # Dilate the reported interval, so the master's rate
                # estimator sees the straggling in this very sample.
                pause = injector.straggle_sleep(pe_id, now, now - last)
                if pause > 0:
                    time.sleep(pause)
                    now = clock()
            task = tasks[position]
            interval = max(now - last, 1e-9)
            send(
                "progress",
                lambda: link.progress(task, chunk.cells, interval),
            )
            last = now
            return task.task_id not in link.cancels

        hit_lists = engine.search_batch(
            queries, database, progress=progress,
            cancelled=lambda position: tasks[position].task_id in link.cancels,
        )
        elapsed = max(clock() - started, 1e-9)
        total_cells = sum(task.cells for task in tasks)
        done = 0
        for task, hits in zip(tasks, hit_lists):
            if hits is None:  # aborted by cancellation
                send("cancelled", link.cancelled(task))
                link.cancels.discard(task.task_id)
                continue
            share = task.cells / total_cells if total_cells else 1.0
            send(
                "complete",
                link.complete(task, hits, max(elapsed * share, 1e-9)),
            )
            done += 1
        return done

    while True:
        check_crash()
        # A lost request is an empty grant: the slave asks again.
        assignment, batch = send("request", link.request) or (
            Assignment(), 1
        )
        if assignment.done:
            return completed
        if assignment.empty:
            time.sleep(link.idle_seconds)
            continue
        for task in (*assignment.tasks, *assignment.replicas):
            # A fresh grant supersedes a cancel flag left over from a
            # previous attempt at the same task (reap, release,
            # re-assign back to this slave).
            link.cancels.discard(task.task_id)
        for group in group_into_batches(assignment.tasks, max(batch, 1)):
            completed += execute(group.tasks)
        # Replicas always run singly: each races another PE's in-flight
        # copy, so coalescing it would only delay the first completion
        # the mechanism is trying to speed up.
        for task in assignment.replicas:
            completed += execute((task,))
