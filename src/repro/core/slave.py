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
``progress(task, cells, interval)``, ``complete(task, hits, elapsed)``,
``cancelled(task)``
    The notifications of Fig. 4.

The loop owns everything the environments share: crash checks, stale
cancel flags, batching, straggle dilation and the per-task fan-out of a
multi-query sweep.
"""

from __future__ import annotations

import time

from ..faults import FaultInjector, InjectedCrash
from ..sequences.database import SequenceDatabase
from .engines import ChunkProgress, Engine
from .task import Task, group_into_batches

__all__ = ["serve"]


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
    applies the fault plan's crashes and stragglers to this slave.
    Returns the number of tasks completed.  A planned crash raises
    :class:`~repro.faults.InjectedCrash` — the slave dies silently.
    """
    pe_id = link.pe_id
    completed = 0

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
            link.progress(task, chunk.cells, max(now - last, 1e-9))
            last = now
            return task.task_id not in link.cancels

        if len(tasks) == 1:
            hit_lists = [
                engine.search(
                    queries[0], database,
                    progress=lambda chunk: progress(0, chunk),
                )
            ]
        else:
            hit_lists = engine.search_batch(
                queries, database, progress=progress,
                cancelled=lambda position: (
                    tasks[position].task_id in link.cancels
                ),
            )
        elapsed = max(clock() - started, 1e-9)
        total_cells = sum(task.cells for task in tasks)
        done = 0
        for task, hits in zip(tasks, hit_lists):
            if hits is None:  # aborted by cancellation
                link.cancelled(task)
                link.cancels.discard(task.task_id)
                continue
            share = task.cells / total_cells if total_cells else 1.0
            link.complete(task, hits, max(elapsed * share, 1e-9))
            done += 1
        return done

    while True:
        check_crash()
        assignment, batch = link.request()
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
