"""Journaling makespan overhead benchmark.

Runs one real threaded workload three ways — no checkpoint, a journal
fsynced on every winning completion (``sync_every=1``, the durable
default), and a batched journal (``sync_every=32``) — and reports the
makespan price of the write-ahead log.  The journal sits on the
master's completion path, so this measures exactly what ``--checkpoint``
costs a run that never crashes::

    pytest benchmarks/bench_checkpoint_overhead.py --benchmark-only
"""

import tempfile

import numpy as np

from repro.align import BLOSUM62, DEFAULT_GAPS
from repro.core import HybridRuntime, ScanEngine, StripedSSEEngine
from repro.durability import CheckpointStore
from repro.sequences import query_set, random_database

from conftest import emit

_QUERIES = 6
_SUBJECTS = 30
_BATCHED_SYNC = 32


def _workload():
    rng = np.random.default_rng(13)
    queries = query_set(_QUERIES, rng, min_length=20, max_length=40)
    database = random_database(_SUBJECTS, 50.0, rng, name="ckptdb")
    return queries, database


def _engines():
    return {
        "sse0": StripedSSEEngine(BLOSUM62, DEFAULT_GAPS, chunk_size=8),
        "scan0": ScanEngine(BLOSUM62, DEFAULT_GAPS, chunk_size=8),
    }


def _run(queries, database, checkpoint_dir=None, sync_every=1):
    runtime = HybridRuntime(
        _engines(),
        checkpoint_dir=(
            None if checkpoint_dir is None
            else CheckpointStore(checkpoint_dir, sync_every=sync_every)
        ),
    )
    return runtime.run(queries, database)


def test_checkpoint_overhead(benchmark):
    queries, database = _workload()

    baseline = _run(queries, database)

    with tempfile.TemporaryDirectory(prefix="ckpt-every-") as directory:
        durable = benchmark.pedantic(
            lambda: _run(queries, database, directory, sync_every=1),
            rounds=1, iterations=1,
        )
    with tempfile.TemporaryDirectory(prefix="ckpt-batch-") as directory:
        batched = _run(
            queries, database, directory, sync_every=_BATCHED_SYNC
        )

    # Journaling must never change the merged results.
    def projection(results):
        return {
            q: tuple((h.subject_index, h.score) for h in hits)
            for q, hits in results.items()
        }

    assert projection(durable.results) == projection(baseline.results)
    assert projection(batched.results) == projection(baseline.results)

    overhead_durable = durable.makespan / baseline.makespan - 1.0
    overhead_batched = batched.makespan / baseline.makespan - 1.0

    emit(
        "Checkpoint journaling makespan overhead",
        f"workload:            {_QUERIES} queries x {_SUBJECTS} subjects\n"
        f"no checkpoint:       {baseline.makespan:10.3f}s\n"
        f"fsync every record:  {durable.makespan:10.3f}s "
        f"({overhead_durable:+.1%})\n"
        f"fsync every {_BATCHED_SYNC:>2}:      {batched.makespan:10.3f}s "
        f"({overhead_batched:+.1%})",
    )
    benchmark.extra_info["makespan_no_checkpoint"] = round(
        baseline.makespan, 4
    )
    benchmark.extra_info["makespan_sync_every_1"] = round(
        durable.makespan, 4
    )
    benchmark.extra_info["makespan_sync_batched"] = round(
        batched.makespan, 4
    )
