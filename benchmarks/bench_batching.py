"""Multi-query batching/caching throughput benchmark.

Runs the same 64-query workload two ways — the paper's per-query task
shape (one :meth:`Engine.search` per query, no shared state) and the
batched path (:meth:`Engine.search_batch` through the multi-query
kernel with the pack/profile caches enabled) — and records the
throughput ratio.  The conformance suite proves the two paths
bit-identical; this benchmark proves the batched path is why you would
ever turn it on::

    pytest benchmarks/bench_batching.py --benchmark-only

The acceptance floor for the batching work is a >= 1.5x throughput
gain on this workload; the assertion uses 1.3x to keep the gate robust
on loaded CI machines while the recorded number documents the real
ratio (typically ~2x).
"""

import time

import numpy as np

from repro.align import BLOSUM62, DEFAULT_GAPS
from repro.core import InterSequenceEngine, PackCache, ProfileCache
from repro.sequences import query_set, random_database

from conftest import emit

_NUM_QUERIES = 64
_QUERY_LENGTH = 60
_SUBJECTS = 200
_AVG_SUBJECT = 110.0
_MAX_BATCH = 16


def _workload():
    rng = np.random.default_rng(77)
    queries = query_set(
        _NUM_QUERIES, rng,
        min_length=_QUERY_LENGTH, max_length=_QUERY_LENGTH,
    )
    database = random_database(_SUBJECTS, _AVG_SUBJECT, rng, name="batch64")
    return queries, database


def _cells(queries, database):
    return sum(len(q) for q in queries) * database.total_residues


def _per_query(queries, database):
    """The paper's task shape: one independent search per query."""
    engine = InterSequenceEngine(BLOSUM62, DEFAULT_GAPS, top=10)
    return [engine.search(query, database) for query in queries]


def _batched(queries, database):
    """Coalesced sweeps through the multi-query kernel, caches on."""
    engine = InterSequenceEngine(BLOSUM62, DEFAULT_GAPS, top=10)
    engine.pack_cache = PackCache(capacity=4, name="bench-pack")
    engine.profile_cache = ProfileCache(capacity=256, name="bench-prof")
    results = []
    for start in range(0, len(queries), _MAX_BATCH):
        results.extend(
            engine.search_batch(queries[start:start + _MAX_BATCH], database)
        )
    return results


def _mcups(cells, seconds):
    return cells / seconds / 1e6


def test_per_query_baseline(benchmark):
    queries, database = _workload()
    hits = benchmark(lambda: _per_query(queries, database))
    assert len(hits) == _NUM_QUERIES
    benchmark.extra_info["mcups"] = round(
        _mcups(_cells(queries, database), benchmark.stats["mean"]), 1
    )


def test_batched_with_caches(benchmark):
    queries, database = _workload()
    hits = benchmark(lambda: _batched(queries, database))
    assert len(hits) == _NUM_QUERIES
    benchmark.extra_info["mcups"] = round(
        _mcups(_cells(queries, database), benchmark.stats["mean"]), 1
    )


def test_batching_speedup(benchmark):
    """Head-to-head on one process: batched must beat per-query."""
    queries, database = _workload()
    cells = _cells(queries, database)

    baseline_hits = _per_query(queries, database)  # warm both paths
    batched_hits = _batched(queries, database)
    projection = [
        [(h.subject_index, h.score) for h in hits]
        for hits in baseline_hits
    ]
    assert [
        [(h.subject_index, h.score) for h in hits]
        for hits in batched_hits
    ] == projection

    started = time.perf_counter()
    _per_query(queries, database)
    baseline_elapsed = time.perf_counter() - started

    def run():
        return _batched(queries, database)

    benchmark(run)
    batched_elapsed = benchmark.stats["mean"]
    speedup = baseline_elapsed / batched_elapsed

    emit(
        "Multi-query batching: 64-query workload "
        f"({_SUBJECTS} subjects, batch={_MAX_BATCH})",
        "\n".join([
            f"{'mode':<28}{'seconds':>10}{'MCUPS':>10}",
            f"{'per-query (paper shape)':<28}"
            f"{baseline_elapsed:>10.2f}"
            f"{_mcups(cells, baseline_elapsed):>10.1f}",
            f"{'batched + caches':<28}"
            f"{batched_elapsed:>10.2f}"
            f"{_mcups(cells, batched_elapsed):>10.1f}",
            f"{'speedup':<28}{speedup:>10.2f}x",
        ]),
    )
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= 1.3, (
        f"batching speedup regressed to {speedup:.2f}x"
    )
