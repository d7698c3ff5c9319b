"""Integration tests for the threaded master/slave runtime."""

import pytest

from repro.align import BLOSUM62, DEFAULT_GAPS, database_search
from repro.core import (
    HybridRuntime,
    InterSequenceEngine,
    ScanEngine,
    SelfScheduling,
    StripedSSEEngine,
    build_tasks,
)
from repro.sequences import query_set, random_database


@pytest.fixture
def workload(rng):
    queries = query_set(5, rng, min_length=20, max_length=60)
    database = random_database(30, 60.0, rng, name="wl")
    return queries, database


class TestBuildTasks:
    def test_one_task_per_query(self, workload):
        queries, database = workload
        tasks = build_tasks(queries, database)
        assert len(tasks) == 5
        assert tasks[2].cells == len(queries[2]) * database.total_residues
        assert tasks[2].query_index == 2


class TestHybridRun:
    def test_results_match_direct_search(self, workload):
        queries, database = workload
        runtime = HybridRuntime(
            {
                "gpu0": InterSequenceEngine(BLOSUM62, DEFAULT_GAPS, chunk_size=8),
                "sse0": StripedSSEEngine(BLOSUM62, DEFAULT_GAPS, chunk_size=8),
            }
        )
        report = runtime.run(queries, database)
        assert report.makespan > 0
        assert report.total_cells == sum(
            len(q) * database.total_residues for q in queries
        )
        for query in queries:
            expected = database_search(
                query, database, BLOSUM62, DEFAULT_GAPS, top=10
            ).hits
            got = report.results[query.id]
            assert [(h.subject_index, h.score) for h in got] == [
                (h.subject_index, h.score) for h in expected
            ]

    def test_every_task_completed_exactly_once(self, workload):
        queries, database = workload
        runtime = HybridRuntime(
            {
                "a": ScanEngine(BLOSUM62, DEFAULT_GAPS, chunk_size=8),
                "b": ScanEngine(BLOSUM62, DEFAULT_GAPS, chunk_size=8),
                "c": ScanEngine(BLOSUM62, DEFAULT_GAPS, chunk_size=8),
            },
            policy=SelfScheduling(),
        )
        report = runtime.run(queries, database)
        assert len(report.results) == len(queries)
        winners = [
            event for event in report.trace
            if event.kind == "complete" and event.value == 1.0
        ]
        assert len(winners) == len(queries)

    def test_replica_races_under_thread_contention(self, workload):
        """More worker threads than cores racing replicas through one
        facade: every task is still won exactly once, with exact hits."""
        import sys

        queries, database = workload
        runtime = HybridRuntime(
            {
                f"pe{i}": ScanEngine(BLOSUM62, DEFAULT_GAPS, chunk_size=1)
                for i in range(6)
            }
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            report = runtime.run(queries, database)
        finally:
            sys.setswitchinterval(interval)
        winners = [
            event.task_id for event in report.trace
            if event.kind == "complete" and event.value == 1.0
        ]
        assert sorted(winners) == list(range(len(queries)))
        assert any(event.kind == "replica" for event in report.trace)
        for query in queries:
            expected = database_search(
                query, database, BLOSUM62, DEFAULT_GAPS, top=10
            ).hits
            assert [(h.subject_index, h.score)
                    for h in report.results[query.id]] == [
                (h.subject_index, h.score) for h in expected
            ]

    def test_single_engine(self, workload):
        queries, database = workload
        runtime = HybridRuntime(
            {"solo": ScanEngine(BLOSUM62, DEFAULT_GAPS, chunk_size=16)}
        )
        report = runtime.run(queries, database)
        assert report.tasks_by_pe == {"solo": len(queries)}

    def test_empty_engines_rejected(self):
        with pytest.raises(ValueError):
            HybridRuntime({})

    def test_adjustment_replicas_appear_with_skewed_engines(self, rng):
        """A very slow worker's last task should get replicated."""
        queries = query_set(4, rng, min_length=25, max_length=40)
        database = random_database(40, 50.0, rng, name="skew")
        runtime = HybridRuntime(
            {
                "fast": InterSequenceEngine(
                    BLOSUM62, DEFAULT_GAPS, chunk_size=40
                ),
                # A tiny chunk size makes the scan engine even slower and
                # gives many cancellation points.
                "slow": StripedSSEEngine(BLOSUM62, DEFAULT_GAPS, chunk_size=1),
            }
        )
        report = runtime.run(queries, database)
        # All results correct regardless of who won each race.
        for query in queries:
            expected = database_search(
                query, database, BLOSUM62, DEFAULT_GAPS, top=10
            ).hits
            got = report.results[query.id]
            assert [(h.subject_index, h.score) for h in got] == [
                (h.subject_index, h.score) for h in expected
            ]
