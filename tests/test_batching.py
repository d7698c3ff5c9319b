"""Batch-vs-singleton equivalence across all three environments.

The multi-query batching work must be invisible to everything but the
clock: with the same seeds, ``batch`` on vs off yields byte-identical
search results, an identical set of journaled (recoverable) tasks, and
unchanged replica semantics — in the threaded runtime, the DES, and the
TCP cluster alike.
"""

import threading

import pytest

from repro.align import BLOSUM62, DEFAULT_GAPS
from repro.core import (
    HybridRuntime,
    InterSequenceEngine,
    ScanEngine,
    StripedSSEEngine,
    Task,
    TaskBatch,
    ThrottledEngine,
    build_tasks,
    group_into_batches,
)
from repro.durability import CheckpointStore, workload_fingerprint
from repro.sequences import query_set, random_database


def task(task_id: int, chunk_index: int = 0) -> Task:
    return Task(
        task_id=task_id,
        query_id=f"q{task_id}",
        query_length=10,
        cells=100,
        query_index=task_id,
        chunk_index=chunk_index,
    )


#: Every engine kind, and a throttled lane engine, each cutting the
#: test databases into several chunks.
ENGINE_KINDS = ("gpu", "sse", "scan", "throttled")


def make_engine(kind: str):
    if kind == "throttled":
        return ThrottledEngine(make_engine("gpu"), delay_per_chunk=0.0)
    if kind == "gpu":
        return InterSequenceEngine(BLOSUM62, DEFAULT_GAPS, top=6, lanes=4)
    engine_cls = {"sse": StripedSSEEngine, "scan": ScanEngine}[kind]
    return engine_cls(BLOSUM62, DEFAULT_GAPS, top=6, chunk_size=4)


def hit_projection(results):
    return {
        query_id: [(h.subject_index, h.score) for h in hits]
        for query_id, hits in results.items()
    }


class TestTaskBatch:
    def test_validation(self):
        with pytest.raises(ValueError):
            TaskBatch(tasks=())
        with pytest.raises(ValueError):
            TaskBatch(tasks=(task(0, chunk_index=0), task(1, chunk_index=1)))

    def test_properties(self):
        batch = TaskBatch(tasks=(task(0), task(1), task(2)))
        assert len(batch) == 3
        assert batch.chunk_index == 0
        assert batch.cells == 300


class TestGroupIntoBatches:
    def test_splits_on_chunk_boundary(self):
        tasks = [task(0, 0), task(1, 0), task(2, 1), task(3, 1)]
        groups = group_into_batches(tasks, max_batch=4)
        assert [[t.task_id for t in g.tasks] for g in groups] == [
            [0, 1],
            [2, 3],
        ]

    def test_splits_on_max_batch(self):
        tasks = [task(i) for i in range(5)]
        groups = group_into_batches(tasks, max_batch=2)
        assert [[t.task_id for t in g.tasks] for g in groups] == [
            [0, 1],
            [2, 3],
            [4],
        ]

    def test_preserves_arrival_order(self):
        tasks = [task(3), task(1), task(2)]
        groups = group_into_batches(tasks, max_batch=8)
        assert [t.task_id for t in groups[0].tasks] == [3, 1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            group_into_batches([task(0)], max_batch=0)
        assert group_into_batches([], max_batch=3) == []


class TestEngineSearchBatch:
    """The engine-level batch path vs N singleton searches."""

    @pytest.fixture
    def workload(self, rng):
        queries = query_set(5, rng, min_length=15, max_length=40)
        database = random_database(22, 40.0, rng, name="esb")
        return queries, database

    @pytest.mark.parametrize("engine_cls", [
        InterSequenceEngine, StripedSSEEngine, ScanEngine,
    ])
    def test_batch_equals_singletons(self, workload, engine_cls):
        queries, database = workload
        engine = engine_cls(BLOSUM62, DEFAULT_GAPS, top=6, chunk_size=8)
        singles = [
            [(h.subject_index, h.score) for h in
             engine.search(q, database)]
            for q in queries
        ]
        batch = engine.search_batch(queries, database)
        assert [
            [(h.subject_index, h.score) for h in hits] for hits in batch
        ] == singles

    @pytest.mark.parametrize("engine_kind", ENGINE_KINDS)
    def test_abort_one_query_leaves_others(self, workload, engine_kind):
        queries, database = workload
        engine = make_engine(engine_kind)
        calls = []

        def progress(position, chunk):
            calls.append(position)
            return position != 1  # abort only the second query

        batch = engine.search_batch(queries, database, progress=progress)
        assert batch[1] is None
        assert calls.count(1) == 1  # an aborted query is scored no further
        assert calls.count(0) > 1  # several chunks
        for i in (0, 2, 3, 4):
            assert batch[i] == engine.search(queries[i], database)

    @pytest.mark.parametrize("engine_kind", ENGINE_KINDS)
    def test_cancelled_callback_aborts_query(self, workload, engine_kind):
        queries, database = workload
        engine = make_engine(engine_kind)
        batch = engine.search_batch(
            queries, database, cancelled=lambda position: position == 0
        )
        assert batch[0] is None
        for i in range(1, 5):
            assert batch[i] == engine.search(queries[i], database)

    def test_throttled_lane_engine_sweeps_each_pack_once(
        self, workload, monkeypatch
    ):
        """A throttled batch runs one multi-query sweep per lane pack,
        not one single-query sweep per query per pack."""
        from repro.align.intersequence import pack_database
        from repro.core import engines

        queries, database = workload
        sweeps = []
        real = engines.sw_score_batch_multi

        def counting(mq, pack, gaps):
            sweeps.append(mq.queries)
            return real(mq, pack, gaps)

        monkeypatch.setattr(engines, "sw_score_batch_multi", counting)
        batch = make_engine("throttled").search_batch(queries, database)
        packs = len(list(pack_database(database, BLOSUM62, lanes=4)))
        assert packs > 1
        assert sweeps == [len(queries)] * packs
        assert all(hits is not None for hits in batch)


class TestThreadedEquivalence:
    def _workload(self, rng):
        queries = query_set(6, rng, min_length=20, max_length=40)
        database = random_database(24, 40.0, rng, name="threq")
        return queries, database

    def _engines(self):
        return {
            "gpu0": InterSequenceEngine(BLOSUM62, DEFAULT_GAPS,
                                        chunk_size=8),
            "sse0": StripedSSEEngine(BLOSUM62, DEFAULT_GAPS, chunk_size=8),
        }

    def test_batch_on_off_byte_identical(self, rng):
        queries, database = self._workload(rng)
        baseline = HybridRuntime(self._engines()).run(queries, database)
        batched = HybridRuntime(self._engines(), batch=3).run(
            queries, database
        )
        assert hit_projection(batched.results) == hit_projection(
            baseline.results
        )
        assert any(e.kind == "batch" for e in batched.trace)
        assert not any(e.kind == "batch" for e in baseline.trace)

    def test_batch_with_caching_byte_identical(self, rng):
        queries, database = self._workload(rng)
        baseline = HybridRuntime(self._engines()).run(queries, database)
        engines = {
            "gpu0": InterSequenceEngine(
                BLOSUM62, DEFAULT_GAPS, chunk_size=8, cache=True
            ),
            "sse0": StripedSSEEngine(
                BLOSUM62, DEFAULT_GAPS, chunk_size=8, cache=True
            ),
        }
        batched = HybridRuntime(engines, batch=4).run(queries, database)
        assert hit_projection(batched.results) == hit_projection(
            baseline.results
        )
        # The run's registry picked up the cache families.
        names = {m["name"] for m in batched.metrics["metrics"]}
        assert "cache_hits_total" in names

    def test_journal_recovery_sets_equal(self, rng, tmp_path):
        """Same journaled outcome whether or not tasks were batched."""
        queries, database = self._workload(rng)
        HybridRuntime(
            self._engines(), checkpoint_dir=str(tmp_path / "plain")
        ).run(queries, database)
        HybridRuntime(
            self._engines(), batch=3,
            checkpoint_dir=str(tmp_path / "batched"),
        ).run(queries, database)
        fingerprint = workload_fingerprint(build_tasks(queries, database))

        def finished(directory):
            recovered = CheckpointStore(str(directory)).recover(fingerprint)
            return {r["task"] for r in recovered.finished_records}

        plain = finished(tmp_path / "plain")
        batched = finished(tmp_path / "batched")
        assert plain == batched == set(range(len(queries)))

    def test_resume_of_batched_run_executes_nothing(self, rng, tmp_path):
        queries, database = self._workload(rng)
        first = HybridRuntime(
            self._engines(), batch=3, checkpoint_dir=str(tmp_path)
        ).run(queries, database)
        resumed = HybridRuntime(
            self._engines(), batch=3, checkpoint_dir=str(tmp_path)
        ).run(queries, database)
        assert hit_projection(resumed.results) == hit_projection(
            first.results
        )
        kinds = [e["kind"] for e in resumed.events]
        assert "assign" not in kinds and "replica" not in kinds

    def test_replica_race_on_batched_task(self, rng):
        """A crippled worker's batched tasks are still rescued singly."""
        queries = query_set(4, rng, 20, 30)
        database = random_database(24, 40.0, rng, name="batch-rescue")
        # The fast worker computes only once the slow one holds work;
        # otherwise it can finish all four tasks before the slow thread's
        # first request, leaving nothing to replicate.
        slow_busy = threading.Event()

        class FastAfterSlow(InterSequenceEngine):
            def search_batch(self, *args, **kwargs):
                slow_busy.wait(timeout=10)
                return super().search_batch(*args, **kwargs)

        class SignallingThrottle(ThrottledEngine):
            def search_batch(self, *args, **kwargs):
                slow_busy.set()
                return super().search_batch(*args, **kwargs)

        fast = FastAfterSlow(BLOSUM62, DEFAULT_GAPS)
        slow = SignallingThrottle(
            InterSequenceEngine(BLOSUM62, DEFAULT_GAPS, lanes=1),
            delay_per_chunk=0.05,
        )
        runtime = HybridRuntime({"fast": fast, "slow": slow}, batch=2)
        report = runtime.run(queries, database)
        assert any(e.kind == "replica" for e in report.trace)
        from repro.align import database_search

        for query in queries:
            expected = database_search(
                query, database, BLOSUM62, DEFAULT_GAPS, top=10
            ).hits
            assert [(h.subject_index, h.score)
                    for h in report.results[query.id]] == [
                (h.subject_index, h.score) for h in expected
            ]

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            HybridRuntime(self._engines(), batch=0)


class TestDESEquivalence:
    def _platform(self):
        from repro.simulate import PESpec, UniformModel

        return [
            PESpec("gpu1", UniformModel(rate=6.0, pe_class_name="gpu")),
            PESpec("sse1", UniformModel(rate=1.0, pe_class_name="sse")),
        ]

    def test_every_task_won_once_with_batching(self):
        from repro.bench import uniform_tasks
        from repro.simulate import HybridSimulator

        tasks = uniform_tasks(20)
        plain = HybridSimulator(
            self._platform(), comm_latency=0.0, notify_interval=0.5
        ).run(tasks)
        batched = HybridSimulator(
            self._platform(), comm_latency=0.0, notify_interval=0.5,
            batch=3,
        ).run(tasks)
        assert sum(plain.tasks_won.values()) == 20
        assert sum(batched.tasks_won.values()) == 20
        assert batched.makespan > 0

    def test_journal_recovery_sets_equal(self, tmp_path):
        from repro.bench import uniform_tasks
        from repro.simulate import HybridSimulator

        tasks = uniform_tasks(12)
        HybridSimulator(
            self._platform(), comm_latency=0.0, notify_interval=0.5,
            checkpoint_dir=str(tmp_path / "plain"),
        ).run(tasks)
        HybridSimulator(
            self._platform(), comm_latency=0.0, notify_interval=0.5,
            batch=3, checkpoint_dir=str(tmp_path / "batched"),
        ).run(tasks)
        fingerprint = workload_fingerprint(tasks)

        def finished(directory):
            recovered = CheckpointStore(str(directory)).recover(fingerprint)
            return {r["task"] for r in recovered.finished_records}

        assert finished(tmp_path / "plain") == finished(
            tmp_path / "batched"
        ) == set(range(12))

    def test_batch_validation(self):
        from repro.simulate import HybridSimulator

        with pytest.raises(ValueError):
            HybridSimulator(self._platform(), batch=0)


class TestClusterEquivalence:
    def _workload(self, rng):
        queries = query_set(5, rng, min_length=18, max_length=35)
        database = random_database(18, 35.0, rng, name="cluq")
        return queries, database

    def test_batch_on_off_byte_identical(self, rng):
        from repro.cluster import run_cluster

        queries, database = self._workload(rng)
        workers = {"gpu0": "gpu", "sse0": "sse"}
        baseline = run_cluster(
            queries, database, workers, use_processes=False, timeout=60
        )
        batched = run_cluster(
            queries, database, workers, use_processes=False, timeout=60,
            batch=3, cache=True,
        )
        assert hit_projection(batched.results) == hit_projection(
            baseline.results
        )

    def test_journal_recovery_sets_equal(self, rng, tmp_path):
        from repro.cluster import run_cluster

        queries, database = self._workload(rng)
        workers = {"solo": "gpu"}
        run_cluster(
            queries, database, workers, use_processes=False, timeout=60,
            checkpoint_dir=str(tmp_path / "plain"),
        )
        run_cluster(
            queries, database, workers, use_processes=False, timeout=60,
            batch=3, checkpoint_dir=str(tmp_path / "batched"),
        )
        fingerprint = workload_fingerprint(build_tasks(queries, database))

        def finished(directory):
            recovered = CheckpointStore(str(directory)).recover(fingerprint)
            return {r["task"] for r in recovered.finished_records}

        assert finished(tmp_path / "plain") == finished(
            tmp_path / "batched"
        ) == set(range(len(queries)))

    def test_replica_race_on_batched_task(self, rng):
        """A straggler's batched tasks are rescued by replicas over the
        wire, and the race's cancels reach the loser's batched sweep."""
        from repro.align import database_search
        from repro.cluster import run_cluster
        from repro.faults import FaultPlan, StragglerFault

        queries = query_set(4, rng, 20, 30)
        database = random_database(24, 40.0, rng, name="cluster-rescue")
        plan = FaultPlan(
            stragglers=(StragglerFault(pe_id="slow", factor=0.05),)
        )
        report = run_cluster(
            queries, database, {"fast": "gpu", "slow": "gpu"},
            use_processes=False, timeout=60, batch=2, chunk_size=1,
            faults=plan,
        )
        assert any(e.kind == "replica" for e in report.trace)
        assert any(
            e.kind == "cancelled" and e.pe_id == "slow" for e in report.trace
        )
        for query in queries:
            expected = database_search(
                query, database, BLOSUM62, DEFAULT_GAPS, top=10
            ).hits
            assert [(h.subject_index, h.score)
                    for h in report.results[query.id]] == [
                (h.subject_index, h.score) for h in expected
            ]
