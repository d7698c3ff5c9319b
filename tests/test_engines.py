"""Unit tests for the slave execution engines."""

import pytest

from repro.align import BLOSUM62, DEFAULT_GAPS, database_search
from repro.core import InterSequenceEngine, ScanEngine, StripedSSEEngine
from repro.core.engines import ChunkProgress
from repro.sequences import random_sequence


@pytest.fixture
def query(rng):
    return random_sequence(30, rng, seq_id="q")


@pytest.fixture(params=[StripedSSEEngine, InterSequenceEngine, ScanEngine])
def engine(request):
    # The lane engine's chunks are its lane packs, not chunk_size
    # subjects: four lanes cut the mini database into several packs.
    lanes = {"lanes": 4} if request.param is InterSequenceEngine else {}
    return request.param(BLOSUM62, DEFAULT_GAPS, top=5, chunk_size=4,
                         **lanes)


class TestSearchCorrectness:
    def test_hits_match_direct_search(self, engine, query, mini_database):
        hits = engine.search(query, mini_database)
        expected = database_search(
            query, mini_database, BLOSUM62, DEFAULT_GAPS, top=5
        ).hits
        assert [
            (h.subject_index, h.score) for h in hits
        ] == [(h.subject_index, h.score) for h in expected]

    def test_top_respected(self, engine, query, mini_database):
        assert len(engine.search(query, mini_database)) == 5


class TestProgressAndAbort:
    def test_progress_cells_sum_to_total(self, engine, query, mini_database):
        seen = []

        def progress(chunk: ChunkProgress) -> bool:
            seen.append(chunk.cells)
            return True

        engine.search(query, mini_database, progress=progress)
        assert sum(seen) == len(query) * mini_database.total_residues
        assert len(seen) > 1  # chunked, not one blob

    def test_abort_returns_none(self, engine, query, mini_database):
        calls = {"n": 0}

        def progress(chunk: ChunkProgress) -> bool:
            calls["n"] += 1
            return calls["n"] < 2  # abort on the second chunk

        assert engine.search(query, mini_database, progress=progress) is None

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            ScanEngine(BLOSUM62, DEFAULT_GAPS, chunk_size=0)

    @pytest.mark.parametrize("top", [0, -1])
    @pytest.mark.parametrize(
        "engine_cls", [StripedSSEEngine, InterSequenceEngine, ScanEngine]
    )
    def test_invalid_top(self, engine_cls, top):
        with pytest.raises(ValueError, match="top must be at least 1"):
            engine_cls(BLOSUM62, DEFAULT_GAPS, top=top)


class TestPEClass:
    def test_classes(self):
        assert StripedSSEEngine(BLOSUM62).pe_class == "sse"
        assert InterSequenceEngine(BLOSUM62).pe_class == "gpu"
        assert ScanEngine(BLOSUM62).pe_class == "scan"


class TestLongQuery:
    def test_self_match_beyond_16_bits(self):
        """The only long-query case above 32767: a W x 3200 self-match."""
        from repro.sequences import Sequence, SequenceDatabase

        big = Sequence(id="w", residues="W" * 3200)
        db = SequenceDatabase(
            [big, Sequence(id="small", residues="MKVLAW")]
        )
        engine = InterSequenceEngine(BLOSUM62, DEFAULT_GAPS, top=1)
        hits = engine.search(big, db)
        assert hits[0].score == 3200 * 11


class TestThrottledEngine:
    def test_results_unchanged(self, query, mini_database):
        from repro.core import ThrottledEngine

        inner = InterSequenceEngine(BLOSUM62, DEFAULT_GAPS, top=5,
                                    chunk_size=8)
        throttled = ThrottledEngine(inner, delay_per_chunk=0.0)
        plain = InterSequenceEngine(BLOSUM62, DEFAULT_GAPS, top=5,
                                    chunk_size=8)
        assert [
            (h.subject_index, h.score)
            for h in throttled.search(query, mini_database)
        ] == [
            (h.subject_index, h.score)
            for h in plain.search(query, mini_database)
        ]

    def test_delay_applied(self, query, mini_database):
        import time

        from repro.core import ThrottledEngine

        inner = InterSequenceEngine(BLOSUM62, DEFAULT_GAPS, lanes=4)
        throttled = ThrottledEngine(inner, delay_per_chunk=0.01)
        started = time.perf_counter()
        throttled.search(query, mini_database)
        # 25 sequences / 4-lane packs -> at least 3 chunks, >= 30 ms.
        assert time.perf_counter() - started >= 0.02

    def test_forces_replication_in_runtime(self, rng):
        """A crippled worker's tasks are rescued by the fast worker."""
        from repro.core import HybridRuntime, ThrottledEngine
        from repro.sequences import query_set, random_database

        queries = query_set(4, rng, 20, 30)
        database = random_database(24, 40.0, rng, name="rescue")
        fast = InterSequenceEngine(BLOSUM62, DEFAULT_GAPS)
        slow = ThrottledEngine(
            InterSequenceEngine(BLOSUM62, DEFAULT_GAPS, lanes=1),
            delay_per_chunk=0.05,
        )
        runtime = HybridRuntime({"fast": fast, "slow": slow})
        report = runtime.run(queries, database)
        replicas = [e for e in report.trace if e.kind == "replica"]
        assert replicas, "expected the fast worker to replicate"
        assert report.tasks_by_pe["fast"] >= 3

    def test_validation(self):
        from repro.core import ThrottledEngine

        inner = ScanEngine(BLOSUM62, DEFAULT_GAPS)
        with pytest.raises(ValueError):
            ThrottledEngine(inner, delay_per_chunk=-1.0)
