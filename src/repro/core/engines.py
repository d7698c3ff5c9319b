"""Slave execution engines: how a PE actually runs one task.

Section IV-C of the paper: GPUs run CUDASW++ 2.0 ("encapsulated and
easily integrated"), multicores run the adapted Farrar SSE kernel.  The
engines here wrap this project's equivalents of those two codes behind
one interface, plus the plain scan kernel as a baseline:

* :class:`StripedSSEEngine` — the adapted-Farrar striped kernel, one
  subject at a time (what one SSE core does);
* :class:`InterSequenceEngine` — the CUDASW++-style lane-packed kernel
  (what one GPU does);
* :class:`ScanEngine` — the column-scan kernel (reference-grade slave).

Engines process the database in chunks so the worker loop can emit
progress notifications and honour cancellations between chunks — a task
is abortable at chunk granularity, which is what makes post-finish
replica cancellation cheap.
"""

from __future__ import annotations

import abc
import heapq
from types import SimpleNamespace
from typing import Callable, Iterator

import numpy as np

from ..align.api import SearchHit
from ..align.gaps import DEFAULT_GAPS, GapModel
from ..align.intersequence import pack_database, sw_score_batch, _padded_profile
from ..align.columnwise import sw_score_scan
from ..align.multiquery import build_multi_profile, sw_score_batch_multi
from ..align.scoring import SubstitutionMatrix
from ..align.striped import (
    SCORE_CAP_8BIT,
    SCORE_CAP_16BIT,
    SaturationOverflow,
    StripedProfile,
    sw_score_striped_once,
)
from ..sequences.database import SequenceDatabase
from ..sequences.records import Sequence
from .caching import default_pack_cache, default_profile_cache

# --- perfbench/ span targets (perfbench/tracing.py is the only caller) ---
# The removed 8-bit screen's names, kept so instrumenting them resolves.
from ..align.screening import (  # noqa: F401
    perfbench_placeholder as build_screen_multi_profile,
    perfbench_placeholder as build_screen_profile,
    perfbench_placeholder as pack_database_binned,
    perfbench_placeholder as rescore_screened,
    perfbench_placeholder as rescore_screened_multi,
    perfbench_placeholder as sw_screen_batch,
    perfbench_placeholder as sw_screen_batch_multi,
)

#: What ``InterSequenceEngine.screen_stats`` reads: nothing is screened.
_NO_SCREEN_STATS = SimpleNamespace(passed=0, rescored=0)
# --- end of perfbench/ span targets ---

__all__ = [
    "ChunkProgress",
    "Engine",
    "StripedSSEEngine",
    "InterSequenceEngine",
    "ScanEngine",
    "ThrottledEngine",
]


class ChunkProgress:
    """Progress callback payload: cells just processed in one chunk."""

    __slots__ = ("cells",)

    def __init__(self, cells: int):
        self.cells = cells


ProgressCallback = Callable[[ChunkProgress], bool]
"""Called between chunks; returning ``False`` aborts the task."""

BatchProgressCallback = Callable[[int, ChunkProgress], bool]
"""Batch variant: ``(query_position, chunk)``; ``False`` aborts that query."""

CancelledCallback = Callable[[int], bool]
"""Polled between chunks: has the batch's ``query_position`` been cancelled?"""


class Engine(abc.ABC):
    """One PE's compute capability."""

    #: Class of processing element this engine models ("sse" or "gpu");
    #: used for display and by the platform builders.
    pe_class: str = "generic"

    #: Pack/profile caches (bound when constructed with ``cache=True``);
    #: class-level ``None`` so wrappers that skip ``__init__`` stay inert.
    pack_cache = None
    profile_cache = None

    def __init__(
        self,
        matrix: SubstitutionMatrix,
        gaps: GapModel = DEFAULT_GAPS,
        top: int = 10,
        chunk_size: int = 64,
        cache: bool = False,
        store=None,
    ):
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.matrix = matrix
        self.gaps = gaps
        self.top = top
        self.chunk_size = chunk_size
        if store is not None:
            # Warm start: private caches backed by the on-disk pack
            # store (private, not the process-wide singletons, so one
            # engine's store choice never leaks into another's).
            from .caching import PackCache, ProfileCache
            from ..store import PackStore

            if not isinstance(store, PackStore):
                store = PackStore(store)
            self.pack_cache = PackCache(store=store)
            self.profile_cache = ProfileCache(store=store)
        elif cache:
            self.pack_cache = default_pack_cache()
            self.profile_cache = default_profile_cache()

    def bind_caches(self, registry) -> None:
        """Mirror this engine's cache accounting into *registry*."""
        for cache in (self.pack_cache, self.profile_cache):
            if cache is not None:
                cache.bind(registry)

    def search(
        self,
        query: Sequence,
        database: SequenceDatabase,
        progress: ProgressCallback | None = None,
    ) -> tuple[SearchHit, ...] | None:
        """Run one task; ``None`` means the task was aborted mid-flight."""
        best: list[tuple[int, int]] = []  # min-heap of (score, -index)
        for index, score, cells in self._score_chunks(query, database):
            entry = (score, -index)
            if len(best) < self.top:
                heapq.heappush(best, entry)
            elif entry > best[0]:
                heapq.heapreplace(best, entry)
            if progress is not None and not progress(ChunkProgress(cells)):
                return None
        ranked = sorted(best, key=lambda e: (-e[0], -e[1]))
        return tuple(
            SearchHit(
                subject_id=database[-neg_index].id,
                subject_index=-neg_index,
                score=score,
                subject_length=len(database[-neg_index]),
            )
            for score, neg_index in ranked
        )

    def search_batch(
        self,
        queries: list[Sequence],
        database: SequenceDatabase,
        progress: BatchProgressCallback | None = None,
        cancelled: CancelledCallback | None = None,
    ) -> list[tuple[SearchHit, ...] | None]:
        """Run several tasks against one database in a single call.

        The generic implementation just loops :meth:`search`; engines
        with a native multi-query kernel override it.  Results align
        with *queries*; a ``None`` slot means that query was aborted
        (its progress callback returned ``False`` or *cancelled* said
        so).  Per-query outputs are bit-identical to singleton calls.
        """
        results: list[tuple[SearchHit, ...] | None] = []
        for position, query in enumerate(queries):
            if cancelled is not None and cancelled(position):
                results.append(None)
                continue
            per_query = None
            if progress is not None:
                def per_query(chunk, _position=position):
                    return progress(_position, chunk)
            results.append(self.search(query, database, progress=per_query))
        return results

    def _hits_from_scores(
        self, scores: np.ndarray, database: SequenceDatabase
    ) -> tuple[SearchHit, ...]:
        """Top-k hits from a full score vector, matching :meth:`search`.

        A stable sort on descending score reproduces the heap's exact
        ordering contract (score desc, database index asc on ties), so
        batch-path hits are byte-identical to the singleton path.
        """
        order = np.argsort(-scores, kind="stable")[: self.top]
        return tuple(
            SearchHit(
                subject_id=database[int(index)].id,
                subject_index=int(index),
                score=int(scores[int(index)]),
                subject_length=len(database[int(index)]),
            )
            for index in order
        )

    @abc.abstractmethod
    def _score_chunks(
        self, query: Sequence, database: SequenceDatabase
    ) -> Iterator[tuple[int, int, int]]:
        """Yield ``(subject_index, score, chunk_cells)`` triples.

        ``chunk_cells`` is non-zero only on the last subject of each
        chunk, carrying the whole chunk's cell count (progress is
        reported at chunk granularity).
        """


class StripedSSEEngine(Engine):
    """One SSE core running the adapted Farrar kernel (Section IV-C).

    The striped query profile — Farrar's most expensive setup step — is
    built once per (query, precision) and reused across every database
    subject, as the real SSE code does.
    """

    pe_class = "sse"

    def __init__(self, *args, lanes: int = 16, **kwargs):
        super().__init__(*args, **kwargs)
        self.lanes = lanes

    def _score_one(
        self,
        profiles: dict[int, StripedProfile],
        query_codes,
        subject_codes,
    ) -> int:
        plans = (
            (SCORE_CAP_8BIT, self.lanes),
            (SCORE_CAP_16BIT, max(1, self.lanes // 2)),
            (int(1 << 40), max(1, self.lanes // 2)),
        )
        for cap, lanes in plans:
            profile = profiles.get(cap)
            if profile is None:
                profile = self._striped_profile(query_codes, lanes)
                profiles[cap] = profile
            try:
                score, _ = sw_score_striped_once(
                    profile, subject_codes, self.gaps, cap
                )
                return score
            except SaturationOverflow:
                continue
        raise AssertionError("unreachable: uncapped pass cannot saturate")

    def _striped_profile(self, query_codes, lanes: int) -> StripedProfile:
        if self.profile_cache is None:
            return StripedProfile.build(query_codes, self.matrix, lanes=lanes)

        def build() -> StripedProfile:
            profile = StripedProfile.build(
                query_codes, self.matrix, lanes=lanes
            )
            profile.scores.setflags(write=False)
            return profile

        return self.profile_cache.get_or_build(
            "striped", query_codes.tobytes(), self.matrix, (int(lanes),), build
        )

    def _score_chunks(self, query, database):
        from ..align.reference import _codes

        query_codes = _codes(query, self.matrix)
        profiles: dict[int, StripedProfile] = {}
        pending_cells = 0
        for index, subject in enumerate(database):
            subject_codes = _codes(subject, self.matrix)
            if len(query_codes) == 0 or len(subject_codes) == 0:
                score = 0
            else:
                score = self._score_one(profiles, query_codes, subject_codes)
            pending_cells += len(query_codes) * len(subject_codes)
            last_of_chunk = (index + 1) % self.chunk_size == 0
            last_overall = index + 1 == len(database)
            if last_of_chunk or last_overall:
                yield index, score, pending_cells
                pending_cells = 0
            else:
                yield index, score, 0


class InterSequenceEngine(Engine):
    """One GPU-analogue running the lane-packed CUDASW++-style kernel.

    ``screen`` is accepted and ignored: ``perfbench/`` still passes it,
    and still reads :attr:`screen_stats` (always zeros).  Every search
    runs the exact sweep.
    """

    pe_class = "gpu"
    screen_stats = _NO_SCREEN_STATS

    def __init__(self, *args, lanes: int = 32, screen: bool = False,
                 **kwargs):
        super().__init__(*args, **kwargs)
        self.lanes = lanes

    def _packs(self, database):
        """Lane packs for *database*: cached conversion when enabled."""
        if self.pack_cache is None:
            return pack_database(database, self.matrix, lanes=self.lanes)
        return self.pack_cache.packs(database, self.matrix, self.lanes)

    def _profile(self, kind, codes, build):
        """``build(codes, matrix)``, memoized when caching is enabled.

        *codes* is one query's residue codes, or a list of them for a
        stacked multi-query profile; the cache keys on their bytes.
        """
        if self.profile_cache is None:
            return build(codes, self.matrix)
        if isinstance(codes, list):
            key = tuple(c.tobytes() for c in codes)
        else:
            key = codes.tobytes()
        return self.profile_cache.get_or_build(
            kind, key, self.matrix, (), lambda: build(codes, self.matrix)
        )

    def search_batch(self, queries, database, progress=None, cancelled=None):
        """Native multi-query sweep: all queries share each lane pack.

        One DP sweep (:func:`~repro.align.multiquery.sw_score_batch_multi`)
        over the queries laid back to back, none padded to the longest,
        advances every query over a pack simultaneously, so the pack
        loop, the profile gather and the lazy-F scan are paid once per
        batch.  Abort/cancel granularity stays per pack, exactly as in
        the singleton path.
        """
        from ..align.reference import _codes

        if not queries:
            return []
        queries_codes = [_codes(q, self.matrix) for q in queries]
        mq = self._profile("multi", queries_codes, build_multi_profile)
        scores = np.zeros((len(queries), len(database)), dtype=np.int64)
        aborted = [False] * len(queries)
        for pack in self._packs(database):
            scores[:, pack.order] = sw_score_batch_multi(mq, pack, self.gaps)
            # After each pack every live query is polled (*cancelled*)
            # and then reported (*progress*, ``False`` aborts it); once
            # every query is aborted the remaining packs are skipped.
            for position, codes in enumerate(queries_codes):
                if aborted[position]:
                    continue
                if cancelled is not None and cancelled(position):
                    aborted[position] = True
                    continue
                if progress is not None:
                    cells = len(codes) * pack.cells_per_query_residue
                    if not progress(position, ChunkProgress(cells)):
                        aborted[position] = True
            if all(aborted):
                break
        return [
            None if aborted[position]
            else self._hits_from_scores(scores[position], database)
            for position in range(len(queries))
        ]

    def _score_chunks(self, query, database):
        from ..align.reference import _codes

        query_codes = _codes(query, self.matrix)
        profile = self._profile("padded", query_codes, _padded_profile)
        for pack in self._packs(database):
            scores = sw_score_batch(
                query_codes, pack, self.matrix, self.gaps, profile=profile
            )
            chunk_cells = len(query_codes) * pack.cells_per_query_residue
            for position, db_index in enumerate(pack.order):
                is_last = position + 1 == len(pack.order)
                yield int(db_index), int(scores[position]), (
                    chunk_cells if is_last else 0
                )


class ScanEngine(Engine):
    """Baseline slave running the column-scan kernel pair by pair."""

    pe_class = "scan"

    def _score_chunks(self, query, database):
        pending_cells = 0
        for index, subject in enumerate(database):
            result = sw_score_scan(query, subject, self.matrix, self.gaps)
            pending_cells += result.cells
            last_of_chunk = (index + 1) % self.chunk_size == 0
            last_overall = index + 1 == len(database)
            if last_of_chunk or last_overall:
                yield index, result.score, pending_cells
                pending_cells = 0
            else:
                yield index, result.score, 0


class ThrottledEngine(Engine):
    """Wrap an engine with an artificial per-chunk delay.

    Test/demonstration harness: makes a PE deterministically slow (or
    slow *from a given wall-clock moment*, emulating the superpi
    experiment on the real runtime) so that replication and PSS
    adaptation can be exercised reproducibly with real kernels.
    """

    pe_class = "throttled"

    def __init__(
        self,
        inner: Engine,
        delay_per_chunk: float,
        start_after: float = 0.0,
    ):
        if delay_per_chunk < 0 or start_after < 0:
            raise ValueError("delays must be non-negative")
        # Note: deliberately *not* calling super().__init__; all search
        # behaviour is delegated to the wrapped engine.
        self.inner = inner
        self.delay_per_chunk = delay_per_chunk
        self.start_after = start_after
        self._started = None  # lazily bound on first use

    @property
    def matrix(self):  # type: ignore[override]
        return self.inner.matrix

    @property
    def gaps(self):  # type: ignore[override]
        return self.inner.gaps

    @property
    def top(self):  # type: ignore[override]
        return self.inner.top

    @property
    def chunk_size(self):  # type: ignore[override]
        return self.inner.chunk_size

    @property
    def pack_cache(self):  # type: ignore[override]
        return self.inner.pack_cache

    @property
    def profile_cache(self):  # type: ignore[override]
        return self.inner.profile_cache

    def bind_caches(self, registry):
        self.inner.bind_caches(registry)

    def search(self, query, database, progress=None):
        import time

        if self._started is None:
            self._started = time.perf_counter()

        def throttled_progress(chunk: ChunkProgress) -> bool:
            elapsed = time.perf_counter() - self._started
            if elapsed >= self.start_after and self.delay_per_chunk > 0:
                time.sleep(self.delay_per_chunk)
            if progress is None:
                return True
            return progress(chunk)

        return self.inner.search(query, database, progress=throttled_progress)

    def _score_chunks(self, query, database):  # pragma: no cover
        raise NotImplementedError("ThrottledEngine delegates search()")
