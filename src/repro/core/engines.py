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

Every engine searches through one loop, :meth:`Engine.search_batch`;
a single task is a batch of one (:meth:`Engine.search`).  An engine
supplies two hooks only: how to cut the database into chunks
(:meth:`Engine._chunks`: lane packs, or ``chunk_size`` subjects) and how
to score one chunk for the batch's live queries (:meth:`Engine._scorer`).
After each chunk the loop polls every live query's cancel flag and
reports its progress, so a task is abortable at chunk granularity —
which is what makes post-finish replica cancellation cheap — and an
aborted query is scored no further.
"""

from __future__ import annotations

import abc
import functools
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from ..align.api import SearchHit
from ..align.gaps import DEFAULT_GAPS, GapModel
from ..align.intersequence import pack_database, _padded_profile
from ..align.columnwise import sw_score_scan
from ..align.multiquery import MultiQueryProfile, sw_score_batch_multi
from ..align.reference import _codes
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
# Kernel entry points the engines no longer call, and the removed 8-bit
# screen's names, kept so instrumenting them resolves.
from ..align.intersequence import sw_score_batch  # noqa: F401
from ..align.multiquery import build_multi_profile  # noqa: F401
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

ChunkScorer = Callable[[tuple, object], np.ndarray]
"""``score(live, chunk)``: ``(len(live), subjects)`` int64 best scores of
the batch's queries at positions *live*, aligned with ``chunk.order``."""


class SubjectChunk(NamedTuple):
    """``chunk_size`` consecutive subjects: a per-pair engine's chunk."""

    order: np.ndarray  # (subjects,) database indices
    subjects: tuple[Sequence, ...]

    @property
    def cells_per_query_residue(self) -> int:
        return sum(len(subject) for subject in self.subjects)


def _per_pair(pair: Callable[[int, Sequence], int]) -> ChunkScorer:
    """A chunk scorer from ``pair(query_position, subject) -> score``."""

    def score(live, chunk):
        return np.array(
            [[pair(position, s) for s in chunk.subjects] for position in live],
            dtype=np.int64,
        )

    return score


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
        if top < 1:
            raise ValueError("top must be at least 1")
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
        """Run one task, a batch of one; ``None`` means it was aborted."""
        batch_progress = None if progress is None else (
            lambda _position, chunk: progress(chunk)
        )
        return self.search_batch([query], database, batch_progress)[0]

    def search_batch(
        self,
        queries: list[Sequence],
        database: SequenceDatabase,
        progress: BatchProgressCallback | None = None,
        cancelled: CancelledCallback | None = None,
    ) -> list[tuple[SearchHit, ...] | None]:
        """Run several tasks against one database: the one search loop.

        Chunk by chunk (:meth:`_chunks`) the live queries are scored
        (:meth:`_scorer`); then, in batch order, each live query is
        polled (*cancelled*) and reported (*progress*, ``False`` aborts
        it).  An aborted query is scored no further, and once every
        query is aborted the remaining chunks are skipped.  Results
        align with *queries*; a ``None`` slot means that query was
        aborted.  A query's hits do not depend on its batch.
        """
        if not queries:
            return []
        score = self._scorer(queries)
        scores = np.zeros((len(queries), len(database)), dtype=np.int64)
        live = tuple(range(len(queries)))
        for chunk in self._chunks(database):
            scores[np.ix_(live, chunk.order)] = score(live, chunk)
            residues = chunk.cells_per_query_residue
            still = []
            for position in live:
                if cancelled is not None and cancelled(position):
                    continue
                cells = len(queries[position]) * residues
                if progress is None or progress(
                    position, ChunkProgress(cells)
                ):
                    still.append(position)
            live = tuple(still)
            if not live:
                break
        return [
            self._hits_from_scores(scores[position], database)
            if position in live else None
            for position in range(len(queries))
        ]

    def _hits_from_scores(
        self, scores: np.ndarray, database: SequenceDatabase
    ) -> tuple[SearchHit, ...]:
        """Top-k hits: score descending, database index ascending on ties."""
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

    def _chunks(self, database: SequenceDatabase):
        """The database cut into chunks: here ``chunk_size`` subjects.

        A chunk has ``order`` (its subjects' database indices) and
        ``cells_per_query_residue`` (their total length).
        """
        for start in range(0, len(database), self.chunk_size):
            subjects = tuple(database[start : start + self.chunk_size])
            order = np.arange(start, start + len(subjects))
            yield SubjectChunk(order, subjects)

    @abc.abstractmethod
    def _scorer(self, queries: list[Sequence]) -> ChunkScorer:
        """How to score one chunk for *queries* (set up once per batch)."""

    def _profile(self, kind: str, codes: np.ndarray, params: tuple, build):
        """``build()``, memoized per query when caching is enabled.

        The cache keys on the query's residue codes and, when a pack
        store backs it, reads the stored profile instead of building.
        """
        if self.profile_cache is None:
            return build()
        return self.profile_cache.get_or_build(
            kind, codes.tobytes(), self.matrix, params, build
        )


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
        def build() -> StripedProfile:
            profile = StripedProfile.build(
                query_codes, self.matrix, lanes=lanes
            )
            profile.scores.setflags(write=False)
            return profile

        return self._profile("striped", query_codes, (int(lanes),), build)

    def _scorer(self, queries):
        codes = [_codes(query, self.matrix) for query in queries]
        profiles: list[dict[int, StripedProfile]] = [{} for _ in queries]

        def pair(position: int, subject: Sequence) -> int:
            subject_codes = _codes(subject, self.matrix)
            if len(codes[position]) == 0 or len(subject_codes) == 0:
                return 0
            return self._score_one(
                profiles[position], codes[position], subject_codes
            )

        return _per_pair(pair)


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

    def _chunks(self, database):
        """Lane packs for *database*: cached conversion when enabled."""
        if self.pack_cache is None:
            return pack_database(database, self.matrix, lanes=self.lanes)
        return self.pack_cache.packs(database, self.matrix, self.lanes)

    def _scorer(self, queries):
        """One sweep per pack over the live queries, laid back to back.

        Each query brings its own ``"padded"`` profile (cached, or read
        from the store); the live ones' profiles side by side are
        :func:`~repro.align.multiquery.build_multi_profile` of their
        codes, so the pack loop, the profile gather and the lazy-F scan
        are paid once per batch.
        """
        codes = [_codes(query, self.matrix) for query in queries]
        profiles = [
            self._profile(
                "padded", c, (), lambda c=c: _padded_profile(c, self.matrix)
            )
            for c in codes
        ]

        # Restacked only when a query drops out of the live set.
        @functools.lru_cache(maxsize=1)
        def stack(live: tuple) -> MultiQueryProfile:
            return MultiQueryProfile(
                np.concatenate([profiles[p] for p in live], axis=1),
                np.array([profiles[p].shape[1] for p in live], np.int64),
            )

        return lambda live, pack: sw_score_batch_multi(
            stack(live), pack, self.gaps
        )


class ScanEngine(Engine):
    """Baseline slave running the column-scan kernel pair by pair."""

    pe_class = "scan"

    def _scorer(self, queries):
        return _per_pair(
            lambda position, subject: sw_score_scan(
                queries[position], subject, self.matrix, self.gaps
            ).score
        )


class ThrottledEngine(Engine):
    """Wrap an engine with an artificial per-chunk delay.

    Test/demonstration harness: makes a PE deterministically slow (or
    slow *from a given wall-clock moment*, emulating the superpi
    experiment on the real runtime) so that replication and PSS
    adaptation can be exercised reproducibly with real kernels.  The
    delay is paid once per chunk of a search, whatever its batch width.
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
        # Note: deliberately *not* calling super().__init__; chunking
        # and scoring are delegated to the wrapped engine.
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

    def _chunks(self, database):
        return self.inner._chunks(database)

    def _scorer(self, queries):
        import time

        if self._started is None:
            self._started = time.perf_counter()
        score = self.inner._scorer(queries)

        def throttled(live, chunk):
            elapsed = time.perf_counter() - self._started
            if elapsed >= self.start_after and self.delay_per_chunk > 0:
                time.sleep(self.delay_per_chunk)
            return score(live, chunk)

        return throttled
