"""Two-stage search: 8-bit saturating screen + exact rescore.

SWAPHI and SaLoBa (PAPERS.md) both get their largest GCUPS wins from a
locality-aware multi-pass search: a cheap low-precision sweep screens
the whole database, and the exact kernel runs only on the survivors.
This module is that pipeline for the numpy engines:

* :func:`pack_database_binned` re-bins the database into **tight length
  buckets** (:class:`LengthBinnedPack`, the SaLoBa workload-balance
  idea): every subject in a pack falls inside one ``bin_width``-wide
  length bucket, so lanes can be made very wide
  (:data:`DEFAULT_SCREEN_LANES`) without the padding waste that wide
  lanes cause under plain length-sorted packing — and wide lanes are
  what amortizes the per-column numpy dispatch overhead that dominates
  the 32-lane exact sweep;
* :func:`sw_screen_batch` (and the multi-query
  :func:`sw_screen_batch_multi`) run the package's one lane sweep
  (:mod:`repro.align.intersequence`) with **scores clipped to
  ``[0, cap]``** — the numpy analogue of 8-bit saturating SIMD
  registers.  Any clipping event forces some H cell to
  equal the cap, so ``best >= cap`` exactly characterizes the lanes
  whose screened score is a lower bound; every other lane's screened
  score is *bit-exact* (no clip ever fired on its column);
* :func:`sw_score_database_screened` is the two-stage driver: screen
  everything, then rescore with the exact kernel only the sequences
  that saturated **or** clear an adaptive threshold derived from the
  running k-th best exact score (or an explicit ``threshold``).

Because non-saturated screened scores are exact and saturated lanes are
always rescored, the final score vector is bit-exact with
:func:`~repro.align.intersequence.sw_score_database` for *any*
threshold — a pathologically high threshold merely skips redundant
confirmation rescoring, and threshold 0 degenerates to
rescore-everything.  The conformance suite asserts byte-identical final
hits in every execution environment.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence as SequenceType

import numpy as np

from ..sequences.database import SequenceDatabase
from ..sequences.records import Sequence
from .gaps import GapModel
from .intersequence import (
    DEFAULT_LANES,
    _build_profile,
    _padded_profile,
    _sweep,
    pack_database,
    sw_score_batch,
)
from .multiquery import MultiQueryProfile, sw_score_database_multi
from .reference import _codes
from .scoring import SubstitutionMatrix

__all__ = [
    "DEFAULT_BIN_WIDTH",
    "DEFAULT_SCREEN_LANES",
    "SCREEN_CAP",
    "LengthBinnedPack",
    "ScreenStats",
    "ScreenedResult",
    "build_screen_multi_profile",
    "build_screen_profile",
    "pack_database_binned",
    "rescore_screened",
    "rescore_screened_multi",
    "sw_screen_batch",
    "sw_screen_batch_multi",
    "sw_score_database_screened",
    "sw_score_database_screened_multi",
]

#: Saturation ceiling of the screening pass — the 8-bit register limit
#: of the SIMD kernels this sweep models.
SCREEN_CAP = 255

#: Default lane width of the screening sweep.  Far wider than the exact
#: kernel's 32: tight length bins keep the padding waste of wide lanes
#: bounded, and each 8x-wider column amortizes the fixed numpy dispatch
#: cost over 8x the cells.
DEFAULT_SCREEN_LANES = 256

#: Default width of a length bucket: subjects in one pack differ in
#: length by less than this, so at most ``bin_width - 1`` padding rows
#: per lane regardless of how wide the lanes are.
DEFAULT_BIN_WIDTH = 16


@dataclass(frozen=True)
class LengthBinnedPack:
    """A lane pack whose subjects all fall in one tight length range.

    Same lane-major layout as
    :class:`~repro.align.intersequence.LanePack` — ``residues[j, l]`` is
    the ``j``-th residue code of lane ``l``'s subject, pad code past the
    subject's end — plus the bucket-range bounds, so a pack certifies
    ``bin_lo <= len < bin_hi`` for every lane.  A well-filled pack spans
    a single ``bin_width``-wide bucket; only underfull packs (sparse
    length regions) span several adjacent buckets.
    """

    residues: np.ndarray  # (max_len, lanes) int16
    lengths: np.ndarray  # (lanes,) int64
    order: np.ndarray  # (lanes,) int64 original database indices
    pad_code: int
    bin_lo: int  # inclusive lower length bound of the bucket
    bin_hi: int  # exclusive upper length bound of the bucket

    @property
    def lanes(self) -> int:
        """Number of subject lanes in this pack."""
        return self.residues.shape[1]

    @property
    def cells_per_query_residue(self) -> int:
        """Useful (unpadded) DP cells per query residue."""
        return int(self.lengths.sum())

    @property
    def padding_fraction(self) -> float:
        """Fraction of the pack's DP cells that are padding."""
        total = self.residues.size
        if total == 0:
            return 0.0
        return 1.0 - self.cells_per_query_residue / total


def pack_database_binned(
    database: SequenceDatabase | Iterable[Sequence],
    matrix: SubstitutionMatrix,
    lanes: int = DEFAULT_SCREEN_LANES,
    bin_width: int = DEFAULT_BIN_WIDTH,
    min_fill: int | None = None,
) -> Iterator[LengthBinnedPack]:
    """Convert a database into tightly length-binned lane packs.

    Subjects are bucketed by ``len // bin_width`` (a length exactly on
    a bucket boundary opens the *next* bucket) and packed length-sorted
    into at most *lanes* lanes per pack; empty buckets yield nothing.
    A pack normally closes at its bucket's edge — that is what keeps
    padding tight at any lane width — but a pack still holding fewer
    than *min_fill* lanes (default ``lanes // 8``) absorbs the next
    bucket instead: sparse length regions (the long tail of a skewed
    database) would otherwise fragment into many near-empty packs whose
    per-column dispatch overhead erases the screening win.  A pack of
    ``min_fill`` lanes spanning many buckets costs no more per column
    than the exact kernel's fixed-width packing, so tight bins are a
    pure win where the length histogram is dense and a no-op where it
    is not — the SaLoBa workload-balance tradeoff.
    """
    if lanes <= 0:
        raise ValueError("lanes must be positive")
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if min_fill is None:
        min_fill = max(1, lanes // 8)
    if not 0 < min_fill <= lanes:
        raise ValueError("min_fill must be in [1, lanes]")
    records = list(database)
    lengths = [len(r) for r in records]
    # Stable length sort: buckets come out contiguous and the
    # within-bucket order matches plain length-sorted packing.
    order = sorted(range(len(records)), key=lambda i: lengths[i])
    pad_code = matrix.alphabet.size  # one past the last real residue
    start = 0
    while start < len(order):
        first_bucket = lengths[order[start]] // bin_width
        last_bucket = first_bucket
        stop = start
        while stop < len(order) and stop - start < lanes:
            bucket = lengths[order[stop]] // bin_width
            if bucket != last_bucket and stop - start >= min_fill:
                break
            last_bucket = max(last_bucket, bucket)
            stop += 1
        chunk = order[start:stop]
        start = stop
        batch = [records[i] for i in chunk]
        chunk_lengths = np.array([len(r) for r in batch], dtype=np.int64)
        max_len = int(chunk_lengths.max()) if batch else 0
        residues = np.full((max_len, len(batch)), pad_code, dtype=np.int16)
        for lane, record in enumerate(batch):
            residues[: len(record), lane] = _codes(record, matrix)
        yield LengthBinnedPack(
            residues=residues,
            lengths=chunk_lengths,
            order=np.asarray(chunk, dtype=np.int64),
            pad_code=pad_code,
            bin_lo=int(first_bucket * bin_width),
            bin_hi=int((last_bucket + 1) * bin_width),
        )


def build_screen_profile(
    query_codes: np.ndarray, matrix: SubstitutionMatrix
) -> np.ndarray:
    """int32 padded query profile for the screening sweep.

    int32 is only the profile's storage dtype.  The sweep picks its own
    state dtype per call from a static bound (``cap`` plus the lazy-F
    ramp ``m * extend + open``): int16 for a 255 cap unless the query
    is thousands of residues long, int32 beyond that.
    """
    return _build_profile([query_codes], matrix, np.int32)[:, :, 0]


def sw_screen_batch(
    query_codes: np.ndarray,
    pack: LengthBinnedPack,
    matrix: SubstitutionMatrix,
    gaps: GapModel,
    cap: int = SCREEN_CAP,
    profile: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Saturating screen of one pack: ``(scores, saturated)`` per lane.

    Scores clip to ``[0, cap]`` at every step (the 8-bit saturating
    register model).  A lane that never clips computes exactly the
    recurrence of :func:`~repro.align.intersequence.sw_score_batch`, so
    its screened score is exact; any clip forces some H cell to *cap*,
    so ``best >= cap`` — the returned ``saturated`` mask — covers every
    lane whose score might be a lower bound.
    """
    if profile is None:
        profile = build_screen_profile(query_codes, matrix)
    scores, saturated = _screen(profile[:, :, None], pack, gaps, cap)
    return scores[0], saturated[0]


def build_screen_multi_profile(
    queries_codes: SequenceType[np.ndarray],
    matrix: SubstitutionMatrix,
) -> MultiQueryProfile:
    """Stacked int32 query profiles for the multi-query screen."""
    return MultiQueryProfile.build(queries_codes, matrix, np.int32)


def sw_screen_batch_multi(
    mq: MultiQueryProfile,
    pack: LengthBinnedPack,
    gaps: GapModel,
    cap: int = SCREEN_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """Screen every stacked query against every lane of *pack* at once.

    Returns ``(scores, saturated)`` as ``(Q, lanes)`` arrays in lane
    order, with the same ``[0, cap]`` clipping as :func:`sw_screen_batch`.
    """
    return _screen(mq.profile, pack, gaps, cap)


def _screen(profile, pack, gaps, cap):
    """Capped sweep: ``(Q, lanes)`` int64 scores and saturation mask."""
    if cap <= 0:
        raise ValueError("cap must be positive")
    scores = _sweep(profile, pack.residues, gaps, cap).T.astype(np.int64)
    return scores, scores >= cap


class ScreenStats:
    """Thread-safe screen-stage counters, mirrorable into a registry.

    Counts are always kept locally (tests assert without a registry);
    :meth:`bind` additionally mirrors every increment into the
    ``screen_*`` metric families declared by
    :func:`repro.observability.conventions.screen_instruments`.
    """

    def __init__(self) -> None:
        self.screened = 0
        self.passed = 0
        self.rescored = 0
        self.saturated = 0
        self._lock = threading.Lock()
        self._instruments = None

    def bind(self, registry) -> None:
        """Mirror future counts into *registry*'s ``screen_*`` families."""
        from ..observability.conventions import screen_instruments

        with self._lock:
            self._instruments = screen_instruments(registry)

    def unbind(self) -> None:
        with self._lock:
            self._instruments = None

    def add(self, screened: int, rescored: int, saturated: int) -> None:
        """Account one driver call: *rescored* of *screened* sequences."""
        passed = screened - rescored
        with self._lock:
            self.screened += screened
            self.passed += passed
            self.rescored += rescored
            self.saturated += saturated
            if self._instruments is not None:
                self._instruments.passed.inc(passed)
                self._instruments.rescored.inc(rescored)
                self._instruments.saturated.inc(saturated)


@dataclass(frozen=True)
class ScreenedResult:
    """Outcome of a two-stage screened sweep, in database order.

    ``scores`` are exact (bit-identical to the reference kernel);
    ``screened`` are the raw capped first-pass scores; ``saturated``
    marks lanes that hit the cap (always rescored); ``rescored`` marks
    every sequence the exact kernel re-ran.  Arrays are 1-D ``(N,)``
    for the single-query driver and 2-D ``(Q, N)`` for the multi-query
    driver.
    """

    scores: np.ndarray  # int64, exact
    screened: np.ndarray  # int64, capped first-pass scores
    saturated: np.ndarray  # bool
    rescored: np.ndarray  # bool

    @property
    def rescore_fraction(self) -> float:
        """Fraction of (query, sequence) pairs the exact kernel re-ran."""
        if self.rescored.size == 0:
            return 0.0
        return float(self.rescored.mean())


def _rescore_exact(
    query_codes: np.ndarray,
    database: SequenceDatabase,
    indices: np.ndarray,
    matrix: SubstitutionMatrix,
    gaps: GapModel,
    profile: np.ndarray | None = None,
) -> np.ndarray:
    """Exact scores of ``database[indices]``, aligned with *indices*."""
    if profile is None:
        profile = _padded_profile(query_codes, matrix)
    sub = SequenceDatabase(
        [database[int(i)] for i in indices], name="rescore"
    )
    scores = np.zeros(len(sub), dtype=np.int64)
    for pack in pack_database(sub, matrix, lanes=DEFAULT_LANES):
        scores[pack.order] = sw_score_batch(
            query_codes, pack, matrix, gaps, profile=profile
        )
    return scores


def _select_rescore(
    screened: np.ndarray,
    saturated: np.ndarray,
    top: int,
    threshold: int | None,
    kth_exact: int | None,
) -> np.ndarray:
    """Bool mask of non-saturated sequences the exact kernel must re-run.

    Explicit *threshold*: everything whose screened score clears it.
    Adaptive (``threshold is None``): everything whose screened score
    ties or beats *kth_exact*, the running k-th best exact score after
    the saturated rescore — nothing below it can enter the top-k, since
    a non-saturated screened score already equals the exact score.
    """
    candidates = ~saturated
    if threshold is not None:
        return candidates & (screened >= int(threshold))
    if kth_exact is None:
        return candidates  # fewer than top sequences: everything ranks
    return candidates & (screened >= kth_exact)


def sw_score_database_screened(
    query: Sequence,
    database: SequenceDatabase,
    matrix: SubstitutionMatrix,
    gaps: GapModel,
    top: int = 10,
    threshold: int | None = None,
    lanes: int = DEFAULT_SCREEN_LANES,
    bin_width: int = DEFAULT_BIN_WIDTH,
    cap: int = SCREEN_CAP,
    packs: SequenceType[LengthBinnedPack] | None = None,
    profile: np.ndarray | None = None,
    stats: ScreenStats | None = None,
) -> ScreenedResult:
    """Two-stage sweep: screen everything, rescore only what matters.

    Stage 1 screens the whole database with the capped int32 sweep over
    length-binned packs.  Stage 2 rescores saturated sequences exactly,
    derives the k-th best exact score seen so far, and confirms with
    the exact kernel every sequence whose screened score ties or beats
    it (or clears an explicit *threshold*).  The returned ``scores``
    are bit-exact with :func:`~repro.align.intersequence.sw_score_database`
    for any threshold; *threshold* only moves work between the stages.
    Pre-built *packs* (e.g. from the pack cache or store) and a
    *profile* from :func:`build_screen_profile` skip conversion.
    """
    query_codes = _codes(query, matrix)
    n = len(database)
    screened = np.zeros(n, dtype=np.int64)
    saturated = np.zeros(n, dtype=bool)
    if profile is None:
        profile = build_screen_profile(query_codes, matrix)
    if packs is None:
        packs = pack_database_binned(
            database, matrix, lanes=lanes, bin_width=bin_width
        )
    for pack in packs:
        batch, flags = sw_screen_batch(
            query_codes, pack, matrix, gaps, cap=cap, profile=profile
        )
        screened[pack.order] = batch
        saturated[pack.order] = flags
    return rescore_screened(
        query_codes,
        database,
        matrix,
        gaps,
        screened,
        saturated,
        top=top,
        threshold=threshold,
        stats=stats,
    )


def rescore_screened(
    query_codes: np.ndarray,
    database: SequenceDatabase,
    matrix: SubstitutionMatrix,
    gaps: GapModel,
    screened: np.ndarray,
    saturated: np.ndarray,
    top: int = 10,
    threshold: int | None = None,
    stats: ScreenStats | None = None,
) -> ScreenedResult:
    """Stage 2 alone: exact rescore of a finished screening pass.

    Split out so engines can drive the screening loop themselves (for
    per-pack progress/cancellation) and still share the selection and
    rescore logic with :func:`sw_score_database_screened`.
    """
    n = len(database)
    scores = screened.copy()
    rescored = np.zeros(n, dtype=bool)
    exact_profile = None
    sat_idx = np.flatnonzero(saturated)
    if sat_idx.size:
        exact_profile = _padded_profile(query_codes, matrix)
        scores[sat_idx] = _rescore_exact(
            query_codes, database, sat_idx, matrix, gaps, exact_profile
        )
        rescored[sat_idx] = True
    kth_exact = None
    if threshold is None and n > top > 0:
        # k-th best of the partially-exact vector (saturated entries
        # are exact now; the rest are exact by the no-clip argument).
        kth_exact = int(np.partition(scores, n - top)[n - top])
    mask = _select_rescore(screened, saturated, top, threshold, kth_exact)
    cand_idx = np.flatnonzero(mask)
    if cand_idx.size:
        scores[cand_idx] = _rescore_exact(
            query_codes, database, cand_idx, matrix, gaps, exact_profile
        )
        rescored[cand_idx] = True
    if stats is not None:
        stats.add(
            screened=n,
            rescored=int(rescored.sum()),
            saturated=int(saturated.sum()),
        )
    return ScreenedResult(
        scores=scores,
        screened=screened,
        saturated=saturated,
        rescored=rescored,
    )


def sw_score_database_screened_multi(
    queries: SequenceType[Sequence],
    database: SequenceDatabase,
    matrix: SubstitutionMatrix,
    gaps: GapModel,
    top: int = 10,
    threshold: int | None = None,
    lanes: int = DEFAULT_SCREEN_LANES,
    bin_width: int = DEFAULT_BIN_WIDTH,
    cap: int = SCREEN_CAP,
    packs: SequenceType[LengthBinnedPack] | None = None,
    profile: MultiQueryProfile | None = None,
    stats: ScreenStats | None = None,
) -> ScreenedResult:
    """Multi-query two-stage sweep; arrays are ``(Q, len(database))``.

    All queries share each binned pack's screening sweep (the PR 5
    multi-query tensor, in int32).  Selection runs per query against
    the k-th best *screened* score (a certified lower bound on the
    k-th best exact score, since exact >= screened pointwise); the
    union of survivors across queries is rescored in one exact
    multi-query sweep.
    """
    n = len(database)
    queries_codes = [_codes(q, matrix) for q in queries]
    if profile is None:
        profile = build_screen_multi_profile(queries_codes, matrix)
    nq = profile.queries
    screened = np.zeros((nq, n), dtype=np.int64)
    saturated = np.zeros((nq, n), dtype=bool)
    if packs is None:
        packs = pack_database_binned(
            database, matrix, lanes=lanes, bin_width=bin_width
        )
    for pack in packs:
        batch, flags = sw_screen_batch_multi(profile, pack, gaps, cap=cap)
        screened[:, pack.order] = batch
        saturated[:, pack.order] = flags
    return rescore_screened_multi(
        queries,
        database,
        matrix,
        gaps,
        screened,
        saturated,
        top=top,
        threshold=threshold,
        stats=stats,
    )


def rescore_screened_multi(
    queries: SequenceType[Sequence],
    database: SequenceDatabase,
    matrix: SubstitutionMatrix,
    gaps: GapModel,
    screened: np.ndarray,
    saturated: np.ndarray,
    top: int = 10,
    threshold: int | None = None,
    stats: ScreenStats | None = None,
) -> ScreenedResult:
    """Multi-query stage 2: one exact sweep over the survivor union."""
    n = len(database)
    nq = screened.shape[0]
    rescored = np.zeros((nq, n), dtype=bool)
    for q in range(nq):
        kth = None
        if threshold is None and n > top > 0:
            # The k-th best screened score is a certified lower bound on
            # the k-th best exact score (exact >= screened pointwise).
            kth = int(np.partition(screened[q], n - top)[n - top])
        rescored[q] = saturated[q] | _select_rescore(
            screened[q], saturated[q], top, threshold, kth
        )
    scores = screened.copy()
    union = np.flatnonzero(rescored.any(axis=0))
    if union.size:
        sub = SequenceDatabase(
            [database[int(i)] for i in union], name="rescore"
        )
        exact = sw_score_database_multi(
            queries, sub, matrix, gaps, lanes=DEFAULT_LANES
        )
        # Overwriting every query's union columns is safe: exact values
        # equal the true scores, and non-selected entries there are
        # non-saturated, i.e. already exact.
        scores[:, union] = exact
    if stats is not None:
        stats.add(
            screened=int(rescored.size),
            rescored=int(rescored.sum()),
            saturated=int(saturated.sum()),
        )
    return ScreenedResult(
        scores=scores,
        screened=screened,
        saturated=saturated,
        rescored=rescored,
    )
