"""Inter-sequence SW kernel — the CUDASW++ 2.0 analogue ("GPU engine").

CUDASW++ 2.0 (Liu, Schmidt & Maskell, the engine the paper runs on its
GPUs) gets its throughput from *inter-task* parallelism: each CUDA
thread aligns the query against a different database sequence, with the
database pre-sorted by length so the threads of a warp finish together.
This module reproduces that execution model with numpy lanes in place of
CUDA threads, and streams subjects through the lanes as SWIPE does:

* the database is **converted** once into lane packs
  (:class:`LanePack`): subjects are taken longest first, each pack is
  as tall as its longest subject, and each following subject goes to
  the least-loaded lane, right after that lane's previous subject, if
  it still fits (otherwise a later pack takes it).  A lane thus holds
  several subjects back to back, and only the rows no subject fills
  hold the pad residue, whose profile row is strongly negative;
* one DP sweep advances **all lanes of a pack simultaneously**: the
  outer loop runs over pack rows, and each row update is a vectorized
  step over ``(lanes, W)`` state, the stacked queries back to back on
  the query axis, with the vertical ``F`` dependency solved by the same
  max-plus prefix scan as :mod:`repro.align.columnwise`
  (``np.maximum.accumulate`` along the query axis for every lane at
  once).  After a row on which subjects end, their lanes' best scores
  are read out and those lanes' state is reset, so the next subject in
  a lane starts from a fresh DP.

That sweep is the one kernel of the package.  It is parameterised by
query count ``Q`` (stacked queries, :mod:`repro.align.multiquery`);
:func:`sw_score_batch` is its single-query form.  Both return scores
aligned with ``pack.order``, one per subject.  Profiles are stored as
int64; the sweep's state runs in the narrowest of int16/int32/int64
that a static bound proves exact — the paper's 16-bit SIMD path.
Scores are bit-exact with the reference kernel.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ..sequences.database import SequenceDatabase
from ..sequences.records import Sequence
from .gaps import GapModel
from .reference import _codes
from .scoring import SubstitutionMatrix

__all__ = [
    "LanePack",
    "pack_database",
    "sw_score_batch",
    "sw_score_database",
]

#: Default lane count, mirroring a CUDA warp of 32 threads.
DEFAULT_LANES = 32


@dataclass(frozen=True)
class LanePack:
    """A batch of subject sequences streamed residue-major through lanes.

    Subject ``k`` of the pack — database index ``order[k]``,
    ``lengths[k]`` residues — fills rows ``start[k]`` up to
    ``start[k] + lengths[k]`` of lane ``lane[k]``: ``residues[j, l]``
    is that subject's residue code on those rows, and the pad code on
    every row no subject fills.  The subjects of one lane occupy
    disjoint row ranges; an empty subject occupies none.  Without
    *lane* and *start* the pack holds one subject per lane, subject
    ``k`` in lane ``k`` from row 0 (the layout of pack stores written
    before lanes were streamed).
    """

    residues: np.ndarray  # (rows, lanes) int16
    lengths: np.ndarray  # (subjects,) int64
    order: np.ndarray  # (subjects,) int64 original indices
    pad_code: int
    lane: np.ndarray | None = None  # (subjects,) int64
    start: np.ndarray | None = None  # (subjects,) int64

    def __post_init__(self) -> None:
        if self.lane is None:
            lane = np.arange(len(self.order), dtype=np.int64)
            object.__setattr__(self, "lane", lane)
        if self.start is None:
            start = np.zeros(len(self.order), dtype=np.int64)
            object.__setattr__(self, "start", start)

    @property
    def lanes(self) -> int:
        """Number of lanes in this pack."""
        return self.residues.shape[1]

    @property
    def cells_per_query_residue(self) -> int:
        """Useful (unpadded) DP cells per query residue."""
        return int(self.lengths.sum())


def _fill(lengths: np.ndarray, lanes: int):
    """Stream one pack out of *lengths*, sorted longest first.

    The pack is ``lengths[0]`` rows tall.  Each subject in turn goes to
    the least-loaded lane (lowest index on a tie), after the subjects
    already there, when it fits within the pack's rows; otherwise it is
    left for a later pack.  Returns the positions placed, in placement
    order, with each one's lane and start row.
    """
    rows = int(lengths[0])
    ascending = -lengths  # for searchsorted
    # (load, lane), least load first; a lane past the subject count
    # could never be used.
    heap = [(0, lane) for lane in range(min(lanes, len(lengths)))]
    placed, lane_of, start_of = [], [], []
    k = 0
    while k < len(lengths):
        load, lane = heap[0]
        room = rows - load
        if lengths[k] > room:
            # The least load only grows, so every subject longer than
            # the room now waits for a later pack: skip them all.
            k = int(np.searchsorted(ascending, -room))
            if k == len(lengths):
                break
        placed.append(k)
        lane_of.append(lane)
        start_of.append(load)
        heapq.heapreplace(heap, (load + int(lengths[k]), lane))
        k += 1
    return tuple(
        np.array(values, dtype=np.int64)
        for values in (placed, lane_of, start_of)
    )


def pack_database(
    database: SequenceDatabase | Iterable[Sequence],
    matrix: SubstitutionMatrix,
    lanes: int = DEFAULT_LANES,
) -> Iterator[LanePack]:
    """Convert a database into streamed lane packs.

    This is CUDASW++'s database-conversion step with SWIPE's lane
    streaming: taking subjects longest first and stacking shorter ones
    back to back in the least-loaded lanes keeps every lane of a pack
    busy to its last row, so the sweep computes few pad cells (the
    ablation benchmark quantifies exactly how few).  An empty subject
    takes no rows.
    """
    if lanes <= 0:
        raise ValueError("lanes must be positive")
    records = list(database)
    lengths = np.array([len(r) for r in records], dtype=np.int64)
    pad_code = matrix.alphabet.size  # one past the last real residue
    # Longest first; equal lengths keep database order.
    waiting = np.argsort(-lengths, kind="stable")
    while waiting.size:
        placed, lane, start = _fill(lengths[waiting], lanes)
        chosen = waiting[placed]
        residues = np.full(
            (int(lengths[chosen[0]]), int(lane.max()) + 1),
            pad_code,
            dtype=np.int16,
        )
        for index, column, row in zip(chosen, lane, start):
            residues[row : row + lengths[index], column] = _codes(
                records[index], matrix
            )
        yield LanePack(
            residues=residues,
            lengths=lengths[chosen],
            order=chosen,
            pad_code=pad_code,
            lane=lane,
            start=start,
        )
        waiting = np.delete(waiting, placed)


#: Pad score of the int64 profiles: far below any real substitution
#: score.  The sweep maps it to its own state pad (:data:`_STATES`).
_PAD = -(1 << 40)

#: Sweep state dtypes, narrowest first, with the exponent ``k`` of each
#: one's exactness bound: the state is exact while ``reach < 2**k``, and
#: its pad score is ``-2**(k + 1)`` (see :func:`_sweep`).
_STATES = (
    (np.dtype(np.int16), 13),
    (np.dtype(np.int32), 29),
    (np.dtype(np.int64), 61),
)


def _build_profile(queries_codes, matrix: SubstitutionMatrix) -> np.ndarray:
    """Ragged stacked query profile: a read-only ``(A+1, n)`` int64 array.

    The queries' profiles lie back to back along the column axis, ``n``
    their total length: query ``q``'s position ``i`` is column
    ``sum(m_p for p < q) + i``, and ``profile[c, column]`` the int64
    substitution score of residue code ``c`` against it.  No query is
    padded.  The pad-residue row ``profile[-1]`` holds the pad score
    :data:`_PAD`, so pad cells can never raise a score.  A single
    query's profile is the ``(A+1, m)`` padded profile.
    """
    if not len(queries_codes):
        raise ValueError("at least one query is required")
    codes = np.concatenate(
        [np.asarray(c, dtype=np.intp) for c in queries_codes]
    )
    profile = np.full(
        (matrix.alphabet.size + 1, len(codes)), _PAD, dtype=np.int64
    )
    profile[:-1] = matrix.profile_for(codes)
    profile.setflags(write=False)
    return profile


def _padded_profile(
    query_codes: np.ndarray, matrix: SubstitutionMatrix
) -> np.ndarray:
    """Query profile with one extra, strongly negative pad-residue row."""
    return _build_profile([query_codes], matrix)


def _state(profile: np.ndarray, lengths, gaps: GapModel):
    """Narrowest exact sweep state for a ragged *profile* of queries of
    *lengths*: ``(dtype, pad)``.

    See :func:`_sweep` for why the dtype holds every intermediate
    exactly.
    """
    m = int(max(lengths))
    s_max = int(profile.max(initial=0))
    reach = s_max * m + max(s_max, m * gaps.extend + gaps.open)
    for dtype, k in _STATES:
        if reach < 1 << k:
            return dtype, -(1 << (k + 1))
    raise OverflowError(f"scores up to {reach} exceed the int64 sweep state")


def _segments(lengths, s_max: int, gaps: GapModel, dtype, pad: int):
    """Column layout of a ragged query stack: ``(starts, ramp, groups)``.

    Query ``q`` is the segment of ``1 + m_q`` columns from
    ``starts[q]``: its boundary column, then its positions.  ``ramp`` is
    the lazy-F ramp of every column: it rises by ``e`` per column and,
    after each query, jumps by a further ``S*m_q``, so no query's G can
    raise a later query's F above 0.  ``groups`` are the ``(first,
    stop)`` column ranges of the prefix scan: a new group (and a ramp
    back at 0) starts at a query whose ramp top plus ``|pad| + S*m``
    would leave *dtype* (see :func:`_sweep`).
    """
    lengths = [int(m) for m in lengths]
    e = gaps.extend
    room = int(np.iinfo(dtype).max) + pad - s_max * max(lengths)
    starts, ramp, groups = [], [], []
    column = base = 0
    for m in lengths:
        if base + m * e > room:
            groups.append(column)
            base = 0
        starts.append(column)
        ramp.append(base + e * np.arange(1 + m))
        base += e * (1 + m) + s_max * m
        column += 1 + m
    bounds = [0, *groups, column]
    return (
        np.array(starts, dtype=np.intp),
        np.concatenate(ramp),
        list(zip(bounds[:-1], bounds[1:])),
    )


def _ends(pack: LanePack) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """``{row: (lanes, subjects)}``: the subjects whose last residue is on
    each row, with their lanes.  Empty subjects end on no row."""
    live = np.flatnonzero(pack.lengths)
    last = pack.start[live] + pack.lengths[live] - 1
    by_row = np.argsort(last, kind="stable")
    live, last = live[by_row], last[by_row]
    rows, first = np.unique(last, return_index=True)
    return {
        int(row): (pack.lane[subjects], subjects)
        for row, subjects in zip(rows, np.split(live, first[1:]))
    }


def _sweep(
    profile: np.ndarray, lengths, pack: LanePack, gaps: GapModel
) -> np.ndarray:
    """The lane sweep: best local score of every (subject, query) pair.

    *profile* is a ragged ``(A+1, n)`` stacked int64 profile of queries
    of *lengths* (:func:`_build_profile`); *pack* is a
    :class:`LanePack`.  Returns ``(subjects, Q)`` int64 best scores,
    aligned with ``pack.order``; an empty subject or query scores 0.

    **Layout.**  The DP state is ``(lanes, W)``, stored flat.  Along a
    lane's row the queries lie back to back, with no pad columns: query
    ``q`` is a segment of ``1 + m_q`` columns, its boundary column and
    then its positions, so ``W = sum(1 + m_q)``.  The profile is laid
    out once on entry as ``(A+1, W)``.  Every per-row op is then one
    contiguous run: the gather copies whole ``W``-wide rows, the
    diagonal is the H buffer read one cell back (a lead cell holding 0
    makes ``buffer[:-1]`` that shift), and the lazy-F prefix scan runs
    along the contiguous last axis.  The shift wraps each boundary cell
    onto the previous segment's (or lane's) last cell; the boundary's
    pad profile score and its F ramp keep it at exactly 0, so no row
    needs a fix-up.  The best score is an elementwise running max of
    H, reduced per segment where subjects end.

    **Streaming.**  After each row on which subjects end, the sweep
    reduces those lanes' running best into the subjects' scores and
    puts the lanes' H, E and best back to their initial state (0, the
    pad score, 0), so the next subject in the lane is scored by a fresh
    DP: no diagonal, gap or best carries across the boundary.  F needs
    no reset: it is rebuilt from H on every row.

    **Segment ramps.**  The scan computes ``G = max-prefix(H + ramp)``
    and ``F[c] = G[c-1] - ramp_dn[c]`` (:func:`_segments`).  Inside a
    segment the ramp rises by ``e`` per column and ``ramp_dn[c] =
    ramp[c-1] + o``, so F at position ``i`` of query ``q`` from position
    ``k < i`` of the same query is ``H[k] - o - (i-1-k)*e``: the exact
    vertical gap.  The scan runs once per *group* of consecutive
    segments, and the ramp keeps rising across the segments of a group:
    after query ``p`` it also jumps by ``S*m_p`` (``S`` below).  A cell
    of an earlier query ``p`` then adds at most ``S*m_p + base_p +
    m_p*e`` to G, and a later query's ``ramp_dn`` subtracts at least
    ``base_p + (1 + m_p)*e + S*m_p + o``, so that term is at most
    ``-(o + e) <= 0`` and never raises an H cell, which the zero floor
    keeps at 0 or above.  A boundary column's ``ramp_dn`` is the
    previous column's ramp plus ``|pad|`` (for column 0, the last
    column's: the previous lane ends there), and the lead cell of G
    holds that ramp; as the ramp never falls inside a group, its F is
    ``G[c-1] - ramp[c-1] - |pad|``, in ``[pad, B + pad]`` and below 0.

    **State dtype.**  The state is the narrowest of int16/int32/int64
    that provably holds every intermediate, chosen per call from a
    static bound (the paper's 16-bit path, decided by a bound instead of
    by overflow detection).  Let ``S`` be the largest profile score
    (floored at 0), ``m`` the longest query's length, ``o``/``e`` the
    gap open/extend costs and ``B = S*m``.  Then:

    * every H cell is in ``[0, B]``: a local alignment ending at query
      position ``i`` scores at most ``S*i``, and the zero floor keeps it
      non-negative;
    * the diagonal term ``H + score`` is at most ``B + S``;
    * ``E = max(H - o, E - e)`` starts at the pad score, is ``pad - e``
      at its lowest, and lies in ``[-o, B - o]`` from the first row on;
    * ``G[c-1] >= ramp[c-1]``, as H is non-negative and the lead cell
      holds the last column's ramp, so ``F >= -o`` inside a segment and
      ``F >= pad`` on a boundary column.

    So every intermediate not derived from a pad score or the ramp lies
    within ``reach = B + max(S, m*e + o)`` of zero.  A state with
    exponent ``k`` (13, 29, 61 for int16, int32, int64; :data:`_STATES`)
    is used while ``reach < 2**k``, with pad score ``-2**(k+1)``.  Then
    ``|pad| > reach``, so a diagonal term through a pad score is below
    zero whatever H it adds to and never sets a cell; and, as
    ``e < 2**k``, ``pad - e > -2**(k+2)``, the dtype's minimum, so
    nothing wraps.  The **group bound** keeps the ramp in range too: a
    new group starts, its ramp back at 0, wherever the ramp top ``T``
    would break ``T + |pad| + B < 2**(k+2)``.  Then ``G <= B + T`` and
    ``ramp_dn <= T + |pad|`` fit.  One query alone always fits, since
    ``m*e + B < 2**k``.  Profile scores at or below the profile's own
    pad, or below the state pad, become the state pad: a diagonal term
    through one is negative either way.  So every H, E and F — hence
    every score — equals the int64 recurrence's.
    """
    rows, lanes = pack.residues.shape
    scores = np.zeros((len(pack.order), len(lengths)), dtype=np.int64)
    if not profile.shape[1] or rows == 0:
        return scores
    dtype, pad = _state(profile, lengths, gaps)
    s_max = int(profile.max(initial=0))
    starts, ramp, groups = _segments(lengths, s_max, gaps, dtype, pad)
    width = len(ramp)
    # (A+1, W) in the state dtype, boundary columns at the state pad.
    # Input pads and anything below the state pad become the state pad.
    prof = np.full((profile.shape[0], width), pad, dtype=dtype)
    prof[:, np.delete(np.arange(width), starts)] = np.where(
        profile <= _PAD, pad, np.maximum(profile, pad)
    )
    go = dtype.type(gaps.open)
    ge = dtype.type(gaps.extend)
    # Flat state; element 0 of each H/G buffer is the lead cell.
    size = lanes * width
    H_prev = np.zeros(1 + size, dtype=dtype)
    H_next = np.zeros_like(H_prev)
    G = np.zeros_like(H_prev)
    G[0] = ramp[-1]
    scan = G[1:].reshape(lanes, width)
    scans = [scan[:, first:stop] for first, stop in groups]
    E = np.full(size, pad, dtype=dtype)
    Ebuf = np.empty(size, dtype=dtype)
    F = np.empty(size, dtype=dtype)
    best = np.zeros(size, dtype=dtype)  # running max of every H cell
    # Full-size operands: a broadcast or scalar operand costs more per
    # call than the arithmetic at these sizes.
    zero = np.zeros(size, dtype=dtype)
    ramp_up = np.tile(ramp.astype(dtype), lanes)
    drop = np.full(width, gaps.open, dtype=np.int64)
    drop[starts] = -pad
    ramp_dn = np.tile((np.roll(ramp, 1) + drop).astype(dtype), lanes)

    # (lanes, W) views of the state, for the per-lane resets.
    H_prev2, H_next2 = (
        buffer[1:].reshape(lanes, width) for buffer in (H_prev, H_next)
    )
    E2 = E.reshape(lanes, width)
    best2 = best.reshape(lanes, width)
    ends = _ends(pack)

    for j, row in enumerate(pack.residues):
        H = H_next[1:]
        np.subtract(H_prev[1:], go, out=Ebuf)
        np.subtract(E, ge, out=E)
        np.maximum(Ebuf, E, out=E)
        np.add(H_prev[:-1], prof[row].reshape(size), out=H)
        np.maximum(H, E, out=H)
        np.maximum(H, zero, out=H)
        # Lazy F by one max-plus prefix scan per group along the query
        # axis.  One scan is the exact column fixpoint because GapModel
        # guarantees open >= extend: a vertical gap routed through an
        # F-raised cell pays an extra ``open - extend`` over the direct
        # path.
        np.add(H, ramp_up, out=G[1:])
        for part in scans:
            np.maximum.accumulate(part, axis=1, out=part)
        np.subtract(G[:-1], ramp_dn, out=F)
        np.maximum(H, F, out=H)
        np.maximum(best, H, out=best)
        H_prev, H_next = H_next, H_prev
        H_prev2, H_next2 = H_next2, H_prev2
        if j in ends:
            done, subjects = ends[j]
            scores[subjects] = np.maximum.reduceat(best2[done], starts, axis=1)
            best2[done] = 0
            H_prev2[done] = 0
            E2[done] = pad
    return scores


def sw_score_batch(
    query_codes: np.ndarray,
    pack: LanePack,
    matrix: SubstitutionMatrix,
    gaps: GapModel,
    profile: np.ndarray | None = None,
) -> np.ndarray:
    """Score the query against every subject of *pack* simultaneously.

    Returns one best score per subject, aligned with ``pack.order``
    (scatter through it for database indices).  *profile* may be passed
    in when the same query is scored against many packs.
    """
    if profile is None:
        profile = _padded_profile(query_codes, matrix)
    return _sweep(profile, [profile.shape[1]], pack, gaps)[:, 0]


def sw_score_database(
    query: Sequence,
    database: SequenceDatabase,
    matrix: SubstitutionMatrix,
    gaps: GapModel,
    lanes: int = DEFAULT_LANES,
) -> np.ndarray:
    """Score *query* against every database record (inter-sequence mode).

    Returns an int64 array of similarities aligned with database order —
    the per-task computation of the paper's GPU slaves.
    """
    query_codes = _codes(query, matrix)
    profile = _padded_profile(query_codes, matrix)
    scores = np.zeros(len(database), dtype=np.int64)
    for pack in pack_database(database, matrix, lanes=lanes):
        batch_scores = sw_score_batch(
            query_codes, pack, matrix, gaps, profile=profile
        )
        scores[pack.order] = batch_scores
    return scores
