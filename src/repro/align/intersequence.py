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
  step over query-major ``(lanes, Q, m)`` state, with the vertical
  ``F`` dependency solved by the same max-plus prefix scan as
  :mod:`repro.align.columnwise` (``np.maximum.accumulate`` along the
  query axis for every lane at once).  After a row on which subjects
  end, their lanes' best scores are read out and those lanes' state is
  reset, so the next subject in a lane starts from a fresh DP.

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
    """Stacked padded query profiles: a read-only ``(A+1, m_max, Q)`` tensor.

    ``profile[c, i, q]`` is the int64 substitution score of residue code
    ``c`` against position ``i`` of query ``q``.  The pad-residue row
    ``profile[-1]`` and every position past a query's end hold the pad
    score :data:`_PAD`, so padded cells can never raise a score.
    """
    if not len(queries_codes):
        raise ValueError("at least one query is required")
    m_max = max(len(codes) for codes in queries_codes)
    profile = np.full(
        (matrix.alphabet.size + 1, m_max, len(queries_codes)),
        _PAD,
        dtype=np.int64,
    )
    for q, codes in enumerate(queries_codes):
        profile[:-1, : len(codes), q] = matrix.profile_for(codes)
    profile.setflags(write=False)
    return profile


def _padded_profile(
    query_codes: np.ndarray, matrix: SubstitutionMatrix
) -> np.ndarray:
    """Query profile with one extra, strongly negative pad-residue row."""
    return _build_profile([query_codes], matrix)[:, :, 0]


def _state(profile: np.ndarray, gaps: GapModel):
    """Narrowest exact sweep state for *profile*: ``(dtype, pad)``.

    See :func:`_sweep` for why the dtype holds every intermediate
    exactly.
    """
    m = profile.shape[1]
    s_max = max(int(profile.max()), 0)
    reach = s_max * m + max(s_max, m * gaps.extend + gaps.open)
    for dtype, k in _STATES:
        if reach < 1 << k:
            return dtype, -(1 << (k + 1))
    raise OverflowError(f"scores up to {reach} exceed the int64 sweep state")


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


def _sweep(profile: np.ndarray, pack: LanePack, gaps: GapModel) -> np.ndarray:
    """The lane sweep: best local score of every (subject, query) pair.

    *profile* is an ``(A+1, m, Q)`` stacked int64 profile; *pack* is a
    :class:`LanePack`.  Returns ``(subjects, Q)`` int64 best scores,
    aligned with ``pack.order``; an empty subject scores 0.

    **Layout.**  The DP state is query-major: ``(lanes, Q, 1 + m)``,
    stored flat, query position innermost, with a boundary column 0
    ahead of each (lane, query) row.  The profile is transposed once on
    entry to ``(A+1, Q, 1 + m)``.  Every per-row op is then one
    contiguous run: the gather copies whole ``(Q, 1 + m)`` slabs, the
    diagonal is the H buffer read one cell back (a lead cell holding 0
    makes ``buffer[:-1]`` that shift), and the lazy-F prefix scan runs
    along the contiguous last axis.  The shift wraps each boundary cell
    onto the previous row's last cell; the boundary's pad profile score
    and its ``|pad|`` F ramp keep it at exactly 0, so no row needs a
    fix-up.  The best score is an elementwise running max of H.

    **Streaming.**  After each row on which subjects end, the sweep
    reduces those lanes' running best into the subjects' scores and
    puts the lanes' H, E and best back to their initial state (0, the
    pad score, 0), so the next subject in the lane is scored by a fresh
    DP: no diagonal, gap or best carries across the boundary.  F needs
    no reset: it is rebuilt from H on every row.

    **State dtype.**  The state is the narrowest of int16/int32/int64
    that provably holds every intermediate, chosen per call from a
    static bound (the paper's 16-bit path, decided by a bound instead of
    by overflow detection).  Let ``S`` be the largest profile score
    (floored at 0), ``m`` the stacked query length, ``o``/``e`` the gap
    open/extend costs and ``B = S*m``.  Then:

    * every H cell is in ``[0, B]``: a local alignment ending at query
      position ``i`` scores at most ``S*i``, and the zero floor keeps it
      non-negative;
    * the diagonal term ``H + score`` is at most ``B + S``;
    * ``E = max(H - o, E - e)`` starts at the pad score, is ``pad - e``
      at its lowest, and lies in ``[-o, B - o]`` from the first row on;
    * the scan adds ``i*e <= m*e`` to H, so ``G <= B + m*e`` and
      ``F = G - (o + i*e) >= -(o + m*e)``; a boundary cell's
      ``F = G - |pad|`` lies in ``[pad, 0)``.

    So every intermediate not derived from a pad score lies within
    ``reach = B + max(S, m*e + o)`` of zero.  A state with exponent
    ``k`` (13, 29, 61 for int16, int32, int64; :data:`_STATES`) is used
    while ``reach < 2**k``, with pad score ``-2**(k+1)``.  Then
    ``|pad| > reach``, so a diagonal term through a pad score is below
    zero whatever H it adds to and never sets a cell; and, as
    ``e < 2**k``, ``pad - e > -2**(k+2)``, the dtype's minimum, so
    nothing wraps.  Profile scores at or below the profile's own pad,
    or below the state pad, become the state pad: a diagonal term
    through one is negative either way.  So every H, E and F — hence
    every score — equals the int64 recurrence's.
    """
    _, m, nq = profile.shape
    rows, lanes = pack.residues.shape
    scores = np.zeros((len(pack.order), nq), dtype=np.int64)
    if m == 0 or rows == 0:
        return scores
    dtype, pad = _state(profile, gaps)
    # (A+1, Q, 1 + m) in the state dtype, column 0 the boundary column.
    # Input pads and anything below the state pad become the state pad.
    prof = np.full((profile.shape[0], nq, 1 + m), pad, dtype=dtype)
    prof[:, :, 1:] = np.where(
        profile <= _PAD, pad, np.maximum(profile, pad)
    ).transpose(0, 2, 1)
    go = dtype.type(gaps.open)
    ge = dtype.type(gaps.extend)
    # Flat state; element 0 of each H/G buffer is the lead cell.
    size = lanes * nq * (1 + m)
    H_prev = np.zeros(1 + size, dtype=dtype)
    H_next = np.zeros_like(H_prev)
    G = np.zeros_like(H_prev)
    scan = G[1:].reshape(lanes * nq, 1 + m)
    E = np.full(size, pad, dtype=dtype)
    Ebuf = np.empty(size, dtype=dtype)
    F = np.empty(size, dtype=dtype)
    best = np.zeros(size, dtype=dtype)  # running max of every H cell
    # Full-size operands: a broadcast or scalar operand costs more per
    # call than the arithmetic at these sizes.
    zero = np.zeros(size, dtype=dtype)
    steps = np.arange(1 + m, dtype=dtype) * ge
    ramp_up = np.tile(steps, lanes * nq)
    drop = np.concatenate((np.array([-pad], dtype=dtype), go + steps[:-1]))
    ramp_dn = np.tile(drop, lanes * nq)

    # (lanes, Q, 1 + m) views of the state, for the per-lane resets.
    H_prev3, H_next3 = (
        buffer[1:].reshape(lanes, nq, 1 + m) for buffer in (H_prev, H_next)
    )
    E3 = E.reshape(lanes, nq, 1 + m)
    best3 = best.reshape(lanes, nq, 1 + m)
    ends = _ends(pack)

    for j, row in enumerate(pack.residues):
        H = H_next[1:]
        np.subtract(H_prev[1:], go, out=Ebuf)
        np.subtract(E, ge, out=E)
        np.maximum(Ebuf, E, out=E)
        np.add(H_prev[:-1], prof[row].reshape(size), out=H)
        np.maximum(H, E, out=H)
        np.maximum(H, zero, out=H)
        # Lazy F by one max-plus prefix scan along the query axis.  One
        # scan is the exact column fixpoint because GapModel guarantees
        # open >= extend: a vertical gap routed through an F-raised cell
        # pays an extra ``open - extend`` over the direct path.
        np.add(H, ramp_up, out=G[1:])
        np.maximum.accumulate(scan, axis=1, out=scan)
        np.subtract(G[:-1], ramp_dn, out=F)
        np.maximum(H, F, out=H)
        np.maximum(best, H, out=best)
        H_prev, H_next = H_next, H_prev
        H_prev3, H_next3 = H_next3, H_prev3
        if j in ends:
            done, subjects = ends[j]
            scores[subjects] = best3[done].max(axis=2)
            best3[done] = 0
            H_prev3[done] = 0
            E3[done] = pad
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
    return _sweep(profile[:, :, None], pack, gaps)[:, 0]


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
