"""Inter-sequence SW kernel — the CUDASW++ 2.0 analogue ("GPU engine").

CUDASW++ 2.0 (Liu, Schmidt & Maskell, the engine the paper runs on its
GPUs) gets its throughput from *inter-task* parallelism: each CUDA
thread aligns the query against a different database sequence, with the
database pre-sorted by length so the threads of a warp finish together.
This module reproduces that execution model with numpy lanes in place of
CUDA threads:

* the database is **converted** once — sorted by ascending length and
  packed into lane batches (:class:`LanePack`), padding with a sentinel
  residue whose profile row is strongly negative;
* one DP sweep advances **all lanes of a batch simultaneously**: the
  outer loop runs over subject positions, and each column update is a
  vectorized step over query-major ``(lanes, Q, m)`` state, with the
  vertical ``F`` dependency solved by the same max-plus prefix scan as
  :mod:`repro.align.columnwise` (``np.maximum.accumulate`` along the
  query axis for every lane at once).

That sweep is the one kernel of the package.  It is parameterised by
query count ``Q`` (stacked queries, :mod:`repro.align.multiquery`) and
an optional clip cap (the saturating screen,
:mod:`repro.align.screening`); :func:`sw_score_batch` is its
single-query exact form.  Its state runs in the narrowest of
int16/int32/int64 that a static bound proves exact — the paper's
16-bit SIMD path — whatever the profile's storage dtype.  Scores are
bit-exact with the reference kernel.
"""

from __future__ import annotations

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
    """A batch of subject sequences packed residue-major for lane access.

    ``residues[j, l]`` is the ``j``-th residue code of lane ``l``'s
    subject, or the pad code once that subject is exhausted.  ``order``
    maps lanes back to the original database indices.
    """

    residues: np.ndarray  # (max_len, lanes) int16
    lengths: np.ndarray  # (lanes,) int64
    order: np.ndarray  # (lanes,) int64 original indices
    pad_code: int

    @property
    def lanes(self) -> int:
        """Number of subject lanes in this pack."""
        return self.residues.shape[1]

    @property
    def cells_per_query_residue(self) -> int:
        """Useful (unpadded) DP cells per query residue."""
        return int(self.lengths.sum())


def pack_database(
    database: SequenceDatabase | Iterable[Sequence],
    matrix: SubstitutionMatrix,
    lanes: int = DEFAULT_LANES,
) -> Iterator[LanePack]:
    """Convert a database into length-sorted lane batches.

    This is CUDASW++'s database-conversion step: sorting by length keeps
    the lanes of one batch balanced, so the padded DP sweep wastes few
    cells (the ablation benchmark quantifies exactly how few).
    """
    if lanes <= 0:
        raise ValueError("lanes must be positive")
    if isinstance(database, SequenceDatabase):
        records = list(database)
    else:
        records = list(database)
    order = np.argsort([len(r) for r in records], kind="stable")
    pad_code = matrix.alphabet.size  # one past the last real residue
    for start in range(0, len(records), lanes):
        chunk = order[start : start + lanes]
        batch = [records[i] for i in chunk]
        lengths = np.array([len(r) for r in batch], dtype=np.int64)
        max_len = int(lengths.max()) if len(batch) else 0
        residues = np.full((max_len, len(batch)), pad_code, dtype=np.int16)
        for lane, record in enumerate(batch):
            residues[: len(record), lane] = _codes(record, matrix)
        yield LanePack(
            residues=residues,
            lengths=lengths,
            order=np.asarray(chunk, dtype=np.int64),
            pad_code=pad_code,
        )


#: Pad score of each profile dtype: far below any real substitution
#: score.  int64 profiles feed the exact sweep, int32 ones the screen;
#: the sweep maps these pads to its own state pad (:data:`_STATES`).
_PAD = {np.dtype(np.int64): -(1 << 40), np.dtype(np.int32): -(1 << 20)}

#: Sweep state dtypes, narrowest first, with the exponent ``k`` of each
#: one's exactness bound: the state is exact while ``reach < 2**k``, and
#: its pad score is ``-2**(k + 1)`` (see :func:`_sweep`).
_STATES = (
    (np.dtype(np.int16), 13),
    (np.dtype(np.int32), 29),
    (np.dtype(np.int64), 61),
)


def _build_profile(
    queries_codes, matrix: SubstitutionMatrix, dtype=np.int64
) -> np.ndarray:
    """Stacked padded query profiles: a read-only ``(A+1, m_max, Q)`` tensor.

    ``profile[c, i, q]`` is the substitution score of residue code ``c``
    against position ``i`` of query ``q``.  The pad-residue row
    ``profile[-1]`` and every position past a query's end hold the
    dtype's pad score, so padded cells can never raise a score.
    """
    if not len(queries_codes):
        raise ValueError("at least one query is required")
    dtype = np.dtype(dtype)
    m_max = max(len(codes) for codes in queries_codes)
    profile = np.full(
        (matrix.alphabet.size + 1, m_max, len(queries_codes)),
        _PAD[dtype],
        dtype=dtype,
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


def _state(profile: np.ndarray, gaps: GapModel, cap: int | None):
    """Narrowest exact sweep state for *profile*: ``(dtype, pad, cap)``.

    The returned cap is ``None`` when it can never bind.  See
    :func:`_sweep` for why the dtype holds every intermediate exactly.
    """
    m = profile.shape[1]
    s_max = max(int(profile.max()), 0)
    if cap is not None and cap >= s_max * m:
        cap = None
    bound = s_max * m if cap is None else cap
    reach = bound + max(s_max, m * gaps.extend + gaps.open)
    for dtype, k in _STATES:
        if reach < 1 << k:
            return dtype, -(1 << (k + 1)), cap
    raise OverflowError(f"scores up to {reach} exceed the int64 sweep state")


def _sweep(
    profile: np.ndarray,
    residues: np.ndarray,
    gaps: GapModel,
    cap: int | None = None,
) -> np.ndarray:
    """The lane sweep: best local score of every (lane, query) pair.

    *profile* is an ``(A+1, m, Q)`` stacked profile; *residues* is a
    pack's ``(rows, lanes)`` code matrix.  ``cap`` clips every H cell to
    ``[0, cap]`` (the saturating screen); ``None`` runs the exact
    recurrence.  Returns ``(lanes, Q)`` best scores in the profile's
    dtype.

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
    fix-up.  The best score is an elementwise running max of H, reduced
    once at the end.

    **State dtype.**  The state is the narrowest of int16/int32/int64
    that provably holds every intermediate, chosen per call from a
    static bound (the paper's 16-bit path, decided by a bound instead of
    by overflow detection).  Let ``S`` be the largest profile score
    (floored at 0), ``m`` the stacked query length and ``o``/``e`` the
    gap open/extend costs.  A cap of at least ``S*m`` can never bind
    and is dropped; let ``B = cap`` if a cap remains, else ``S*m``.
    Then:

    * every H cell is in ``[0, B]``: a local alignment ending at query
      position ``i`` scores at most ``S*i``, and the clip keeps it
      non-negative (and at most ``cap``);
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
    lanes = residues.shape[1]
    if m == 0 or lanes == 0:
        return np.zeros((lanes, nq), dtype=profile.dtype)
    dtype, pad, cap = _state(profile, gaps, cap)
    # (A+1, Q, 1 + m) in the state dtype, column 0 the boundary column.
    # Input pads and anything below the state pad become the state pad,
    # computed in the wider of the two dtypes.
    wide = profile.astype(np.promote_types(profile.dtype, dtype))
    prof = np.full((profile.shape[0], nq, 1 + m), pad, dtype=dtype)
    prof[:, :, 1:] = np.where(
        wide <= _PAD[profile.dtype], pad, np.maximum(wide, pad)
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
    ceiling = None if cap is None else np.full(size, cap, dtype=dtype)
    steps = np.arange(1 + m, dtype=dtype) * ge
    ramp_up = np.tile(steps, lanes * nq)
    drop = np.concatenate((np.array([-pad], dtype=dtype), go + steps[:-1]))
    ramp_dn = np.tile(drop, lanes * nq)

    for row in residues:
        H = H_next[1:]
        np.subtract(H_prev[1:], go, out=Ebuf)
        np.subtract(E, ge, out=E)
        np.maximum(Ebuf, E, out=E)
        np.add(H_prev[:-1], prof[row].reshape(size), out=H)
        np.maximum(H, E, out=H)
        np.maximum(H, zero, out=H)
        if ceiling is not None:
            np.minimum(H, ceiling, out=H)
        # Lazy F by one max-plus prefix scan along the query axis.  One
        # scan is the exact column fixpoint because GapModel guarantees
        # open >= extend: a vertical gap routed through an F-raised cell
        # pays an extra ``open - extend`` over the direct path.  F never
        # exceeds the largest H, so a clipped column needs no re-clip.
        np.add(H, ramp_up, out=G[1:])
        np.maximum.accumulate(scan, axis=1, out=scan)
        np.subtract(G[:-1], ramp_dn, out=F)
        np.maximum(H, F, out=H)
        np.maximum(best, H, out=best)
        H_prev, H_next = H_next, H_prev
    return best.reshape(lanes, nq, 1 + m).max(axis=2).astype(profile.dtype)


def sw_score_batch(
    query_codes: np.ndarray,
    pack: LanePack,
    matrix: SubstitutionMatrix,
    gaps: GapModel,
    profile: np.ndarray | None = None,
) -> np.ndarray:
    """Score the query against every lane of *pack* simultaneously.

    Returns the per-lane best scores in **lane order** (use
    ``pack.order`` to scatter them back to database indices).  *profile*
    may be passed in when the same query is scored against many packs.
    """
    if profile is None:
        profile = _padded_profile(query_codes, matrix)
    return _sweep(profile[:, :, None], pack.residues, gaps)[:, 0]


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
