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
  ``(lanes, m, Q)`` vectorized step, with the vertical ``F`` dependency
  solved by the same max-plus prefix scan as
  :mod:`repro.align.columnwise` (``np.maximum.accumulate`` down the
  query axis for every lane at once).

That sweep is the one kernel of the package.  It is parameterised by
query count ``Q`` (stacked queries, :mod:`repro.align.multiquery`), an
optional clip cap and the profile's dtype (the int32 saturating screen,
:mod:`repro.align.screening`); :func:`sw_score_batch` is its
single-query int64 form.  Scores are bit-exact with the reference
kernel.
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


#: Pad score of each sweep dtype: far below any real substitution score,
#: yet far enough from the dtype's edge that ``pad + ramp`` cannot wrap.
#: int64 is the exact sweep's state, int32 the capped screen's.
_PAD = {np.dtype(np.int64): -(1 << 40), np.dtype(np.int32): -(1 << 20)}


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


def _sweep(
    profile: np.ndarray,
    residues: np.ndarray,
    gaps: GapModel,
    cap: int | None = None,
) -> np.ndarray:
    """The lane sweep: best local score of every (lane, query) pair.

    *profile* is an ``(A+1, m, Q)`` stacked profile and sets the dtype
    of the whole DP state; *residues* is a pack's ``(rows, lanes)``
    code matrix.  ``cap`` clips every H cell to ``[0, cap]`` (the
    saturating screen); ``None`` runs the exact recurrence.  Returns
    ``(lanes, Q)`` best scores in the profile's dtype.
    """
    _, m, nq = profile.shape
    lanes = residues.shape[1]
    dtype = profile.dtype
    best = np.zeros((lanes, nq), dtype=dtype)
    if m == 0 or lanes == 0:
        return best
    go = dtype.type(gaps.open)
    ge = dtype.type(gaps.extend)
    # DP state in (lanes, m, Q) layout: the per-row profile gather
    # ``profile[residues[j]]`` lands contiguously, with no transpose.
    H_prev = np.zeros((lanes, m + 1, nq), dtype=dtype)
    E = np.full((lanes, m, nq), _PAD[dtype], dtype=dtype)
    Ebuf = np.empty_like(E)
    H = np.empty_like(E)
    F = np.empty_like(E)
    G = np.empty_like(H_prev)
    column_best = np.empty_like(best)
    ramp_up = (np.arange(1, m + 1, dtype=dtype) * ge)[None, :, None]
    ramp_dn = (go + np.arange(m, dtype=dtype) * ge)[None, :, None]

    for j in range(residues.shape[0]):
        np.subtract(H_prev[:, 1:], go, out=Ebuf)
        np.subtract(E, ge, out=E)
        np.maximum(Ebuf, E, out=E)
        np.add(H_prev[:, :-1], profile[residues[j]], out=H)
        np.maximum(H, E, out=H)
        np.clip(H, 0, cap, out=H)
        # Lazy F by one max-plus prefix scan down the query axis.  One
        # scan is the exact column fixpoint because GapModel guarantees
        # open >= extend: a vertical gap routed through an F-raised cell
        # pays an extra ``open - extend`` over the direct path.  F never
        # exceeds the largest H, so a clipped column needs no re-clip.
        G[:, 0] = 0
        np.add(H, ramp_up, out=G[:, 1:])
        np.maximum.accumulate(G, axis=1, out=G)
        np.subtract(G[:, :-1], ramp_dn, out=F)
        np.maximum(H, F, out=H)
        np.maximum(best, H.max(axis=1, out=column_best), out=best)
        H_prev[:, 1:] = H
    return best


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
