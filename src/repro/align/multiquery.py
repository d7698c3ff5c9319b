"""Multi-query inter-sequence SW kernel — SWAPHI-style query batching.

The single-query inter-sequence kernel (:mod:`repro.align.intersequence`)
amortizes the DP sweep across database *subjects* by packing them into
lanes.  SWAPHI (Liu & Schmidt) and CUDASW++ 3.0 go one step further:
several **queries** share one sweep over the packed database, so the
database conversion, the lane bookkeeping, and the Python-level loop
overhead are all paid once per batch instead of once per query.

This module stacks query profiles into one ragged sweep:

* the queries' profiles lie back to back along one column axis, a
  ``(alphabet + 1, sum(m_q))`` array (:class:`MultiQueryProfile`); no
  query is padded to the longest, so a batch of unequal queries
  computes no cells a query does not own;
* the sweep is the package's one lane kernel
  (:mod:`repro.align.intersequence`) with ``Q`` stacked queries: along
  each lane's row of state, query ``q`` is a segment of ``1 + m_q``
  columns (a boundary column, then its positions), so every numpy op
  covers all ``lanes x sum(1 + m_q)`` cells in one contiguous run, and
  the lazy-F prefix scan runs along each lane's row at once.

No query's state leaks into another's: the scan's F ramp jumps at each
segment end by more than any earlier query can score, and restarts at
0 (a new scan group) before it would leave the state dtype, so
per-query scores are bit-exact with the single-query kernel (and hence
with the reference kernel) — :func:`~repro.align.intersequence._sweep`
holds the proof, and the conformance suite asserts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence as SequenceType

import numpy as np

from ..sequences.database import SequenceDatabase
from ..sequences.records import Sequence
from .gaps import GapModel
from .intersequence import (
    DEFAULT_LANES,
    LanePack,
    _build_profile,
    _sweep,
    pack_database,
)
from .reference import _codes
from .scoring import SubstitutionMatrix

__all__ = [
    "MultiQueryProfile",
    "build_multi_profile",
    "sw_score_batch_multi",
    "sw_score_database_multi",
]


@dataclass(frozen=True)
class MultiQueryProfile:
    """Stacked query profiles for one multi-query sweep.

    Query ``q``'s positions are the ``lengths[q]`` columns of *profile*
    after those of queries ``0 .. q-1``: ``profile[c, column]`` is the
    substitution score of residue code ``c`` against that position.
    The pad-residue row ``profile[-1]`` is strongly negative so pad
    cells can never raise a score.
    """

    profile: np.ndarray  # (alphabet + 1, lengths.sum()) int64
    lengths: np.ndarray  # (Q,) int64

    @property
    def queries(self) -> int:
        """Number of stacked queries."""
        return len(self.lengths)

    @property
    def max_length(self) -> int:
        """Length of the longest stacked query."""
        return int(self.lengths.max())

    @classmethod
    def build(
        cls,
        queries_codes: SequenceType[np.ndarray],
        matrix: SubstitutionMatrix,
    ) -> "MultiQueryProfile":
        """Lay the queries' profiles back to back."""
        lengths = np.array([len(c) for c in queries_codes], dtype=np.int64)
        return cls(_build_profile(queries_codes, matrix), lengths)


def build_multi_profile(
    queries_codes: SequenceType[np.ndarray],
    matrix: SubstitutionMatrix,
) -> MultiQueryProfile:
    """Lay per-query profiles back to back in one ragged stack."""
    return MultiQueryProfile.build(queries_codes, matrix)


def sw_score_batch_multi(
    mq: MultiQueryProfile,
    pack: LanePack,
    gaps: GapModel,
) -> np.ndarray:
    """Score every stacked query against every subject of *pack* at once.

    Returns a ``(Q, subjects)`` int64 array of best local-alignment
    scores aligned with ``pack.order`` (scatter through it for database
    order).
    """
    return _sweep(mq.profile, mq.lengths, pack, gaps).T


def sw_score_database_multi(
    queries: SequenceType[Sequence],
    database: SequenceDatabase,
    matrix: SubstitutionMatrix,
    gaps: GapModel,
    lanes: int = DEFAULT_LANES,
    packs: SequenceType[LanePack] | None = None,
    profile: MultiQueryProfile | None = None,
) -> np.ndarray:
    """Score several queries against the whole database in shared sweeps.

    Returns a ``(Q, len(database))`` int64 array aligned with database
    order.  Pre-built *packs* (e.g. from the pack cache) and a stacked
    *profile* may be supplied to skip conversion entirely.
    """
    if profile is None:
        profile = build_multi_profile(
            [_codes(q, matrix) for q in queries], matrix
        )
    scores = np.zeros((profile.queries, len(database)), dtype=np.int64)
    if packs is None:
        packs = pack_database(database, matrix, lanes=lanes)
    for pack in packs:
        batch = sw_score_batch_multi(profile, pack, gaps)
        scores[:, pack.order] = batch
    return scores
