"""Multi-query inter-sequence SW kernel — SWAPHI-style query batching.

The single-query inter-sequence kernel (:mod:`repro.align.intersequence`)
amortizes the DP sweep across database *subjects* by packing them into
lanes.  SWAPHI (Liu & Schmidt) and CUDASW++ 3.0 go one step further:
several **queries** share one sweep over the packed database, so the
database conversion, the lane bookkeeping, and the Python-level loop
overhead are all paid once per batch instead of once per query.

This module stacks query profiles into one query-major sweep:

* each query's padded profile becomes one slab of a
  ``(alphabet + 1, m_max, Q)`` tensor (:class:`MultiQueryProfile`);
  queries shorter than ``m_max`` are padded with the same strongly
  negative sentinel rows used for subject-lane padding;
* the sweep is the package's one lane kernel
  (:mod:`repro.align.intersequence`) with ``Q`` stacked queries: its
  state is ``(lanes, Q, m)``, query position innermost, so every numpy
  op covers all ``lanes x Q x m`` cells in one contiguous run, and the
  lazy-F prefix scan runs along each (lane, query) row at once.

Padding is provably inert: a padded query row can only be reached
through a gap that subtracts a positive open penalty from an H value
already counted in ``best``, so per-query scores are bit-exact with the
single-query kernel (and hence with the reference kernel) — the
conformance suite asserts this.
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

    ``profile[c, i, q]`` is the substitution score of residue code ``c``
    against position ``i`` of query ``q``; positions past query ``q``'s
    length (and the pad-residue row ``profile[-1]``) are strongly
    negative so padded cells can never raise a score.
    """

    profile: np.ndarray  # (alphabet + 1, m_max, Q) int64
    lengths: np.ndarray  # (Q,) int64

    @property
    def queries(self) -> int:
        """Number of stacked queries."""
        return self.profile.shape[2]

    @property
    def max_length(self) -> int:
        """Padded query length shared by the sweep."""
        return self.profile.shape[1]

    @classmethod
    def build(
        cls,
        queries_codes: SequenceType[np.ndarray],
        matrix: SubstitutionMatrix,
    ) -> "MultiQueryProfile":
        """Stack the queries' padded profiles into one tensor."""
        lengths = np.array([len(c) for c in queries_codes], dtype=np.int64)
        return cls(_build_profile(queries_codes, matrix), lengths)


def build_multi_profile(
    queries_codes: SequenceType[np.ndarray],
    matrix: SubstitutionMatrix,
) -> MultiQueryProfile:
    """Stack per-query padded profiles into one ``(A+1, m_max, Q)`` tensor."""
    return MultiQueryProfile.build(queries_codes, matrix)


def sw_score_batch_multi(
    mq: MultiQueryProfile,
    pack: LanePack,
    gaps: GapModel,
) -> np.ndarray:
    """Score every stacked query against every lane of *pack* at once.

    Returns a ``(Q, lanes)`` int64 array of best local-alignment scores
    in lane order (scatter through ``pack.order`` for database order).
    """
    return _sweep(mq.profile, pack.residues, gaps).T


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
