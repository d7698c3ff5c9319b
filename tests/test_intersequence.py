"""Unit tests for the inter-sequence (CUDASW++-analogue) kernel."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.align import (
    BLOSUM62,
    affine_gap,
    build_multi_profile,
    match_mismatch,
    pack_database,
    sw_score_batch,
    sw_score_database,
    sw_score_reference,
)
from repro.align.intersequence import _build_profile, _state, _sweep
from repro.align.reference import _codes
from repro.sequences import (
    DNA,
    PROTEIN,
    Sequence,
    SequenceDatabase,
    random_sequence,
)


class TestPackDatabase:
    def test_sorted_by_length(self, blosum62, mini_database):
        packs = list(pack_database(mini_database, blosum62, lanes=8))
        previous_max = 0
        for pack in packs:
            lengths = pack.lengths
            assert lengths.tolist() == sorted(lengths.tolist())
            assert lengths.min() >= previous_max or pack is packs[0]
            previous_max = int(lengths.max())

    def test_all_records_covered_once(self, blosum62, mini_database):
        seen = []
        for pack in pack_database(mini_database, blosum62, lanes=7):
            seen.extend(pack.order.tolist())
        assert sorted(seen) == list(range(len(mini_database)))

    def test_padding_code(self, blosum62):
        db = SequenceDatabase(
            [Sequence(id="a", residues="AC"), Sequence(id="b", residues="ACDEF")]
        )
        pack = next(pack_database(db, blosum62, lanes=2))
        assert pack.pad_code == blosum62.alphabet.size
        # Lane 0 is the shorter record; its tail must be padding.
        assert pack.residues[2, 0] == pack.pad_code

    def test_cells_per_query_residue(self, blosum62, mini_database):
        total = sum(
            pack.cells_per_query_residue
            for pack in pack_database(mini_database, blosum62, lanes=4)
        )
        assert total == mini_database.total_residues

    def test_bad_lanes(self, blosum62, mini_database):
        with pytest.raises(ValueError):
            list(pack_database(mini_database, blosum62, lanes=0))


class TestAgreement:
    @pytest.mark.parametrize("lanes", [1, 3, 8, 64])
    def test_matches_reference(
        self, rng, blosum62, default_gaps, mini_database, lanes
    ):
        query = random_sequence(35, rng, seq_id="q")
        scores = sw_score_database(
            query, mini_database, blosum62, default_gaps, lanes=lanes
        )
        for index, subject in enumerate(mini_database):
            assert scores[index] == sw_score_reference(
                query, subject, blosum62, default_gaps
            )

    def test_linear_gaps(self, rng, dna_scheme):
        from repro.sequences import DNA

        matrix, gaps = dna_scheme
        query = random_sequence(20, rng, alphabet=DNA, seq_id="q")
        db = SequenceDatabase(
            [
                random_sequence(int(rng.integers(5, 40)), rng, alphabet=DNA,
                                seq_id=f"d{i}")
                for i in range(9)
            ]
        )
        scores = sw_score_database(query, db, matrix, gaps, lanes=4)
        for index, subject in enumerate(db):
            assert scores[index] == sw_score_reference(
                query, subject, matrix, gaps
            )

    def test_padding_cannot_leak_score(self, blosum62, default_gaps):
        """A lane padded far beyond its subject must not change its score."""
        short = Sequence(id="short", residues="MK")
        long = Sequence(id="long", residues="MKVLAWYRND" * 20)
        db = SequenceDatabase([short, long])
        scores = sw_score_database(
            Sequence(id="q", residues="MKVLAW"), db, blosum62, default_gaps,
            lanes=2,
        )
        assert scores[0] == sw_score_reference(
            "MKVLAW", "MK", blosum62, default_gaps
        )

    def test_empty_database(self, blosum62, default_gaps, rng):
        db = SequenceDatabase([])
        query = random_sequence(10, rng)
        assert sw_score_database(query, db, blosum62, default_gaps).size == 0

    def test_batch_returns_lane_order(self, blosum62, default_gaps, rng):
        db = SequenceDatabase(
            [random_sequence(n, rng, seq_id=f"d{n}") for n in (30, 10, 20)]
        )
        pack = next(pack_database(db, blosum62, lanes=3))
        query = random_sequence(15, rng)
        batch = sw_score_batch(
            blosum62.alphabet.encode(query.residues), pack, blosum62,
            default_gaps,
        )
        # pack.order maps back to database positions.
        scattered = np.zeros(3, dtype=np.int64)
        scattered[pack.order] = batch
        full = sw_score_database(query, db, blosum62, default_gaps, lanes=3)
        assert scattered.tolist() == full.tolist()


def _reach(s_max, m, gaps):
    """The sweep's static bound on every intermediate (see ``_sweep``)."""
    return s_max * m + max(s_max, m * gaps.extend + gaps.open)


def _sweep_vs_reference(queries, subjects, matrix, gaps, lanes):
    """Run ``_sweep`` over every pack; check it against the reference."""
    codes = [_codes(q, matrix) for q in queries]
    profile = _build_profile(codes, matrix)
    db = SequenceDatabase(
        [Sequence(id=f"d{i}", residues=s) for i, s in enumerate(subjects)]
    )
    best = np.zeros((len(subjects), len(queries)), dtype=np.int64)
    for pack in pack_database(db, matrix, lanes=lanes):
        swept = _sweep(profile, pack.residues, gaps)
        assert swept.dtype == np.int64
        assert swept.shape == (pack.lanes, len(queries))
        best[pack.order] = swept
    expected = np.array(
        [[sw_score_reference(q, s, matrix, gaps) for q in queries]
         for s in subjects],
        dtype=np.int64,
    )
    assert best.tobytes() == expected.tobytes()
    return profile


def _boundary_subjects(query, rng_letters):
    """The query itself (the largest score), the query with one residue
    inserted and one deleted (gapped alignments), and a decoy."""
    mid = len(query) // 2
    return [
        query,
        query[:mid] + "G" + query[mid:],
        query[:mid] + query[mid + 1:] or "A",
        rng_letters,
    ]


class TestStateDtype:
    """The sweep's state dtype on each side of its int16 and int32 bounds.

    The state is int16 while ``reach < 2**13`` and int32 while
    ``reach < 2**29``.  The int16 edge is reached through the match
    score, the int32 edge through the gap open cost; either way the
    scores must equal the reference kernel's, byte for byte.
    """

    @pytest.mark.parametrize("side", ["below", "above"])
    @pytest.mark.parametrize("k", [13, 29])
    @given(
        query=st.text(alphabet="ARNDW", min_size=1, max_size=28),
        decoy=st.text(alphabet="ARNDW", min_size=1, max_size=30),
        extend=st.integers(min_value=0, max_value=5),
        extra_open=st.integers(min_value=0, max_value=8),
        lanes=st.sampled_from([1, 3]),
    )
    @settings(max_examples=15, deadline=None)
    def test_boundary_matches_reference(
        self, side, k, query, decoy, extend, extra_open, lanes
    ):
        m = len(query)
        edge = 1 << k
        if k == 13:
            gaps = affine_gap(extend + extra_open, extend)
            s_max = max(1, (edge - 1 - (m * extend + gaps.open)) // m)
            while _reach(s_max + 1, m, gaps) < edge:
                s_max += 1
            while s_max > 1 and _reach(s_max, m, gaps) >= edge:
                s_max -= 1
            s_max += side == "above"
        else:
            s_max = 5 + extra_open
            open_cost = edge - 1 - s_max * m - m * extend
            gaps = affine_gap(open_cost + (side == "above"), extend)
        matrix = match_mismatch(s_max, -(s_max // 3) - 1, alphabet=PROTEIN)
        reach = _reach(s_max, m, gaps)
        assert (reach < edge) == (side == "below")
        queries = [query, query[: (m + 1) // 2]]
        profile = _sweep_vs_reference(
            queries, _boundary_subjects(query, decoy), matrix, gaps, lanes
        )
        state = _state(profile, gaps)[0]
        narrow, wide = {13: (np.int16, np.int32), 29: (np.int32, np.int64)}[k]
        assert state == (narrow if side == "below" else wide)

    def test_large_matrix_scores_take_int64(self):
        """Match score 32 000 over 16 800 residues: ``S*m`` passes 2**29."""
        matrix = match_mismatch(32000, -32000, alphabet=PROTEIN)
        gaps = affine_gap(10, 2)
        query = "W" * 16800
        profile = _sweep_vs_reference(
            [query], ["WWW", "WAW", "AWWWWA", "A"], matrix, gaps, 4
        )
        assert _state(profile, gaps)[0] == np.int64


def protein_db(subjects):
    return SequenceDatabase(
        [Sequence(id=f"d{i}", residues=s, alphabet=PROTEIN)
         for i, s in enumerate(subjects)]
    )


gap_models = st.tuples(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=5),
).map(lambda pair: affine_gap(max(pair), min(pair)))

#: Matrices for the kernel property: BLOSUM62; a high match score, so
#: scores run far past 8 bits; and an all-negative matrix, under which
#: every local score is 0.
KERNEL_MATRICES = {
    "blosum62": BLOSUM62,
    "match90": match_mismatch(90, -45, alphabet=PROTEIN),
    "all_negative": match_mismatch(
        -1, -2, alphabet=PROTEIN, wildcard_score=-1
    ),
}
# A small alphabet makes matches common; X is the protein wildcard.
kernel_residues = st.text(alphabet="ARNDWYX", min_size=0, max_size=14)


class TestLaneSweepKernel:
    """The one lane sweep against the reference, with stacked queries:
    every (query, subject) score equals the reference kernel's."""

    @pytest.mark.parametrize("lanes", [1, 7])
    @pytest.mark.parametrize("nq", [1, 3])
    @given(
        queries=st.lists(kernel_residues, min_size=3, max_size=3),
        subjects=st.lists(kernel_residues, min_size=1, max_size=9),
        gaps=gap_models,
        matrix_name=st.sampled_from(sorted(KERNEL_MATRICES)),
    )
    # Three inputs no other suite has: an empty query (alone, and inside
    # a stack), a matrix under which every local score is 0, and
    # wildcard-only sequences (a query inside a stack of high scorers,
    # and a subject).
    @example(
        queries=["", "WWWWWWW", "ARND"],
        subjects=["WWWWWWWWW", "", "NDAR", "Y"],
        gaps=affine_gap(10, 2),
        matrix_name="match90",
    )
    @example(
        queries=["WWWW", "ARNDWY", "A"],
        subjects=["WWWW", "YWDNRA", "AAAAAA"],
        gaps=affine_gap(1, 0),
        matrix_name="all_negative",
    )
    @example(
        queries=["WWWX", "XXXXX", "ARNDX"],
        subjects=["XXXXXXX", "WWWWARND", "X"],
        gaps=affine_gap(10, 2),
        matrix_name="match90",
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_reference(
        self, nq, lanes, queries, subjects, gaps, matrix_name
    ):
        _sweep_vs_reference(queries[:nq], subjects,
                            KERNEL_MATRICES[matrix_name], gaps, lanes)


class TestKernelEdgeCases:
    def test_foreign_alphabet_query_is_reencoded(self):
        """A query carrying a different alphabet object is re-encoded
        against the matrix's — never trusted for raw codes."""
        dna_query = Sequence(id="q", residues="ACGT", alphabet=DNA)
        database = protein_db(["ACGT", "TTTT", "MKWL"])
        gaps = affine_gap(10, 2)
        expected = [
            sw_score_reference(dna_query, subject, BLOSUM62, gaps)
            for subject in database
        ]
        scores = sw_score_database(dna_query, database, BLOSUM62, gaps,
                                   lanes=2)
        assert scores.tolist() == expected

    def test_multi_profile_requires_a_query(self):
        with pytest.raises(ValueError, match="at least one query"):
            build_multi_profile([], BLOSUM62)

    def test_empty_query_and_empty_subjects_score_zero(self):
        database = protein_db(["", "AAA", ""])
        scores = sw_score_database(
            Sequence(id="q", residues=""), database, BLOSUM62,
            affine_gap(10, 2), lanes=2,
        )
        assert scores.tolist() == [0, 0, 0]
