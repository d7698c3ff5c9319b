"""Unit tests for the inter-sequence (CUDASW++-analogue) kernel."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import classic_packs

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
from repro.align.intersequence import (
    _build_profile,
    _segments,
    _state,
    _sweep,
)
from repro.align.reference import _codes
from repro.sequences import (
    DNA,
    PROTEIN,
    Sequence,
    SequenceDatabase,
    random_sequence,
)


def _check_layout(pack, database):
    """The streamed layout's invariants for one pack of *database*."""
    rows, lanes = pack.residues.shape
    n = len(pack.order)
    assert pack.lengths.shape == pack.lane.shape == pack.start.shape == (n,)
    # Every subject sits in a lane that exists, and the pack is as tall
    # as its longest subject.
    assert ((0 <= pack.lane) & (pack.lane < lanes)).all()
    assert rows == (int(pack.lengths.max()) if n else 0)
    used = np.zeros((rows, lanes), dtype=bool)
    for k, index in enumerate(pack.order):
        record = database[int(index)]
        first, lane = int(pack.start[k]), int(pack.lane[k])
        assert pack.lengths[k] == len(record)
        # One contiguous run of rows in one lane, disjoint from the
        # lane's other subjects, holding exactly the subject's codes.
        span = slice(first, first + len(record))
        assert first >= 0 and first + len(record) <= rows
        assert not used[span, lane].any()
        used[span, lane] = True
        np.testing.assert_array_equal(
            pack.residues[span, lane], _codes(record, BLOSUM62)
        )
    # Every row no subject uses holds the pad code, and only those do.
    assert (pack.residues[~used] == pack.pad_code).all()
    assert (pack.residues[used] != pack.pad_code).all()


class TestPackDatabase:
    @pytest.mark.parametrize("lanes", [1, 2, 3, 8, 32])
    def test_rows_match_longest_subject(self, mini_database, lanes):
        """Streamed layout: each pack as tall as its longest subject,
        each subject in one contiguous run of one lane."""
        packs = list(pack_database(mini_database, BLOSUM62, lanes=lanes))
        for pack in packs:
            assert pack.lanes <= lanes
            _check_layout(pack, mini_database)
        seen = np.concatenate([pack.order for pack in packs])
        assert sorted(seen.tolist()) == list(range(len(mini_database)))

    def test_pad_code_fills_unused_rows(self, blosum62):
        db = SequenceDatabase(
            [Sequence(id="a", residues="AC"),
             Sequence(id="b", residues="ACDEF"),
             Sequence(id="c", residues="")]
        )
        (pack,) = pack_database(db, blosum62, lanes=2)
        assert pack.pad_code == blosum62.alphabet.size
        # The longer record sets the pack's five rows in lane 0; the
        # shorter one fills lane 1's first two rows, and the empty one
        # takes no rows.
        assert pack.order.tolist() == [1, 0, 2]
        assert pack.lane.tolist()[:2] == [0, 1]
        assert pack.residues.shape == (5, 2)
        assert (pack.residues[2:, 1] == pack.pad_code).all()
        _check_layout(pack, db)

    def test_short_subjects_stack_in_the_least_loaded_lane(self, blosum62):
        """Longest first: a subject too long for the least-loaded lane
        waits for a later pack, and a shorter one behind it still goes
        after that lane's subject."""
        db = SequenceDatabase(
            [Sequence(id=f"d{i}", residues="A" * n)
             for i, n in enumerate([10, 6, 4, 3, 7])]
        )
        first, second = pack_database(db, blosum62, lanes=2)
        # 10 -> lane 0 and 7 -> lane 1; 6 and 4 exceed lane 1's room of
        # 3, so 3 goes after 7 and fills the lane.
        assert first.order.tolist() == [0, 4, 3]
        assert first.lane.tolist() == [0, 1, 1]
        assert first.start.tolist() == [0, 0, 7]
        assert second.order.tolist() == [1, 2]
        assert second.residues.shape == (6, 2)
        for pack in (first, second):
            _check_layout(pack, db)

    def test_all_records_covered_once(self, blosum62, mini_database):
        seen = []
        for pack in pack_database(mini_database, blosum62, lanes=7):
            seen.extend(pack.order.tolist())
        assert sorted(seen) == list(range(len(mini_database)))

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

    def test_batch_returns_pack_order(self, blosum62, default_gaps, rng):
        db = SequenceDatabase(
            [random_sequence(n, rng, seq_id=f"d{n}") for n in (30, 10, 20)]
        )
        # Two lanes: 30 fills lane 0, and 10 streams in after 20 in lane
        # 1, so the three scores are not one per lane.
        (pack,) = pack_database(db, blosum62, lanes=2)
        assert pack.lanes == 2 and len(pack.order) == 3
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
    """Run ``_sweep`` over every streamed pack, and over the classic
    one-subject-per-lane packs; check both against the reference."""
    codes = [_codes(q, matrix) for q in queries]
    profile = _build_profile(codes, matrix)
    lengths = [len(c) for c in codes]
    db = SequenceDatabase(
        [Sequence(id=f"d{i}", residues=s) for i, s in enumerate(subjects)]
    )
    expected = np.array(
        [[sw_score_reference(q, s, matrix, gaps) for q in queries]
         for s in subjects],
        dtype=np.int64,
    )
    for packs in (pack_database(db, matrix, lanes=lanes),
                  classic_packs(db, matrix, lanes)):
        best = np.full((len(subjects), len(queries)), -1, dtype=np.int64)
        for pack in packs:
            swept = _sweep(profile, lengths, pack, gaps)
            assert swept.dtype == np.int64
            assert swept.shape == (len(pack.order), len(queries))
            best[pack.order] = swept
        assert best.tobytes() == expected.tobytes()
    return _state(profile, lengths, gaps)[0]


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
        state = _sweep_vs_reference(
            queries, _boundary_subjects(query, decoy), matrix, gaps, lanes
        )
        narrow, wide = {13: (np.int16, np.int32), 29: (np.int32, np.int64)}[k]
        assert state == (narrow if side == "below" else wide)

    def test_large_matrix_scores_take_int64(self):
        """Match score 32 000 over 16 800 residues: ``S*m`` passes 2**29."""
        matrix = match_mismatch(32000, -32000, alphabet=PROTEIN)
        gaps = affine_gap(10, 2)
        query = "W" * 16800
        state = _sweep_vs_reference(
            [query], ["WWW", "WAW", "AWWWWA", "A"], matrix, gaps, 4
        )
        assert state == np.int64


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


#: Skewed subject lengths: mostly short, some long, empties in between.
skewed_subjects = st.lists(
    st.one_of(
        st.just(""),
        st.text(alphabet="ARNDWYX", min_size=1, max_size=5),
        st.text(alphabet="ARNDWYX", min_size=1, max_size=5),
        st.text(alphabet="ARNDWYX", min_size=16, max_size=40),
    ),
    min_size=1,
    max_size=24,
)


class TestStreamedLanes:
    """Subjects streamed back to back through lanes score as if alone."""

    @pytest.mark.parametrize("lanes", [1, 2, 3, 8, 32])
    @pytest.mark.parametrize("nq", [1, 3])
    @given(
        queries=st.lists(kernel_residues, min_size=3, max_size=3),
        subjects=skewed_subjects,
        gaps=gap_models,
        matrix_name=st.sampled_from(sorted(KERNEL_MATRICES)),
    )
    @settings(max_examples=15, deadline=None)
    def test_skewed_database_matches_reference(
        self, nq, lanes, queries, subjects, gaps, matrix_name
    ):
        _sweep_vs_reference(queries[:nq], subjects,
                            KERNEL_MATRICES[matrix_name], gaps, lanes)

    def test_no_state_crosses_a_subject_boundary(self):
        """A strong subject followed in its lane by a weak one.

        At the boundary the lane's H holds the strong subject's 50, its
        E a horizontal gap worth 47 and its best 50.  A diagonal, a gap
        or a best carried into the weak subject would raise its score
        of 5 to at least 41."""
        matrix = match_mismatch(5, -4, alphabet=PROTEIN)
        gaps = affine_gap(3, 1)
        query = "W" * 10
        subjects = ["A" * 20, query, "AW"]
        db = protein_db(subjects)
        (pack,) = pack_database(db, matrix, lanes=2)
        by_index = {int(i): k for k, i in enumerate(pack.order)}
        strong, weak = by_index[1], by_index[2]
        assert pack.lane[strong] == pack.lane[weak]
        assert pack.start[weak] == pack.start[strong] + len(query)
        _sweep_vs_reference([query, query[:4], "AW"], subjects, matrix,
                            gaps, lanes=2)
        assert sw_score_database(
            Sequence(id="q", residues=query), db, matrix, gaps, lanes=2
        ).tolist() == [0, 50, 5]


#: The gaps of the group-count claims: under BLOSUM62 with 10/2 gaps
#: the sweep's state is int16 up to 629-residue queries.
BLASTP_GAPS = affine_gap(10, 2)


def _scan_groups(lengths, matrix=BLOSUM62, gaps=BLASTP_GAPS):
    """The scan groups of a stack of all-W queries of *lengths* (W is
    BLOSUM62's top score, 11)."""
    profile = _build_profile([_codes("W" * m, matrix) for m in lengths],
                             matrix)
    dtype, pad = _state(profile, lengths, gaps)
    return _segments(lengths, int(profile.max(initial=0)), gaps, dtype,
                     pad)[2]


def _ragged_vs_singletons(queries, subjects, matrix, gaps, lanes):
    """Sweep *queries* as one ragged stack over streamed and classic
    packs: each column must equal that query swept alone, and every
    score the reference kernel's."""
    codes = [_codes(q, matrix) for q in queries]
    profile = _build_profile(codes, matrix)
    lengths = [len(c) for c in codes]
    alone = [_build_profile([c], matrix) for c in codes]
    db = protein_db(subjects)
    for packs in (pack_database(db, matrix, lanes=lanes),
                  classic_packs(db, matrix, lanes)):
        for pack in packs:
            stacked = _sweep(profile, lengths, pack, gaps)
            singles = np.stack(
                [_sweep(p, [m], pack, gaps)[:, 0]
                 for p, m in zip(alone, lengths)],
                axis=1,
            )
            assert stacked.tobytes() == singles.tobytes()
    return _sweep_vs_reference(queries, subjects, matrix, gaps, lanes)


def _random_queries(lengths, seed):
    rng = np.random.default_rng(seed)
    return ["".join(rng.choice(list("ARNDWYX"), size=m)) for m in lengths]


#: Query lengths of ragged stacks: empty, short, and either side of the
#: int16 limit.
ragged_lengths = st.lists(
    st.one_of(st.integers(min_value=0, max_value=40),
              st.sampled_from([0, 629, 630])),
    min_size=1,
    max_size=5,
)
#: Few, short subjects: the reference kernel is pure Python.
short_subjects = st.lists(
    st.one_of(
        st.just(""),
        st.text(alphabet="ARNDWYX", min_size=1, max_size=6),
        st.text(alphabet="ARNDWYX", min_size=7, max_size=14),
    ),
    min_size=1,
    max_size=6,
)


class TestRaggedStacks:
    """Queries back to back on the query axis score as if swept alone."""

    @given(
        lengths=ragged_lengths,
        equal=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        subjects=short_subjects,
        matrix_name=st.sampled_from(["blosum62", "match90"]),
        lanes=st.sampled_from([1, 3, 8]),
    )
    # Stacks that take two scan groups: three 629-residue queries in
    # int16 under BLOSUM62, and six 40-residue ones under match90.  And
    # an int32 stack, one query past the int16 limit.
    @example(lengths=[629, 629, 0, 629], equal=False, seed=1,
             subjects=["WWWWWWWWWWWW", "", "ARNDW", "YWYWYWY"],
             matrix_name="blosum62", lanes=3)
    @example(lengths=[40], equal=True, seed=2,
             subjects=["WWWWWWW", "AR", "", "XWXWXWXWX", "NDNDNDND"],
             matrix_name="match90", lanes=3)
    @example(lengths=[630, 0, 5, 629], equal=False, seed=3,
             subjects=["W" * 14, "YY"], matrix_name="blosum62", lanes=1)
    @settings(max_examples=15, deadline=None)
    def test_matches_singletons_and_reference(
        self, lengths, equal, seed, subjects, matrix_name, lanes
    ):
        if equal:
            lengths = [lengths[0]] * 6
        _ragged_vs_singletons(_random_queries(lengths, seed), subjects,
                              KERNEL_MATRICES[matrix_name], BLASTP_GAPS,
                              lanes)


class TestScanGroups:
    """The grouping rule, pinned for BLOSUM62 with 10/2 gaps."""

    def test_int16_limit(self):
        for m, dtype in ((629, np.int16), (630, np.int32)):
            profile = _build_profile([_codes("W" * m, BLOSUM62)], BLOSUM62)
            assert _state(profile, [m], BLASTP_GAPS)[0] == dtype

    def test_search_batched_stack_is_one_group(self):
        assert len(_scan_groups([280, 120, 170, 230])) == 1

    def test_four_400_residue_queries_take_two_groups(self):
        assert _scan_groups([400] * 4) == [(0, 1203), (1203, 1604)]

    def test_property_examples_take_two_groups(self):
        assert len(_scan_groups([629, 629, 0, 629])) == 2
        assert len(_scan_groups([40] * 6, KERNEL_MATRICES["match90"])) == 2

    @given(
        m=st.integers(min_value=0, max_value=20000),
        gaps=gap_models,
        matrix_name=st.sampled_from(sorted(KERNEL_MATRICES)),
    )
    @settings(max_examples=30, deadline=None)
    def test_a_single_query_is_one_group(self, m, gaps, matrix_name):
        groups = _scan_groups([m], KERNEL_MATRICES[matrix_name], gaps)
        assert groups == [(0, 1 + m)]

    @given(
        lengths=st.lists(st.integers(min_value=0, max_value=700),
                         min_size=1, max_size=12),
        gaps=gap_models,
        matrix_name=st.sampled_from(sorted(KERNEL_MATRICES)),
    )
    @settings(max_examples=30, deadline=None)
    def test_ramps_stay_in_the_state(self, lengths, gaps, matrix_name):
        """The groups tile the columns, each ramp rises from 0, and its
        top ``T`` keeps ``T + |pad| + S*m`` within the state dtype: so
        ``T < |pad|``, and no ramp, G or F wraps."""
        matrix = KERNEL_MATRICES[matrix_name]
        profile = _build_profile([_codes("W" * m, matrix) for m in lengths],
                                 matrix)
        dtype, pad = _state(profile, lengths, gaps)
        s_max = int(profile.max(initial=0))
        starts, ramp, groups = _segments(lengths, s_max, gaps, dtype, pad)
        assert len(ramp) == sum(1 + m for m in lengths)
        assert starts.tolist() == np.cumsum([0, *(1 + m for m in lengths)])[
            :-1].tolist()
        assert [first for first, _ in groups][1:] == [
            stop for _, stop in groups][:-1]
        assert groups[0][0] == 0 and groups[-1][1] == len(ramp)
        for first, stop in groups:
            assert first < stop and ramp[first] == 0
            assert (np.diff(ramp[first:stop]) >= 0).all()
            top = int(ramp[stop - 1])
            assert top - pad + s_max * max(lengths) <= np.iinfo(dtype).max

    def test_stack_at_the_group_bound(self):
        """A ramp top exactly at the bound: ``T + |pad| + S*m`` is
        int16's maximum, so the boundary columns' ``ramp_dn`` and the
        lead cell of G hold the largest values the state can.  A bound
        without ``|pad|`` would wrap ``ramp_dn`` here."""
        lengths = [400, 400, 113, 54]
        profile = _build_profile([_codes("W" * m, BLOSUM62)
                                  for m in lengths], BLOSUM62)
        dtype, pad = _state(profile, lengths, BLASTP_GAPS)
        assert dtype == np.int16
        _, ramp, groups = _segments(lengths, 11, BLASTP_GAPS, dtype, pad)
        assert groups == [(0, 971)]
        assert ramp[-1] - pad + 11 * 400 == np.iinfo(np.int16).max
        assert len(_scan_groups([400, 400, 113, 55])) == 2
        queries = ["W" + q[1:] for q in _random_queries(lengths, 5)]
        subjects = [queries[3][:14], "W" * 12, "", queries[0][-9:], "AW"]
        for lanes in (1, 3):
            _ragged_vs_singletons(queries, subjects, BLOSUM62, BLASTP_GAPS,
                                  lanes)


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
