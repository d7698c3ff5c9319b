"""Property suite for the two-stage screening pipeline.

The contract under test (see ``repro/align/screening.py``): an 8-bit
saturating screen over length-binned lane packs, followed by an exact
rescore of saturated/above-threshold sequences, returns final scores
**bit-identical** to the reference kernel for *any* threshold — the
threshold only moves work between the two stages.  Hypothesis drives
random workloads through the single- and multi-query drivers; targeted
generators sit exactly on the 255 saturation boundary and on length-bin
edges (a length exactly on a bucket boundary, empty buckets,
single-sequence buckets).  The lane sweep underneath both stages is
checked on its own against the reference in its exact int64 and capped
int32 modes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.align import (
    BLOSUM62,
    SCREEN_CAP,
    LengthBinnedPack,
    ScreenStats,
    affine_gap,
    match_mismatch,
    pack_database_binned,
    sw_score_database_screened,
    sw_score_database_screened_multi,
    sw_score_reference,
    sw_screen_batch,
    sw_screen_batch_multi,
)
from repro.align.intersequence import _build_profile, _sweep, pack_database
from repro.align.reference import _codes
from repro.align.screening import (
    build_screen_multi_profile,
    build_screen_profile,
)
from repro.sequences import DNA, PROTEIN, Sequence, SequenceDatabase

AMINO = "ARNDCQEGHILKMFPSTWYV"

proteins = st.text(alphabet=AMINO, min_size=0, max_size=24)
protein_lists = st.lists(
    st.text(alphabet=AMINO, min_size=0, max_size=40), min_size=1, max_size=8
)
gap_models = st.tuples(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=5),
).map(lambda pair: affine_gap(max(pair), min(pair)))
# Small lanes/bins so even tiny random databases split into several
# packs and exercise the bucket-merge (min_fill) logic.
screen_shapes = st.tuples(
    st.integers(min_value=1, max_value=8),   # lanes
    st.integers(min_value=1, max_value=8),   # bin_width
)


def protein_seq(residues: str, i: int = 0) -> Sequence:
    return Sequence(id=f"q{i}", residues=residues, alphabet=PROTEIN)


def protein_db(subjects: list[str]) -> SequenceDatabase:
    records = [
        Sequence(id=f"d{i}", residues=s, alphabet=PROTEIN)
        for i, s in enumerate(subjects)
    ]
    return SequenceDatabase(records, name="screening")


def reference_scores(query, database, matrix, gaps) -> np.ndarray:
    return np.array(
        [
            sw_score_reference(query, subject, matrix, gaps)
            for subject in database
        ],
        dtype=np.int64,
    )


class TestScreenedPipelineExactness:
    """Final scores bit-identical to the reference, any shape/threshold."""

    @given(
        query=proteins,
        subjects=protein_lists,
        gaps=gap_models,
        shape=screen_shapes,
        top=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_query_exact(self, query, subjects, gaps, shape, top):
        lanes, bin_width = shape
        database = protein_db(subjects)
        q = protein_seq(query)
        expected = reference_scores(q, database, BLOSUM62, gaps)
        result = sw_score_database_screened(
            q, database, BLOSUM62, gaps, top=top,
            lanes=lanes, bin_width=bin_width,
        )
        np.testing.assert_array_equal(result.scores, expected)
        # Invariants of the result object itself.
        assert result.scores.shape == (len(database),)
        assert (result.scores >= result.screened).all()
        assert result.rescored[result.saturated].all()
        # A non-rescored score came straight from the screen: it must
        # already have been exact (the no-clip argument).
        passed = ~result.rescored
        np.testing.assert_array_equal(
            result.screened[passed], expected[passed]
        )

    @given(
        queries=st.lists(proteins, min_size=1, max_size=4),
        subjects=protein_lists,
        gaps=gap_models,
        shape=screen_shapes,
        top=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_multi_query_exact(self, queries, subjects, gaps, shape, top):
        lanes, bin_width = shape
        database = protein_db(subjects)
        qs = [protein_seq(text, i) for i, text in enumerate(queries)]
        expected = np.stack(
            [reference_scores(q, database, BLOSUM62, gaps) for q in qs]
        )
        result = sw_score_database_screened_multi(
            qs, database, BLOSUM62, gaps, top=top,
            lanes=lanes, bin_width=bin_width,
        )
        np.testing.assert_array_equal(result.scores, expected)
        assert result.scores.shape == (len(qs), len(database))
        assert result.rescored[result.saturated].all()

    @given(
        query=st.text(alphabet=AMINO, min_size=1, max_size=20),
        subjects=protein_lists,
        threshold=st.sampled_from([0, 1, 5, 50, 10**9]),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_explicit_threshold_exact(self, query, subjects, threshold):
        """Threshold moves work between stages, never changes scores."""
        gaps = affine_gap(10, 2)
        database = protein_db(subjects)
        q = protein_seq(query)
        expected = reference_scores(q, database, BLOSUM62, gaps)
        result = sw_score_database_screened(
            q, database, BLOSUM62, gaps, threshold=threshold,
            lanes=4, bin_width=4,
        )
        np.testing.assert_array_equal(result.scores, expected)


class TestAdversarialThresholds:
    """The regression pins from the issue: pathological thresholds."""

    QUERY = "MKVLAWRSDEQCHILMNPQ"
    SUBJECTS = [
        "MKVLAWRSDEQCHILMNPQ",   # perfect self-match (the top hit)
        "MKVLAWRS", "DEQCHILM", "AAAAAAA", "WWWWWW",
        "MKVLAW" * 6, "RSDEQ" * 5, "Q",
    ]

    def _run(self, threshold):
        gaps = affine_gap(10, 2)
        database = protein_db(self.SUBJECTS)
        q = protein_seq(self.QUERY)
        expected = reference_scores(q, database, BLOSUM62, gaps)
        result = sw_score_database_screened(
            q, database, BLOSUM62, gaps, top=3, threshold=threshold,
            lanes=4, bin_width=8,
        )
        return result, expected

    def test_pathologically_high_threshold_still_exact_topk(self):
        """A threshold no screened score can clear rescores only the
        saturated lanes — and the top-k is still exact, because every
        non-saturated screened score already is."""
        result, expected = self._run(threshold=10**9)
        np.testing.assert_array_equal(result.scores, expected)
        # Nothing non-saturated cleared the threshold.
        assert not (result.rescored & ~result.saturated).any()
        top3 = np.argsort(-result.scores, kind="stable")[:3]
        ref3 = np.argsort(-expected, kind="stable")[:3]
        np.testing.assert_array_equal(top3, ref3)

    def test_threshold_zero_degenerates_to_rescore_everything(self):
        result, expected = self._run(threshold=0)
        np.testing.assert_array_equal(result.scores, expected)
        assert result.rescored.all()
        assert result.rescore_fraction == 1.0

    def test_adaptive_threshold_rescores_fewer_than_everything(self):
        """On a skewed workload the adaptive threshold must actually
        screen out work (this is the whole point of the pipeline)."""
        rng = np.random.default_rng(123)
        letters = list(AMINO)
        subjects = [
            "".join(rng.choice(letters, size=int(n)))
            for n in rng.integers(40, 72, size=60)
        ]
        database = protein_db(subjects)
        q = protein_seq("".join(rng.choice(letters, size=50)))
        gaps = affine_gap(10, 2)
        expected = reference_scores(q, database, BLOSUM62, gaps)
        result = sw_score_database_screened(
            q, database, BLOSUM62, gaps, top=5
        )
        np.testing.assert_array_equal(result.scores, expected)
        assert int(result.rescored.sum()) < len(database)


def dna_seq(residues: str, i: int = 0) -> Sequence:
    return Sequence(id=f"n{i}", residues=residues, alphabet=DNA)


def dna_db(subjects: list[str]) -> SequenceDatabase:
    records = [dna_seq(s, i) for i, s in enumerate(subjects)]
    return SequenceDatabase(records, name="dna-screening", alphabet=DNA)


class TestSaturationBoundary:
    """Self-match scores placed exactly on either side of the 255 cap.

    Under ``match_mismatch(m)`` a perfect self-match of ``k`` residues
    scores ``k * m``, so (m, k) pairs pin the true score at cap-5, cap,
    and cap+5 without long alignments.  At or above the cap the screen
    must flag saturation and the rescore must restore exactness.
    """

    CASES = [
        (50, "ACGTA", 250, False),   # just below the cap: stays exact
        (51, "ACGTA", 255, True),    # == cap: saturated by definition
        (52, "ACGTA", 260, True),    # above the cap: must be clipped
    ]

    @pytest.mark.parametrize("match,residues,peak,saturates", CASES)
    def test_boundary_exact(self, match, residues, peak, saturates):
        assert peak == match * len(residues)  # case sanity
        matrix = match_mismatch(match, -4, alphabet=DNA)
        gaps = affine_gap(2, 1)
        query = dna_seq(residues)
        database = dna_db([residues, "ACG", residues + "TT", "TTTT"])
        expected = reference_scores(query, database, matrix, gaps)
        assert expected[0] == peak
        result = sw_score_database_screened(
            query, database, matrix, gaps, top=2, lanes=2, bin_width=2
        )
        np.testing.assert_array_equal(result.scores, expected)
        assert bool(result.saturated[0]) == saturates
        if saturates:
            assert result.screened[0] == SCREEN_CAP
            assert result.rescored[0]

    @given(
        match=st.integers(min_value=40, max_value=80),
        query=st.text(alphabet="ACGT", min_size=1, max_size=12),
        subjects=st.lists(
            st.text(alphabet="ACGT", min_size=1, max_size=14),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_scores_straddling_the_cap(self, match, query, subjects):
        """Random DNA workloads whose scores sweep across the cap."""
        matrix = match_mismatch(match, -2, alphabet=DNA)
        gaps = affine_gap(3, 1)
        q = dna_seq(query)
        database = dna_db(subjects)
        expected = reference_scores(q, database, matrix, gaps)
        result = sw_score_database_screened(
            q, database, matrix, gaps, top=2, lanes=2, bin_width=4
        )
        np.testing.assert_array_equal(result.scores, expected)
        # The saturation mask covers exactly the capped screened lanes.
        np.testing.assert_array_equal(
            result.saturated, result.screened >= SCREEN_CAP
        )

    def test_custom_cap_shifts_the_boundary(self):
        matrix = match_mismatch(5, -4, alphabet=DNA)
        gaps = affine_gap(2, 1)
        q = dna_seq("ACGTACGT")  # self-match 40
        database = dna_db(["ACGTACGT", "TTTT"])
        expected = reference_scores(q, database, matrix, gaps)
        low_cap = sw_score_database_screened(
            q, database, matrix, gaps, top=1, cap=10, lanes=2, bin_width=4
        )
        np.testing.assert_array_equal(low_cap.scores, expected)
        assert low_cap.saturated[0] and low_cap.screened[0] == 10


#: Matrices for the kernel property: BLOSUM62; a high match score so
#: three matching residues cross the 255 cap; and an all-negative matrix,
#: under which every local score is 0.
KERNEL_MATRICES = {
    "blosum62": BLOSUM62,
    "match90": match_mismatch(90, -45, alphabet=PROTEIN),
    "all_negative": match_mismatch(
        -1, -2, alphabet=PROTEIN, wildcard_score=-1
    ),
}
# A small alphabet makes matches, and so capped scores, common; X is
# the protein wildcard.
kernel_residues = st.text(alphabet="ARNDWYX", min_size=0, max_size=14)


class TestLaneSweepKernel:
    """The one lane sweep against the reference, in both of its modes.

    int64 uncapped is the exact sweep: every (query, subject) score
    equals the reference.  int32 capped at 255 is the screen: the score
    is ``min(reference, 255)``, so a lane is saturated exactly when its
    reference score reaches the cap and is exact otherwise.
    """

    @pytest.mark.parametrize("lanes", [1, 7])
    @pytest.mark.parametrize("nq", [1, 3])
    @pytest.mark.parametrize(
        "dtype,cap", [(np.int64, None), (np.int32, SCREEN_CAP)],
        ids=["int64", "int32-cap255"],
    )
    @given(
        queries=st.lists(kernel_residues, min_size=3, max_size=3),
        subjects=st.lists(kernel_residues, min_size=1, max_size=9),
        gaps=gap_models,
        matrix_name=st.sampled_from(sorted(KERNEL_MATRICES)),
    )
    # Three inputs no other suite has: an empty query (alone, and inside
    # a stack), a matrix under which every local score is 0, and
    # wildcard-only sequences (a query inside a stack whose neighbours
    # saturate the cap, and a subject).
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
        self, dtype, cap, nq, lanes, queries, subjects, gaps, matrix_name
    ):
        queries = queries[:nq]
        matrix = KERNEL_MATRICES[matrix_name]
        profile = _build_profile(
            [_codes(q, matrix) for q in queries], matrix, dtype
        )
        best = np.zeros((len(subjects), nq), dtype=np.int64)
        for pack in pack_database(protein_db(subjects), matrix, lanes=lanes):
            swept = _sweep(profile, pack.residues, gaps, cap)
            assert swept.dtype == dtype
            assert swept.shape == (pack.lanes, nq)
            best[pack.order] = swept
        expected = np.array(
            [
                [sw_score_reference(q, s, matrix, gaps) for q in queries]
                for s in subjects
            ],
            dtype=np.int64,
        )
        if cap is not None:
            expected = np.minimum(expected, cap)
        np.testing.assert_array_equal(best, expected)
        if matrix_name == "all_negative":
            assert not best.any()


class TestLengthBinnedPacking:
    """Pack invariants at bin edges, plus the bucket-merge behavior."""

    @given(
        lengths=st.lists(
            st.integers(min_value=0, max_value=70), min_size=1, max_size=40
        ),
        lanes=st.integers(min_value=1, max_value=16),
        bin_width=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_pack_invariants(self, lengths, lanes, bin_width):
        subjects = ["A" * n for n in lengths]
        database = protein_db(subjects)
        packs = list(
            pack_database_binned(
                database, BLOSUM62, lanes=lanes, bin_width=bin_width
            )
        )
        seen = []
        for pack in packs:
            assert isinstance(pack, LengthBinnedPack)
            assert 0 < pack.lanes <= lanes
            assert pack.bin_lo % bin_width == 0
            assert pack.bin_hi % bin_width == 0
            assert pack.bin_lo < pack.bin_hi
            # The certified range: every lane's length inside it.
            assert (pack.lengths >= pack.bin_lo).all()
            assert (pack.lengths < pack.bin_hi).all()
            # Residue rows match the longest lane; pad code past ends.
            assert pack.residues.shape[0] == (
                int(pack.lengths.max()) if pack.lanes else 0
            )
            seen.extend(int(i) for i in pack.order)
        assert sorted(seen) == list(range(len(database)))

    def test_length_exactly_on_bucket_boundary_opens_next_bucket(self):
        """len == bin_width belongs to bucket 1, not bucket 0."""
        database = protein_db(["A" * 15, "A" * 16, "A" * 17])
        packs = list(
            pack_database_binned(
                database, BLOSUM62, lanes=8, bin_width=16, min_fill=1
            )
        )
        assert len(packs) == 2
        np.testing.assert_array_equal(packs[0].lengths, [15])
        assert (packs[0].bin_lo, packs[0].bin_hi) == (0, 16)
        np.testing.assert_array_equal(packs[1].lengths, [16, 17])
        assert (packs[1].bin_lo, packs[1].bin_hi) == (16, 32)

    def test_empty_buckets_yield_nothing(self):
        """Gaps in the length histogram produce no empty packs."""
        database = protein_db(["A" * 2, "A" * 50])  # buckets 0 and 12
        packs = list(
            pack_database_binned(
                database, BLOSUM62, lanes=4, bin_width=4, min_fill=1
            )
        )
        assert len(packs) == 2
        assert all(p.lanes == 1 for p in packs)

    def test_single_sequence_buckets(self):
        """One subject per bucket still packs and screens exactly."""
        subjects = ["A" * n for n in (1, 9, 17, 25, 33)]
        database = protein_db(subjects)
        packs = list(
            pack_database_binned(
                database, BLOSUM62, lanes=8, bin_width=8, min_fill=1
            )
        )
        assert [p.lanes for p in packs] == [1] * 5
        q = protein_seq("AAAA")
        gaps = affine_gap(10, 2)
        result = sw_score_database_screened(
            q, database, BLOSUM62, gaps, top=2, packs=packs
        )
        np.testing.assert_array_equal(
            result.scores, reference_scores(q, database, BLOSUM62, gaps)
        )

    def test_min_fill_merges_sparse_buckets(self):
        """An underfull pack absorbs the next bucket instead of
        fragmenting the sparse long tail into near-empty packs."""
        subjects = ["A" * n for n in (1, 9, 17, 25, 33)]
        database = protein_db(subjects)
        merged = list(
            pack_database_binned(
                database, BLOSUM62, lanes=8, bin_width=8, min_fill=4
            )
        )
        # min_fill=4: the first pack keeps absorbing buckets until it
        # holds 4 lanes; the 5th subject starts a second pack.
        assert [p.lanes for p in merged] == [4, 1]
        assert merged[0].bin_lo == 0 and merged[0].bin_hi == 32
        # min_fill == lanes degenerates to plain length-sorted packing.
        full = list(
            pack_database_binned(
                database, BLOSUM62, lanes=8, bin_width=8, min_fill=8
            )
        )
        assert [p.lanes for p in full] == [5]

    def test_padding_fraction_accounting(self):
        database = protein_db(["AA", "AAAA"])
        (pack,) = pack_database_binned(
            database, BLOSUM62, lanes=2, bin_width=64
        )
        # 8 cells, 6 useful: 2 pad rows on the short lane.
        assert pack.cells_per_query_residue == 6
        assert pack.padding_fraction == pytest.approx(0.25)
        empty = LengthBinnedPack(
            residues=np.zeros((0, 0), dtype=np.int16),
            lengths=np.zeros(0, dtype=np.int64),
            order=np.zeros(0, dtype=np.int64),
            pad_code=0, bin_lo=0, bin_hi=1,
        )
        assert empty.padding_fraction == 0.0


class TestValidationErrors:
    """Error paths of the screening module (and its kernel neighbours)."""

    def test_pack_database_binned_rejects_bad_shapes(self):
        database = protein_db(["AAA"])
        with pytest.raises(ValueError, match="lanes"):
            list(pack_database_binned(database, BLOSUM62, lanes=0))
        with pytest.raises(ValueError, match="bin_width"):
            list(pack_database_binned(database, BLOSUM62, bin_width=0))
        for min_fill in (0, 9):
            with pytest.raises(ValueError, match="min_fill"):
                list(
                    pack_database_binned(
                        database, BLOSUM62, lanes=8, min_fill=min_fill
                    )
                )

    def test_screen_kernels_reject_nonpositive_cap(self):
        database = protein_db(["AAA"])
        (pack,) = pack_database_binned(database, BLOSUM62)
        codes = _codes("AAA", BLOSUM62)
        gaps = affine_gap(10, 2)
        with pytest.raises(ValueError, match="cap"):
            sw_screen_batch(codes, pack, BLOSUM62, gaps, cap=0)
        mq = build_screen_multi_profile([codes], BLOSUM62)
        with pytest.raises(ValueError, match="cap"):
            sw_screen_batch_multi(mq, pack, gaps, cap=-1)

    def test_multi_profile_requires_a_query(self):
        with pytest.raises(ValueError, match="at least one query"):
            build_screen_multi_profile([], BLOSUM62)

    def test_empty_query_and_empty_subjects_score_zero(self):
        database = protein_db(["", "AAA", ""])
        q = protein_seq("")
        gaps = affine_gap(10, 2)
        result = sw_score_database_screened(
            q, database, BLOSUM62, gaps, top=1, lanes=2, bin_width=2
        )
        np.testing.assert_array_equal(result.scores, [0, 0, 0])
        assert not result.saturated.any()

    def test_screen_profile_pads_below_any_real_score(self):
        codes = _codes("MKW", BLOSUM62)
        profile = build_screen_profile(codes, BLOSUM62)
        assert profile.dtype == np.int32
        assert profile.shape == (BLOSUM62.alphabet.size + 1, 3)
        assert (profile[-1] < -(10**5)).all()


class TestScreenStats:
    def test_local_counts_without_registry(self):
        stats = ScreenStats()
        database = protein_db(["MKVLAW", "RSRS", "AAAA", "WWKVL"])
        q = protein_seq("MKVLAWRS")
        gaps = affine_gap(10, 2)
        sw_score_database_screened(
            q, database, BLOSUM62, gaps, top=2, stats=stats,
            lanes=2, bin_width=4,
        )
        assert stats.screened == len(database)
        assert stats.passed + stats.rescored == stats.screened
        assert stats.rescored >= stats.saturated

    def test_bound_registry_mirrors_counts(self):
        from repro.observability import MetricsRegistry

        registry = MetricsRegistry()
        stats = ScreenStats()
        stats.bind(registry)
        stats.add(screened=10, rescored=3, saturated=1)
        assert registry.get("screen_pass_total").value == 7
        assert registry.get("screen_rescore_total").value == 3
        assert registry.get("screen_saturated_total").value == 1
        stats.unbind()
        stats.add(screened=4, rescored=4, saturated=0)
        # Local counts keep moving; the registry stays frozen.
        assert stats.rescored == 7
        assert registry.get("screen_rescore_total").value == 3

    def test_engine_run_exports_screen_families(self):
        from repro.core import HybridRuntime, InterSequenceEngine

        database = protein_db(
            ["MKVLAW", "RSRS", "AAAA", "WWKVL", "MMMM", "KKKK"]
        )
        qs = [protein_seq("MKVLAWRS")]
        gaps = affine_gap(10, 2)
        engine = InterSequenceEngine(
            BLOSUM62, gaps, top=3, screen=True,
            screen_lanes=2, screen_bin_width=4,
        )
        report = HybridRuntime({"gpu0": engine}).run(qs, database)
        families = {f["name"] for f in report.metrics["metrics"]}
        assert {
            "screen_pass_total",
            "screen_rescore_total",
            "screen_saturated_total",
        } <= families


class TestBinnedStoreRoundTrip:
    def test_round_trip_and_warm_screen(self, tmp_path):
        from repro.store import PackStore, StoreError, build_store

        database = protein_db(
            ["MKVLAW", "RSRS", "AAAA", "WWKVLAWMKV", "MMMM", "KKKKKKKK"]
        )
        root = tmp_path / "s"
        build_store(
            root, database, BLOSUM62, binned_lanes=(4,), bin_width=4
        )
        store = PackStore(root)
        loaded = store.get_binned_packs(database, BLOSUM62, 4, 4)
        assert loaded is not None
        built = list(
            pack_database_binned(database, BLOSUM62, lanes=4, bin_width=4)
        )
        assert len(loaded) == len(built)
        for a, b in zip(built, loaded):
            np.testing.assert_array_equal(a.residues, b.residues)
            np.testing.assert_array_equal(a.lengths, b.lengths)
            np.testing.assert_array_equal(a.order, b.order)
            assert (a.bin_lo, a.bin_hi) == (b.bin_lo, b.bin_hi)
        # Absent shapes return None; binned/plain entries never alias.
        assert store.get_binned_packs(database, BLOSUM62, 4, 8) is None
        assert store.get_packs(database, BLOSUM62, 4) is None
        # A plain pack entry refuses to load as a binned one.
        key = store.put_packs(database, BLOSUM62, lanes=4)
        with pytest.raises(StoreError, match="not a binned"):
            store.load_binned_packs(key)
        # verify() counts binned entries as pack entries (no new kind):
        # the build_store default plain packs (lanes=32), the binned
        # entry, and the plain lanes=4 entry just written.
        counts = store.verify()
        assert counts == {"entries": 3, "packs": 3, "profiles": 0}


class TestKernelNeighbourErrorPaths:
    """Coverage for striped/intersequence error paths (issue satellite)."""

    def test_striped_profile_rejects_empty_query_and_bad_lanes(self):
        from repro.align.striped import StripedProfile

        with pytest.raises(ValueError, match="empty query"):
            StripedProfile.build(
                np.zeros(0, dtype=np.int64), BLOSUM62, lanes=8
            )
        with pytest.raises(ValueError, match="lanes"):
            StripedProfile.build(
                _codes("MKW", BLOSUM62), BLOSUM62, lanes=0
            )

    def test_pack_database_rejects_bad_lanes(self):
        from repro.align.intersequence import pack_database

        with pytest.raises(ValueError, match="lanes"):
            list(pack_database(protein_db(["AAA"]), BLOSUM62, lanes=-1))

    def test_foreign_alphabet_query_is_reencoded(self):
        """A query carrying a different alphabet object is re-encoded
        against the matrix's — never trusted for raw codes."""
        dna_query = Sequence(id="q", residues="ACGT", alphabet=DNA)
        database = protein_db(["ACGT", "TTTT", "MKWL"])
        gaps = affine_gap(10, 2)
        expected = reference_scores(dna_query, database, BLOSUM62, gaps)
        result = sw_score_database_screened(
            dna_query, database, BLOSUM62, gaps, top=1,
            lanes=2, bin_width=4,
        )
        np.testing.assert_array_equal(result.scores, expected)

    def test_batched_engine_rejects_screen_on_non_screening_inner(self):
        from repro.core import BatchedEngine, ScanEngine

        inner = ScanEngine(BLOSUM62, affine_gap(10, 2))
        with pytest.raises(ValueError, match="screen"):
            BatchedEngine(inner, screen=True)
