"""Cross-engine conformance suite: every engine bit-exact vs reference.

Hypothesis drives random (query, database, matrix, gaps) cases through
the Striped, InterSequence, Scan and Batched engines and asserts each
returns hits byte-identical to :func:`repro.align.sw_score_reference`,
including scores that straddle the striped kernel's 8-bit (255) and
16-bit (32767) saturation boundaries.  This suite is the gate for the
multi-query batching/caching work: any speedup that changes a single
score fails here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import (
    BLOSUM62,
    SCORE_CAP_8BIT,
    SCORE_CAP_16BIT,
    affine_gap,
    match_mismatch,
    sw_score_database_multi,
    sw_score_reference,
)
from repro.core import (
    InterSequenceEngine,
    ScanEngine,
    StripedSSEEngine,
)
from repro.sequences import DNA, PROTEIN, Sequence, SequenceDatabase

AMINO = "ARNDCQEGHILKMFPSTWYV"

proteins = st.text(alphabet=AMINO, min_size=0, max_size=24)
protein_lists = st.lists(
    st.text(alphabet=AMINO, min_size=1, max_size=28), min_size=1, max_size=6
)
query_lists = st.lists(proteins, min_size=1, max_size=4)
gap_models = st.tuples(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=5),
).map(lambda pair: affine_gap(max(pair), min(pair)))


def protein_seq(residues: str, i: int = 0) -> Sequence:
    return Sequence(id=f"q{i}", residues=residues, alphabet=PROTEIN)


def protein_db(subjects: list[str]) -> SequenceDatabase:
    records = [
        Sequence(id=f"d{i}", residues=s, alphabet=PROTEIN)
        for i, s in enumerate(subjects)
    ]
    return SequenceDatabase(records, name="conformance")


def reference_hits(query, database, matrix, gaps, top):
    """Ground-truth top hits under the engines' documented tie rule."""
    scores = np.array(
        [
            sw_score_reference(query, subject, matrix, gaps)
            for subject in database
        ],
        dtype=np.int64,
    )
    order = np.argsort(-scores, kind="stable")[:top]
    return [(int(i), int(scores[i])) for i in order]


def projection(hits):
    return [(h.subject_index, h.score) for h in hits]


def all_engines(matrix, gaps, top):
    """One instance of every production engine."""
    return {
        "striped": StripedSSEEngine(matrix, gaps, top=top, chunk_size=4),
        "inter": InterSequenceEngine(matrix, gaps, top=top, chunk_size=4),
        "scan": ScanEngine(matrix, gaps, top=top, chunk_size=4),
    }


class TestRandomisedConformance:
    @given(query=proteins, subjects=protein_lists, gaps=gap_models)
    @settings(max_examples=40, deadline=None)
    def test_every_engine_matches_reference(self, query, subjects, gaps):
        database = protein_db(subjects)
        q = protein_seq(query)
        top = len(database)
        expected = reference_hits(q, database, BLOSUM62, gaps, top)
        engines = all_engines(BLOSUM62, gaps, top)
        for name, engine in engines.items():
            assert projection(engine.search(q, database)) == expected, name
        # The batching path (runtime ``batch=``) on a one-query batch.
        batched = engines["inter"].search_batch([q], database)[0]
        assert projection(batched) == expected, "batched"

    @given(queries=query_lists, subjects=protein_lists, gaps=gap_models)
    @settings(max_examples=25, deadline=None)
    def test_search_batch_matches_reference(self, queries, subjects, gaps):
        database = protein_db(subjects)
        qs = [protein_seq(text, i) for i, text in enumerate(queries)]
        top = len(database)
        expected = [
            reference_hits(q, database, BLOSUM62, gaps, top) for q in qs
        ]
        for name, engine in all_engines(BLOSUM62, gaps, top).items():
            batch = engine.search_batch(qs, database)
            assert [projection(hits) for hits in batch] == expected, name

    @given(queries=query_lists, subjects=protein_lists, gaps=gap_models)
    @settings(max_examples=25, deadline=None)
    def test_multiquery_kernel_matches_reference_cellwise(
        self, queries, subjects, gaps
    ):
        database = protein_db(subjects)
        qs = [protein_seq(text, i) for i, text in enumerate(queries)]
        scores = sw_score_database_multi(qs, database, BLOSUM62, gaps)
        assert scores.shape == (len(qs), len(database))
        for qi, q in enumerate(qs):
            for si, subject in enumerate(database):
                assert scores[qi, si] == sw_score_reference(
                    q, subject, BLOSUM62, gaps
                )


def dna_seq(residues: str, i: int = 0) -> Sequence:
    return Sequence(id=f"n{i}", residues=residues, alphabet=DNA)


def dna_db(subjects: list[str]) -> SequenceDatabase:
    records = [dna_seq(s, i) for i, s in enumerate(subjects)]
    return SequenceDatabase(records, name="dna-conformance", alphabet=DNA)


class TestOverflowBoundaries:
    """Scores straddling the 255 / 32767 striped saturation caps.

    A perfect self-match of ``k`` residues under ``match_mismatch(m)``
    scores exactly ``k * m``, so small sequences place the true score on
    either side of each cap without paying for long alignments.  The
    striped engine must detect saturation and fall back to the wider
    plan; every other engine is exact by construction.
    """

    # (match score, residues) -> self-match score relative to the caps.
    CASES = [
        (51, "ACGTA", 255),          # == 8-bit cap exactly
        (52, "ACGTA", 260),          # just above the 8-bit cap
        (50, "ACGTA", 250),          # just below the 8-bit cap
        (4681, "ACGTACG", 32767),    # == 16-bit cap exactly
        (4682, "ACGTACG", 32774),    # just above the 16-bit cap
    ]

    @pytest.mark.parametrize("match,residues,expected_peak", CASES)
    def test_boundary_scores_exact(self, match, residues, expected_peak):
        assert expected_peak == match * len(residues)  # case sanity
        matrix = match_mismatch(match, -1, alphabet=DNA)
        gaps = affine_gap(2, 1)
        query = dna_seq(residues)
        # The self-match plus decoys shorter/longer than the query.
        database = dna_db([residues, "ACG", residues + "TTTT", "TTTT"])
        top = len(database)
        expected = reference_hits(query, database, matrix, gaps, top)
        assert expected[0][1] == expected_peak
        for name, engine in all_engines(matrix, gaps, top).items():
            assert projection(engine.search(query, database)) == expected, (
                name,
                match,
            )

    @given(
        match=st.integers(min_value=40, max_value=6000),
        query=st.text(alphabet="ACGT", min_size=1, max_size=12),
        subjects=st.lists(
            st.text(alphabet="ACGT", min_size=1, max_size=14),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_high_scores_conform(self, match, query, subjects):
        """Random match weights sweep scores across both caps."""
        matrix = match_mismatch(match, -2, alphabet=DNA)
        gaps = affine_gap(3, 1)
        q = dna_seq(query)
        database = dna_db(subjects)
        top = len(database)
        expected = reference_hits(q, database, matrix, gaps, top)
        for name, engine in all_engines(matrix, gaps, top).items():
            assert projection(engine.search(q, database)) == expected, name

    def test_caps_are_the_documented_constants(self):
        assert SCORE_CAP_8BIT == 255
        assert SCORE_CAP_16BIT == 32767


class TestStoreBackedConformance:
    """Warm-start engines on memory-mapped store shards stay bit-exact.

    The pack store round-trips lane packs and profiles through disk and
    hands the engines read-only mmap views; this property pins the
    contract that a warm search is byte-identical to a cold one.
    """

    @settings(max_examples=20, deadline=None)
    @given(
        query=st.text(alphabet=AMINO, min_size=1, max_size=24),
        subjects=protein_lists,
        gaps=gap_models,
    )
    def test_mmap_packs_conform(self, tmp_path_factory, query, subjects,
                                gaps):
        from repro.store import build_store

        root = tmp_path_factory.mktemp("conf-store") / "s"
        q = protein_seq(query)
        database = protein_db(subjects)
        build_store(root, database, BLOSUM62, queries=[q])
        top = len(database)
        expected = reference_hits(q, database, BLOSUM62, gaps, top)
        warm = {
            "striped": StripedSSEEngine(BLOSUM62, gaps, top=top,
                                        store=str(root)),
            "inter": InterSequenceEngine(BLOSUM62, gaps, top=top,
                                         store=str(root)),
        }
        for name, engine in warm.items():
            assert projection(engine.search(q, database)) == expected, name

    @settings(max_examples=15, deadline=None)
    @given(queries=query_lists, subjects=protein_lists, gaps=gap_models)
    def test_store_backed_batched_engine_conforms(
        self, tmp_path_factory, queries, subjects, gaps
    ):
        """The warm multi-query path (``search_batch`` over store-backed
        packs) stays bit-exact against the reference."""
        from repro.store import build_store

        root = tmp_path_factory.mktemp("conf-batch-store") / "s"
        qs = [protein_seq(text, i) for i, text in enumerate(queries)]
        database = protein_db(subjects)
        # Packs only: stacked multi-query profiles never enter a store.
        build_store(root, database, BLOSUM62)
        top = len(database)
        expected = [
            reference_hits(q, database, BLOSUM62, gaps, top) for q in qs
        ]
        warm = InterSequenceEngine(BLOSUM62, gaps, top=top, store=str(root))
        batch = warm.search_batch(qs, database)
        assert [projection(hits) for hits in batch] == expected

    def test_store_hits_identical_to_cold_engine(self, tmp_path):
        from repro.store import build_store

        q = protein_seq("MKVLAWRS")
        database = protein_db(["MKVLAW", "RSRSRS", "AAAA", "WWKVL", "M"])
        gaps = affine_gap(10, 2)
        build_store(tmp_path / "s", database, BLOSUM62, queries=[q])
        cold = InterSequenceEngine(BLOSUM62, gaps, top=5)
        warm = InterSequenceEngine(BLOSUM62, gaps, top=5,
                                   store=str(tmp_path / "s"))
        cold_hits = cold.search(q, database)
        warm_hits = warm.search(q, database)
        assert [
            (h.subject_id, h.subject_index, h.score, h.subject_length)
            for h in warm_hits
        ] == [
            (h.subject_id, h.subject_index, h.score, h.subject_length)
            for h in cold_hits
        ]
