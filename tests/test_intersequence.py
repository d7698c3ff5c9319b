"""Unit tests for the inter-sequence (CUDASW++-analogue) kernel."""

import numpy as np
import pytest

from repro.align import (
    pack_database,
    sw_score_batch,
    sw_score_database,
    sw_score_reference,
)
from repro.sequences import Sequence, SequenceDatabase, random_sequence


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
