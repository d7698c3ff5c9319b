"""Third property-based batch: strands, translation, masking and
formats."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import (
    BLOSUM62,
    DEFAULT_GAPS,
    linear_gap,
    match_mismatch,
    sw_score_scan,
)
from repro.align.dna import reverse_complement, sw_score_both_strands
from repro.sequences import DNA, PROTEIN, Sequence
from repro.sequences.complexity import mask_low_complexity
from repro.sequences.translate import GENETIC_CODE, translate

proteins = st.text(alphabet="ARNDCQEGHILKMFPSTWYV", min_size=1, max_size=20)
dna_strings = st.text(alphabet="ACGT", min_size=1, max_size=40)


def pseq(residues: str, seq_id: str = "s") -> Sequence:
    return Sequence(id=seq_id, residues=residues, alphabet=PROTEIN)


def dseq(residues: str, seq_id: str = "s") -> Sequence:
    return Sequence(id=seq_id, residues=residues, alphabet=DNA)


class TestStrandProperties:
    @given(dna_strings, dna_strings)
    @settings(max_examples=50, deadline=None)
    def test_both_strands_is_max(self, q, t):
        matrix, gaps = match_mismatch(1, -1), linear_gap(2)
        hit = sw_score_both_strands(dseq(q), dseq(t), matrix, gaps)
        forward = sw_score_scan(dseq(q), dseq(t), matrix, gaps).score
        reverse = sw_score_scan(
            reverse_complement(dseq(q)), dseq(t), matrix, gaps
        ).score
        assert hit.score == max(forward, reverse)

    @given(dna_strings)
    @settings(max_examples=50, deadline=None)
    def test_reverse_complement_involution(self, residues):
        seq = dseq(residues)
        assert reverse_complement(reverse_complement(seq)).residues == (
            seq.residues
        )

    @given(dna_strings, dna_strings)
    @settings(max_examples=30, deadline=None)
    def test_strand_symmetry(self, q, t):
        """Scoring q vs t on both strands equals scoring rc(q) vs t."""
        matrix, gaps = match_mismatch(1, -1), linear_gap(2)
        direct = sw_score_both_strands(dseq(q), dseq(t), matrix, gaps)
        flipped = sw_score_both_strands(
            reverse_complement(dseq(q)), dseq(t), matrix, gaps
        )
        assert direct.score == flipped.score


class TestTranslationProperties:
    codon_for = {aa: codon for codon, aa in GENETIC_CODE.items()}

    @given(proteins)
    @settings(max_examples=50, deadline=None)
    def test_reverse_translate_roundtrip(self, residues):
        dna = dseq(
            "".join(self.codon_for[aa] for aa in residues), "gene"
        )
        assert translate(dna, 1).residues == residues

    @given(dna_strings)
    @settings(max_examples=50, deadline=None)
    def test_frame_lengths(self, residues):
        dna = dseq(residues)
        for frame in (1, 2, 3):
            expected = max(0, (len(residues) - (frame - 1)) // 3)
            assert len(translate(dna, frame)) == expected


class TestMaskingProperties:
    @given(proteins)
    @settings(max_examples=50, deadline=None)
    def test_masking_preserves_length_and_is_idempotent(self, residues):
        seq = pseq(residues)
        masked = mask_low_complexity(seq)
        assert len(masked) == len(seq)
        again = mask_low_complexity(masked)
        assert again.residues == masked.residues

    @given(proteins)
    @settings(max_examples=40, deadline=None)
    def test_masking_never_raises_scores(self, residues):
        seq = pseq(residues)
        masked = mask_low_complexity(seq, window=6, threshold=2.0)
        raw = sw_score_scan(seq, seq, BLOSUM62, DEFAULT_GAPS).score
        cooked = sw_score_scan(
            masked, masked, BLOSUM62, DEFAULT_GAPS
        ).score
        assert cooked <= raw
