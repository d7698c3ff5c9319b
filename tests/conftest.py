"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.align import (
    BLOSUM62,
    DEFAULT_GAPS,
    LanePack,
    linear_gap,
    match_mismatch,
)
from repro.align.reference import _codes
from repro.sequences import PROTEIN, Sequence, random_database, random_sequence


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def blosum62():
    return BLOSUM62


@pytest.fixture
def default_gaps():
    return DEFAULT_GAPS


@pytest.fixture
def dna_scheme():
    """The paper's Fig. 1 scoring: ma=+1, mi=-1, g=-2."""
    return match_mismatch(1, -1), linear_gap(2)


@pytest.fixture
def small_proteins(rng) -> list[Sequence]:
    """A handful of short random protein sequences."""
    return [
        random_sequence(length, rng, seq_id=f"p{i}")
        for i, length in enumerate((12, 25, 33, 47, 60))
    ]


@pytest.fixture
def mini_database(rng):
    return random_database(25, 50.0, rng, name="mini")


def make_protein(residues: str, seq_id: str = "seq") -> Sequence:
    return Sequence(id=seq_id, residues=residues, alphabet=PROTEIN)


def classic_packs(database, matrix, lanes):
    """One subject per lane, length-sorted and padded: the layout of pack
    stores written before lanes were streamed (no ``lane``/``start``)."""
    records = list(database)
    order = np.argsort([len(r) for r in records], kind="stable")
    for first in range(0, len(records), lanes):
        chunk = order[first : first + lanes].astype(np.int64)
        lengths = np.array([len(records[i]) for i in chunk], dtype=np.int64)
        residues = np.full(
            (int(lengths.max()), len(chunk)), matrix.alphabet.size,
            dtype=np.int16,
        )
        for lane, index in enumerate(chunk):
            residues[: lengths[lane], lane] = _codes(records[index], matrix)
        yield LanePack(residues, lengths, chunk, matrix.alphabet.size)
