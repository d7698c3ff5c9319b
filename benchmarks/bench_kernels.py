"""Kernel microbenchmarks: the real SW engines on real residues.

Times the four scoring kernels on a fixed (query x database) workload
and reports their sustained cell throughput — the software analogue of
the per-PE GCUPS columns in the paper's tables.  The reference kernel
runs on a reduced workload (it is quadratic Python, present as ground
truth, not as an engine).
"""

import numpy as np
import pytest

from repro.align import (
    BLOSUM62,
    DEFAULT_GAPS,
    sw_score_database,
    sw_score_reference,
    sw_score_scan,
    sw_score_striped,
)
from repro.align.hirschberg import align_linear_space
from repro.sequences import random_database, random_sequence


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(123)
    query = random_sequence(200, rng, seq_id="q")
    database = random_database(60, 120.0, rng, name="bench")
    return query, database


def _mcups(cells: int, seconds: float) -> float:
    return cells / seconds / 1e6


def test_kernel_scan(benchmark, workload):
    query, database = workload

    def run():
        return [
            sw_score_scan(query, subject, BLOSUM62, DEFAULT_GAPS).score
            for subject in database
        ]

    scores = benchmark(run)
    assert len(scores) == len(database)
    cells = len(query) * database.total_residues
    benchmark.extra_info["mcups"] = round(
        _mcups(cells, benchmark.stats["mean"]), 1
    )


def test_kernel_striped(benchmark, workload):
    query, database = workload

    def run():
        return [
            sw_score_striped(query, subject, BLOSUM62, DEFAULT_GAPS).score
            for subject in database
        ]

    scores = benchmark(run)
    assert len(scores) == len(database)
    cells = len(query) * database.total_residues
    benchmark.extra_info["mcups"] = round(
        _mcups(cells, benchmark.stats["mean"]), 1
    )


def test_kernel_intersequence(benchmark, workload):
    query, database = workload

    def run():
        return sw_score_database(
            query, database, BLOSUM62, DEFAULT_GAPS, lanes=32
        )

    scores = benchmark(run)
    assert len(scores) == len(database)
    cells = len(query) * database.total_residues
    benchmark.extra_info["mcups"] = round(
        _mcups(cells, benchmark.stats["mean"]), 1
    )


def test_kernel_wavefront(benchmark, workload):
    from repro.align import sw_score_wavefront

    query, database = workload
    subjects = list(database)[:10]

    def run():
        return [
            sw_score_wavefront(query, subject, BLOSUM62, DEFAULT_GAPS).score
            for subject in subjects
        ]

    scores = benchmark.pedantic(run, rounds=2, iterations=1)
    assert len(scores) == 10


def test_kernel_banded(benchmark, workload):
    from repro.align import sw_score_banded

    query, database = workload

    def run():
        return [
            sw_score_banded(
                query, subject, BLOSUM62, DEFAULT_GAPS, band=16
            ).score
            for subject in database
        ]

    scores = benchmark.pedantic(run, rounds=2, iterations=1)
    assert len(scores) == len(database)


def test_kernel_reference_small(benchmark, workload):
    query, database = workload
    subjects = list(database)[:3]

    def run():
        return [
            sw_score_reference(query, subject, BLOSUM62, DEFAULT_GAPS)
            for subject in subjects
        ]

    scores = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(scores) == 3


def test_kernel_linear_space_alignment(benchmark, workload):
    query, database = workload
    subject = max(database, key=len)

    def run():
        return align_linear_space(query, subject, BLOSUM62, DEFAULT_GAPS)

    alignment = benchmark(run)
    assert alignment.rescore(BLOSUM62, DEFAULT_GAPS) == alignment.score
