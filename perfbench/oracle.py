"""Reference results, computed apart from the timed path.

    python3 perfbench/oracle.py WORKLOAD INPUT_DIR OUT_JSON

* ``search_exact`` and ``served``: every (query, subject) pair scored
  one at a time with the column-scan kernel
  (``repro.align.columnwise.sw_score_scan``), which no timed path runs.
* ``search_batched``: the plain unbatched exact sweep, one query at a
  time over freshly built lane packs — no screen, no multi-query
  tensor, no store, no cache.

Ranking is done here: score descending, database position ascending on
ties, the contract every engine documents.  The result is cached next to
the inputs, so each seed pays for it once, before or after timing but
never during it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from fixtures import SEARCH_TOP, SERVED_TOP


def _rank(ids: list[str], scores: list[int], top: int) -> list[list]:
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], i))[:top]
    return [[ids[i], int(scores[i])] for i in order]


def _scan_scores(queries, database, matrix, gaps) -> list[list[int]]:
    from repro.align.columnwise import sw_score_scan

    # The scan loops over its second argument.  A local score is the same
    # with the roles swapped (substitution matrices are symmetric by
    # construction), so loop over the shorter sequence of each pair.
    rows = []
    for query in queries:
        row = []
        for subject in database:
            a, b = query, subject
            if len(b) > len(a):
                a, b = b, a
            row.append(sw_score_scan(a, b, matrix, gaps).score)
        rows.append(row)
    return rows


def _sweep_scores(queries, database, matrix, gaps) -> list[list[int]]:
    from repro.align.intersequence import pack_database, sw_score_batch

    packs = list(pack_database(database, matrix))
    rows = []
    for query in queries:
        codes = matrix.alphabet.encode(query.residues)
        scores = np.zeros(len(database), dtype=np.int64)
        for pack in packs:
            scores[pack.order] = sw_score_batch(codes, pack, matrix, gaps)
        rows.append([int(s) for s in scores])
    return rows


def compute(workload: str, inputs: Path) -> dict:
    from repro.align.gaps import DEFAULT_GAPS
    from repro.align.scoring import get_matrix
    from repro.sequences.database import SequenceDatabase
    from repro.sequences.fasta import read_fasta
    from repro.sequences.records import Sequence

    matrix = get_matrix("blosum62")
    database = SequenceDatabase.from_fasta(
        inputs / "database.fasta", alphabet=matrix.alphabet
    )
    ids = [record.id for record in database]
    if workload == "served":
        schedule = json.loads((inputs / "schedule.json").read_text())
        queries = [
            Sequence(id=r["id"], residues=r["residues"],
                     alphabet=matrix.alphabet)
            for r in schedule
        ]
        top = SERVED_TOP
    else:
        queries = read_fasta(inputs / "queries.fasta",
                             alphabet=matrix.alphabet)
        top = SEARCH_TOP
    if workload == "search_batched":
        rows = _sweep_scores(queries, database, matrix, DEFAULT_GAPS)
    else:
        rows = _scan_scores(queries, database, matrix, DEFAULT_GAPS)
    return {q.id: _rank(ids, row, top) for q, row in zip(queries, rows)}


def check(expected: dict, outputs: dict) -> tuple[int, int]:
    """``(attempted, failed)`` for hit lists keyed by query or request id.

    Every expected id is an attempted operation; a missing, shortened,
    reordered or re-scored list is a failure.
    """
    failed = 0
    for key, hits in expected.items():
        got = outputs.get(key)
        if got is None or [list(h) for h in got] != hits:
            failed += 1
    return len(expected), failed


def self_check() -> None:
    """Prove that :func:`check` counts a wrong hit list as a failure."""
    expected = {"q1": [["a", 50], ["b", 40]], "q2": [["c", 30]]}
    if check(expected, expected) != (2, 0):
        raise AssertionError("oracle rejected a correct result")
    cases = (
        {"q1": [["b", 50], ["a", 40]], "q2": [["c", 30]]},  # swapped ids
        {"q1": [["a", 50], ["b", 41]], "q2": [["c", 30]]},  # wrong score
        {"q1": [["a", 50]], "q2": [["c", 30]]},  # truncated
        {"q1": [["a", 50], ["b", 40]]},  # missing query
    )
    for wrong in cases:
        if check(expected, wrong) != (2, 1):
            raise AssertionError(f"oracle missed a wrong result: {wrong}")


def main(argv: list[str]) -> int:
    workload, inputs, out = argv
    result = compute(workload, Path(inputs))
    tmp = Path(out).with_suffix(".tmp")
    tmp.write_text(json.dumps(result), encoding="utf-8")
    tmp.replace(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
