"""What ``perfbench/`` still needs from the program after the screen went.

The benchmark harness is frozen: its span targets
(``perfbench/tracing.py``) name the removed 8-bit screen's functions,
its search_batched engine passes ``screen=True`` and reads
``screen_stats``, and its fixture builds the store with
``db build --screen-lanes 256``.  These tests pin each of those
without running the harness: ``tracing.py`` is loaded by path and only
read, never used to instrument anything.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from repro.align import BLOSUM62, DEFAULT_GAPS
from repro.cli import main
from repro.core import HybridRuntime, InterSequenceEngine
from repro.sequences import query_set, random_database, write_fasta
from repro.store import PackStore

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    rng = np.random.default_rng(31)
    root = tmp_path_factory.mktemp("perfbench-contract")
    queries = query_set(4, rng, 20, 50)
    database = random_database(40, 45.0, rng, name="contract")
    write_fasta(queries, root / "queries.fasta")
    write_fasta(database, root / "database.fasta")
    return root, queries, database


def test_every_span_target_resolves():
    tracing = _tracing()
    targets = (tracing.SEARCH_TARGETS + tracing.MASTER_TARGETS
               + tracing.SIMULATE_TARGETS)
    for _name, module_name, path in targets:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
        assert callable(getattr(raw, "__func__", raw)), path


def test_db_build_accepts_hidden_screen_lanes(workload, tmp_path, capsys):
    """The fixture's command line exits 0 and writes what a plain
    build writes; the flag stays out of ``--help``."""
    root, _, _ = workload
    db, q = str(root / "database.fasta"), str(root / "queries.fasta")
    flagged, plain = tmp_path / "flagged", tmp_path / "plain"
    assert main(["db", "build", db, "--store", str(flagged),
                 "--queries", q, "--screen-lanes", "256"]) == 0
    assert main(["db", "build", db, "--store", str(plain),
                 "--queries", q]) == 0
    assert PackStore(flagged).keys() == PackStore(plain).keys()
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["db", "build", "--help"])
    assert "--screen-lanes" not in capsys.readouterr().out


def test_screen_kwarg_runs_the_exact_path(workload, tmp_path):
    """``screen=True`` on a store-backed engine: the plain engine's
    hits byte for byte, singly and batched, and zero screen counters."""
    root, queries, database = workload
    store = tmp_path / "store"
    assert main(["db", "build", str(root / "database.fasta"),
                 "--store", str(store), "--queries",
                 str(root / "queries.fasta"), "--screen-lanes", "256"]) == 0

    def hits(engine, batch):
        report = HybridRuntime({"gpu0": engine}, batch=batch).run(
            queries, database, top=10)
        return json.dumps({
            q.id: [dataclasses.asdict(h) for h in report.results[q.id]]
            for q in queries
        }).encode()

    plain = hits(InterSequenceEngine(BLOSUM62, DEFAULT_GAPS, top=10), 1)
    for batch in (1, 4):
        engine = InterSequenceEngine(BLOSUM62, DEFAULT_GAPS, top=10,
                                     store=PackStore(store), screen=True)
        assert hits(engine, batch) == plain
        assert (engine.screen_stats.passed,
                engine.screen_stats.rescored) == (0, 0)
