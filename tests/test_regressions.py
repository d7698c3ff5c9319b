"""Pinned regression tests for bugs found by the property suite.

Each test is a *deterministic* replay of a Hypothesis counterexample —
no ``@given`` — so the exact failing inputs stay in the suite forever
even if the property strategies change.
"""

from repro.align import BLOSUM62, affine_gap, align_linear_space
from repro.align.reference import sw_score_reference
from repro.core.history import RateEstimator, RateSample
from repro.sequences import PROTEIN, Sequence


def seq(residues: str, seq_id: str = "s") -> Sequence:
    return Sequence(id=seq_id, residues=residues, alphabet=PROTEIN)


class TestRateEstimatorRegression:
    """Counterexample from ``test_weighted_mean_within_sample_range``.

    Two identical samples, Ω=2: the naive ``(1*r + 2*r) / 3``
    accumulation rounded the weighted mean one ulp *below* the (unique)
    sample rate, violating the weighted-mean range invariant.
    """

    CELLS = 894785.7978174529
    INTERVAL = 0.01

    def test_constant_samples_reproduce_the_constant(self):
        estimator = RateEstimator(omega=2)
        for t in range(2):
            estimator.observe(
                RateSample(
                    time=float(t), cells=self.CELLS, interval=self.INTERVAL
                )
            )
        rate = self.CELLS / self.INTERVAL
        # Bit-for-bit: the weighted mean of a constant is the constant.
        assert estimator.rate() == rate

    def test_weighted_mean_stays_within_sample_range(self):
        estimator = RateEstimator(omega=3)
        samples = [(self.CELLS, self.INTERVAL), (self.CELLS * 3, 0.07)]
        for t, (cells, interval) in enumerate(samples):
            estimator.observe(
                RateSample(time=float(t), cells=cells, interval=interval)
            )
        rates = [c / i for c, i in samples]
        rate = estimator.rate()
        assert min(rates) <= rate <= max(rates)


class TestLinearSpaceRescoreRegression:
    """Counterexample from ``test_linear_space_alignment_exact``.

    ``CAC`` vs ``CDC`` with gap open 1, extend 0: the optimal local
    alignment is ``CA-C`` / ``C-DC`` (score 16 — two matches at 9, two
    *separate* one-residue gaps at -1 each).  ``Alignment.rescore``
    used a single shared gap flag, so the insertion immediately after
    the deletion was billed as an *extension* of the first gap and the
    rescore came out one open-extend difference too high (17).
    """

    GAPS = affine_gap(1, 0)

    def test_pinned_counterexample(self):
        a, b = seq("CAC", "a"), seq("CDC", "b")
        expected = sw_score_reference(a, b, BLOSUM62, self.GAPS)
        assert expected == 16

        alignment = align_linear_space(a, b, BLOSUM62, self.GAPS)
        assert alignment.score == expected
        assert alignment.rescore(BLOSUM62, self.GAPS) == expected

    def test_adjacent_opposite_gaps_pay_two_opens(self):
        """Same defect, wider gap model: deletion run then insertion
        run must each pay their own open cost."""
        gaps = affine_gap(10, 2)
        a, b = seq("CCWCC", "a"), seq("CCHMCC", "b")
        alignment = align_linear_space(a, b, BLOSUM62, gaps)
        expected = sw_score_reference(a, b, BLOSUM62, gaps)
        assert alignment.score == expected
        assert alignment.rescore(BLOSUM62, gaps) == expected


class TestThreadedStraggleAccountingRegression:
    """The threaded worker measured its progress interval *before* the
    straggle pause, so the master's rate estimator saw a straggle one
    sample late — and never saw the pause after a task's last sample.

    One PE, one subject: every task reports exactly one progress
    sample, which must therefore cover (nearly) the task's whole
    elapsed time, pause included.  Before the fix the ratio was about
    the straggle factor (0.25).
    """

    def test_reported_interval_includes_the_pause(self, monkeypatch):
        import numpy as np

        from repro.align import DEFAULT_GAPS
        from repro.core import HybridRuntime, ScanEngine
        from repro.core.master import Master
        from repro.faults import FaultPlan, StragglerFault
        from repro.sequences import query_set, random_database

        intervals: list[float] = []
        elapsed: list[float] = []
        on_progress, on_complete = Master.on_progress, Master.on_complete

        def spy_progress(self, pe_id, now, cells, interval):
            intervals.append(interval)
            return on_progress(self, pe_id, now, cells, interval)

        def spy_complete(self, pe_id, result, now):
            elapsed.append(result.elapsed)
            return on_complete(self, pe_id, result, now)

        monkeypatch.setattr(Master, "on_progress", spy_progress)
        monkeypatch.setattr(Master, "on_complete", spy_complete)
        rng = np.random.default_rng(3)
        queries = query_set(3, rng, min_length=120, max_length=140)
        database = random_database(1, 300.0, rng, name="one-subject")
        plan = FaultPlan(stragglers=(StragglerFault(pe_id="pe", factor=0.25),))
        runtime = HybridRuntime(
            {"pe": ScanEngine(BLOSUM62, DEFAULT_GAPS)},
            faults=plan,
            heartbeat_timeout=0,
        )
        report = runtime.run(queries, database)
        assert any(e["kind"] == "fault_straggle" for e in report.events)
        assert len(intervals) == len(elapsed) == len(queries)
        for interval, total in zip(intervals, elapsed):
            assert interval >= 0.75 * total


class TestReplicaLoserOrderRegression:
    """Found by running one DES grid under two ``PYTHONHASHSEED`` values.

    ``TaskPool.complete`` returned replica losers as a ``frozenset`` of
    PE-id strings, and the master and the DES iterated it, so the order
    of ``cancel`` events — and under faults the virtual makespan —
    depended on the interpreter's string-hash seed.  A 4 GPU + 4 SSE
    platform under random fault plans with restarts differed for every
    plan seed between hash seeds 0 and 77, in ``run`` and in
    ``run_service`` alike.
    """

    SCRIPT = """
import json
import sys

import numpy as np

from repro.bench.workloads import paper_workloads
from repro.faults import FaultPlan
from repro.simulate.des import (
    HybridSimulator,
    ServiceSimulator,
    service_arrivals,
)
from repro.simulate.platform import hybrid_platform

pes = hybrid_platform(4, 4)
ids = [spec.pe_id for spec in pes]
tasks = paper_workloads(12)["UniProtDB/SwissProt"]
for seed in range(5):
    plan = FaultPlan.random(ids, seed=seed, allow_restarts=True)
    sys.stdout.write(HybridSimulator(pes, faults=plan).run(tasks).to_json())
for seed in range(3):
    plan = FaultPlan.random(ids, seed=seed, allow_restarts=True)
    arrivals = service_arrivals(6.0, 20.0, np.random.default_rng(seed))
    report = ServiceSimulator(pes, faults=plan).run_service(arrivals)
    sys.stdout.write(json.dumps(report.to_dict()))
"""

    def _run(self, hash_seed: str) -> bytes:
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
        return subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            env=env,
            check=True,
            capture_output=True,
        ).stdout

    def test_same_bytes_under_different_hash_seeds(self):
        first = self._run("0")
        assert first
        assert self._run("77") == first


class TestEmptyQueryStoreRegression:
    """``build_store`` built a striped profile for every query record.

    An empty record raised ``ValueError: cannot build a striped profile
    for an empty query``, so ``repro db build --queries`` (and
    ``repro cluster --store``) crashed on a FASTA that ``repro search``
    scores as 0 for every subject.
    """

    def test_store_builds_and_warm_search_matches_cold(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        queries = tmp_path / "q.fasta"
        database = tmp_path / "d.fasta"
        store = tmp_path / "store"
        queries.write_text(">empty\n>q1\nMKVLAWRSTT\n")
        database.write_text(">s1\nMKVLAW\n>s2\nRSRSRSTT\n>s3\nAAAA\n")
        assert main(["db", "build", str(database), "--store", str(store),
                     "--queries", str(queries)]) == 0
        capsys.readouterr()

        def hits(*extra: str) -> list[str]:
            assert main(["search", str(queries), str(database),
                         "--gpus", "1", "--sse", "1", *extra]) == 0
            return [
                line for line in capsys.readouterr().out.splitlines()
                if not line.startswith("# makespan")
            ]

        cold = hits()
        assert "# query empty (0 residues)" in cold
        assert hits("--store", str(store)) == cold


class TestDuplicatedRequestRegression:
    """A duplicated TCP ``request`` made two round trips.

    The worker kept only the second grant, so the master held the
    first grant's tasks as assigned to a live PE that never ran them.
    Without replicas to mask the loss, ``run_cluster`` raised
    ``TimeoutError`` with tasks still outstanding.  Requests are never
    duplicated now, in any environment.
    """

    def test_duplicate_every_message_finishes_with_fault_free_hits(self):
        from collections import Counter

        import numpy as np

        from repro.cluster import run_cluster
        from repro.faults import FaultPlan, MessageFaults
        from repro.sequences import query_set, random_database

        rng = np.random.default_rng(5)
        queries = query_set(6, rng, min_length=20, max_length=40)
        database = random_database(40, 50.0, rng, name="dupdb")

        def run(faults):
            return run_cluster(
                queries, database, {"gpu0": "gpu", "gpu1": "gpu"},
                use_processes=False, adjustment=False, faults=faults,
                timeout=20,
            )

        def hits(report):
            return {
                query_id: [(h.subject_index, h.score) for h in ranked]
                for query_id, ranked in report.results.items()
            }

        faulted = run(
            FaultPlan(seed=0, messages=MessageFaults(duplicate_rate=1.0))
        )
        assert hits(faulted) == hits(run(None))
        duplicated = {
            e["message"] for e in faulted.events.filter("fault_duplicate")
        }
        assert "complete" in duplicated and "request" not in duplicated
        # A duplicated complete still ends its task once on the worker.
        ends = Counter(
            e["task"] for e in faulted.events.filter("worker_task_end")
        )
        assert sorted(ends) == list(range(len(queries)))
        assert set(ends.values()) == {1}
