"""Tests for the durable master state: journal, checkpoint, recovery.

Covers the write-ahead journal codec (CRC framing, torn-tail
tolerance, corruption detection), the checkpoint store (round-trip,
compaction, workload fingerprint guard), and crash-kill/resume in all
three execution environments (threaded runtime, DES, TCP cluster),
asserting the resumed run merges results identical to a fault-free run
without re-executing finished tasks.
"""

import json
import os
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import uniform_tasks
from repro.core import Master, SelfScheduling, Task
from repro.core.task import TaskPoolError, TaskResult
from repro.durability import (
    JOURNAL_SCHEMA,
    CheckpointStore,
    Journal,
    JournalError,
    decode_record,
    encode_record,
    read_journal,
    restore_into,
    scan_journal,
    workload_fingerprint,
)
from repro.faults import FaultPlan, MasterCrashed, MasterCrashFault


def hit_projection(results):
    """Engine-independent view of per-query hits for equality checks."""
    return {
        query_id: tuple((h.subject_index, h.score) for h in hits)
        for query_id, hits in results.items()
    }


def make_tasks(n: int, cells: int = 100) -> list[Task]:
    return uniform_tasks(n, cells=cells)


def result_for(task_id: int, pe_id: str = "pe0") -> TaskResult:
    return TaskResult(
        task_id=task_id, pe_id=pe_id, elapsed=0.5, cells=100
    )


# ----------------------------------------------------------------------
# Journal codec
# ----------------------------------------------------------------------
class TestJournalCodec:
    def test_round_trip(self):
        record = {"type": "complete", "task": 3, "pe": "gpu0"}
        assert decode_record(encode_record(record)) == record

    def test_crc_detects_tampering(self):
        line = encode_record({"type": "assign", "task": 1, "pe": "a"})
        tampered = line.replace('"task":1', '"task":2')
        with pytest.raises(JournalError, match="crc mismatch"):
            decode_record(tampered)

    def test_missing_crc_rejected(self):
        with pytest.raises(JournalError, match="crc"):
            decode_record('{"type":"assign"}')

    def test_non_json_rejected(self):
        with pytest.raises(JournalError):
            decode_record("not json at all")

    def test_encode_rejects_preexisting_crc(self):
        with pytest.raises(JournalError):
            encode_record({"type": "assign", "crc": "deadbeef"})


class TestJournalFile:
    def test_append_and_read(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append({"type": "a", "n": 1})
            journal.append({"type": "b", "n": 2})
        records, torn = read_journal(path)
        assert [r["type"] for r in records] == ["a", "b"]
        assert not torn

    def test_missing_file_is_empty(self, tmp_path):
        records, torn = read_journal(tmp_path / "absent.jsonl")
        assert records == [] and not torn

    def test_torn_final_record_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append({"type": "a"})
            journal.append({"type": "b"})
        data = path.read_bytes()
        path.write_bytes(data[:-10])  # tear the last record
        records, torn = read_journal(path)
        assert [r["type"] for r in records] == ["a"]
        assert torn
        scan = scan_journal(path)
        assert scan.ok and scan.torn
        # good_bytes points at the end of the intact prefix
        assert data[: scan.good_bytes].endswith(b"\n")

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append({"type": "a"})
            journal.append({"type": "b"})
        lines = path.read_bytes().split(b"\n")
        lines[0] = lines[0][:-4] + b"beef"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(JournalError, match="corrupt record at line 1"):
            read_journal(path)
        scan = scan_journal(path)
        assert not scan.ok and scan.error_line == 1

    def test_sync_every_batches(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path, sync_every=8) as journal:
            for i in range(20):
                journal.append({"type": "a", "n": i})
        records, torn = read_journal(path)
        assert len(records) == 20 and not torn


# ----------------------------------------------------------------------
# Journal property tests
# ----------------------------------------------------------------------
def _build_journal(path, n: int = 6) -> bytes:
    with Journal(path) as journal:
        for i in range(n):
            journal.append({"type": "complete", "task": i, "pe": "p"})
    return path.read_bytes()


class TestJournalProperties:
    @settings(max_examples=25, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=400))
    def test_any_truncation_leaves_a_valid_prefix(self, tmp_path_factory,
                                                  cut):
        path = tmp_path_factory.mktemp("torn") / "j.jsonl"
        data = _build_journal(path)
        cut = min(cut, len(data))
        path.write_bytes(data[:cut])
        scan = scan_journal(path)
        # Truncation can only tear the tail, never corrupt the middle.
        assert scan.ok
        assert scan.good_bytes <= cut
        for record in scan.records:
            assert record["type"] == "complete"

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_bit_flip_in_interior_line_is_loud(self, tmp_path_factory,
                                               data):
        path = tmp_path_factory.mktemp("flip") / "j.jsonl"
        raw = _build_journal(path)
        lines = raw.split(b"\n")
        # Flip a byte in any line but the last (a damaged final line is
        # the torn-tail case, tolerated by design).
        line_no = data.draw(
            st.integers(min_value=0, max_value=len(lines) - 3)
        )
        offset = data.draw(
            st.integers(min_value=0, max_value=len(lines[line_no]) - 1)
        )
        line = bytearray(lines[line_no])
        flipped = line[offset] ^ 0x01
        if flipped in (0x0A, 0x00) or line[offset] == flipped:
            flipped = line[offset] ^ 0x02
        line[offset] = flipped
        lines[line_no] = bytes(line)
        path.write_bytes(b"\n".join(lines))
        scan = scan_journal(path)
        assert not scan.ok
        assert scan.error_line == line_no + 1
        with pytest.raises(JournalError, match="corrupt record"):
            read_journal(path)

    @settings(max_examples=25, deadline=None)
    @given(snapshot_text=st.sampled_from(["", "\n", None]))
    def test_empty_or_missing_snapshot_recovers(self, tmp_path_factory,
                                                snapshot_text):
        directory = tmp_path_factory.mktemp("snap")
        if snapshot_text is not None:
            (directory / CheckpointStore.SNAPSHOT_NAME).write_text(
                snapshot_text
            )
        store = CheckpointStore(directory)
        recovered = store.open(workload_fingerprint(make_tasks(2)))
        store.close()
        assert recovered.empty


# ----------------------------------------------------------------------
# Checkpoint store
# ----------------------------------------------------------------------
class TestCheckpointStore:
    def _run_master(self, directory, tasks=None, compact_every=0):
        tasks = tasks if tasks is not None else make_tasks(3)
        store = CheckpointStore(directory, compact_every=compact_every)
        store.open(workload_fingerprint(tasks))
        master = Master(tasks, policy=SelfScheduling(), journal=store)
        master.register("pe0", now=0.0)
        now = 0.0
        while not master.finished:
            now += 1.0
            grant = master.on_request("pe0", now)
            if grant.done:
                break
            for task in (*grant.tasks, *grant.replicas):
                master.on_complete(
                    "pe0", result_for(task.task_id), now + 0.5
                )
        store.close()
        return tasks

    def test_recover_round_trip(self, tmp_path):
        tasks = self._run_master(tmp_path)
        store = CheckpointStore(tmp_path)
        recovered = store.recover(workload_fingerprint(tasks))
        assert [r["task"] for r in recovered.finished_records] == [0, 1, 2]
        results = recovered.results()
        assert all(isinstance(r, TaskResult) for r in results)
        assert [r.task_id for r in results] == [0, 1, 2]

    def test_restore_into_fresh_master(self, tmp_path):
        tasks = self._run_master(tmp_path)
        store = CheckpointStore(tmp_path)
        recovered = store.recover(workload_fingerprint(tasks))
        master = Master(make_tasks(3), policy=SelfScheduling())
        assert restore_into(master, recovered) == 3
        assert master.finished
        assert sorted(master.results) == [0, 1, 2]
        kinds = [e["kind"] for e in master.events]
        assert kinds.count("recovery_task") == 3
        assert kinds.count("recovery_resume") == 1

    def test_compaction_moves_state_to_snapshot(self, tmp_path):
        tasks = self._run_master(tmp_path, make_tasks(4), compact_every=2)
        assert (tmp_path / CheckpointStore.SNAPSHOT_NAME).exists()
        # Post-compaction journal restarts with a bare header.
        records, _ = read_journal(tmp_path / CheckpointStore.JOURNAL_NAME)
        assert records[0]["type"] == "header"
        store = CheckpointStore(tmp_path)
        recovered = store.recover(workload_fingerprint(tasks))
        assert [r["task"] for r in recovered.finished_records] == [
            0, 1, 2, 3,
        ]
        assert recovered.snapshot_tasks >= 2

    def test_workload_mismatch_is_loud(self, tmp_path):
        self._run_master(tmp_path)
        other = workload_fingerprint(make_tasks(5))
        store = CheckpointStore(tmp_path)
        with pytest.raises(JournalError, match="different workload"):
            store.recover(other)

    def test_open_heals_torn_tail(self, tmp_path):
        tasks = self._run_master(tmp_path)
        path = tmp_path / CheckpointStore.JOURNAL_NAME
        intact = path.read_bytes()
        path.write_bytes(intact + b'{"type":"assign","ta')
        store = CheckpointStore(tmp_path)
        recovered = store.open(workload_fingerprint(tasks))
        store.close()
        assert recovered.torn_tail
        assert len(recovered.finished_records) == 3
        # The torn bytes are gone; the journal is clean again.
        scan = scan_journal(path)
        assert scan.ok and not scan.torn

    def test_unsupported_schema_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        tmp_path.mkdir(exist_ok=True)
        with Journal(tmp_path / CheckpointStore.JOURNAL_NAME) as journal:
            journal.append({"type": "header", "schema": "bogus.v9"})
        with pytest.raises(JournalError, match="unsupported journal schema"):
            store.recover()

    def test_double_open_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.open(workload_fingerprint(make_tasks(1)))
        try:
            with pytest.raises(JournalError, match="already open"):
                store.open(workload_fingerprint(make_tasks(1)))
        finally:
            store.close()


# ----------------------------------------------------------------------
# Pool/master recovery primitives
# ----------------------------------------------------------------------
class TestRestorePrimitives:
    def test_restore_finished_on_ready_task(self):
        master = Master(make_tasks(2), policy=SelfScheduling())
        assert master.pool.restore_finished(0, "pe0")
        assert master.pool.num_ready == 1
        assert master.pool.executors(0) == frozenset({"pe0"})

    def test_restore_finished_twice_is_noop(self):
        master = Master(make_tasks(1), policy=SelfScheduling())
        assert master.pool.restore_finished(0, "pe0")
        assert not master.pool.restore_finished(0, "pe1")

    def test_restore_executing_task_raises(self):
        master = Master(make_tasks(1), policy=SelfScheduling())
        master.register("a")
        master.on_request("a", 0.0)
        with pytest.raises(TaskPoolError, match="cannot restore"):
            master.pool.restore_finished(0, "pe0")

    def test_restore_result_records_event(self):
        master = Master(make_tasks(1), policy=SelfScheduling())
        assert master.restore_result(result_for(0))
        assert not master.restore_result(result_for(0))  # idempotent
        assert master.results[0].task_id == 0
        assert any(
            e["kind"] == "recovery_task" for e in master.events
        )

    def test_restored_tasks_never_reassigned(self):
        master = Master(make_tasks(3), policy=SelfScheduling())
        master.restore_result(result_for(1))
        master.register("a")
        seen = []
        now = 0.0
        while not master.finished:
            now += 1.0
            grant = master.on_request("a", now)
            if grant.done:
                break
            for task in (*grant.tasks, *grant.replicas):
                seen.append(task.task_id)
                master.on_complete("a", result_for(task.task_id, "a"), now)
        assert 1 not in seen
        assert sorted(master.results) == [0, 1, 2]


# ----------------------------------------------------------------------
# Threaded runtime: crash mid-run, resume from the journal
# ----------------------------------------------------------------------
class TestThreadedCrashResume:
    def _workload(self):
        import numpy as np

        from repro.sequences import query_set, random_database

        rng = np.random.default_rng(31)
        queries = query_set(6, rng, min_length=20, max_length=40)
        database = random_database(25, 50.0, rng, name="durdb")
        return queries, database

    def _engines(self):
        from repro.align import BLOSUM62, DEFAULT_GAPS
        from repro.core import ScanEngine, StripedSSEEngine

        return {
            "sse0": StripedSSEEngine(BLOSUM62, DEFAULT_GAPS, chunk_size=8),
            "scan0": ScanEngine(BLOSUM62, DEFAULT_GAPS, chunk_size=8),
        }

    def test_kill_master_then_resume_matches_baseline(self, tmp_path):
        from repro.core import HybridRuntime

        queries, database = self._workload()
        baseline = HybridRuntime(self._engines()).run(queries, database)

        plan = FaultPlan(
            seed=3, master_crash=MasterCrashFault(at_time=0.05)
        )
        with pytest.raises(MasterCrashed):
            HybridRuntime(
                self._engines(), faults=plan,
                checkpoint_dir=str(tmp_path),
            ).run(queries, database)

        resumed = HybridRuntime(
            self._engines(),
            faults=plan.without_master_crash(),
            checkpoint_dir=str(tmp_path),
        ).run(queries, database)
        assert hit_projection(resumed.results) == hit_projection(
            baseline.results
        )
        kinds = [e["kind"] for e in resumed.events]
        assert kinds.count("recovery_resume") == 1
        # Zero finished tasks re-executed: no restored task is ever
        # (re)assigned in the resumed run.
        restored = {
            e["task"]
            for e in resumed.events
            if e["kind"] == "recovery_task"
        }
        assigned = {
            e["task"]
            for e in resumed.events
            if e["kind"] in ("assign", "replica")
        }
        assert restored.isdisjoint(assigned)

    def test_clean_resume_of_finished_run_executes_nothing(self, tmp_path):
        from repro.core import HybridRuntime

        queries, database = self._workload()
        first = HybridRuntime(
            self._engines(), checkpoint_dir=str(tmp_path)
        ).run(queries, database)
        resumed = HybridRuntime(
            self._engines(), checkpoint_dir=str(tmp_path)
        ).run(queries, database)
        assert hit_projection(resumed.results) == hit_projection(
            first.results
        )
        kinds = [e["kind"] for e in resumed.events]
        assert "assign" not in kinds and "replica" not in kinds

    def test_wrong_workload_is_rejected(self, tmp_path):
        from repro.core import HybridRuntime

        queries, database = self._workload()
        HybridRuntime(
            self._engines(), checkpoint_dir=str(tmp_path)
        ).run(queries, database)
        with pytest.raises(JournalError, match="different workload"):
            HybridRuntime(
                self._engines(), checkpoint_dir=str(tmp_path)
            ).run(queries[:3], database)


# ----------------------------------------------------------------------
# DES: modeled master crash + recovery
# ----------------------------------------------------------------------
class TestDESMasterCrash:
    def _platform(self):
        from repro.simulate import PESpec, UniformModel

        return [
            PESpec("gpu0", UniformModel(rate=30e9)),
            PESpec("sse0", UniformModel(rate=10e9)),
            PESpec("sse1", UniformModel(rate=10e9)),
        ]

    def _tasks(self, n=12):
        return [
            Task(task_id=i, query_id=f"q{i}", query_length=300,
                 cells=2_000_000_000, query_index=i)
            for i in range(n)
        ]

    def test_crash_requires_checkpoint_dir(self):
        from repro.simulate import HybridSimulator

        plan = FaultPlan(master_crash=MasterCrashFault(at_time=0.1))
        sim = HybridSimulator(self._platform(), faults=plan)
        with pytest.raises(ValueError, match="checkpoint_dir"):
            sim.run(self._tasks())

    def test_crash_recovery_completes_without_recompute(self, tmp_path):
        from repro.simulate import HybridSimulator

        baseline = HybridSimulator(self._platform()).run(self._tasks())
        assert sorted(baseline.results) == list(range(12))

        plan = FaultPlan(
            master_crash=MasterCrashFault(
                at_time=baseline.makespan / 2, recovery_after=0.3
            )
        )
        report = HybridSimulator(
            self._platform(), faults=plan,
            checkpoint_dir=str(tmp_path),
        ).run(self._tasks())

        # Identical merged outcome: every task finished exactly once.
        assert sorted(report.results) == sorted(baseline.results)
        events = list(report.events)
        kinds = [e["kind"] for e in events]
        assert kinds.count("fault_master_crash") == 1
        assert kinds.count("recovery_resume") == 1
        restored = {
            e["task"] for e in events if e["kind"] == "recovery_task"
        }
        assert restored  # the crash happened mid-run, work existed
        crash_time = next(
            e["time"] for e in events
            if e["kind"] == "fault_master_crash"
        )
        reassigned_after = {
            e["task"]
            for e in events
            if e["kind"] in ("assign", "replica")
            and e["time"] > crash_time
        }
        assert restored.isdisjoint(reassigned_after)
        # The outage costs time but the run still finishes.
        assert report.makespan >= baseline.makespan

    def test_crash_near_end_still_finishes(self, tmp_path):
        from repro.simulate import HybridSimulator

        baseline = HybridSimulator(self._platform()).run(self._tasks())
        plan = FaultPlan(
            master_crash=MasterCrashFault(
                at_time=baseline.makespan * 0.9, recovery_after=0.1
            )
        )
        report = HybridSimulator(
            self._platform(), faults=plan,
            checkpoint_dir=str(tmp_path),
        ).run(self._tasks())
        assert sorted(report.results) == list(range(12))


# ----------------------------------------------------------------------
# Cluster: kill the master server, restart from the checkpoint
# ----------------------------------------------------------------------
class TestClusterKillRestart:
    def _tasks(self, n=3):
        return [
            Task(task_id=i, query_id=f"q{i}", query_length=10,
                 cells=100, query_index=i)
            for i in range(n)
        ]

    def test_restarted_master_adopts_journal(self, tmp_path):
        from repro.cluster import MasterServer, recv_message, send_message
        from repro.cluster.protocol import PROTOCOL_VERSION

        tasks = self._tasks()
        server = MasterServer(
            tasks, policy=SelfScheduling(), checkpoint=str(tmp_path)
        )
        server.start()
        try:
            host, port = server.address
            with socket.create_connection((host, port), timeout=10) as sock:
                reader = sock.makefile("rb")
                send_message(sock, {"type": "register", "pe_id": "w0",
                                    "protocol": PROTOCOL_VERSION})
                recv_message(reader)
                send_message(sock, {"type": "request", "pe_id": "w0"})
                reply = recv_message(reader)
                task_id = reply["tasks"][0]["task_id"]
                send_message(sock, {
                    "type": "complete", "pe_id": "w0",
                    "task_id": task_id, "elapsed": 0.1, "cells": 100,
                    "hits": [],
                })
                recv_message(reader)
        finally:
            server.stop()  # the "kill": master process goes away

        revived = MasterServer(
            self._tasks(), policy=SelfScheduling(),
            checkpoint=str(tmp_path),
        )
        revived.start()
        try:
            with revived.lock:
                assert task_id in revived.master.results
                assert revived.master.pool.num_ready == 2
            kinds = [e["kind"] for e in revived.events]
            assert kinds.count("recovery_resume") == 1
        finally:
            revived.stop()

    def test_kill_and_restart_run_matches_baseline(self, tmp_path):
        """End-to-end: run the cluster twice over one checkpoint dir;
        the second incarnation only executes what the first left."""
        import numpy as np

        from repro.cluster import run_cluster
        from repro.sequences import query_set, random_database

        rng = np.random.default_rng(47)
        queries = query_set(4, rng, min_length=20, max_length=40)
        database = random_database(16, 50.0, rng, name="durcluster")
        workers = {"sse0": "sse", "scan0": "scan"}

        baseline = run_cluster(
            queries, database, dict(workers),
            use_processes=False, timeout=60,
        )
        first = run_cluster(
            queries, database, dict(workers),
            use_processes=False, timeout=60,
            checkpoint_dir=str(tmp_path),
        )
        assert hit_projection(first.results) == hit_projection(
            baseline.results
        )
        resumed = run_cluster(
            queries, database, dict(workers),
            use_processes=False, timeout=60,
            checkpoint_dir=str(tmp_path),
        )
        assert hit_projection(resumed.results) == hit_projection(
            baseline.results
        )
        kinds = [e["kind"] for e in resumed.events]
        assert kinds.count("recovery_resume") == 1
        assert "assign" not in kinds  # nothing re-executed


# ----------------------------------------------------------------------
# Trace analysis: recovered vs recomputed
# ----------------------------------------------------------------------
class TestTraceRecoveryReport:
    def test_recovery_section(self, tmp_path):
        from repro.observability import analyze_events, format_report
        from repro.simulate import HybridSimulator, PESpec, UniformModel

        platform = [PESpec("gpu0", UniformModel(rate=30e9))]
        tasks = [
            Task(task_id=i, query_id=f"q{i}", query_length=300,
                 cells=2_000_000_000, query_index=i)
            for i in range(6)
        ]
        baseline = HybridSimulator(platform).run(list(tasks))
        plan = FaultPlan(
            master_crash=MasterCrashFault(
                at_time=baseline.makespan / 2, recovery_after=0.2
            )
        )
        report = HybridSimulator(
            platform, faults=plan, checkpoint_dir=str(tmp_path)
        ).run(list(tasks))
        analysis = analyze_events(report.events)
        recovery = analysis.recovery
        assert recovery["resumes"] == 1
        assert recovery["master_crashes"] == 1
        assert recovery["recovered_tasks"] >= 1
        assert (
            recovery["recovered_tasks"] + recovery["recomputed_tasks"]
            >= len(tasks)
        )
        assert analysis.to_document()["recovery"] == recovery
        assert "checkpoint resume" in format_report(analysis)

    def test_fault_free_run_reports_zeros(self):
        from repro.observability import analyze_events, format_report
        from repro.simulate import HybridSimulator, PESpec, UniformModel

        platform = [PESpec("gpu0", UniformModel(rate=30e9))]
        tasks = make_tasks(3)
        report = HybridSimulator(platform).run(tasks)
        analysis = analyze_events(report.events)
        assert analysis.recovery["resumes"] == 0
        assert analysis.recovery["master_crashes"] == 0
        assert "checkpoint resume" not in format_report(analysis)


# ----------------------------------------------------------------------
# CLI: repro journal inspect|verify
# ----------------------------------------------------------------------
class TestJournalCLI:
    @pytest.fixture()
    def checkpoint(self, tmp_path):
        tasks = make_tasks(2)
        store = CheckpointStore(tmp_path)
        store.open(workload_fingerprint(tasks))
        master = Master(tasks, policy=SelfScheduling(), journal=store)
        master.register("pe0", now=0.0)
        now = 0.0
        while not master.finished:
            now += 1.0
            grant = master.on_request("pe0", now)
            if grant.done:
                break
            for task in (*grant.tasks, *grant.replicas):
                master.on_complete("pe0", result_for(task.task_id), now)
        store.close()
        return tmp_path

    def test_verify_clean_journal(self, checkpoint, capsys):
        from repro.cli import main

        assert main(["journal", "verify", str(checkpoint)]) == 0
        out = capsys.readouterr().out
        assert "records ok" in out
        assert "finished tasks: 2" in out

    def test_verify_detects_corruption(self, checkpoint, capsys):
        from repro.cli import main

        path = checkpoint / CheckpointStore.JOURNAL_NAME
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1][:-4] + b"beef"
        path.write_bytes(b"\n".join(lines))
        assert main(["journal", "verify", str(checkpoint)]) == 1
        err = capsys.readouterr().err
        assert "corrupt record at line 2" in err

    def test_verify_reports_torn_tail(self, checkpoint, capsys):
        from repro.cli import main

        path = checkpoint / CheckpointStore.JOURNAL_NAME
        path.write_bytes(path.read_bytes()[:-7])
        assert main(["journal", "verify", str(checkpoint)]) == 0
        assert "torn final record" in capsys.readouterr().out

    def test_inspect_text_and_json(self, checkpoint, capsys):
        from repro.cli import main

        assert main(["journal", "inspect", str(checkpoint)]) == 0
        out = capsys.readouterr().out
        assert "complete" in out and "pe0" in out

        assert main([
            "journal", "inspect", str(checkpoint), "--format", "json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["records_by_type"]["complete"] == 2
        assert document["finished_tasks"] == [0, 1]
        assert document["pes"] == ["pe0"]

    def test_inspect_accepts_journal_file_path(self, checkpoint, capsys):
        from repro.cli import main

        journal = checkpoint / CheckpointStore.JOURNAL_NAME
        assert main(["journal", "verify", str(journal)]) == 0

    def test_missing_journal_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "journal", "verify", str(tmp_path / "nowhere"),
        ]) == 1

    def test_search_checkpoint_flag(self, tmp_path, capsys):
        import numpy as np

        from repro.cli import main
        from repro.sequences import query_set, random_database, write_fasta

        rng = np.random.default_rng(9)
        q_path = tmp_path / "q.fasta"
        db_path = tmp_path / "db.fasta"
        write_fasta(query_set(2, rng, 20, 40), q_path)
        write_fasta(random_database(10, 40.0, rng, name="db"), db_path)
        ckpt = tmp_path / "ckpt"
        assert main([
            "search", str(q_path), str(db_path),
            "--gpus", "1", "--sse", "0", "--checkpoint", str(ckpt),
        ]) == 0
        capsys.readouterr()
        assert main(["journal", "verify", str(ckpt)]) == 0
        assert "records ok" in capsys.readouterr().out
