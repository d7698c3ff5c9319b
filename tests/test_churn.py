"""Tests for platform churn and failure handling (paper future work)."""

import pytest

from repro.bench import uniform_tasks
from repro.core import FixedSplit, Master, SelfScheduling, Task, WeightedFixed
from repro.simulate import FPGAModel, HybridSimulator, PESpec, UniformModel


def make_tasks(n: int, cells: int = 2) -> list[Task]:
    return uniform_tasks(n, cells=cells)


class TestMasterDeregistration:
    def test_tasks_released_back_to_ready(self):
        master = Master(make_tasks(4), policy=SelfScheduling())
        master.register("a")
        master.register("b")
        master.on_request("a", 0.0)
        released = master.deregister("a", 1.0)
        assert released == (0,)
        assert master.pool.num_ready == 4  # the task went back

    def test_unknown_pe_rejected(self):
        master = Master(make_tasks(1), policy=SelfScheduling())
        with pytest.raises(KeyError):
            master.deregister("ghost")

    def test_departed_rate_forgotten(self):
        master = Master(make_tasks(4), policy=SelfScheduling())
        master.register("fast")
        master.register("slow")
        master.on_progress("fast", 1.0, 100.0, 1.0)
        master.deregister("fast", 2.0)
        assert master.history.known_rates() == {}

    def test_trace_records_departure(self):
        master = Master(make_tasks(2), policy=SelfScheduling())
        master.register("a")
        master.deregister("a", 5.0)
        assert any(e.kind == "deregister" for e in master.trace)


class TestHeartbeats:
    def test_silent_pe_reaped(self):
        master = Master(make_tasks(4), policy=SelfScheduling())
        master.register("chatty", now=0.0)
        master.register("silent", now=0.0)
        master.on_request("silent", 0.5)  # takes a task, then dies
        master.on_progress("chatty", 10.0, 1.0, 1.0)
        reaped = master.reap_silent(now=12.0, timeout=5.0)
        assert reaped == ("silent",)
        assert master.pool.num_ready == 4  # the dead PE's task returned

    def test_active_pe_survives(self):
        master = Master(make_tasks(2), policy=SelfScheduling())
        master.register("worker", now=0.0)
        master.on_progress("worker", 9.9, 1.0, 1.0)
        assert master.reap_silent(now=10.0, timeout=5.0) == ()
        assert master.last_contact("worker") == pytest.approx(9.9)

    def test_all_messages_refresh_contact(self):
        master = Master(make_tasks(3), policy=SelfScheduling())
        master.register("w", now=0.0)
        assignment = master.on_request("w", 1.0)
        assert master.last_contact("w") == 1.0
        from repro.core import TaskResult

        master.on_complete(
            "w",
            TaskResult(task_id=assignment.tasks[0].task_id, pe_id="w",
                       elapsed=1.0, cells=2),
            now=2.5,
        )
        assert master.last_contact("w") == 2.5

    def test_invalid_timeout(self):
        master = Master(make_tasks(1), policy=SelfScheduling())
        with pytest.raises(ValueError):
            master.reap_silent(now=1.0, timeout=0.0)

    def test_cluster_survives_worker_death_end_to_end(self):
        """A worker grabs a task and dies; the reaper frees it and a
        live worker finishes the whole workload."""
        import socket
        import threading

        import numpy as np

        from repro.align import BLOSUM62, DEFAULT_GAPS, database_search
        from repro.cluster import (
            MasterServer,
            WorkerConfig,
            recv_message,
            run_worker,
            send_message,
        )
        from repro.cluster.protocol import PROTOCOL_VERSION
        from repro.core.runtime import build_tasks
        from repro.sequences import (
            query_set,
            random_database,
            write_indexed,
        )
        import tempfile
        import os

        rng = np.random.default_rng(23)
        queries = query_set(3, rng, 20, 40)
        database = random_database(15, 40.0, rng, name="reapdb")
        with tempfile.TemporaryDirectory() as tmp:
            q_path = os.path.join(tmp, "q.seqx")
            d_path = os.path.join(tmp, "d.seqx")
            write_indexed(queries, q_path)
            write_indexed(list(database), d_path)
            server = MasterServer(
                build_tasks(queries, database),
                policy=SelfScheduling(),
                heartbeat_timeout=0.3,
            )
            server.start()
            try:
                host, port = server.address
                # The doomed worker: grabs one task, goes silent.
                doomed = socket.create_connection((host, port), timeout=10)
                reader = doomed.makefile("rb")
                send_message(doomed, {"type": "register", "pe_id": "doomed",
                                      "protocol": PROTOCOL_VERSION})
                recv_message(reader)
                send_message(doomed, {"type": "request", "pe_id": "doomed"})
                assert recv_message(reader)["tasks"]
                # The survivor does real work in a thread.
                config = WorkerConfig(
                    host=host, port=port, pe_id="survivor", engine="gpu",
                    query_path=q_path, database_path=d_path,
                )
                worker = threading.Thread(
                    target=run_worker, args=(config,), daemon=True
                )
                worker.start()
                server.wait_finished(timeout=30)
                worker.join(timeout=10)
                results = server.results()
                doomed.close()
            finally:
                server.stop()
        for query in queries:
            expected = database_search(
                query, database, BLOSUM62, DEFAULT_GAPS, top=10
            ).hits
            got = results[query.id]
            assert [(h.subject_index, h.score) for h in got] == [
                (h.subject_index, h.score) for h in expected
            ]

    def test_cluster_server_reaps_dead_worker(self):
        """A worker that registers, takes the only task and vanishes
        must not wedge the run: the reaper frees its task for a live
        worker."""
        import socket
        import threading
        import time as _time

        from repro.cluster import MasterServer, send_message, recv_message
        from repro.cluster.protocol import PROTOCOL_VERSION
        from repro.core import Task as CoreTask

        tasks = [CoreTask(task_id=0, query_id="q0", query_length=4,
                          cells=16, query_index=0)]
        server = MasterServer(
            tasks, policy=SelfScheduling(), heartbeat_timeout=0.3
        )
        server.start()
        try:
            host, port = server.address
            # The doomed worker grabs the task and goes silent.
            dead = socket.create_connection((host, port), timeout=10)
            reader = dead.makefile("rb")
            send_message(dead, {"type": "register", "pe_id": "dead",
                                "protocol": PROTOCOL_VERSION})
            recv_message(reader)
            send_message(dead, {"type": "request", "pe_id": "dead"})
            grabbed = recv_message(reader)
            assert grabbed["tasks"]
            # Wait for the reaper to notice the silence.
            deadline = _time.perf_counter() + 5.0
            while _time.perf_counter() < deadline:
                with server.lock:
                    if server.master.num_pes == 0:
                        break
                _time.sleep(0.05)
            with server.lock:
                assert server.master.pool.num_ready == 1
            dead.close()
        finally:
            server.stop()


class TestReplicaRaceWithFailures:
    """Replica races interacting with failures (master-level,
    deterministic): whichever side of the race dies, the task still
    finishes exactly once and the survivor's result wins."""

    def _master_with_replica(self):
        """One task EXECUTING on 'orig' with a replica handed to 'rep'."""
        from repro.core import Master

        master = Master(make_tasks(1, cells=10), policy=SelfScheduling())
        master.register("orig", now=0.0)
        master.register("rep", now=0.0)
        task = master.on_request("orig", 0.1).tasks[0]
        replica = master.on_request("rep", 0.2).replicas[0]
        assert replica.task_id == task.task_id
        return master, task

    def test_sole_executor_dies_after_replica_handed_out(self):
        from repro.core import TaskResult

        master, task = self._master_with_replica()
        master.reap_silent(now=100.0, timeout=1.0)  # both went silent
        # Task is back to READY; a newcomer finishes it.
        master.register("new", now=100.0)
        regrant = master.on_request("new", 100.1).tasks
        assert [t.task_id for t in regrant] == [task.task_id]
        losers = master.on_complete(
            "new",
            TaskResult(task_id=task.task_id, pe_id="new", elapsed=1.0,
                       cells=10),
            now=101.0,
        )
        assert losers == ()
        assert master.pool.finished_by(task.task_id) == "new"

    def test_original_dies_replica_wins(self):
        from repro.core import TaskResult

        master, task = self._master_with_replica()
        master.deregister("orig", 0.5, reason="reap")
        # The replica holder is now the sole executor; it must win
        # without producing any losers.
        losers = master.on_complete(
            "rep",
            TaskResult(task_id=task.task_id, pe_id="rep", elapsed=1.0,
                       cells=10),
            now=1.0,
        )
        assert losers == ()
        assert master.pool.finished_by(task.task_id) == "rep"
        assert master.pool.all_finished

    def test_replica_holder_dies_original_wins(self):
        from repro.core import TaskResult

        master, task = self._master_with_replica()
        master.deregister("rep", 0.5, reason="reap")
        losers = master.on_complete(
            "orig",
            TaskResult(task_id=task.task_id, pe_id="orig", elapsed=1.0,
                       cells=10),
            now=1.0,
        )
        assert losers == ()
        assert master.pool.finished_by(task.task_id) == "orig"

    def test_dead_original_result_adopted_if_it_arrives_first(self):
        """The reaped original's in-flight result lands before the
        replica finishes: adoption accepts it and cancels the replica."""
        from repro.core import TaskResult

        master, task = self._master_with_replica()
        master.deregister("orig", 0.5, reason="reap")
        losers = master.on_complete(
            "orig",
            TaskResult(task_id=task.task_id, pe_id="orig", elapsed=1.0,
                       cells=10),
            now=0.6,
        )
        assert losers == ("rep",)
        assert master.pool.finished_by(task.task_id) == "orig"
        # The replica's own (now stale) completion is dropped quietly.
        losers = master.on_complete(
            "rep",
            TaskResult(task_id=task.task_id, pe_id="rep", elapsed=1.0,
                       cells=10),
            now=0.7,
        )
        assert losers == ()
        assert master.pool.finished_by(task.task_id) == "orig"

    def test_simulated_crash_of_sole_executor_with_live_replica(self):
        """End-to-end in the DES: the original crashes mid-race and the
        replica carries the task home."""
        from repro.faults import CrashFault, FaultPlan

        tasks = make_tasks(6, cells=30)
        pes = [
            PESpec("doomed", UniformModel(rate=10.0)),
            PESpec("backup", UniformModel(rate=10.0)),
        ]
        plan = FaultPlan(crashes=(CrashFault(pe_id="doomed", at_time=0.5),))
        report = HybridSimulator(pes, faults=plan).run(tasks)
        assert sum(report.tasks_won.values()) == 6
        assert report.tasks_won["backup"] >= 1


class TestSimulatedChurn:
    def test_leave_mid_run_loses_no_work(self):
        pes = [
            PESpec("stable", UniformModel(rate=1.0)),
            PESpec("flaky", UniformModel(rate=1.0), leave_time=3.5),
        ]
        report = HybridSimulator(pes, comm_latency=0.0).run(make_tasks(10))
        assert sum(report.tasks_won.values()) == 10
        assert any(e.kind == "deregister" for e in report.trace)
        # The flaky PE's in-flight task shows as a cancelled interval.
        flaky = [iv for iv in report.intervals if iv.pe_id == "flaky"]
        assert any(iv.outcome == "cancelled" for iv in flaky)

    def test_late_join_contributes(self):
        pes = [
            PESpec("stable", UniformModel(rate=1.0)),
            PESpec("late", UniformModel(rate=4.0), join_time=4.0),
        ]
        report = HybridSimulator(pes, comm_latency=0.0).run(make_tasks(12))
        assert report.tasks_won["late"] > 0
        solo = HybridSimulator(
            [PESpec("stable", UniformModel(rate=1.0))], comm_latency=0.0
        ).run(make_tasks(12))
        assert report.makespan < solo.makespan

    def test_join_after_finish_is_harmless(self):
        pes = [
            PESpec("fast", UniformModel(rate=100.0)),
            PESpec("too-late", UniformModel(rate=1.0), join_time=500.0),
        ]
        report = HybridSimulator(pes, comm_latency=0.0).run(make_tasks(3))
        assert report.tasks_won["fast"] == 3

    def test_departure_of_sole_replica_holder(self):
        """A PE leaving while holding the last task: the task must be
        re-issued and finished by someone else."""
        tasks = make_tasks(2, cells=10)
        pes = [
            PESpec("leaver", UniformModel(rate=1.0), leave_time=2.0),
            PESpec("survivor", UniformModel(rate=1.0)),
        ]
        report = HybridSimulator(
            pes, comm_latency=0.0, adjustment=False
        ).run(tasks)
        assert sum(report.tasks_won.values()) == 2
        assert report.tasks_won["survivor"] >= 1

    def test_invalid_times_rejected(self):
        with pytest.raises(ValueError):
            PESpec("x", UniformModel(rate=1.0), join_time=-1.0)
        with pytest.raises(ValueError):
            PESpec("x", UniformModel(rate=1.0), join_time=5.0, leave_time=4.0)


class TestFPGAModel:
    def test_short_query_single_segment(self):
        model = FPGAModel(max_query_length=1024)
        assert model.segments(500) == 1
        task = Task(task_id=0, query_id="q", query_length=500,
                    cells=500 * 1_000_000)
        assert model.task_rate(task) == pytest.approx(25e9)

    def test_long_query_segmented(self):
        model = FPGAModel(max_query_length=1024, segment_overlap=128)
        assert model.segments(5000) > 1
        long_task = Task(task_id=0, query_id="q", query_length=5000,
                         cells=5000 * 1_000_000)
        short_task = Task(task_id=1, query_id="q", query_length=500,
                          cells=500 * 1_000_000)
        assert model.task_rate(long_task) < model.task_rate(short_task)
        assert model.task_overhead(long_task) > model.task_overhead(
            short_task
        )

    def test_hybrid_fpga_platform_runs(self):
        from repro.bench import tasks_for_profile
        from repro.sequences import ENSEMBL_DOG
        from repro.simulate import hybrid_platform

        tasks = tasks_for_profile(ENSEMBL_DOG, num_queries=10)
        pes = hybrid_platform(1, 2, num_fpgas=1)
        report = HybridSimulator(pes).run(tasks)
        assert sum(report.tasks_won.values()) == 10
        assert "fpga0" in report.tasks_won


class TestReapWithReplicaTwin:
    """Regression: reaping one executor of a replicated task must leave
    the task either executing on the twin or schedulable — never lost."""

    @staticmethod
    def _result(task_id, pe_id):
        from repro.core.task import TaskResult

        return TaskResult(
            task_id=task_id, pe_id=pe_id, elapsed=0.5, cells=100
        )

    def _master(self):
        master = Master(
            make_tasks(1), policy=SelfScheduling(), adjustment=True
        )
        master.register("a", now=0.0)
        master.register("b", now=0.0)
        grant = master.on_request("a", 0.1)
        assert [t.task_id for t in grant.tasks] == [0]
        grant = master.on_request("b", 0.2)
        assert [t.task_id for t in grant.replicas] == [0]
        return master

    def test_task_stays_with_surviving_twin(self):
        master = self._master()
        master.on_progress("b", 5.0, 100.0, 1.0)  # only b stays alive
        assert master.reap_silent(now=6.0, timeout=3.0) == ("a",)
        assert master.pool.executors(0) == frozenset({"b"})
        assert master.pool.num_ready == 0  # not double-queued
        master.on_complete("b", self._result(0, "b"), 7.0)
        assert master.finished

    def test_task_requeued_when_both_executors_reaped(self):
        master = self._master()
        assert set(master.reap_silent(now=10.0, timeout=3.0)) == {"a", "b"}
        assert master.pool.num_ready == 1  # requeued exactly once
        master.register("c", now=11.0)
        grant = master.on_request("c", 11.5)
        assert [t.task_id for t in grant.tasks] == [0]
        master.on_complete("c", self._result(0, "c"), 12.0)
        assert master.finished

    def test_reaped_pe_result_adopted_and_twin_cancelled(self):
        master = self._master()
        master.on_progress("b", 5.0, 100.0, 1.0)
        master.reap_silent(now=6.0, timeout=3.0)  # reaps a
        # a's completion was in flight: real work, adopt it.
        losers = master.on_complete("a", self._result(0, "a"), 6.5)
        assert losers == ("b",)
        assert master.finished
        assert master.results[0].pe_id == "a"

    def test_new_pe_can_replicate_after_reap(self):
        master = self._master()
        master.on_progress("b", 5.0, 100.0, 1.0)
        master.reap_silent(now=6.0, timeout=3.0)
        master.register("c", now=6.5)
        grant = master.on_request("c", 7.0)
        assert [t.task_id for t in grant.replicas] == [0]


class TestStaticPolicyAllocation:
    """FixedSplit/WeightedFixed allocation under staggered registration
    and mid-run churn, exercised in all three environments: the DES,
    the threaded runtime, and a live (threads-mode) cluster.

    The regression behind these: WFixed used to size shares against the
    currently-registered fleet, so the first worker to connect computed
    its share over a denominator of one and drained the whole pool.
    """

    def test_des_wfixed_late_joiner_gets_its_share(self):
        pes = [
            PESpec("early", UniformModel(rate=1.0)),
            PESpec("late", UniformModel(rate=1.0), join_time=2.0),
        ]
        report = HybridSimulator(
            pes,
            policy=WeightedFixed({"early": 1.0, "late": 1.0}),
            adjustment=False,
            comm_latency=0.0,
        ).run(make_tasks(10))
        # Old code: "early" requests alone at t=0, denominator is just
        # its own weight, and it takes all 10 — "late" wins nothing.
        assert report.tasks_won == {"early": 5, "late": 5}

    def test_des_fixed_split_pinned_fleet(self):
        pes = [
            PESpec("early", UniformModel(rate=1.0)),
            PESpec("late", UniformModel(rate=1.0), join_time=2.0),
        ]
        report = HybridSimulator(
            pes,
            policy=FixedSplit(num_pes=2),
            adjustment=False,
            comm_latency=0.0,
        ).run(make_tasks(10))
        assert report.tasks_won == {"early": 5, "late": 5}

    def test_des_wfixed_reap_and_replacement(self):
        """Mid-run churn: a weighted PE dies holding tasks, a fresh
        unconfigured replacement joins and absorbs the returned share.

        12 tasks at 2 cells, rate 1: "flaky" (share 6) completes two by
        t=4 and leaves at t=5; its 4 returned tasks re-queue.  "stable"
        has consumed its own 6, and its re-requests stay empty (the
        configured map still anchors its share).  "spare" joins at t=6
        with default weight 1 in a fleet of three — ceil(12/3) = 4 —
        exactly the returned tasks, so the run drains.
        """
        pes = [
            PESpec("flaky", UniformModel(rate=1.0), leave_time=5.0),
            PESpec("stable", UniformModel(rate=1.0)),
            PESpec("spare", UniformModel(rate=1.0), join_time=6.0),
        ]
        report = HybridSimulator(
            pes,
            policy=WeightedFixed({"flaky": 1.0, "stable": 1.0}),
            adjustment=False,
            comm_latency=0.0,
        ).run(make_tasks(12))
        assert sum(report.tasks_won.values()) == 12
        assert report.tasks_won["stable"] == 6  # never inflated post-reap
        assert report.tasks_won["spare"] == 4
        assert any(e.kind == "deregister" for e in report.trace)

    def test_threaded_wfixed_proportions(self):
        import numpy as np

        from repro.align import BLOSUM62, DEFAULT_GAPS
        from repro.core import (
            HybridRuntime,
            InterSequenceEngine,
            WeightedFixed as WF,
        )
        from repro.sequences import query_set, random_database

        rng = np.random.default_rng(31)
        queries = query_set(8, rng, 20, 30)
        database = random_database(12, 30.0, rng, name="wfixed-thr")
        engines = {
            "gpu0": InterSequenceEngine(BLOSUM62, DEFAULT_GAPS),
            "sse0": InterSequenceEngine(BLOSUM62, DEFAULT_GAPS),
        }
        report = HybridRuntime(
            engines,
            policy=WF({"gpu0": 3.0, "sse0": 1.0}),
            adjustment=False,
        ).run(queries, database)
        # Grants are static: whichever thread asks first, the 6/2 split
        # holds (8 * 3/4 and 8 * 1/4).
        assert report.tasks_by_pe == {"gpu0": 6, "sse0": 2}
        assert len(report.results) == 8

    def test_cluster_wfixed_staggered_registration(self):
        """Live cluster, threads mode: workers register one by one over
        TCP, and the weighted split must still hold."""
        import numpy as np

        from repro.cluster import run_cluster
        from repro.core import WeightedFixed as WF
        from repro.sequences import query_set, random_database

        rng = np.random.default_rng(37)
        queries = query_set(8, rng, 20, 30)
        database = random_database(10, 30.0, rng, name="wfixed-cluster")
        report = run_cluster(
            queries,
            database,
            workers={"gpu0": "gpu", "sse0": "sse"},
            policy=WF({"gpu0": 3.0, "sse0": 1.0}),
            adjustment=False,
            use_processes=False,
            timeout=60,
        )
        assigns: dict[str, int] = {}
        for event in report.trace:
            if event.kind == "assign":
                assigns[event.pe_id] = assigns.get(event.pe_id, 0) + 1
        assert assigns == {"gpu0": 6, "sse0": 2}
        assert len(report.results) == 8
