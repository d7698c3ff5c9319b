"""Tests for the deterministic fault-injection layer (repro.faults).

The headline property (the ISSUE's chaos suite): under any bounded
random :class:`FaultPlan` that leaves at least one PE alive, every
execution environment still finishes every task, and environments that
compute real hits produce results identical to the fault-free run.
"""

import pytest

from repro.bench import uniform_tasks
from repro.faults import (
    CrashFault,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    MessageFaults,
    PartitionFault,
    StragglerFault,
)
from repro.observability import EventLog
from repro.simulate import HybridSimulator, PESpec, UniformModel


def hit_projection(results):
    """Engine-independent view of per-query hits for equality checks."""
    return {
        query_id: tuple((h.subject_index, h.score) for h in hits)
        for query_id, hits in results.items()
    }


class TestFaultPlan:
    def test_crash_needs_a_trigger(self):
        with pytest.raises(FaultPlanError):
            CrashFault(pe_id="a")

    def test_crash_validation(self):
        with pytest.raises(FaultPlanError):
            CrashFault(pe_id="a", at_time=-1.0)
        with pytest.raises(FaultPlanError):
            CrashFault(pe_id="a", after_tasks=0)
        with pytest.raises(FaultPlanError):
            CrashFault(pe_id="a", at_time=1.0, restart_after=0.0)

    def test_straggler_validation(self):
        with pytest.raises(FaultPlanError):
            StragglerFault(pe_id="a", factor=0.0)
        with pytest.raises(FaultPlanError):
            StragglerFault(pe_id="a", factor=1.5)
        with pytest.raises(FaultPlanError):
            StragglerFault(pe_id="a", factor=0.5, start=2.0, end=1.0)

    def test_message_rates_must_fit(self):
        with pytest.raises(FaultPlanError):
            MessageFaults(drop_rate=0.6, duplicate_rate=0.6)
        with pytest.raises(FaultPlanError):
            MessageFaults(drop_rate=-0.1)

    def test_partition_validation(self):
        with pytest.raises(FaultPlanError):
            PartitionFault(pe_ids=(), start=0.0, end=1.0)
        with pytest.raises(FaultPlanError):
            PartitionFault(pe_ids=("a",), start=2.0, end=1.0)

    def test_duplicate_crashes_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(crashes=(
                CrashFault(pe_id="a", at_time=1.0),
                CrashFault(pe_id="a", after_tasks=2),
            ))

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            seed=42,
            crashes=(CrashFault(pe_id="gpu0", at_time=1.5,
                                restart_after=0.5),),
            stragglers=(StragglerFault(pe_id="sse0", factor=0.5,
                                       start=0.2, end=2.0),),
            messages=MessageFaults(drop_rate=0.1, duplicate_rate=0.05,
                                   delay_rate=0.1, corrupt_rate=0.01),
            partitions=(PartitionFault(pe_ids=("sse0", "sse1"),
                                       start=1.0, end=1.5),),
        )
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_schema_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"schema": "bogus.v9"})

    def test_random_always_leaves_a_survivor(self):
        pes = ["a", "b", "c"]
        for seed in range(50):
            plan = FaultPlan.random(pes, seed=seed)
            assert plan.survivors(pes), f"seed {seed} killed every PE"

    def test_random_is_deterministic_and_bounded(self):
        pes = ["a", "b", "c", "d"]
        plan = FaultPlan.random(pes, seed=7, horizon=2.0)
        again = FaultPlan.random(pes, seed=7, horizon=2.0)
        assert plan == again
        assert plan.messages.total_rate <= 1.0
        for crash in plan.crashes:
            if crash.at_time is not None:
                assert 0.0 <= crash.at_time <= 2.0
        for partition in plan.partitions:
            assert set(partition.pe_ids) < set(pes)  # strict subset

    def test_empty_plan(self):
        assert FaultPlan().empty
        assert not FaultPlan(
            crashes=(CrashFault(pe_id="a", at_time=1.0),)
        ).empty


class TestFaultInjector:
    def test_decisions_are_per_pe_deterministic(self):
        plan = FaultPlan(seed=5, messages=MessageFaults(drop_rate=0.3,
                                                        delay_rate=0.3))
        first = FaultInjector(plan)
        second = FaultInjector(plan)
        seq_a = [first.message_action("a", "progress") for _ in range(50)]
        # Interleaving another PE's draws must not disturb PE a's.
        seq_b = []
        for i in range(50):
            second.message_action("other", "progress")
            seq_b.append(second.message_action("a", "progress"))
        assert seq_a == seq_b
        assert set(seq_a) <= {"deliver", "drop", "delay"}

    def test_crash_fires_once_even_after_restart(self):
        plan = FaultPlan(crashes=(
            CrashFault(pe_id="a", at_time=1.0, restart_after=0.5),
        ))
        injector = FaultInjector(plan)
        assert not injector.crash_due("a", now=0.5)
        assert injector.crash_due("a", now=1.2)
        assert injector.mark_crashed("a", now=1.2)
        assert injector.crashed("a")
        assert not injector.mark_crashed("a", now=1.3)  # already fired
        injector.mark_restarted("a", now=1.7)
        assert not injector.crashed("a")
        # The (elapsed) at_time trigger must not re-fire after restart.
        assert not injector.crash_due("a", now=2.0)

    def test_after_tasks_trigger(self):
        plan = FaultPlan(crashes=(CrashFault(pe_id="a", after_tasks=2),))
        injector = FaultInjector(plan)
        assert not injector.crash_due("a", now=0.0, tasks_completed=1)
        assert injector.crash_due("a", now=0.0, tasks_completed=2)

    def test_disallowed_actions_deliver(self):
        plan = FaultPlan(seed=1, messages=MessageFaults(duplicate_rate=1.0))
        injector = FaultInjector(plan)
        assert injector.message_action("a", "complete") == "duplicate"
        assert injector.message_action(
            "a", "request", allow=("drop",)
        ) == "deliver"

    def test_straggle_windows(self):
        plan = FaultPlan(stragglers=(
            StragglerFault(pe_id="a", factor=0.5, start=1.0, end=2.0),
        ))
        injector = FaultInjector(plan)
        assert injector.rate_factor("a", 0.5) == 1.0
        assert injector.rate_factor("a", 1.5) == 0.5
        assert injector.rate_factor("a", 2.5) == 1.0
        # Dilating 1s of work at factor 0.5 costs 1 extra second.
        assert injector.straggle_sleep("a", 1.5, 1.0) == pytest.approx(1.0)

    def test_partition_windows_and_events(self):
        events = EventLog()
        plan = FaultPlan(partitions=(
            PartitionFault(pe_ids=("a",), start=1.0, end=2.0),
        ))
        injector = FaultInjector(plan, events=events)
        assert injector.partition_remaining("a", 0.5) == 0.0
        assert injector.partition_remaining("a", 1.5) == pytest.approx(0.5)
        assert injector.partition_remaining("b", 1.5) == 0.0
        kinds = [e["kind"] for e in events]
        assert kinds.count("fault_partition") == 1  # recorded once

    def test_fired_faults_are_recorded(self):
        events = EventLog()
        plan = FaultPlan(seed=0, messages=MessageFaults(drop_rate=1.0))
        injector = FaultInjector(plan, events=events, clock=lambda: 3.0)
        injector.message_action("a", "progress")
        (event,) = list(events)
        assert event["kind"] == "fault_drop"
        assert event["pe"] == "a"
        assert event["message"] == "progress"
        assert event["time"] == 3.0


class TestIdempotentPool:
    def test_adopted_completion_wins(self):
        from repro.core import Master, SelfScheduling

        master = Master(uniform_tasks(2, cells=4), policy=SelfScheduling())
        master.register("w", now=0.0)
        granted = master.on_request("w", 0.0).tasks
        task_id = granted[0].task_id
        # The worker goes silent, gets reaped ... then its result lands.
        master.reap_silent(now=100.0, timeout=1.0)
        from repro.core import TaskResult

        losers = master.on_complete(
            "w", TaskResult(task_id=task_id, pe_id="w", elapsed=1.0,
                            cells=4), now=101.0,
        )
        assert losers == ()
        assert master.pool.finished_by(task_id) == "w"

    def test_duplicate_completion_is_stale(self):
        from repro.core import Master, SelfScheduling, TaskResult

        master = Master(uniform_tasks(1, cells=4), policy=SelfScheduling())
        master.register("w", now=0.0)
        task = master.on_request("w", 0.0).tasks[0]
        result = TaskResult(task_id=task.task_id, pe_id="w", elapsed=1.0,
                            cells=4)
        master.on_complete("w", result, now=1.0)
        master.on_complete("w", result, now=1.1)  # retransmission
        assert master.pool.num_finished == 1
        wins = [e for e in master.trace
                if e.kind == "complete" and e.value == 1.0]
        assert len(wins) == 1

    def test_double_release_queues_once(self):
        from repro.core.task import TaskPool

        pool = TaskPool(uniform_tasks(1, cells=4))
        pool.acquire("w", 1)
        pool.release(0, "w")
        pool.release(0, "w")  # duplicate cancellation
        assert pool.num_ready == 1
        assert pool.acquire("x", 2) and pool.num_ready == 0

    def test_stranger_completion_still_rejected_without_adopt(self):
        from repro.core.task import TaskPool, TaskPoolError

        pool = TaskPool(uniform_tasks(1, cells=4))
        pool.acquire("w", 1)
        with pytest.raises(TaskPoolError):
            pool.complete(0, "stranger")
        first, _ = pool.complete(0, "stranger", adopt=True)
        assert first


class TestSimulatedChaos:
    """DES chaos: virtual time makes these fast and fully deterministic."""

    PES = ("gpu0", "sse0", "sse1")

    def _platform(self):
        return [
            PESpec("gpu0", UniformModel(rate=30.0)),
            PESpec("sse0", UniformModel(rate=10.0)),
            PESpec("sse1", UniformModel(rate=10.0)),
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_random_plan_finishes_every_task(self, seed):
        tasks = uniform_tasks(12, cells=20)
        plan = FaultPlan.random(list(self.PES), seed=seed, horizon=2.0)
        report = HybridSimulator(self._platform(), faults=plan).run(tasks)
        assert sum(report.tasks_won.values()) == 12
        winners = [e for e in report.trace
                   if e.kind == "complete" and e.value == 1.0]
        assert len(winners) == 12  # each task finished exactly once

    def test_fault_free_plan_changes_nothing(self):
        tasks = uniform_tasks(8, cells=10)
        baseline = HybridSimulator(self._platform()).run(tasks)
        nofault = HybridSimulator(
            self._platform(), faults=FaultPlan()
        ).run(tasks)
        assert nofault.makespan == pytest.approx(baseline.makespan)
        assert nofault.tasks_won == baseline.tasks_won

    def test_chaos_is_deterministic(self):
        tasks = uniform_tasks(10, cells=15)
        plan = FaultPlan.random(list(self.PES), seed=9, horizon=2.0)
        first = HybridSimulator(self._platform(), faults=plan).run(tasks)
        second = HybridSimulator(self._platform(), faults=plan).run(tasks)
        assert first.makespan == second.makespan
        assert len(first.trace) == len(second.trace)
        assert [e["kind"] for e in first.events] == [
            e["kind"] for e in second.events
        ]

    def test_crash_recovery_via_heartbeat(self):
        tasks = uniform_tasks(10, cells=20)
        plan = FaultPlan(crashes=(CrashFault(pe_id="gpu0", at_time=0.3),))
        report = HybridSimulator(self._platform(), faults=plan).run(tasks)
        assert sum(report.tasks_won.values()) == 10
        assert report.tasks_won["gpu0"] < 10  # it really died
        kinds = [e["kind"] for e in report.events]
        assert "fault_crash" in kinds
        dereg = [e for e in report.events if e["kind"] == "deregister"]
        assert any(e.get("reason") == "reap" for e in dereg)

    def test_restart_rejoins_and_contributes(self):
        tasks = uniform_tasks(30, cells=30)
        plan = FaultPlan(crashes=(
            CrashFault(pe_id="gpu0", at_time=0.2, restart_after=0.3),
        ))
        report = HybridSimulator(self._platform(), faults=plan).run(tasks)
        assert sum(report.tasks_won.values()) == 30
        registers = [e for e in report.events
                     if e["kind"] == "register" and e["pe"] == "gpu0"]
        assert len(registers) == 2  # initial + post-restart
        kinds = [e["kind"] for e in report.events]
        assert "fault_restart" in kinds
        assert report.tasks_won["gpu0"] > 0  # contributed after rejoining

    def test_straggler_sheds_load(self):
        tasks = uniform_tasks(20, cells=20)
        plan = FaultPlan(stragglers=(
            StragglerFault(pe_id="gpu0", factor=0.25, start=0.0),
        ))
        faulted = HybridSimulator(self._platform(), faults=plan).run(tasks)
        baseline = HybridSimulator(self._platform()).run(tasks)
        assert sum(faulted.tasks_won.values()) == 20
        assert faulted.tasks_won["gpu0"] < baseline.tasks_won["gpu0"]

    def test_partitioned_pe_defers_and_recovers(self):
        tasks = uniform_tasks(12, cells=20)
        plan = FaultPlan(partitions=(
            PartitionFault(pe_ids=("sse0",), start=0.2, end=1.0),
        ))
        report = HybridSimulator(self._platform(), faults=plan).run(tasks)
        assert sum(report.tasks_won.values()) == 12
        assert any(e["kind"] == "fault_partition" for e in report.events)

    def test_heartbeat_zero_disables_reaping(self):
        tasks = uniform_tasks(6, cells=10)
        plan = FaultPlan(crashes=(CrashFault(pe_id="gpu0", at_time=0.1),))
        report = HybridSimulator(
            self._platform(), faults=plan, heartbeat_timeout=0
        ).run(tasks)
        # Replica-based adjustment still saves the run, but no reap
        # deregistration ever happens.
        dereg = [e for e in report.events if e["kind"] == "deregister"]
        assert not any(e.get("reason") == "reap" for e in dereg)


class TestThreadedChaos:
    """Real engines + real threads must survive the same plans."""

    def _workload(self):
        import numpy as np

        from repro.sequences import query_set, random_database

        rng = np.random.default_rng(31)
        queries = query_set(6, rng, min_length=20, max_length=40)
        database = random_database(25, 50.0, rng, name="chaosdb")
        return queries, database

    def _engines(self):
        from repro.align import BLOSUM62, DEFAULT_GAPS
        from repro.core import ScanEngine, StripedSSEEngine

        return {
            "sse0": StripedSSEEngine(BLOSUM62, DEFAULT_GAPS, chunk_size=8),
            "scan0": ScanEngine(BLOSUM62, DEFAULT_GAPS, chunk_size=8),
            "scan1": ScanEngine(BLOSUM62, DEFAULT_GAPS, chunk_size=8),
        }

    def test_crash_run_matches_fault_free_results(self):
        from repro.core import HybridRuntime

        queries, database = self._workload()
        baseline = HybridRuntime(self._engines()).run(queries, database)
        plan = FaultPlan(seed=2, crashes=(
            CrashFault(pe_id="scan0", after_tasks=1),
        ))
        faulted = HybridRuntime(
            self._engines(), faults=plan, heartbeat_timeout=0.5
        ).run(queries, database)
        assert hit_projection(faulted.results) == hit_projection(
            baseline.results
        )
        kinds = [e["kind"] for e in faulted.events]
        assert "fault_crash" in kinds

    @pytest.mark.parametrize("seed", [21, 22])
    def test_random_plan_matches_fault_free_results(self, seed):
        from repro.core import HybridRuntime

        queries, database = self._workload()
        baseline = HybridRuntime(self._engines()).run(queries, database)
        plan = FaultPlan.random(
            list(self._engines()), seed=seed, horizon=1.0
        )
        faulted = HybridRuntime(
            self._engines(), faults=plan, heartbeat_timeout=0.5
        ).run(queries, database)
        assert hit_projection(faulted.results) == hit_projection(
            baseline.results
        )


class TestClusterChaos:
    """The TCP transport under the same plans (thread-mode workers)."""

    def _workload(self):
        import numpy as np

        from repro.sequences import query_set, random_database

        rng = np.random.default_rng(47)
        queries = query_set(5, rng, min_length=20, max_length=40)
        database = random_database(20, 50.0, rng, name="clchaos")
        return queries, database

    WORKERS = {"sse0": "sse", "scan0": "scan", "scan1": "scan"}

    def test_crash_run_matches_fault_free_results(self):
        from repro.cluster import run_cluster

        queries, database = self._workload()
        baseline = run_cluster(
            queries, database, dict(self.WORKERS),
            use_processes=False, timeout=60,
        )
        plan = FaultPlan(seed=3, crashes=(
            CrashFault(pe_id="scan1", after_tasks=1),
        ))
        faulted = run_cluster(
            queries, database, dict(self.WORKERS),
            use_processes=False, timeout=60,
            heartbeat_timeout=0.5, faults=plan,
        )
        assert hit_projection(faulted.results) == hit_projection(
            baseline.results
        )
        assert any(
            e["kind"] == "fault_crash" for e in faulted.events
        )

    def test_random_plan_matches_fault_free_results(self):
        from repro.cluster import run_cluster

        queries, database = self._workload()
        baseline = run_cluster(
            queries, database, dict(self.WORKERS),
            use_processes=False, timeout=60,
        )
        plan = FaultPlan.random(
            list(self.WORKERS), seed=11, horizon=1.0
        )
        faulted = run_cluster(
            queries, database, dict(self.WORKERS),
            use_processes=False, timeout=90,
            heartbeat_timeout=0.5, faults=plan,
        )
        assert hit_projection(faulted.results) == hit_projection(
            baseline.results
        )


def _small_workload(seed):
    import numpy as np

    from repro.sequences import query_set, random_database

    rng = np.random.default_rng(seed)
    queries = query_set(4, rng, min_length=20, max_length=40)
    database = random_database(16, 50.0, rng, name="gatedb")
    return queries, database


class TestMessageGate:
    """The slave loop's one fault gate, over a counting stub master."""

    class CountingMaster:
        """Stands in for ``SharedMaster``: one task per grant, and a
        record of every message that reaches it."""

        def __init__(self, tasks):
            self.pending = list(tasks)
            self.received = []

        def clock(self):
            return 0.0

        def request(self, pe_id, now):
            from repro.core.master import Assignment

            self.received.append(("request", None))
            if self.pending:
                return Assignment(tasks=(self.pending.pop(0),)), [], {}
            return Assignment(done=True), [], {}

        def progress(self, pe_id, now, cells, interval):
            self.received.append(("progress", cells))
            return []

        def complete(self, pe_id, result, now):
            self.received.append(("complete", result))
            return []

        def cancelled(self, pe_id, task_id, now):
            self.received.append(("cancelled", task_id))
            return []

    def test_duplicates_complete_but_never_request(self):
        from repro.align import BLOSUM62, DEFAULT_GAPS
        from repro.core import ScanEngine
        from repro.core.runtime import LocalLink, build_tasks
        from repro.core.slave import serve

        queries, database = _small_workload(3)
        tasks = build_tasks(queries, database)
        master = self.CountingMaster(tasks)
        link = LocalLink("pe0", master, queries, [0], batch=1)
        injector = FaultInjector(
            FaultPlan(seed=0, messages=MessageFaults(duplicate_rate=1.0))
        )
        completed = serve(
            link,
            ScanEngine(BLOSUM62, DEFAULT_GAPS, chunk_size=8),
            [database],
            clock=master.clock,
            injector=injector,
        )
        assert completed == link.tasks_done == len(tasks)
        kinds = [kind for kind, _ in master.received]
        # One request per poll: a grant per task, then "done".
        assert kinds.count("request") == len(tasks) + 1
        assert kinds.count("progress") % 2 == 0
        completes = [body for kind, body in master.received
                     if kind == "complete"]
        assert len(completes) == 2 * len(tasks)
        assert completes[0::2] == completes[1::2]
        assert [r.task_id for r in completes[0::2]] == [
            t.task_id for t in tasks
        ]

    def test_lossy_kinds_are_lost_and_required_kinds_retransmitted(self):
        from repro.core.slave import message_gate

        class Link:
            pe_id = "pe0"

        injector = FaultInjector(
            FaultPlan(seed=0, messages=MessageFaults(drop_rate=1.0))
        )
        send = message_gate(Link(), injector, lambda: 0.0)
        calls = []
        for kind in ("request", "progress", "complete", "cancelled"):
            send(kind, lambda kind=kind: calls.append(kind) or kind)
        assert calls == ["complete", "cancelled"]
        # A link without a byte stream takes ``corrupt`` as a drop.
        injector = FaultInjector(
            FaultPlan(seed=0, messages=MessageFaults(corrupt_rate=1.0))
        )
        send = message_gate(Link(), injector, lambda: 0.0)
        assert send("request", lambda: "granted") is None
        assert send("complete", lambda: "acked") == "acked"


#: Every message fault at once, and nothing else.
MESSAGES_ONLY = FaultPlan(
    seed=4,
    messages=MessageFaults(
        drop_rate=0.15, duplicate_rate=0.15, delay_rate=0.1,
        delay_seconds=0.005, corrupt_rate=0.05,
    ),
)


@pytest.mark.parametrize("adjustment", [True, False])
@pytest.mark.parametrize("environment", ["threaded", "cluster"])
def test_messages_only_plan_matches_fault_free(environment, adjustment):
    """The one rule table holds in both wall-clock environments."""
    from repro.align import BLOSUM62, DEFAULT_GAPS
    from repro.cluster import run_cluster
    from repro.core import HybridRuntime, ScanEngine

    queries, database = _small_workload(41)
    pes = ("w0", "w1")

    def run(faults):
        if environment == "threaded":
            engines = {
                pe: ScanEngine(BLOSUM62, DEFAULT_GAPS, chunk_size=8)
                for pe in pes
            }
            return HybridRuntime(
                engines, adjustment=adjustment, faults=faults
            ).run(queries, database)
        return run_cluster(
            queries, database, {pe: "scan" for pe in pes},
            use_processes=False, adjustment=adjustment, timeout=60,
            faults=faults,
        )

    baseline = run(None)
    faulted = run(MESSAGES_ONLY)
    assert hit_projection(faulted.results) == hit_projection(
        baseline.results
    )
    kinds = {e["kind"] for e in faulted.events}
    assert {"fault_drop", "fault_duplicate"} <= kinds
