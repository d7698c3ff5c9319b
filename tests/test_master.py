"""Unit tests for the master's scheduling logic (Fig. 4 + Section IV-A)."""

import pytest

from repro.core import (
    Master,
    PackageWeightedSelfScheduling,
    SelfScheduling,
    Task,
    TaskResult,
)


def make_tasks(n: int, cells: int = 100) -> list[Task]:
    return [
        Task(task_id=i, query_id=f"q{i}", query_length=10, cells=cells)
        for i in range(n)
    ]


def result_for(task_id: int, pe_id: str, cells: int = 100) -> TaskResult:
    return TaskResult(task_id=task_id, pe_id=pe_id, elapsed=1.0, cells=cells)


@pytest.fixture
def master():
    m = Master(make_tasks(6), policy=SelfScheduling())
    m.register("pe0")
    m.register("pe1")
    return m


class TestRegistration:
    def test_double_registration_rejected(self, master):
        with pytest.raises(ValueError):
            master.register("pe0")

    def test_register_traced(self, master):
        kinds = [e.kind for e in master.trace]
        assert kinds.count("register") == 2


class TestRequestFlow:
    def test_ss_grants_one(self, master):
        assignment = master.on_request("pe0", 0.0)
        assert [t.task_id for t in assignment.tasks] == [0]
        assert not assignment.done

    def test_completion_then_done(self, master):
        for step in range(6):
            assignment = master.on_request("pe0", float(step))
            task = assignment.tasks[0]
            master.on_complete("pe0", result_for(task.task_id, "pe0"), step + 0.5)
        final = master.on_request("pe0", 10.0)
        assert final.done
        assert master.finished

    def test_pending_bookkeeping(self, master):
        assignment = master.on_request("pe0", 0.0)
        assert master.pending_of("pe0") == (0,)
        master.on_complete("pe0", result_for(0, "pe0"), 1.0)
        assert master.pending_of("pe0") == ()

    def test_merged_results_requires_completion(self, master):
        with pytest.raises(RuntimeError):
            master.merged_results()

    def test_merged_results_ordered(self, master):
        for step in range(6):
            assignment = master.on_request("pe0", float(step))
            master.on_complete(
                "pe0", result_for(assignment.tasks[0].task_id, "pe0"), step + 0.5
            )
        merged = master.merged_results()
        assert [r.task_id for r in merged] == list(range(6))


class TestWorkloadAdjustment:
    def test_replica_when_ready_drained(self, master):
        # pe0 takes everything; pe1 then receives a replica.
        for _ in range(6):
            master.on_request("pe0", 0.0)
        assignment = master.on_request("pe1", 1.0)
        assert len(assignment.replicas) == 1
        assert not assignment.done

    def test_replica_never_duplicates_own_task(self, master):
        assignment0 = master.on_request("pe0", 0.0)
        own = assignment0.tasks[0].task_id
        # Drain the remaining ready tasks to pe1.
        for _ in range(5):
            master.on_request("pe1", 0.0)
        replica = master.on_request("pe0", 1.0).replicas[0]
        assert replica.task_id != own

    def test_adjustment_disabled_yields_wait(self):
        master = Master(make_tasks(1), policy=SelfScheduling(), adjustment=False)
        master.register("pe0")
        master.register("pe1")
        master.on_request("pe0", 0.0)
        assignment = master.on_request("pe1", 0.1)
        assert assignment.empty

    def test_first_completion_wins_and_losers_cancelled(self, master):
        master.on_request("pe0", 0.0)  # task 0 on pe0
        for _ in range(5):
            master.on_request("pe0", 0.0)
        master.on_request("pe1", 1.0)  # replica of some task on pe1
        replica_id = master.pending_of("pe1")[0]
        losers = master.on_complete("pe1", result_for(replica_id, "pe1"), 2.0)
        assert losers == ("pe0",)
        assert master.results[replica_id].pe_id == "pe1"

    def test_stale_completion_not_merged(self, master):
        master.on_request("pe0", 0.0)
        for _ in range(5):
            master.on_request("pe0", 0.0)
        master.on_request("pe1", 1.0)
        replica_id = master.pending_of("pe1")[0]
        master.on_complete("pe0", result_for(replica_id, "pe0"), 2.0)
        master.on_complete("pe1", result_for(replica_id, "pe1"), 3.0)
        assert master.results[replica_id].pe_id == "pe0"

    def test_cancelled_acknowledgement_clears_queue(self, master):
        master.on_request("pe0", 0.0)
        for _ in range(5):
            master.on_request("pe0", 0.0)
        master.on_request("pe1", 1.0)
        replica_id = master.pending_of("pe1")[0]
        master.on_complete("pe0", result_for(replica_id, "pe0"), 2.0)
        master.on_cancelled("pe1", replica_id)
        assert master.pending_of("pe1") == ()


class TestReplicaSelection:
    def test_picks_task_with_latest_estimated_finish(self):
        """The replica should duplicate the task most at risk (slow PE)."""
        master = Master(
            make_tasks(2, cells=100), policy=SelfScheduling()
        )
        for pe in ("fast", "slow", "idle"):
            master.register(pe)
        # Rates: fast 100 cells/s, slow 1 cell/s.
        master.on_progress("fast", 1.0, 100.0, 1.0)
        master.on_progress("slow", 1.0, 1.0, 1.0)
        a0 = master.on_request("fast", 1.0)
        a1 = master.on_request("slow", 1.0)
        assert a0.tasks and a1.tasks
        replica = master.on_request("idle", 2.0).replicas[0]
        assert replica.task_id == a1.tasks[0].task_id

    def test_pss_uses_progress_rates(self):
        master = Master(
            make_tasks(10), policy=PackageWeightedSelfScheduling()
        )
        master.register("gpu")
        master.register("sse")
        master.on_progress("gpu", 0.5, 600.0, 0.5)
        master.on_progress("sse", 0.5, 100.0, 0.5)
        assignment = master.on_request("gpu", 1.0)
        assert len(assignment.tasks) == 6
        assert len(master.on_request("sse", 1.0).tasks) == 1
