"""Unit tests for the task state machine (Section IV-A-3)."""

import pytest

from repro.core import Task, TaskPool, TaskState
from repro.core.task import TaskPoolError


def make_tasks(n: int) -> list[Task]:
    return [
        Task(task_id=i, query_id=f"q{i}", query_length=10, cells=100)
        for i in range(n)
    ]


@pytest.fixture
def pool():
    return TaskPool(make_tasks(5))


class TestConstruction:
    def test_all_start_ready(self, pool):
        assert pool.num_ready == 5
        assert pool.num_executing == 0
        assert pool.num_finished == 0
        for i in range(5):
            assert pool.state(i) is TaskState.READY

    def test_duplicate_ids_rejected(self):
        tasks = make_tasks(2)
        with pytest.raises(ValueError):
            TaskPool(tasks + [tasks[0]])

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            Task(task_id=0, query_id="q", query_length=-1, cells=5)


class TestAcquire:
    def test_fifo_order(self, pool):
        granted = pool.acquire("pe0", 3)
        assert [t.task_id for t in granted] == [0, 1, 2]
        assert pool.num_ready == 2
        assert pool.num_executing == 3

    def test_executors_recorded(self, pool):
        pool.acquire("pe0", 1)
        assert pool.executors(0) == frozenset({"pe0"})

    def test_acquire_more_than_available(self, pool):
        granted = pool.acquire("pe0", 99)
        assert len(granted) == 5
        assert pool.num_ready == 0

    def test_acquire_zero(self, pool):
        assert pool.acquire("pe0", 0) == []

    def test_acquire_negative_rejected(self, pool):
        with pytest.raises(ValueError):
            pool.acquire("pe0", -1)


class TestCompletion:
    def test_first_completion_wins(self, pool):
        pool.acquire("pe0", 1)
        first, losers = pool.complete(0, "pe0")
        assert first
        assert losers == ()
        assert pool.state(0) is TaskState.FINISHED
        assert pool.finished_by(0) == "pe0"

    def test_finished_is_absorbing(self, pool):
        pool.acquire("pe0", 1)
        pool.complete(0, "pe0")
        pool.release(0, "pe0")  # no-op after finish
        assert pool.state(0) is TaskState.FINISHED

    def test_stale_completion_dropped(self, pool):
        pool.acquire("pe0", 5)
        pool.complete(0, "pe0")
        first, _ = pool.complete(0, "pe0")
        assert not first

    def test_completion_by_stranger_rejected(self, pool):
        pool.acquire("pe0", 1)
        with pytest.raises(TaskPoolError):
            pool.complete(0, "pe1")

    def test_all_finished(self, pool):
        pool.acquire("pe0", 5)
        for i in range(5):
            pool.complete(i, "pe0")
        assert pool.all_finished


class TestReplication:
    def test_candidates_exclude_own_tasks(self, pool):
        pool.acquire("pe0", 2)
        candidates = pool.replica_candidates("pe0")
        assert candidates == []
        candidates = pool.replica_candidates("pe1")
        assert {t.task_id for t in candidates} == {0, 1}

    def test_assign_replica(self, pool):
        pool.acquire("pe0", 1)
        replica = pool.assign_replica("pe1", 0)
        assert replica.task_id == 0
        assert pool.executors(0) == frozenset({"pe0", "pe1"})

    def test_replica_of_ready_task_rejected(self, pool):
        with pytest.raises(TaskPoolError):
            pool.assign_replica("pe1", 0)

    def test_replica_for_existing_executor_rejected(self, pool):
        pool.acquire("pe0", 1)
        with pytest.raises(TaskPoolError):
            pool.assign_replica("pe0", 0)

    def test_losers_reported_and_cleared(self, pool):
        pool.acquire("pe0", 1)
        pool.assign_replica("pe1", 0)
        pool.assign_replica("pe2", 0)
        first, losers = pool.complete(0, "pe1")
        assert first
        assert losers == ("pe0", "pe2")
        assert pool.executors(0) == frozenset({"pe1"})


class TestRelease:
    def test_release_last_executor_requeues(self, pool):
        pool.acquire("pe0", 1)
        pool.release(0, "pe0")
        assert pool.state(0) is TaskState.READY
        assert pool.num_ready == 5
        # Requeued at the back of the FIFO.
        granted = pool.acquire("pe1", 5)
        assert granted[-1].task_id == 0

    def test_release_keeps_other_executors(self, pool):
        pool.acquire("pe0", 1)
        pool.assign_replica("pe1", 0)
        pool.release(0, "pe0")
        assert pool.state(0) is TaskState.EXECUTING
        assert pool.executors(0) == frozenset({"pe1"})

    def test_executing_tasks_listing(self, pool):
        pool.acquire("pe0", 2)
        executing = {t.task_id for t in pool.executing_tasks()}
        assert executing == {0, 1}
