"""Always-on service: admission, fair dequeue, deadlines, drain.

Covers the pure layers (FairQueue, ServiceCore, the TaskPool/Master
extensions they build on) and the threaded front-end, including the
conformance guarantee: hits of admitted requests are byte-identical to
the one-shot runtime.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.align import BLOSUM62, DEFAULT_GAPS
from repro.core.engines import ScanEngine
from repro.core.master import Master
from repro.core.policies import PackageWeightedSelfScheduling
from repro.core.runtime import HybridRuntime
from repro.core.task import Task, TaskPool, TaskResult, TaskState
from repro.sequences import Sequence
from repro.sequences.synthetic import query_set, random_database
from repro.service import (
    FairQueue,
    ServiceConfig,
    ServiceCore,
    ThreadedSearchService,
)


def make_master(tasks=()):
    return Master(list(tasks), PackageWeightedSelfScheduling())


def make_task(task_id: int, cells: int = 1000) -> Task:
    return Task(
        task_id=task_id,
        query_id=f"q{task_id}",
        query_length=10,
        cells=cells,
        query_index=-1,
    )


def make_request(core: ServiceCore, tenant="t", cells=1000, **kw):
    return core.submit(tenant, "q", 10, cells, kw.pop("now", 0.0), **kw)


class _Item:
    """Minimal FairQueue element: a tenant tag plus a billed task."""

    _seq = 0

    def __init__(self, tenant: str, index: int = 0, cells: int = 1):
        type(self)._seq += 1
        self.tenant = tenant
        self.index = index
        self.task = make_task(type(self)._seq, cells=cells)


class TestFairQueue:
    def test_fifo_within_tenant(self):
        queue = FairQueue(max_depth=8)
        items = [_Item("a", i) for i in range(3)]
        for item in items:
            assert queue.offer("a", item)
        assert [queue.pop() for _ in range(3)] == items

    def test_bounded_per_tenant(self):
        queue = FairQueue(max_depth=2)
        assert queue.offer("a", _Item("a"))
        assert queue.offer("a", _Item("a"))
        assert not queue.offer("a", _Item("a"))  # lane full -> shed
        assert queue.offer("b", _Item("b"))  # other tenants unaffected

    def test_equal_weights_interleave(self):
        queue = FairQueue(max_depth=8)
        for i in range(4):
            queue.offer("a", _Item("a", i))
            queue.offer("b", _Item("b", i))
        tenants = [queue.pop().tenant for _ in range(8)]
        # Never two consecutive pops from the same tenant.
        assert all(x != y for x, y in zip(tenants, tenants[1:]))

    def test_weighted_share(self):
        queue = FairQueue(max_depth=64, weights={"heavy": 3.0})
        for i in range(30):
            queue.offer("heavy", _Item("heavy", i))
            queue.offer("light", _Item("light", i))
        first = [queue.pop().tenant for _ in range(20)]
        heavy = first.count("heavy")
        # Stride scheduling: the weight-3 tenant gets ~3/4 of service.
        assert 14 <= heavy <= 16

    def test_idle_tenant_banks_no_credit(self):
        queue = FairQueue(max_depth=64)
        for i in range(10):
            queue.offer("a", _Item("a", i))
        for _ in range(8):
            queue.pop()
        # b was idle the whole time; on arrival it must not get an
        # 8-pop catch-up burst.
        for i in range(4):
            queue.offer("b", _Item("b", i))
        tenants = [queue.pop().tenant for _ in range(4)]
        assert tenants.count("b") <= 3
        assert "a" in tenants

    def test_remove_and_cells(self):
        queue = FairQueue(max_depth=8)
        ra = _Item("a", cells=100)
        rb = _Item("b", cells=50)
        queue.offer("a", ra)
        queue.offer("b", rb)
        assert queue.queued_cells == 150
        assert queue.remove(ra)
        assert not queue.remove(ra)
        assert queue.queued_cells == 50
        assert len(queue) == 1


class TestTaskPoolExtensions:
    def test_add_appends_at_fifo_back(self):
        pool = TaskPool([make_task(0), make_task(1)])
        pool.add(make_task(2))
        order = [pool.acquire("pe", 1)[0].task_id for _ in range(3)]
        assert order == [0, 1, 2]

    def test_add_duplicate_rejected(self):
        pool = TaskPool([make_task(0)])
        with pytest.raises(ValueError):
            pool.add(make_task(0))

    def test_abandon_ready(self):
        pool = TaskPool([make_task(0)])
        assert pool.abandon(0) == ()
        assert pool.state(0) is TaskState.FINISHED
        assert pool.finished_by(0) is None
        assert pool.all_finished

    def test_abandon_executing_returns_executors(self):
        pool = TaskPool([make_task(0)])
        pool.acquire("pe1", 1)
        assert pool.abandon(0) == ("pe1",)

    def test_abandon_finished_is_none(self):
        pool = TaskPool([make_task(0)])
        pool.acquire("pe1", 1)
        pool.complete(0, "pe1")
        assert pool.abandon(0) is None
        assert pool.finished_by(0) == "pe1"  # winner stands


class TestMasterServing:
    def test_serving_master_is_not_finished_when_empty(self):
        master = make_master()
        assert master.finished  # one-shot semantics unchanged
        master.serving = True
        assert not master.finished
        master.register("pe", 0.0)
        assignment = master.on_request("pe", 0.0)
        assert assignment.empty  # wait, don't exit

    def test_add_tasks_then_complete(self):
        master = make_master()
        master.serving = True
        master.register("pe", 0.0)
        master.add_tasks([make_task(7)], now=0.0, tenant="t")
        assignment = master.on_request("pe", 0.1)
        assert [t.task_id for t in assignment.tasks] == [7]
        master.on_complete(
            "pe", TaskResult(7, "pe", elapsed=1.0, cells=1000), 1.1
        )
        assert master.pool.all_finished

    def test_abandon_emits_cancels(self):
        master = make_master()
        master.serving = True
        master.register("pe", 0.0)
        master.add_tasks([make_task(7)], now=0.0)
        master.on_request("pe", 0.1)
        executors = master.abandon(7, now=0.5, reason="deadline")
        assert executors == ("pe",)
        kinds = [e.kind for e in master.trace]
        assert "abandon" in kinds and "cancel" in kinds


class TestServiceCoreAdmission:
    def test_accept_assigns_ids_and_dispatches(self):
        core = ServiceCore(make_master(), ServiceConfig(dispatch_window=2))
        first = make_request(core, tenant="a")
        second = make_request(core, tenant="a")
        assert first.accepted and second.accepted
        assert first.request_id == "a-1"
        assert second.request_id == "a-2"
        assert core.master.pool.num_ready == 2

    def test_dispatch_window_caps_ready(self):
        core = ServiceCore(make_master(), ServiceConfig(dispatch_window=2))
        for _ in range(5):
            assert make_request(core).accepted
        assert core.master.pool.num_ready == 2
        assert len(core.queue) == 3

    def test_queue_full_shed_is_structured(self):
        config = ServiceConfig(max_queue_depth=1, dispatch_window=1)
        core = ServiceCore(make_master(), config)
        assert make_request(core).accepted  # dispatched into the pool
        assert make_request(core).accepted  # fills the only queue slot
        shed = make_request(core)
        assert not shed.accepted
        assert shed.reason == "queue_full"
        payload = shed.to_dict()
        assert payload["error"] == "overloaded"
        assert payload["retry_after"] >= config.min_retry_after

    def test_backlog_shed(self):
        config = ServiceConfig(
            max_backlog_seconds=1.0, default_rate=1000.0,
            max_queue_depth=100,
        )
        core = ServiceCore(make_master(), config)
        assert make_request(core, cells=500).accepted
        assert make_request(core, cells=5000).accepted
        shed = make_request(core, cells=500)
        assert not shed.accepted
        assert shed.reason == "backlog"
        assert shed.retry_after is not None

    def test_journaling_master_composes(self, tmp_path):
        from repro.durability import CheckpointStore
        from repro.durability.checkpoint import workload_fingerprint

        store = CheckpointStore(tmp_path / "ckpt")
        store.open(workload_fingerprint([]))
        master = make_master()
        master.journal = store
        core = ServiceCore(master, ServiceConfig())
        make_request(core)
        store.close()
        assert (tmp_path / "ckpt" / "service.jsonl").exists()

    def test_task_ids_continue_after_seed_workload(self):
        master = make_master([make_task(0), make_task(1)])
        master.register("pe", 0.0)
        core = ServiceCore(master, ServiceConfig())
        outcome = make_request(core)
        new_id = core.requests[outcome.request_id].task.task_id
        assert new_id == 2  # no aliasing with the preloaded tasks


class TestServiceCoreDeadlines:
    def _core(self, **kw):
        master = make_master()
        master.register("pe1", 0.0)
        return ServiceCore(master, ServiceConfig(**kw))

    def test_queued_request_expires_without_cancels(self):
        core = self._core(dispatch_window=1)
        first = make_request(core, deadline=1.0)  # fills the window
        second = make_request(core, deadline=1.0)  # stays queued
        assert core.requests[second.request_id].state == "queued"
        actions = core.tick(2.0)
        # Neither request ever had an executor: nothing to cancel.
        assert actions.cancels == ()
        assert core.requests[first.request_id].state == "expired"
        assert core.requests[second.request_id].state == "expired"
        assert len(core.queue) == 0

    def test_running_request_expiry_cancels_executors(self):
        core = self._core()
        outcome = make_request(core, deadline=1.0)
        task_id = core.requests[outcome.request_id].task.task_id
        core.master.on_request("pe1", 0.1)
        actions = core.tick(2.0)
        assert ("pe1", task_id) in actions.cancels
        assert core.requests[outcome.request_id].state == "expired"
        assert core.master.pool.state(task_id) is TaskState.FINISHED

    def test_replica_race_cancels_every_executor(self):
        core = self._core()
        core.master.register("pe2", 0.0)
        outcome = make_request(core, deadline=1.0)
        task_id = core.requests[outcome.request_id].task.task_id
        core.master.on_request("pe1", 0.1)
        replicas = core.master.on_request("pe2", 0.2).replicas
        assert [t.task_id for t in replicas] == [task_id]
        actions = core.tick(2.0)
        assert set(actions.cancels) == {("pe1", task_id), ("pe2", task_id)}

    def test_completion_beats_deadline(self):
        core = self._core()
        outcome = make_request(core, deadline=1.0)
        task_id = core.requests[outcome.request_id].task.task_id
        core.master.on_request("pe1", 0.1)
        core.master.on_complete(
            "pe1",
            TaskResult(task_id, "pe1", 0.4, 1000, payload=("hit",)),
            0.5,
        )
        core.tick(0.5)
        request = core.requests[outcome.request_id]
        assert request.state == "done"
        assert request.hits == ("hit",)
        assert request.latency == pytest.approx(0.5)
        # Later ticks past the deadline never expire a finished result.
        core.tick(5.0)
        assert request.state == "done"

    def test_late_tick_finalizes_before_expiring(self):
        # The completion arrived before the deadline but the service
        # only ticks afterwards: finalize wins over expire.
        core = self._core()
        outcome = make_request(core, deadline=1.0)
        task_id = core.requests[outcome.request_id].task.task_id
        core.master.on_request("pe1", 0.1)
        core.master.on_complete(
            "pe1", TaskResult(task_id, "pe1", 0.4, 1000, payload=()), 0.5
        )
        actions = core.tick(5.0)
        assert actions.cancels == ()
        assert core.requests[outcome.request_id].state == "done"

    def test_refill_expiry_is_reported_retired(self):
        # A submit's refill can find a queued request already past its
        # deadline; the next tick must still report it retired, or a
        # payload store keeps its query forever.
        core = self._core(dispatch_window=1)
        make_request(core)  # dispatched: fills the window
        late = make_request(core, deadline=1.0)  # stays queued
        core.master.on_request("pe1", 0.1)  # the window has room again
        make_request(core, now=2.0)  # refill expires the queued one
        request = core.requests[late.request_id]
        assert request.state == "expired"
        assert request.task.task_id in core.tick(2.0).retired

    def test_default_deadline_applies(self):
        core = self._core(default_deadline=1.0)
        outcome = make_request(core)
        core.tick(2.0)
        assert core.requests[outcome.request_id].state == "expired"


class TestServiceCoreDrain:
    def test_drain_stops_admission_and_completes(self):
        master = make_master()
        master.register("pe1", 0.0)
        core = ServiceCore(master, ServiceConfig())
        outcome = make_request(core)
        task_id = core.requests[outcome.request_id].task.task_id
        master.on_request("pe1", 0.1)
        outstanding = core.drain(0.2)
        assert outstanding == 1
        assert core.draining and not core.drained
        shed = make_request(core, now=0.3)
        assert not shed.accepted and shed.reason == "draining"
        master.on_complete(
            "pe1", TaskResult(task_id, "pe1", 0.5, 1000, payload=()), 0.7
        )
        core.tick(0.7)
        assert core.drained
        assert not master.serving
        assert master.finished
        record = core.final_record(0.8)
        assert record["kind"] == "service_final"
        assert record["drained"] is True
        assert record["requests"]["done"] == 1

    def test_drain_idempotent_and_immediate_when_idle(self):
        core = ServiceCore(make_master(), ServiceConfig())
        assert core.drain(0.0) == 0
        core.tick(0.1)
        assert core.drained
        assert core.drain(0.2) == 0  # second call is a no-op


class _SlowScan(ScanEngine):
    """Scan engine with an artificial per-task floor, to build backlog."""

    def __init__(self, delay: float, **kw):
        super().__init__(BLOSUM62, DEFAULT_GAPS, **kw)
        self.delay = delay

    def search_batch(self, *args, **kwargs):
        time.sleep(self.delay)
        return super().search_batch(*args, **kwargs)


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(11)
    database = random_database(30, 60, rng, name="svc")
    queries = query_set(6, rng, min_length=40, max_length=60)
    return database, queries


def held_query_payloads(service) -> int:
    """Admitted queries the service object itself still references.

    Counts the items of every list/dict attribute of the service and of
    its master facade that hold queries, as :class:`Sequence` objects
    or as ``{"id", "residues"}`` payloads.
    """
    held = 0
    for owner in (service, service.shared):
        for value in vars(owner).values():
            if isinstance(value, dict):
                value = list(value.values())
            if isinstance(value, list):
                held += sum(
                    1 for item in value
                    if isinstance(item, Sequence)
                    or (isinstance(item, dict) and "residues" in item)
                )
    return held


class TestThreadedService:
    def _engines(self, count=2, delay=0.0):
        if delay:
            return {
                f"pe{i}": _SlowScan(delay, chunk_size=8)
                for i in range(count)
            }
        return {
            f"pe{i}": ScanEngine(BLOSUM62, DEFAULT_GAPS, chunk_size=8)
            for i in range(count)
        }

    def test_results_match_one_shot_runtime(self, corpus):
        database, queries = corpus
        runtime = HybridRuntime(self._engines())
        oneshot = runtime.run(queries, database, top=5).results
        with ThreadedSearchService(
            self._engines(), database, top=5
        ) as service:
            outcomes = [service.submit("t", q) for q in queries]
            assert all(o.accepted for o in outcomes)
            for query, outcome in zip(queries, outcomes):
                service.wait(outcome.request_id, timeout=30.0)
                assert service.result(outcome.request_id) == \
                    oneshot[query.id]

    def test_finished_requests_hold_no_query_payloads(self, corpus):
        # Regression: the threaded service kept every admitted query
        # for its whole life (N finished requests, N payloads held).
        database, queries = corpus
        with ThreadedSearchService(self._engines(), database) as service:
            outcomes = [service.submit("t", q) for q in queries]
            for outcome in outcomes:
                request = service.wait(outcome.request_id, timeout=30.0)
                assert request.state == "done"
            assert held_query_payloads(service) == 0

    def test_concurrent_clients_under_fast_thread_switching(self, corpus):
        # More worker and client threads than cores, switching every
        # 10 us: every request still ends done with its one-shot hits,
        # and no query payload outlives its request.
        database, queries = corpus
        oneshot = HybridRuntime(self._engines()).run(
            queries, database, top=5
        ).results
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadedSearchService(
                self._engines(count=4), database, top=5
            ) as service:
                def client(tenant: str) -> None:
                    outcomes = [service.submit(tenant, q) for q in queries]
                    for query, outcome in zip(queries, outcomes):
                        request = service.wait(outcome.request_id, 60.0)
                        results[tenant, query.id] = (
                            request.state, service.result(request.request_id)
                        )

                clients = [
                    threading.Thread(target=client, args=(f"t{k}",))
                    for k in range(3)
                ]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(timeout=120.0)
                    assert not thread.is_alive()
                assert held_query_payloads(service) == 0
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 3 * len(queries)
        for (_, query_id), (state, hits) in results.items():
            assert state == "done"
            assert hits == oneshot[query_id]

    def test_overload_sheds_with_structured_reason(self, corpus):
        database, queries = corpus
        config = ServiceConfig(max_queue_depth=1, dispatch_window=1)
        service = ThreadedSearchService(
            self._engines(count=1, delay=0.2), database, config=config
        ).start()
        try:
            outcomes = [
                service.submit("t", queries[i % len(queries)])
                for i in range(10)
            ]
            shed = [o for o in outcomes if not o.accepted]
            admitted = [o for o in outcomes if o.accepted]
            assert shed, "expected shed submissions under overload"
            assert all(o.reason == "queue_full" for o in shed)
            assert all(o.retry_after is not None for o in shed)
            for outcome in admitted:
                request = service.wait(outcome.request_id, timeout=30.0)
                assert request.state == "done"
        finally:
            service.close()

    def test_deadline_expires_running_request(self, corpus):
        database, queries = corpus
        service = ThreadedSearchService(
            self._engines(count=1, delay=0.3), database
        ).start()
        try:
            outcome = service.submit("t", queries[0], deadline=0.05)
            assert outcome.accepted
            request = service.wait(outcome.request_id, timeout=30.0)
            assert request.state == "expired"
            assert service.result(outcome.request_id) is None
        finally:
            service.close()

    def test_drain_under_load(self, corpus):
        database, queries = corpus
        service = ThreadedSearchService(
            self._engines(count=2, delay=0.05), database
        ).start()
        outcomes = [service.submit("t", q) for q in queries]
        record = service.drain(timeout=30.0)
        assert record["drained"] is True
        # Admission is closed: post-drain submissions shed loudly.
        shed = service.submit("t", queries[0])
        assert not shed.accepted and shed.reason == "draining"
        for outcome in outcomes:
            if outcome.accepted:
                assert service.poll(outcome.request_id).state == "done"
        service.close()

    def test_cancel_queued_request(self, corpus):
        database, queries = corpus
        config = ServiceConfig(dispatch_window=1)
        service = ThreadedSearchService(
            self._engines(count=1, delay=0.2), database, config=config
        ).start()
        try:
            first = service.submit("t", queries[0])
            second = service.submit("t", queries[1])
            service.cancel(second.request_id)
            request = service.wait(second.request_id, timeout=10.0)
            assert request.state == "cancelled"
            assert service.wait(first.request_id, 30.0).state == "done"
        finally:
            service.close()


class TestHelperThreadLifecycle:
    """No periodic or worker thread outlives the environment using it."""

    @staticmethod
    def _new_threads(before) -> list:
        return [
            t for t in threading.enumerate()
            if t not in before and t.is_alive()
        ]

    def test_runtime_run_leaves_no_thread(self, corpus, tmp_path):
        from repro.faults import CrashFault, FaultPlan

        database, queries = corpus
        engines = {
            f"pe{i}": ScanEngine(BLOSUM62, DEFAULT_GAPS, chunk_size=8)
            for i in range(2)
        }
        plan = FaultPlan(crashes=(CrashFault(pe_id="pe0", after_tasks=1),))
        before = set(threading.enumerate())
        report = HybridRuntime(
            engines, faults=plan, heartbeat_timeout=0.2,
            telemetry_path=str(tmp_path / "t.jsonl"),
            telemetry_interval=0.01,
        ).run(queries, database)
        assert len(report.results) == len(queries)
        assert self._new_threads(before) == []

    @pytest.mark.parametrize("stop", ["close", "crash"])
    def test_threaded_service_leaves_no_thread(self, corpus, stop):
        database, queries = corpus
        before = set(threading.enumerate())
        service = ThreadedSearchService(
            {"pe0": ScanEngine(BLOSUM62, DEFAULT_GAPS, chunk_size=8)},
            database,
        ).start()
        outcome = service.submit("t", queries[0])
        service.wait(outcome.request_id, timeout=30.0)
        getattr(service, stop)()
        assert self._new_threads(before) == []

    def test_server_stop_leaves_no_thread(self, corpus):
        from repro.cluster import MasterServer
        from repro.core.runtime import build_tasks

        database, queries = corpus
        before = set(threading.enumerate())
        server = MasterServer(
            build_tasks(queries, database), heartbeat_timeout=0.2,
            service=True,
        )
        server.start()
        server.stop()
        assert self._new_threads(before) == []
