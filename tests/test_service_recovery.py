"""Crash-safe service recovery and SLO-driven admission.

Covers the ``repro.service_journal.v1`` codec (torn-tail tolerance,
loud mid-file corruption — property-tested like the master journal in
``test_durability.py``), cold restart of a killed service master from
the journal pair in all three environments (threaded, DES, TCP
cluster), crash-during-drain, idempotent client resubmission, and the
SLO admission gate: inert below saturation, bounding the deadline-miss
rate of admitted requests above it.
"""

import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import BLOSUM62, DEFAULT_GAPS, database_search
from repro.cluster import MasterServer, WorkerConfig, run_worker
from repro.core.engines import ScanEngine
from repro.core.master import Master
from repro.core.policies import PackageWeightedSelfScheduling
from repro.core.runtime import build_tasks
from repro.core.task import TaskResult
from repro.durability import (
    CheckpointStore,
    JournalError,
    restore_into,
    scan_journal,
    workload_fingerprint,
)
from repro.faults import FaultPlan, MasterCrashFault
from repro.sequences import query_set, random_database, write_indexed
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceCore,
    ThreadedSearchService,
)
from repro.simulate import PESpec, ServiceSimulator, UniformModel, service_arrivals


def make_sim(count=4, rate=1e6, **kw):
    pes = [PESpec(f"pe{i}", UniformModel(rate=rate)) for i in range(count)]
    kw.setdefault("database_residues", 10_000)
    return ServiceSimulator(pes, **kw)


def expected_hits(query, database, top=10):
    return database_search(
        query, database, BLOSUM62, DEFAULT_GAPS, top=top
    ).hits


# ----------------------------------------------------------------------
# Service journal codec: torn tails tolerated, corruption loud
# ----------------------------------------------------------------------
def _build_service_journal(directory, n: int = 6) -> bytes:
    """Drive the store's service hooks directly; return the raw bytes."""
    store = CheckpointStore(directory)
    store.open(workload_fingerprint([]))
    store.open_service()
    for i in range(n):
        request_id = f"t-{i + 1}"
        store.on_service_admit(
            request_id, "t", i, f"q{i}", 10, 1000, float(i),
            deadline=float(i) + 30.0,
            query={"id": f"q{i}", "residues": "ACDEFGHIKL"},
        )
        if i % 2 == 0:
            store.on_service_dispatch(request_id, float(i) + 0.25)
        if i % 3 == 0:
            store.on_service_retire(request_id, "done", float(i) + 0.5)
    store.close()
    return (directory / CheckpointStore.SERVICE_NAME).read_bytes()


class TestServiceJournalProperties:
    @settings(max_examples=25, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=2000))
    def test_any_truncation_leaves_a_valid_prefix(self, tmp_path_factory,
                                                  cut):
        directory = tmp_path_factory.mktemp("svc-torn")
        data = _build_service_journal(directory)
        path = directory / CheckpointStore.SERVICE_NAME
        cut = min(cut, len(data))
        path.write_bytes(data[:cut])
        scan = scan_journal(path)
        # Truncation can only tear the tail, never corrupt the middle.
        assert scan.ok
        assert scan.good_bytes <= cut
        state = CheckpointStore(directory).recover_service()
        # The folded prefix is internally consistent: every request
        # carries a valid lifecycle state and its admission identity.
        for request in state.requests:
            assert request["state"] in (
                "queued", "running", "done", "expired", "cancelled",
            )
            assert request["query"]["id"] == request["query_id"]

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_bit_flip_in_interior_line_is_loud(self, tmp_path_factory,
                                               data):
        directory = tmp_path_factory.mktemp("svc-flip")
        raw = _build_service_journal(directory)
        path = directory / CheckpointStore.SERVICE_NAME
        lines = raw.split(b"\n")
        # Flip a byte in any line but the last (a damaged final line is
        # the torn-tail case, tolerated by design).
        line_no = data.draw(
            st.integers(min_value=0, max_value=len(lines) - 3)
        )
        # Fixed draw range: the wall-clock anchor makes line lengths
        # vary run to run, and every record line is longer than this.
        offset = data.draw(st.integers(min_value=0, max_value=40))
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
            CheckpointStore(directory).recover_service()

    def test_open_service_heals_torn_tail(self, tmp_path):
        data = _build_service_journal(tmp_path)
        path = tmp_path / CheckpointStore.SERVICE_NAME
        path.write_bytes(data[:-9])  # tear the final record
        store = CheckpointStore(tmp_path)
        store.open(workload_fingerprint([]))
        state = store.open_service()
        store.close()
        assert state.torn_tail
        # The torn bytes are gone; the journal is clean again.
        scan = scan_journal(path)
        assert scan.ok and not scan.torn

    def test_plain_construction_refuses_dirty_store(self, tmp_path):
        _build_service_journal(tmp_path)
        store = CheckpointStore(tmp_path)
        store.open(workload_fingerprint([]))
        master = Master(
            [], PackageWeightedSelfScheduling(), journal=store
        )
        try:
            with pytest.raises(JournalError, match="recover"):
                ServiceCore(master)
        finally:
            store.close()


# ----------------------------------------------------------------------
# Crash during drain: the drain survives the restart
# ----------------------------------------------------------------------
class TestCrashDuringDrain:
    def _core_over_store(self, directory, now=0.0):
        store = CheckpointStore(directory)
        recovered = store.open(workload_fingerprint([]))
        master = Master(
            [], PackageWeightedSelfScheduling(), journal=store
        )
        if not recovered.empty:
            restore_into(master, recovered, now=now)
        core = ServiceCore.recover(
            master, store, None, now=now,
            results={r.task_id: r for r in recovered.results()},
        )
        return store, master, core

    def test_drain_state_survives_cold_restart(self, tmp_path):
        store, master, core = self._core_over_store(tmp_path)
        for i in range(2):
            outcome = core.submit(
                "t", f"q{i}", 10, 1000, 0.0, request_id=f"t-req{i}"
            )
            assert outcome.accepted
        core.drain(1.0)
        assert core.draining and not core.drained
        store.close()  # kill -9 mid-drain: no drain_complete on disk

        store, master, core = self._core_over_store(tmp_path, now=2.0)
        assert core.draining and not core.drained
        # Admission stays closed across the restart.
        late = core.submit("t", "late", 10, 1000, 2.0)
        assert not late.accepted and late.reason == "draining"
        # The re-admitted requests finish; the drain then completes
        # and the completion is journaled.
        master.register("pe0", now=2.0)
        now = 2.0
        while not core.drained:
            now += 1.0
            assert now < 60.0, "drain did not converge"
            grant = master.on_request("pe0", now)
            for task in (*grant.tasks, *grant.replicas):
                master.on_complete(
                    "pe0",
                    TaskResult(task_id=task.task_id, pe_id="pe0",
                               elapsed=0.5, cells=task.cells),
                    now,
                )
            core.tick(now)
        assert {r.state for r in core.requests.values()} == {"done"}
        store.close()
        assert CheckpointStore(tmp_path).recover_service().drained


# ----------------------------------------------------------------------
# Threaded environment: kill, cold-restart, byte-identical hits
# ----------------------------------------------------------------------
class _SlowScan(ScanEngine):
    def __init__(self, delay: float, **kw):
        super().__init__(BLOSUM62, DEFAULT_GAPS, **kw)
        self.delay = delay

    def search_batch(self, *args, **kwargs):
        import time

        time.sleep(self.delay)
        return super().search_batch(*args, **kwargs)


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(41)
    database = random_database(25, 50.0, rng, name="recov")
    queries = query_set(4, rng, min_length=40, max_length=60)
    return database, queries


def _engines(count=2, delay=0.0):
    if delay:
        return {
            f"pe{i}": _SlowScan(delay, chunk_size=8) for i in range(count)
        }
    return {
        f"pe{i}": ScanEngine(BLOSUM62, DEFAULT_GAPS, chunk_size=8)
        for i in range(count)
    }


class TestThreadedColdRestart:
    def test_crash_and_cold_restart_byte_identical(self, corpus, tmp_path):
        database, queries = corpus
        # Uninterrupted baseline over the same request ids.
        baseline = {}
        with ThreadedSearchService(_engines(), database, top=5) as svc:
            for i, query in enumerate(queries):
                outcome = svc.submit("t", query, request_id=f"t-r{i}")
                assert outcome.accepted
                svc.wait(outcome.request_id, timeout=30.0)
                baseline[outcome.request_id] = svc.result(
                    outcome.request_id
                )

        # Crashed run: the first two finish, the last two are still
        # queued/running behind one slow engine when the kill lands.
        svc = ThreadedSearchService(
            _engines(count=1, delay=0.1), database, top=5,
            checkpoint_dir=str(tmp_path / "ckpt"),
        ).start()
        for i, query in enumerate(queries[:2]):
            outcome = svc.submit("t", query, request_id=f"t-r{i}")
            svc.wait(outcome.request_id, timeout=30.0)
        for i, query in enumerate(queries[2:], start=2):
            assert svc.submit(
                "t", query, request_id=f"t-r{i}"
            ).accepted
        svc.crash()

        revived = ThreadedSearchService(
            _engines(), database, top=5,
            checkpoint_dir=str(tmp_path / "ckpt"),
        ).start()
        try:
            # Finished requests readopt their journaled hits; the rest
            # re-execute — every one byte-identical to the baseline.
            for request_id, hits in baseline.items():
                request = revived.wait(request_id, timeout=30.0)
                assert request.state == "done"
                assert revived.result(request_id) == hits
            kinds = [e["kind"] for e in revived.master.events]
            assert kinds.count("service_recovery") == 1
        finally:
            revived.close()

    def test_resubmission_after_restart_is_idempotent(self, corpus,
                                                      tmp_path):
        database, queries = corpus
        svc = ThreadedSearchService(
            _engines(count=1, delay=0.1), database,
            checkpoint_dir=str(tmp_path / "ckpt"),
        ).start()
        assert svc.submit("t", queries[0], request_id="t-keep").accepted
        svc.crash()

        revived = ThreadedSearchService(
            _engines(), database,
            checkpoint_dir=str(tmp_path / "ckpt"),
        ).start()
        try:
            # The recovered admission answers the retry; no duplicate.
            again = revived.submit(
                "t", queries[0], request_id="t-keep"
            )
            assert again.accepted and again.request_id == "t-keep"
            assert len(revived.core.requests) == 1
            assert revived.wait("t-keep", timeout=30.0).state == "done"
        finally:
            revived.close()

    def test_expired_during_outage_cancelled_loudly(self, corpus,
                                                    tmp_path):
        import time

        database, queries = corpus
        svc = ThreadedSearchService(
            _engines(count=1, delay=0.5), database,
            checkpoint_dir=str(tmp_path / "ckpt"),
        ).start()
        assert svc.submit(
            "t", queries[0], deadline=0.2, request_id="t-doomed"
        ).accepted
        svc.crash()
        time.sleep(0.25)  # the outage outlives the deadline

        revived = ThreadedSearchService(
            _engines(), database,
            checkpoint_dir=str(tmp_path / "ckpt"),
        ).start()
        try:
            assert revived.poll("t-doomed").state == "expired"
            expirations = [
                e for e in revived.master.events
                if e["kind"] == "expired"
                and e.get("reason") == "expired_during_outage"
            ]
            assert len(expirations) == 1
        finally:
            revived.close()


# ----------------------------------------------------------------------
# DES environment: random kill points, including mid-drain
# ----------------------------------------------------------------------
class TestDESKillPoints:
    @pytest.mark.parametrize("crash_at", [3.0, 10.5])
    def test_kill_point_recovers_and_drains(self, tmp_path, crash_at):
        # 10.5 lands after drain_at: the crash interrupts the drain
        # itself, and the restored core must still finish it.
        plan = FaultPlan(
            master_crash=MasterCrashFault(
                at_time=crash_at, recovery_after=1.5
            )
        )
        sim = make_sim(
            count=2, faults=plan, checkpoint_dir=str(tmp_path / "ckpt")
        )
        arrivals = service_arrivals(3.0, 10.0, np.random.default_rng(5))
        report = sim.run_service(
            arrivals, ServiceConfig(max_queue_depth=64), drain_at=10.0
        )
        assert report.completed == report.admitted
        assert report.drained_at is not None and report.drained_at >= 10.0
        kinds = [e.get("kind") for e in report.events]
        assert kinds.count("service_recovery") == 1


# ----------------------------------------------------------------------
# Cluster environment: kill the server, restart on the checkpoint dir
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cluster_workload(tmp_path_factory):
    rng = np.random.default_rng(43)
    queries = query_set(2, rng, min_length=30, max_length=50)
    database = random_database(25, 50.0, rng, name="recov-db")
    root = tmp_path_factory.mktemp("recov-svc")
    q_path = str(root / "q.seqx")
    d_path = str(root / "d.seqx")
    write_indexed(queries, q_path)
    write_indexed(list(database), d_path)
    return queries, database, q_path, d_path


class TestClusterColdRestart:
    def test_killed_master_recovers_requests_from_journal(
        self, cluster_workload, tmp_path
    ):
        queries, database, q_path, d_path = cluster_workload
        ckpt = str(tmp_path / "ckpt")
        server = MasterServer(
            build_tasks(queries, database), service=True,
            checkpoint=ckpt, heartbeat_timeout=1.0,
        )
        server.start()
        rng = np.random.default_rng(3)
        probes = query_set(3, rng, min_length=40, max_length=60)
        host, port = server.address
        with ServiceClient(host, port) as client:
            ids = [
                client.submit(
                    q, tenant="cold", request_id=f"cold-{i}"
                )["request_id"]
                for i, q in enumerate(probes)
            ]
        server.stop()  # the kill: no drain, no worker ever connected

        revived = MasterServer(
            build_tasks(queries, database), service=True,
            checkpoint=ckpt, heartbeat_timeout=1.0,
        )
        revived.start()
        host, port = revived.address
        worker_config = WorkerConfig(
            host=host, port=port, pe_id="w0", engine="scan",
            query_path=q_path, database_path=d_path,
        )
        worker = threading.Thread(
            target=run_worker, args=(worker_config,), daemon=True
        )
        worker.start()
        try:
            with ServiceClient(host, port) as client:
                # A resubmitted recovered id is acknowledged, not
                # admitted twice.
                again = client.submit(
                    probes[0], tenant="cold", request_id="cold-0"
                )
                assert again["type"] == "accepted"
                assert again["request_id"] == "cold-0"
                for query, request_id in zip(probes, ids):
                    status = client.wait(request_id, timeout=90)
                    assert status["state"] == "done"
                    assert status["hits"] == expected_hits(
                        query, database
                    )
                client.drain()
            revived.wait_drained(timeout=90)
            worker.join(timeout=30)
            assert not worker.is_alive()
        finally:
            revived.stop()


# ----------------------------------------------------------------------
# Client backoff (pure)
# ----------------------------------------------------------------------
class TestClientBackoff:
    def test_exponential_with_bounded_jitter(self):
        client = ServiceClient.__new__(ServiceClient)
        rng = np.random.default_rng(0)
        for attempt in range(6):
            ceiling = min(2.0, 0.05 * 2.0 ** attempt)
            delay = client._backoff(attempt, 0.05, 2.0, rng)
            assert 0.5 * ceiling <= delay <= 1.5 * ceiling
        # Without an rng the delay is the deterministic cap curve.
        assert client._backoff(10, 0.05, 2.0, None) == 2.0


# ----------------------------------------------------------------------
# SLO-driven admission: inert below saturation, bounded misses above
# ----------------------------------------------------------------------
class TestSLOAdmission:
    def test_gate_skipped_until_rate_exists(self):
        master = Master([], PackageWeightedSelfScheduling())
        core = ServiceCore(master, ServiceConfig(admission="slo"))
        assert core.predicted_completion("t", 1000) is None
        outcome = core.submit("t", "q", 10, 1000, 0.0, deadline=0.001)
        assert outcome.accepted  # warm-up never sheds

    def test_error_quantile_warms_up_at_one(self):
        master = Master([], PackageWeightedSelfScheduling())
        core = ServiceCore(master, ServiceConfig(admission="slo"))
        assert core._error_quantile("t") == 1.0

    def test_below_saturation_identical_to_static_gate(self):
        reports = []
        for admission in ("static", "slo"):
            sim = make_sim()
            arrivals = service_arrivals(
                2.0, 60.0, np.random.default_rng(7), deadline=30.0
            )
            report = sim.run_service(
                arrivals,
                ServiceConfig(admission=admission, max_queue_depth=32),
            )
            assert report.shed_total == 0
            reports.append(report.to_dict())
        # The adaptive controller is inert below saturation: admission
        # decisions, completions and latencies match the static gate
        # byte for byte.
        assert reports[0] == reports[1]

    def test_above_saturation_bounds_deadline_misses(self):
        def run(config):
            sim = make_sim()
            arrivals = service_arrivals(
                40.0, 30.0, np.random.default_rng(17), deadline=3.0
            )
            return sim.run_service(arrivals, config)

        static = run(
            ServiceConfig(max_queue_depth=64, max_backlog_seconds=0.0)
        )
        slo = run(
            ServiceConfig(
                admission="slo", max_queue_depth=64,
                max_backlog_seconds=0.0,
            )
        )
        assert slo.shed.get("slo", 0) > 0
        static_miss = static.expired / max(static.admitted, 1)
        slo_miss = slo.expired / max(slo.admitted, 1)
        # The static gate admits work it cannot finish in time; the
        # SLO gate sheds it at the door instead.
        assert slo_miss < static_miss
        assert slo_miss <= 0.25
        # Everything still reaches a terminal state.
        assert (slo.completed + slo.expired + slo.cancelled
                == slo.admitted)

    def test_predicted_p99_metric_exported(self):
        sim = make_sim()
        arrivals = service_arrivals(
            20.0, 20.0, np.random.default_rng(19), deadline=2.0
        )
        report = sim.run_service(
            arrivals,
            ServiceConfig(admission="slo", max_queue_depth=64),
        )
        names = str(report.metrics)
        assert "service_predicted_p99_seconds" in names
