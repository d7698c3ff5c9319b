"""Service wire surface (protocol 4): submit/poll/cancel/drain over TCP.

Exercises the always-on master end to end: admission and structured
shedding over the wire, byte-identical results for admitted requests,
graceful drain under load, and the chaos cases — a worker dying with a
service task in hand, and a master restart that adopts the live
service state.
"""

import socket
import threading
import time

import numpy as np
import pytest

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
from repro.sequences import query_set, random_database, write_indexed
from repro.service import ServiceClient, ServiceConfig, run_loadgen


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    rng = np.random.default_rng(23)
    queries = query_set(2, rng, min_length=30, max_length=50)
    database = random_database(25, 50.0, rng, name="svc-db")
    root = tmp_path_factory.mktemp("svc")
    q_path = str(root / "q.seqx")
    d_path = str(root / "d.seqx")
    write_indexed(queries, q_path)
    write_indexed(list(database), d_path)
    return queries, database, q_path, d_path


def start_server(workload, service=True, **kw):
    queries, database, _, _ = workload
    kw.setdefault("heartbeat_timeout", 1.0)
    server = MasterServer(
        build_tasks(queries, database), service=service, **kw
    )
    server.start()
    return server


def start_worker(server, workload, pe_id="w0", **kw):
    _, _, q_path, d_path = workload
    host, port = server.address
    config = WorkerConfig(
        host=host, port=port, pe_id=pe_id, engine="scan",
        query_path=q_path, database_path=d_path, **kw,
    )
    thread = threading.Thread(
        target=run_worker, args=(config,), daemon=True
    )
    thread.start()
    return thread


def expected_hits(query, database, top=10):
    return database_search(
        query, database, BLOSUM62, DEFAULT_GAPS, top=top
    ).hits


class TestWireSurface:
    def test_submit_poll_roundtrip_byte_identical(self, workload):
        queries, database, _, _ = workload
        server = start_server(workload)
        worker = start_worker(server, workload)
        try:
            host, port = server.address
            rng = np.random.default_rng(1)
            probes = query_set(3, rng, min_length=40, max_length=60)
            with ServiceClient(host, port) as client:
                replies = [
                    client.submit(q, tenant="wire") for q in probes
                ]
                assert all(r["type"] == "accepted" for r in replies)
                assert replies[0]["request_id"] == "wire-1"
                for query, reply in zip(probes, replies):
                    status = client.wait(reply["request_id"], timeout=60)
                    assert status["state"] == "done"
                    assert status["hits"] == expected_hits(
                        query, database
                    )
                client.drain()
            server.wait_drained(timeout=60)
            worker.join(timeout=30)
            assert not worker.is_alive()
        finally:
            server.stop()

    def test_poll_unknown_request_keeps_connection(self, workload):
        server = start_server(workload)
        try:
            host, port = server.address
            with ServiceClient(host, port) as client:
                reply = client.poll("nope-1")
                assert reply["type"] == "error"
                # The connection survived the error: a follow-up call
                # on the same socket still answers.
                rng = np.random.default_rng(2)
                probe = query_set(1, rng)[0]
                assert client.submit(probe)["type"] == "accepted"
        finally:
            server.stop()

    def test_cancel_queued_request(self, workload):
        # No workers: everything admitted stays queued/ready forever,
        # so cancellation is deterministic.
        server = start_server(workload)
        try:
            host, port = server.address
            rng = np.random.default_rng(3)
            probe = query_set(1, rng)[0]
            with ServiceClient(host, port) as client:
                request_id = client.submit(probe)["request_id"]
                reply = client.cancel(request_id)
                assert reply["state"] == "cancelled"
                assert client.poll(request_id)["state"] == "cancelled"
        finally:
            server.stop()

    def test_non_service_master_rejects_submit(self, workload):
        server = start_server(workload, service=None)
        try:
            host, port = server.address
            with socket.create_connection((host, port), timeout=10) as s:
                reader = s.makefile("rb")
                send_message(s, {
                    "type": "submit",
                    "protocol": PROTOCOL_VERSION,
                    "tenant": "t",
                    "query": {"id": "q", "residues": "ACDEFGHIKL"},
                })
                reply = recv_message(reader)
                assert reply["type"] == "error"
                assert "service" in reply["message"]
        finally:
            server.stop()

    def test_pre_v4_worker_is_refused(self, workload):
        # An old worker (no protocol field, or an older version) is
        # refused at the handshake: the wire is pinned to one version.
        server = start_server(workload)
        try:
            host, port = server.address
            for extra in ({}, {"protocol": PROTOCOL_VERSION - 1}):
                with socket.create_connection((host, port), timeout=10) as s:
                    reader = s.makefile("rb")
                    send_message(
                        s, {"type": "register", "pe_id": "old0", **extra}
                    )
                    reply = recv_message(reader)
                    assert reply["type"] == "error"
                    assert "protocol" in reply["message"]
                    assert recv_message(reader) is None
            assert not server.master.is_registered("old0")
        finally:
            server.stop()


class TestOverload:
    def test_structured_rejections_no_hang(self, workload):
        # No workers: the fleet absorbs nothing, so a burst must shed
        # loudly (and quickly) instead of queueing without bound.
        config = ServiceConfig(max_queue_depth=2, dispatch_window=1)
        server = start_server(workload, service=config)
        try:
            host, port = server.address
            rng = np.random.default_rng(4)
            probes = query_set(10, rng, min_length=30, max_length=40)
            with ServiceClient(host, port) as client:
                replies = [client.submit(q, tenant="burst")
                           for q in probes]
            accepted = [r for r in replies if r["type"] == "accepted"]
            rejected = [r for r in replies if r["type"] == "rejected"]
            # The preloaded workload keeps the dispatch window (1)
            # full, so only the queue bound (2) admits; the rest shed.
            assert len(accepted) == 2
            assert len(rejected) == 8
            for reply in rejected:
                assert reply["error"] == "overloaded"
                assert reply["reason"] == "queue_full"
                assert reply["retry_after"] > 0
        finally:
            server.stop()

    def test_loadgen_reports_shed(self, workload):
        config = ServiceConfig(max_queue_depth=1, dispatch_window=1)
        server = start_server(workload, service=config)
        worker = start_worker(server, workload)
        try:
            host, port = server.address
            report = run_loadgen(
                host, port, rate=60.0, horizon=1.0,
                rng=np.random.default_rng(5),
                min_length=60, max_length=90, wait_timeout=60.0,
            )
            assert report.offered == report.admitted + report.shed_total
            assert report.completed == report.admitted
            assert report.p99 >= report.p50 >= 0.0
        finally:
            server.drain()
            server.wait_drained(timeout=60)
            server.stop()
            worker.join(timeout=10)

    def test_loadgen_latency_excludes_rest_of_horizon(self, workload):
        """Light load over a long horizon: latency is service time only.

        One request takes tens of milliseconds here, so a latency near
        the horizon can only come from timing an early request until the
        client got round to polling it after the last arrival.
        """
        server = start_server(workload)
        worker = start_worker(server, workload)
        horizon = 3.0
        try:
            host, port = server.address
            report = run_loadgen(
                host, port, rate=4.0, horizon=horizon,
                rng=np.random.default_rng(11),
                min_length=30, max_length=40, wait_timeout=60.0,
            )
            assert report.completed == report.admitted >= 5
            assert min(report.latencies) > 0.0
            assert max(report.latencies) < horizon / 2
        finally:
            server.drain()
            server.wait_drained(timeout=60)
            server.stop()
            worker.join(timeout=10)


class TestDrainUnderLoad:
    def test_drain_finishes_inflight_sheds_new(self, workload):
        queries, database, _, _ = workload
        server = start_server(workload)
        worker = start_worker(server, workload)
        try:
            host, port = server.address
            rng = np.random.default_rng(6)
            probes = query_set(4, rng, min_length=60, max_length=80)
            with ServiceClient(host, port) as client:
                admitted = [
                    client.submit(q)["request_id"] for q in probes
                ]
                reply = client.drain()
                assert reply["state"] == "draining"
                late = client.submit(probes[0])
                assert late["type"] == "rejected"
                assert late["reason"] == "draining"
                for query, request_id in zip(probes, admitted):
                    status = client.wait(request_id, timeout=60)
                    assert status["state"] == "done"
                    assert status["hits"] == expected_hits(
                        query, database
                    )
            server.wait_drained(timeout=60)
            record = server.final_record()
            assert record["drained"] is True
            assert record["requests"]["done"] >= len(admitted)
            worker.join(timeout=30)
            assert not worker.is_alive()
        finally:
            server.stop()


class TestChaos:
    def test_worker_crash_with_service_task_in_hand(self, workload):
        queries, database, _, _ = workload
        server = start_server(workload, heartbeat_timeout=1.0)
        try:
            host, port = server.address
            rng = np.random.default_rng(7)
            probe = query_set(1, rng, min_length=60, max_length=80)[0]
            with ServiceClient(host, port) as client:
                request_id = client.submit(probe)["request_id"]
                # A "worker" grabs the service task, then dies silently.
                ghost = socket.create_connection((host, port), timeout=10)
                reader = ghost.makefile("rb")
                send_message(ghost, {"type": "register", "pe_id": "ghost",
                                     "protocol": PROTOCOL_VERSION})
                assert recv_message(reader)["type"] == "ack"
                # Preloaded workload (2 tasks) + the service task: keep
                # requesting until the ghost holds all of them.
                grabbed = []
                while len(grabbed) < 3:
                    send_message(ghost, {"type": "request",
                                         "pe_id": "ghost"})
                    reply = recv_message(reader)
                    grabbed.extend(reply.get("tasks") or [])
                ghost.close()  # crash: no complete, no goodbye
                # Heartbeat reaping frees the tasks; a healthy worker
                # joins late and finishes the request.
                worker = start_worker(server, workload, pe_id="rescue")
                status = client.wait(request_id, timeout=90)
                assert status["state"] == "done"
                assert status["hits"] == expected_hits(probe, database)
                client.drain()
            server.wait_drained(timeout=90)
            worker.join(timeout=30)
        finally:
            server.stop()

    def test_master_restart_adopts_service_state(self, workload):
        queries, database, _, _ = workload
        server = start_server(workload, heartbeat_timeout=1.0)
        host, port = server.address
        worker = start_worker(
            server, workload, pe_id="w0",
            backoff_base=0.05, backoff_max=0.5, reconnect_attempts=20,
        )
        rng = np.random.default_rng(8)
        probes = query_set(4, rng, min_length=60, max_length=90)
        with ServiceClient(host, port) as client:
            admitted = [client.submit(q)["request_id"] for q in probes]
        master = server.master
        service = server.service
        inline = dict(server.inline_queries)
        residues = server.database_residues
        server.stop()  # the master process "crashes"
        time.sleep(0.2)
        restarted = MasterServer(
            [], host=host, port=port, master=master,
            service=service, database_residues=residues,
            heartbeat_timeout=1.0,
        )
        restarted.inline_queries.update(inline)
        restarted.start()
        try:
            with ServiceClient(host, port) as client:
                for query, request_id in zip(probes, admitted):
                    status = client.wait(request_id, timeout=90)
                    assert status["state"] == "done"
                    assert status["hits"] == expected_hits(
                        query, database
                    )
                client.drain()
            restarted.wait_drained(timeout=90)
            worker.join(timeout=30)
            assert not worker.is_alive()
        finally:
            restarted.stop()

    def test_adopted_core_must_match_master(self, workload):
        server = start_server(workload)
        try:
            with pytest.raises(ValueError):
                MasterServer(
                    [], master=None, service=server.service,
                    database_residues=server.database_residues,
                )
        finally:
            server.stop()

    def test_refused_configurations_leak_no_socket(self, workload, tmp_path):
        """Every refused argument set fails before the port is bound."""
        import gc
        import warnings

        server = start_server(workload)
        try:
            refused = [
                dict(master=server.master, checkpoint=str(tmp_path)),
                dict(
                    service=server.service,
                    database_residues=server.database_residues,
                ),
                dict(service=True),
            ]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for kwargs in refused:
                    with pytest.raises(ValueError):
                        MasterServer([], **kwargs)
                gc.collect()
        finally:
            server.stop()
        leaks = [
            w for w in caught if issubclass(w.category, ResourceWarning)
        ]
        assert not leaks, [str(w.message) for w in leaks]


class TestServeProcess:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        """``repro serve --service``: SIGTERM drains, prints, exits 0.

        The signal handler calls ``drain()`` on the main thread while
        that same thread blocks in ``wait_drained``; the wait must
        still see the drain complete.
        """
        import json
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path

        from repro.sequences import write_fasta

        rng = np.random.default_rng(29)
        probes = query_set(3, rng, min_length=30, max_length=60)
        database = random_database(20, 50.0, rng, name="sigterm-db")
        write_fasta(probes[:1], str(tmp_path / "q.fasta"))
        write_fasta(list(database), str(tmp_path / "d.fasta"))
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             str(tmp_path / "q.fasta"), str(tmp_path / "d.fasta"),
             "--service", "--port", "0", "--top", "10",
             "--export", str(tmp_path / "export")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            port = None
            for line in proc.stdout:
                if line.startswith("master listening on "):
                    port = int(line.rsplit(":", 1)[1])
                    break
            assert port is not None, "service master did not come up"
            config = WorkerConfig(
                host="127.0.0.1", port=port, pe_id="w0", engine="scan",
                query_path=str(tmp_path / "export" / "queries.seqx"),
                database_path=str(tmp_path / "export" / "database.seqx"),
            )
            worker = threading.Thread(
                target=run_worker, args=(config,), daemon=True
            )
            worker.start()
            with ServiceClient("127.0.0.1", port) as client:
                admitted = [client.submit(q)["request_id"] for q in probes]
                for query, request_id in zip(probes, admitted):
                    status = client.wait(request_id, timeout=60)
                    assert status["state"] == "done"
                    assert status["hits"] == expected_hits(query, database)
                assert client.poll(admitted[0])["state"] == "done"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            lines = proc.stdout.read().splitlines()
            worker.join(timeout=30)
            assert not worker.is_alive()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        final = json.loads(lines[-1])
        assert final["kind"] == "service_final"
        assert final["drained"] is True
        assert final["requests"]["done"] == len(probes)
