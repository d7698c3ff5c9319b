"""Tests for the distributed TCP master/slave runtime."""

import io
import socket
import threading
import time

import pytest

from repro.align import BLOSUM62, DEFAULT_GAPS, SearchHit, database_search
from repro.cluster import (
    ClusterReport,
    MasterServer,
    ProtocolError,
    WorkerConfig,
    decode_hit,
    decode_task,
    encode_hit,
    encode_task,
    recv_message,
    run_cluster,
    run_worker,
    send_message,
)
from repro.cluster.protocol import PROTOCOL_VERSION
from repro.core import SelfScheduling, Task
from repro.sequences import query_set, random_database


class TestProtocol:
    def test_task_roundtrip(self):
        task = Task(task_id=3, query_id="q3", query_length=120,
                    cells=120 * 1000, query_index=3)
        assert decode_task(encode_task(task)) == task

    def test_hit_roundtrip(self):
        hit = SearchHit(subject_id="sp|X", subject_index=7, score=88,
                        subject_length=140)
        assert decode_hit(encode_hit(hit)) == hit

    def test_bad_task_payload(self):
        with pytest.raises(ProtocolError):
            decode_task({"task_id": "not-a-number"})

    def test_message_framing_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            send_message(a, {"type": "register", "pe_id": "x"})
            with b.makefile("rb") as reader:
                message = recv_message(reader)
            assert message == {"type": "register", "pe_id": "x"}
        finally:
            a.close()
            b.close()

    def test_recv_eof_returns_none(self):
        reader = io.BytesIO(b"")
        assert recv_message(reader) is None

    def test_recv_garbage_raises(self):
        reader = io.BytesIO(b"not json\n")
        with pytest.raises(ProtocolError):
            recv_message(reader)

    def test_recv_untyped_raises(self):
        reader = io.BytesIO(b'{"no_type": 1}\n')
        with pytest.raises(ProtocolError):
            recv_message(reader)

    def test_oversized_frame_rejected_on_send(self):
        a, b = socket.socketpair()
        try:
            with pytest.raises(ProtocolError):
                send_message(
                    a, {"type": "blob", "data": "x" * (5 * 1024 * 1024)}
                )
        finally:
            a.close()
            b.close()

    def test_oversized_frame_rejected_on_recv(self):
        from repro.cluster.protocol import MAX_FRAME_BYTES

        reader = io.BytesIO(b"x" * (MAX_FRAME_BYTES + 10) + b"\n")
        with pytest.raises(ProtocolError):
            recv_message(reader)


class TestProtocolHandshake:
    """The register-time version handshake (wire version 2)."""

    def test_constants_are_a_valid_range(self):
        from repro.cluster.protocol import (
            MIN_PROTOCOL_VERSION,
            PROTOCOL_VERSION,
        )

        assert 1 <= MIN_PROTOCOL_VERSION <= PROTOCOL_VERSION

    def test_absent_or_older_version_rejected(self):
        from repro.cluster.protocol import check_protocol_version

        with pytest.raises(ProtocolError, match="protocol"):
            check_protocol_version({"type": "register"})
        with pytest.raises(ProtocolError, match="unsupported"):
            check_protocol_version(
                {"type": "register", "protocol": PROTOCOL_VERSION - 1}
            )

    def test_current_version_accepted(self):
        from repro.cluster.protocol import (
            PROTOCOL_VERSION,
            check_protocol_version,
        )

        message = {"type": "register", "protocol": PROTOCOL_VERSION}
        assert check_protocol_version(message) == PROTOCOL_VERSION

    def test_future_version_rejected(self):
        from repro.cluster.protocol import (
            PROTOCOL_VERSION,
            check_protocol_version,
        )

        with pytest.raises(ProtocolError, match="unsupported"):
            check_protocol_version(
                {"type": "register", "protocol": PROTOCOL_VERSION + 1}
            )

    def test_malformed_version_rejected(self):
        from repro.cluster.protocol import check_protocol_version

        with pytest.raises(ProtocolError, match="malformed"):
            check_protocol_version(
                {"type": "register", "protocol": "banana"}
            )


class TestMasterServer:
    def _talk(self, server, messages):
        host, port = server.address
        with socket.create_connection(
            (host, port), timeout=10
        ) as sock, sock.makefile("rb") as reader:
            replies = []
            for message in messages:
                send_message(sock, message)
                replies.append(recv_message(reader))
            return replies

    @pytest.fixture
    def server(self):
        tasks = [
            Task(task_id=i, query_id=f"q{i}", query_length=10,
                 cells=100, query_index=i)
            for i in range(2)
        ]
        server = MasterServer(tasks, policy=SelfScheduling())
        server.start()
        yield server
        server.stop()

    def test_register_request_complete_cycle(self, server):
        replies = self._talk(
            server,
            [
                {"type": "register", "pe_id": "w0",
                 "protocol": PROTOCOL_VERSION},
                {"type": "request", "pe_id": "w0"},
            ],
        )
        assert replies[0]["type"] == "ack"
        assignment = replies[1]
        assert assignment["type"] == "assign"
        assert len(assignment["tasks"]) == 1
        task = assignment["tasks"][0]
        self._talk(
            server,
            [
                {
                    "type": "complete",
                    "pe_id": "w0",
                    "task_id": task["task_id"],
                    "elapsed": 0.1,
                    "cells": task["cells"],
                    "hits": [],
                },
            ],
        )
        assert not server.finished  # one task left

    def test_register_ack_echoes_protocol(self, server):
        from repro.cluster.protocol import PROTOCOL_VERSION

        replies = self._talk(
            server,
            [{"type": "register", "pe_id": "hs0",
              "protocol": PROTOCOL_VERSION}],
        )
        assert replies[0]["type"] == "ack"
        assert replies[0]["protocol"] == PROTOCOL_VERSION

    def test_old_register_rejected_and_connection_closed(self, server):
        """A pre-handshake (no protocol field) or older worker is
        refused at the handshake."""
        host, port = server.address
        for extra in ({}, {"protocol": PROTOCOL_VERSION - 1}):
            with socket.create_connection(
                (host, port), timeout=10
            ) as sock, sock.makefile("rb") as reader:
                send_message(
                    sock, {"type": "register", "pe_id": "old", **extra}
                )
                reply = recv_message(reader)
                assert reply["type"] == "error"
                assert "protocol" in reply["message"]
                assert recv_message(reader) is None
        assert not server.master.is_registered("old")

    def test_future_protocol_rejected_and_connection_closed(self, server):
        from repro.cluster.protocol import PROTOCOL_VERSION

        host, port = server.address
        with socket.create_connection(
            (host, port), timeout=10
        ) as sock, sock.makefile("rb") as reader:
            send_message(sock, {"type": "register", "pe_id": "fresh",
                                "protocol": PROTOCOL_VERSION + 5})
            reply = recv_message(reader)
            assert reply["type"] == "error"
            assert "protocol" in reply["message"]
            # The master hangs up instead of mis-parsing later frames.
            assert recv_message(reader) is None

    def test_unknown_message_errors(self, server):
        replies = self._talk(
            server,
            [
                {"type": "register", "pe_id": "w1",
                 "protocol": PROTOCOL_VERSION},
                {"type": "frobnicate"},
            ],
        )
        assert replies[1]["type"] == "error"

    def test_wait_finished_timeout(self, server):
        with pytest.raises(TimeoutError):
            server.wait_finished(timeout=0.05)


@pytest.fixture(scope="module")
def cluster_workload():
    import numpy as np

    rng = np.random.default_rng(17)
    queries = query_set(4, rng, min_length=20, max_length=50)
    database = random_database(25, 50.0, rng, name="cluster-db")
    expected = {
        q.id: database_search(q, database, BLOSUM62, DEFAULT_GAPS, top=10).hits
        for q in queries
    }
    return queries, database, expected


class TestEndToEnd:
    def _check(self, report: ClusterReport, expected):
        for query_id, hits in expected.items():
            got = report.results[query_id]
            assert [(h.subject_index, h.score) for h in got] == [
                (h.subject_index, h.score) for h in hits
            ]

    def test_threaded_workers(self, cluster_workload):
        queries, database, expected = cluster_workload
        report = run_cluster(
            queries,
            database,
            {"gpu0": "gpu", "sse0": "sse"},
            use_processes=False,
            timeout=120,
        )
        self._check(report, expected)
        assert report.total_cells == sum(
            len(q) * database.total_residues for q in queries
        )

    def test_process_workers(self, cluster_workload):
        queries, database, expected = cluster_workload
        report = run_cluster(
            queries,
            database,
            {"gpu0": "gpu", "scan0": "scan"},
            use_processes=True,
            timeout=180,
        )
        self._check(report, expected)

    def test_single_worker(self, cluster_workload):
        queries, database, expected = cluster_workload
        report = run_cluster(
            queries,
            database,
            {"solo": "gpu"},
            use_processes=False,
            timeout=120,
        )
        self._check(report, expected)
        # Every assignment went to the only worker.
        assigns = [e for e in report.trace if e.kind == "assign"]
        assert all(e.pe_id == "solo" for e in assigns)

    def test_no_workers_rejected(self, cluster_workload):
        queries, database, _ = cluster_workload
        with pytest.raises(ValueError):
            run_cluster(queries, database, {})

    def test_unknown_engine_kind(self):
        config = WorkerConfig(
            host="127.0.0.1", port=1, pe_id="x", engine="tpu",
            query_path="q", database_path="d",
        )
        with pytest.raises(ValueError):
            config.build_engine()


class TestResilience:
    """Retry/backoff, reconnect, idempotent results, reaping defaults."""

    def _tasks(self, n=2):
        return [
            Task(task_id=i, query_id=f"q{i}", query_length=10,
                 cells=100, query_index=i)
            for i in range(n)
        ]

    def test_timeout_error_carries_diagnostics(self):
        server = MasterServer(self._tasks(3), policy=SelfScheduling())
        server.start()
        try:
            host, port = server.address
            with socket.create_connection(
                (host, port), timeout=10
            ) as sock, sock.makefile("rb") as reader:
                send_message(sock, {"type": "register", "pe_id": "w0",
                                    "protocol": PROTOCOL_VERSION})
                recv_message(reader)
                send_message(sock, {"type": "request", "pe_id": "w0"})
                recv_message(reader)
                with pytest.raises(TimeoutError) as excinfo:
                    server.wait_finished(timeout=0.05)
        finally:
            server.stop()
        message = str(excinfo.value)
        assert "3 outstanding task(s)" in message
        assert "w0: queue=1" in message
        assert "last_contact=" in message

    def test_re_register_retires_stale_incarnation(self):
        """A second register for the same PE (fresh attempt id) must be
        accepted, releasing the stale incarnation's tasks."""
        server = MasterServer(self._tasks(2), policy=SelfScheduling())
        server.start()
        try:
            host, port = server.address
            with socket.create_connection(
                (host, port), timeout=10
            ) as sock, sock.makefile("rb") as reader:
                send_message(sock, {"type": "register", "pe_id": "w0",
                                    "protocol": PROTOCOL_VERSION})
                recv_message(reader)
                send_message(sock, {"type": "request", "pe_id": "w0"})
                assert recv_message(reader)["tasks"]
            with socket.create_connection(
                (host, port), timeout=10
            ) as sock, sock.makefile("rb") as reader:
                send_message(
                    sock,
                    {"type": "register", "pe_id": "w0", "attempt": 1,
                     "protocol": PROTOCOL_VERSION},
                )
                reply = recv_message(reader)
                assert reply["type"] == "ack"
            with server.lock:
                assert server.master.pool.num_ready == 2  # task released
                events = [
                    e for e in server.events
                    if e["kind"] == "deregister"
                ]
            assert any(e.get("reason") == "reconnect" for e in events)
        finally:
            server.stop()

    def test_duplicate_complete_is_deduped(self):
        server = MasterServer(self._tasks(1), policy=SelfScheduling())
        server.start()
        try:
            host, port = server.address
            with socket.create_connection(
                (host, port), timeout=10
            ) as sock, sock.makefile("rb") as reader:
                send_message(sock, {"type": "register", "pe_id": "w0",
                                    "protocol": PROTOCOL_VERSION})
                recv_message(reader)
                send_message(sock, {"type": "request", "pe_id": "w0"})
                task = recv_message(reader)["tasks"][0]
                done = {
                    "type": "complete",
                    "pe_id": "w0",
                    "task_id": task["task_id"],
                    "elapsed": 0.1,
                    "cells": task["cells"],
                    "hits": [],
                }
                send_message(sock, done)
                recv_message(reader)
                send_message(sock, done)  # at-least-once retransmission
                recv_message(reader)
            with server.lock:
                assert server.master.pool.num_finished == 1
                wins = [
                    e for e in server.master.trace
                    if e.kind == "complete" and e.value == 1.0
                ]
            assert len(wins) == 1
        finally:
            server.stop()

    def test_post_reap_result_is_adopted(self):
        """A reaped worker's in-flight result must still count."""
        server = MasterServer(
            self._tasks(1), policy=SelfScheduling(), heartbeat_timeout=0.2
        )
        server.start()
        try:
            host, port = server.address
            with socket.create_connection(
                (host, port), timeout=10
            ) as sock, sock.makefile("rb") as reader:
                send_message(sock, {"type": "register", "pe_id": "w0",
                                    "protocol": PROTOCOL_VERSION})
                recv_message(reader)
                send_message(sock, {"type": "request", "pe_id": "w0"})
                task = recv_message(reader)["tasks"][0]
                deadline = time.perf_counter() + 5.0
                while time.perf_counter() < deadline:
                    with server.lock:
                        if not server.master.is_registered("w0"):
                            break
                    time.sleep(0.05)
                with server.lock:
                    assert not server.master.is_registered("w0")
                send_message(
                    sock,
                    {
                        "type": "complete",
                        "pe_id": "w0",
                        "task_id": task["task_id"],
                        "elapsed": 0.5,
                        "cells": task["cells"],
                        "hits": [],
                    },
                )
                assert recv_message(reader)["type"] == "ack"
            with server.lock:
                assert server.master.pool.finished_by(task["task_id"]) == "w0"
                assert server.master.is_registered("w0")  # re-admitted
        finally:
            server.stop()

    def test_worker_survives_master_restart(self, tmp_path):
        """Workers reconnect with backoff + fresh attempt ids when the
        master goes away mid-run and comes back on the same port."""
        import numpy as np

        from repro.core.runtime import build_tasks
        from repro.sequences import write_indexed

        rng = np.random.default_rng(29)
        queries = query_set(8, rng, min_length=80, max_length=120)
        database = random_database(60, 90.0, rng, name="restart-db")
        q_path = str(tmp_path / "q.seqx")
        d_path = str(tmp_path / "d.seqx")
        write_indexed(queries, q_path)
        write_indexed(list(database), d_path)
        server = MasterServer(
            build_tasks(queries, database), heartbeat_timeout=1.0
        )
        server.start()
        host, port = server.address
        configs = [
            WorkerConfig(
                host=host, port=port, pe_id=pe, engine="scan",
                query_path=q_path, database_path=d_path,
                backoff_base=0.05, backoff_max=0.5, reconnect_attempts=12,
            )
            for pe in ("w0", "w1")
        ]
        threads = [
            threading.Thread(target=run_worker, args=(c,), daemon=True)
            for c in configs
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.4)  # let real work start
        master = server.master
        server.stop()  # the master "crashes"
        time.sleep(0.3)  # workers are now retrying with backoff
        restarted = MasterServer(
            [], host=host, port=port, master=master, heartbeat_timeout=1.0
        )
        restarted.start()
        try:
            restarted.wait_finished(timeout=120)
            for thread in threads:
                thread.join(timeout=30)
            results = restarted.results()
        finally:
            restarted.stop()
        for query in queries:
            expected = database_search(
                query, database, BLOSUM62, DEFAULT_GAPS, top=10
            ).hits
            assert [(h.subject_index, h.score) for h in results[query.id]] == [
                (h.subject_index, h.score) for h in expected
            ]
        reconnects = [
            e for e in master.events
            if e["kind"] == "register" and e.get("attempt")
        ]
        assert reconnects  # at least one worker re-registered
