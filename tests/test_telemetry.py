"""Tests for the live telemetry subsystem (PR 7).

Covers OpenMetrics exposition + strict parsing, interval-delta streams,
the clock-agnostic writer/sampler split, DES virtual-clock sampling,
the master's live HTTP endpoints, worker stats piggybacking, and the
``repro top`` dashboard.
"""

import io
import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.align import BLOSUM62, DEFAULT_GAPS
from repro.cluster import MasterServer, WorkerConfig, run_cluster, run_worker
from repro.core.engines import ScanEngine
from repro.core.runtime import HybridRuntime, build_tasks
from repro.core.shared import Periodic
from repro.observability import (
    MetricsRegistry,
    OpenMetricsParseError,
    TELEMETRY_SCHEMA,
    TelemetryWriter,
    openmetrics_text,
    parse_openmetrics,
    read_telemetry,
    render_status,
    replay_telemetry,
    run_top,
    snapshot_delta,
    status_from_snapshot,
)
from repro.sequences import query_set, random_database, write_indexed
from repro.bench import uniform_tasks
from repro.simulate import HybridSimulator, PESpec, UniformModel


def sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    counter = registry.counter("jobs_total", "Jobs", ("pe",))
    counter.labels(pe="gpu0").inc(3)
    counter.labels(pe="sse0").inc(1)
    hist = registry.histogram(
        "latency_seconds", "Latency", buckets=(0.1, 1.0, float("inf"))
    )
    hist.labels().observe(0.05)
    hist.labels().observe(0.7)
    registry.gauge("depth", "Queue depth").set(4)
    return registry


class TestExposition:
    def test_counter_family_drops_total_suffix(self):
        text = openmetrics_text(sample_registry())
        assert "# TYPE jobs counter" in text
        assert 'jobs_total{pe="gpu0"} 3' in text

    def test_terminates_with_eof(self):
        assert openmetrics_text(sample_registry()).endswith("# EOF\n")

    def test_accepts_registry_or_snapshot(self):
        registry = sample_registry()
        assert openmetrics_text(registry) == openmetrics_text(
            registry.snapshot()
        )

    def test_round_trip_parses(self):
        families = parse_openmetrics(openmetrics_text(sample_registry()))
        assert families["jobs"]["type"] == "counter"
        assert families["latency_seconds"]["type"] == "histogram"
        assert families["depth"]["type"] == "gauge"

    def test_missing_eof_rejected(self):
        text = openmetrics_text(sample_registry())
        with pytest.raises(OpenMetricsParseError, match="EOF"):
            parse_openmetrics(text.replace("# EOF\n", ""))

    def test_sample_before_type_rejected(self):
        with pytest.raises(OpenMetricsParseError):
            parse_openmetrics("orphan 1\n# EOF\n")

    def test_duplicate_sample_rejected(self):
        text = (
            "# TYPE x gauge\n"
            "x 1\n"
            "x 2\n"
            "# EOF\n"
        )
        with pytest.raises(OpenMetricsParseError, match="duplicate"):
            parse_openmetrics(text)

    def test_non_cumulative_buckets_rejected(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="1"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
            "h_sum 1\n"
            "h_count 5\n"
            "# EOF\n"
        )
        with pytest.raises(OpenMetricsParseError, match="cumulative"):
            parse_openmetrics(text)

    def test_inf_bucket_must_equal_count(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 1\n'
            'h_bucket{le="+Inf"} 2\n'
            "h_sum 1\n"
            "h_count 5\n"
            "# EOF\n"
        )
        with pytest.raises(OpenMetricsParseError):
            parse_openmetrics(text)

    def test_negative_counter_rejected(self):
        text = "# TYPE c counter\nc_total -1\n# EOF\n"
        with pytest.raises(OpenMetricsParseError):
            parse_openmetrics(text)

    def test_label_escaping_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("c", "", ("q",)).labels(q='a"b\\c\nd').inc()
        families = parse_openmetrics(openmetrics_text(registry))
        (labels,) = [
            key for key in families["c"]["samples"] if key[0] == "c_total"
        ]
        assert dict(labels[1])["q"] == 'a"b\\c\nd'


class TestSnapshotDelta:
    def test_counter_and_histogram_deltas(self):
        registry = sample_registry()
        before = registry.snapshot()
        registry.get("jobs_total").labels(pe="gpu0").inc(2)
        registry.get("latency_seconds").labels().observe(5.0)
        registry.get("depth").labels().set(9)
        delta = snapshot_delta(before, registry.snapshot())
        rebuilt = MetricsRegistry.from_snapshot(delta)
        assert rebuilt.get("jobs_total").labels(pe="gpu0").value == 2.0
        # Untouched series still appears, with a zero delta.
        assert rebuilt.get("jobs_total").labels(pe="sse0").value == 0.0
        hist = rebuilt.get("latency_seconds").labels()
        assert hist.count == 1
        assert hist.sum == pytest.approx(5.0)
        # Gauges are instantaneous: the delta carries the current value.
        assert rebuilt.get("depth").labels().value == 9.0

    def test_none_previous_is_full_snapshot(self):
        registry = sample_registry()
        snapshot = registry.snapshot()
        assert snapshot_delta(None, snapshot) == snapshot

    def test_replay_adopts_bounds_from_late_first_series(self):
        """Regression: a histogram family whose first delta has no
        series yet (declared, nothing observed) must not pin the
        merged registry to default bucket bounds."""
        registry = MetricsRegistry()
        registry.histogram(
            "late", buckets=(0.25, 2.0, float("inf"))
        )  # declared, empty
        empty = registry.snapshot()
        registry.get("late").labels().observe(1.0)
        populated = registry.snapshot()
        from repro.observability import merge_snapshots

        merged = MetricsRegistry.from_snapshot(
            merge_snapshots(empty, snapshot_delta(empty, populated))
        )
        hist = merged.get("late").labels()
        assert [b for b, _ in hist.cumulative()] == [
            0.25, 2.0, float("inf")
        ]
        assert hist.count == 1


class TestTelemetryWriter:
    def make_stream(self, tmp_path):
        registry = sample_registry()
        clock_value = [0.0]
        writer = TelemetryWriter(
            str(tmp_path / "stream.jsonl"),
            registry.snapshot,
            lambda: clock_value[0],
            interval=1.0,
            environment="test",
        )
        return registry, clock_value, writer

    def test_record_sequence_and_final_byte_match(self, tmp_path):
        registry, clock_value, writer = self.make_stream(tmp_path)
        clock_value[0] = 1.0
        registry.get("jobs_total").labels(pe="gpu0").inc()
        writer.sample()
        clock_value[0] = 2.0
        registry.get("jobs_total").labels(pe="gpu0").inc()
        writer.close()
        records = read_telemetry(tmp_path / "stream.jsonl")
        kinds = [r["record"] for r in records]
        assert kinds == ["header", "sample", "sample", "final"]
        header = records[0]
        assert header["schema"] == TELEMETRY_SCHEMA
        assert header["environment"] == "test"
        assert header["interval"] == 1.0
        assert json.dumps(
            records[-1]["snapshot"], sort_keys=True
        ) == json.dumps(registry.snapshot(), sort_keys=True)

    def test_replay_folds_deltas_to_final_counters(self, tmp_path):
        registry, clock_value, writer = self.make_stream(tmp_path)
        for step in range(3):
            clock_value[0] = float(step + 1)
            registry.get("jobs_total").labels(pe="gpu0").inc()
            writer.sample()
        writer.close()
        records = read_telemetry(tmp_path / "stream.jsonl")
        folded = MetricsRegistry.from_snapshot(replay_telemetry(records))
        assert folded.get("jobs_total").labels(pe="gpu0").value == 6.0

    def test_close_is_idempotent(self, tmp_path):
        _, _, writer = self.make_stream(tmp_path)
        writer.close()
        writer.close()
        records = read_telemetry(tmp_path / "stream.jsonl")
        assert [r["record"] for r in records].count("final") == 1

    def test_rejects_nonpositive_interval(self, tmp_path):
        registry = sample_registry()
        with pytest.raises(ValueError):
            TelemetryWriter(
                str(tmp_path / "x.jsonl"),
                registry.snapshot,
                lambda: 0.0,
                interval=0.0,
            )

    def test_sampler_thread_produces_samples(self, tmp_path):
        registry = sample_registry()
        writer = TelemetryWriter(
            str(tmp_path / "stream.jsonl"),
            registry.snapshot,
            time.monotonic,
            interval=0.02,
        )
        sampler = Periodic(writer.interval, writer.sample, "t").start()
        time.sleep(0.15)
        sampler.stop()
        writer.close()
        records = read_telemetry(tmp_path / "stream.jsonl")
        assert [r["record"] for r in records][0] == "header"
        assert [r["record"] for r in records][-1] == "final"
        assert sum(1 for r in records if r["record"] == "sample") >= 2


class TestDESTelemetry:
    def specs(self):
        return [
            PESpec("gpu0", UniformModel(rate=100.0)),
            PESpec("sse0", UniformModel(rate=40.0)),
        ]

    def test_final_record_byte_matches_report_snapshot(self, tmp_path):
        path = str(tmp_path / "des.jsonl")
        report = HybridSimulator(
            self.specs(), telemetry_path=path, telemetry_interval=0.5
        ).run(uniform_tasks(20, cells=100))
        records = read_telemetry(path)
        assert records[0]["environment"] == "des"
        final = records[-1]
        assert final["record"] == "final"
        assert json.dumps(final["snapshot"], sort_keys=True) == json.dumps(
            report.metrics, sort_keys=True
        )
        # Samples are stamped in *virtual* seconds on the interval grid.
        times = [r["time"] for r in records if r["record"] == "sample"]
        assert times == sorted(times)
        assert all(abs(t / 0.5 - round(t / 0.5)) < 1e-9 for t in times)

    def test_telemetry_off_is_byte_identical(self, tmp_path):
        tasks = uniform_tasks(20, cells=100)
        plain = HybridSimulator(self.specs()).run(tasks)
        observed = HybridSimulator(
            self.specs(),
            telemetry_path=str(tmp_path / "des.jsonl"),
            telemetry_interval=0.25,
        ).run(tasks)
        assert observed.makespan == plain.makespan
        assert observed.tasks_won == plain.tasks_won
        assert json.dumps(observed.metrics, sort_keys=True) == json.dumps(
            plain.metrics, sort_keys=True
        )

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            HybridSimulator(
                self.specs(), telemetry_path="x", telemetry_interval=0.0
            )


class TestRuntimeTelemetry:
    def test_threaded_run_writes_finalized_stream(self, tmp_path):
        rng = np.random.default_rng(7)
        queries = query_set(3, rng, min_length=20, max_length=40)
        database = random_database(20, 40.0, rng, name="tele-db")
        path = str(tmp_path / "run.jsonl")
        runtime = HybridRuntime(
            {"cpu0": ScanEngine(BLOSUM62, DEFAULT_GAPS)},
            telemetry_path=path,
            telemetry_interval=0.01,
        )
        report = runtime.run(queries, database)
        assert report.makespan > 0
        records = read_telemetry(path)
        assert records[0]["environment"] == "threaded"
        final = records[-1]
        assert final["record"] == "final"
        # The stream is finalized after the run gauges are stamped.
        names = {f["name"] for f in final["snapshot"]["metrics"]}
        assert "run_makespan_seconds" in names
        assert json.dumps(final["snapshot"], sort_keys=True) == json.dumps(
            report.metrics, sort_keys=True
        )

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            HybridRuntime(
                {"cpu0": ScanEngine(BLOSUM62, DEFAULT_GAPS)},
                telemetry_path="x",
                telemetry_interval=-1.0,
            )


def _get(url: str) -> tuple[int, str, str]:
    with urllib.request.urlopen(url, timeout=10) as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


@pytest.fixture()
def workload(tmp_path):
    rng = np.random.default_rng(23)
    queries = query_set(4, rng, min_length=30, max_length=60)
    database = random_database(25, 50.0, rng, name="http-db")
    q_path = str(tmp_path / "q.seqx")
    d_path = str(tmp_path / "d.seqx")
    write_indexed(queries, q_path)
    write_indexed(list(database), d_path)
    return queries, database, q_path, d_path


class TestLiveEndpoints:
    def test_metrics_healthz_statusz(self, workload):
        queries, database, _, _ = workload
        server = MasterServer(
            build_tasks(queries, database), http_port=0
        )
        server.start()
        try:
            base = server.httpd.url("")
            status, content_type, body = _get(base + "/metrics")
            assert status == 200
            assert "openmetrics-text" in content_type
            families = parse_openmetrics(body)  # strict: raises on drift
            assert "tasks_completed" in families
            status, _, body = _get(base + "/healthz")
            assert status == 200 and body == "ok\n"
            status, _, body = _get(base + "/statusz")
            assert status == 200
            document = json.loads(body)
            assert document["schema"] == "repro.status.v1"
            assert document["finished"] is False
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(base + "/nope")
            assert err.value.code == 404
        finally:
            server.stop()

    def test_scrape_midrun_sees_worker_series(self, workload):
        """Process-mode acceptance: the master's /metrics includes the
        worker-side per-PE series piggybacked on heartbeats."""
        queries, database, q_path, d_path = workload
        server = MasterServer(build_tasks(queries, database), http_port=0)
        server.start()
        host, port = server.address
        config = WorkerConfig(
            host=host, port=port, pe_id="pig0", engine="scan",
            query_path=q_path, database_path=d_path,
        )
        # metrics=None = the process deployment: the worker publishes
        # its own registry through the stats piggyback.
        thread = threading.Thread(target=run_worker, args=(config,),
                                  daemon=True)
        thread.start()
        try:
            server.wait_finished(timeout=120)
            thread.join(timeout=30)
            _, _, body = _get(server.httpd.url("/metrics"))
            families = parse_openmetrics(body)
            samples = families["cluster_worker_connects"]["samples"]
            pes = {dict(key[1]).get("pe") for key in samples}
            assert "pig0" in pes
        finally:
            server.stop()

    def test_ingest_rejects_garbage_and_is_idempotent(self, workload):
        queries, database, _, _ = workload
        server = MasterServer(build_tasks(queries, database))
        registry = MetricsRegistry()
        registry.counter("cluster_worker_connects_total", "", ("pe",)).labels(
            pe="w0"
        ).inc()
        snapshot = registry.snapshot()
        server.ingest_worker_stats("w0", None)  # heartbeats without stats
        server.ingest_worker_stats("w0", {"schema": "wrong"})
        server.ingest_worker_stats("w0", "not-a-dict")
        assert server.worker_stats == {}
        server.ingest_worker_stats("w0", snapshot)
        server.ingest_worker_stats("w0", snapshot)  # re-delivery
        merged = MetricsRegistry.from_snapshot(server.metrics_snapshot())
        # Latest-wins storage: double delivery does not double count.
        assert merged.get("cluster_worker_connects_total").labels(
            pe="w0"
        ).value == 1.0


class TestClusterTelemetry:
    def test_run_cluster_writes_stream(self, tmp_path):
        rng = np.random.default_rng(31)
        queries = query_set(3, rng, min_length=20, max_length=40)
        database = random_database(15, 40.0, rng, name="ct-db")
        path = str(tmp_path / "cluster.jsonl")
        report = run_cluster(
            queries,
            database,
            {"gpu0": "gpu"},
            use_processes=False,
            timeout=120,
            telemetry_path=path,
            telemetry_interval=0.05,
        )
        assert report.makespan > 0
        records = read_telemetry(path)
        assert records[0]["environment"] == "cluster"
        assert records[-1]["record"] == "final"
        names = {
            f["name"] for f in records[-1]["snapshot"]["metrics"]
        }
        assert "tasks_completed_total" in names


class TestDashboard:
    def des_snapshot(self):
        report = HybridSimulator(
            [
                PESpec("gpu0", UniformModel(rate=100.0)),
                PESpec("sse0", UniformModel(rate=40.0)),
            ]
        ).run(uniform_tasks(10, cells=100))
        return report.metrics

    def test_status_from_snapshot(self):
        status = status_from_snapshot(self.des_snapshot())
        assert status["schema"] == "repro.status.v1"
        assert set(status["pes"]) == {"gpu0", "sse0"}
        gpu = status["pes"]["gpu0"]
        assert gpu["tasks_completed"] > 0
        assert status["run"]["total_cells"] == 10 * 100

    def test_render_status_mentions_pes(self):
        frame = render_status(status_from_snapshot(self.des_snapshot()))
        assert "gpu0" in frame and "sse0" in frame
        assert "p50" in frame

    def test_run_top_on_telemetry_file(self, tmp_path):
        path = str(tmp_path / "des.jsonl")
        HybridSimulator(
            [PESpec("solo", UniformModel(rate=100.0))],
            telemetry_path=path,
        ).run(uniform_tasks(5, cells=50))
        out = io.StringIO()
        code = run_top(path, interval=0.01, iterations=3, out=out,
                       clear=False)
        assert code == 0
        assert "solo" in out.getvalue()

    def test_run_top_on_live_endpoint(self):
        registry = sample_registry()
        from repro.observability import MetricsHTTPServer

        httpd = MetricsHTTPServer(
            registry.snapshot,
            status_fn=lambda: status_from_snapshot(registry.snapshot()),
        ).start()
        try:
            out = io.StringIO()
            code = run_top(httpd.url(""), interval=0.01, iterations=2,
                           out=out, clear=False)
            assert code == 0
        finally:
            httpd.stop()

    def test_run_top_unreachable_source_fails(self, tmp_path):
        out = io.StringIO()
        assert run_top(str(tmp_path / "missing.jsonl"), interval=0.01,
                       iterations=1, out=out, clear=False) == 1


class TestCLI:
    def run_cli(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        return code, capsys.readouterr().out

    def snapshot_file(self, tmp_path, name="snap.json"):
        path = tmp_path / name
        path.write_text(json.dumps(sample_registry().snapshot()))
        return str(path)

    def test_metrics_show_shim(self, tmp_path, capsys):
        path = self.snapshot_file(tmp_path)
        code, out = self.run_cli(["metrics", path], capsys)
        assert code == 0
        assert "# TYPE jobs_total counter" in out

    def test_metrics_show_summary_has_quantiles(self, tmp_path, capsys):
        path = self.snapshot_file(tmp_path)
        code, out = self.run_cli(
            ["metrics", "show", path, "--format", "summary"], capsys
        )
        assert code == 0
        assert "p50=" in out and "p95=" in out and "p99=" in out

    def test_metrics_show_openmetrics(self, tmp_path, capsys):
        path = self.snapshot_file(tmp_path)
        code, out = self.run_cli(
            ["metrics", "show", path, "--format", "openmetrics"], capsys
        )
        assert code == 0
        parse_openmetrics(out)

    def test_metrics_diff(self, tmp_path, capsys):
        registry = sample_registry()
        first = tmp_path / "a.json"
        first.write_text(json.dumps(registry.snapshot()))
        registry.get("jobs_total").labels(pe="gpu0").inc(2)
        registry.get("depth").labels().set(1)
        second = tmp_path / "b.json"
        second.write_text(json.dumps(registry.snapshot()))
        code, out = self.run_cli(
            ["metrics", "diff", str(first), str(second)], capsys
        )
        assert code == 0
        assert "jobs_total{pe=gpu0}  +2" in out
        assert "depth  4 -> 1" in out

    def test_simulate_telemetry_flag(self, tmp_path, capsys):
        path = str(tmp_path / "sim.jsonl")
        code, _ = self.run_cli(
            [
                "simulate", "--queries", "8", "--gpus", "1", "--sse", "1",
                "--telemetry-out", path,
                "--telemetry-interval", "0.5",
            ],
            capsys,
        )
        assert code == 0
        records = read_telemetry(path)
        assert records[-1]["record"] == "final"

    def test_top_command(self, tmp_path, capsys):
        path = str(tmp_path / "sim.jsonl")
        HybridSimulator(
            [PESpec("solo", UniformModel(rate=100.0))],
            telemetry_path=path,
        ).run(uniform_tasks(5, cells=50))
        code, out = self.run_cli(
            ["top", path, "--interval", "0.01", "--iterations", "2",
             "--no-clear"],
            capsys,
        )
        assert code == 0
        assert "solo" in out
