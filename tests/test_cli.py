"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.sequences import query_set, random_database, write_fasta


@pytest.fixture(scope="module")
def fasta_files(tmp_path_factory):
    rng = np.random.default_rng(11)
    root = tmp_path_factory.mktemp("cli")
    db_path = root / "db.fasta"
    q_path = root / "q.fasta"
    write_fasta(random_database(20, 50.0, rng, name="clidb"), db_path)
    write_fasta(query_set(2, rng, 20, 40), q_path)
    return str(q_path), str(db_path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_defaults(self, fasta_files):
        q, db = fasta_files
        args = build_parser().parse_args(["search", q, db])
        assert args.policy == "pss"
        assert args.matrix == "blosum62"

    def test_bad_policy_rejected(self, fasta_files):
        q, db = fasta_files
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", q, db, "--policy", "rr"])


class TestCommands:
    def test_search(self, fasta_files, capsys):
        q, db = fasta_files
        code = main(
            ["search", q, db, "--gpus", "1", "--sse", "1", "--top", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# query query000" in out
        assert "makespan" in out

    def test_index(self, fasta_files, tmp_path, capsys):
        _, db = fasta_files
        out_path = tmp_path / "db.seqx"
        assert main(["index", db, str(out_path)]) == 0
        assert "indexed 20 sequences" in capsys.readouterr().out
        assert out_path.exists()

    def test_simulate(self, capsys):
        code = main(
            [
                "simulate", "--database", "dog", "--queries", "10",
                "--gpus", "1", "--sse", "2", "--gantt",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Ensembl Dog Proteins" in out
        assert "GCUPS" in out
        assert "|" in out  # the Gantt chart

    def test_simulate_policies(self, capsys):
        for policy in ("ss", "fixed", "wfixed"):
            assert main(
                [
                    "simulate", "--database", "rat", "--queries", "6",
                    "--gpus", "1", "--sse", "1", "--policy", policy,
                ]
            ) == 0

    def test_search_chunked_decomposition(self, fasta_files, capsys):
        q, db = fasta_files
        code = main(
            ["search", q, db, "--gpus", "1", "--top", "3", "--chunks", "3"]
        )
        assert code == 0
        plain_out = capsys.readouterr().out
        code = main(["search", q, db, "--gpus", "1", "--top", "3"])
        assert code == 0
        chunkless_out = capsys.readouterr().out
        # Hit lines identical regardless of decomposition.
        plain_hits = [l for l in plain_out.splitlines() if "score=" in l]
        chunkless_hits = [
            l for l in chunkless_out.splitlines() if "score=" in l
        ]
        assert plain_hits == chunkless_hits

    def test_search_with_evalues(self, fasta_files, capsys):
        q, db = fasta_files
        code = main(["search", q, db, "--top", "2", "--evalue"])
        assert code == 0
        out = capsys.readouterr().out
        assert "E=" in out
        assert "bits=" in out

    @pytest.mark.parametrize("mode", ["local", "global", "semiglobal"])
    def test_align_modes(self, fasta_files, capsys, mode):
        q, db = fasta_files
        assert main(["align", q, db, "--mode", mode]) == 0
        out = capsys.readouterr().out
        assert f"mode={mode}" in out
        assert "CIGAR" in out

    def test_cluster_threaded(self, fasta_files, capsys):
        q, db = fasta_files
        code = main(
            ["cluster", q, db, "--workers", "gpu,scan", "--top", "2",
             "--threads"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# query query000" in out
        assert "workers: ['gpu0', 'scan1']" in out

    def test_generate_and_inspect(self, tmp_path, capsys):
        out = tmp_path / "wl"
        code = main(
            ["generate", "--database", "dog", "--scale", "0.001",
             "--queries", "3", "--out", str(out)]
        )
        assert code == 0
        assert (out / "database.fasta").exists()
        assert (out / "queries.fasta").exists()
        capsys.readouterr()
        indexed = tmp_path / "db.seqx"
        main(["index", str(out / "database.fasta"), str(indexed)])
        capsys.readouterr()
        assert main(["inspect", str(indexed), "--records", "2"]) == 0
        text = capsys.readouterr().out
        assert "records: 25" in text
        assert "longest:" in text

    def test_simulate_with_fpga(self, capsys):
        code = main(
            ["simulate", "--database", "rat", "--queries", "6",
             "--gpus", "1", "--sse", "1", "--fpgas", "1"]
        )
        assert code == 0
        assert "1 FPGAs" in capsys.readouterr().out

    def test_serve_and_worker_commands(self, fasta_files, tmp_path, capsys):
        """The multi-host deployment path: `serve` in a thread, `worker`
        connecting to it."""
        import threading
        import time

        q, db = fasta_files
        export = tmp_path / "export"
        serve_result = {}

        def serve():
            serve_result["code"] = main(
                ["serve", q, db, "--host", "127.0.0.1", "--port", "0",
                 "--export", str(export), "--timeout", "60"]
            )

        # Port 0 would be auto-assigned; we need a fixed port for the
        # worker, so pick one deterministically instead.
        port = "7391"

        def serve_fixed():
            serve_result["code"] = main(
                ["serve", q, db, "--host", "127.0.0.1", "--port", port,
                 "--export", str(export), "--timeout", "60"]
            )

        thread = threading.Thread(target=serve_fixed, daemon=True)
        thread.start()
        deadline = time.perf_counter() + 10
        while not (export / "queries.seqx").exists():
            assert time.perf_counter() < deadline, "server never exported"
            time.sleep(0.05)
        time.sleep(0.2)  # let the socket come up
        code = main(
            ["worker", "--host", "127.0.0.1", "--port", port,
             "--pe-id", "w0", "--engine", "gpu",
             "--queries", str(export / "queries.seqx"),
             "--database", str(export / "database.seqx")]
        )
        assert code == 0
        thread.join(timeout=30)
        assert serve_result["code"] == 0
        out = capsys.readouterr().out
        assert "worker w0 completed" in out
        assert "all tasks finished" in out

    def test_tables_fig5(self, capsys):
        assert main(["tables", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "with workload adjustment (14s)" in out

    def test_tables_policy_table(self, capsys):
        assert main(["tables", "1"]) == 0
        assert "PSS+reassign" in capsys.readouterr().out

    def test_tables_csv_export(self, tmp_path, capsys):
        out = tmp_path / "csv"
        assert main(["tables", "4", "--csv", str(out)]) == 0
        csv_path = out / "table4_gpu.csv"
        assert csv_path.exists()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "database,configuration,seconds,gcups"
        assert len(lines) == 1 + 5 * 3  # 5 databases x 3 configs


@pytest.fixture(scope="module")
def event_log_path(tmp_path_factory):
    """An event log and trace report produced by a real simulation."""
    root = tmp_path_factory.mktemp("trace")
    events = root / "events.jsonl"
    report = root / "report.json"
    code = main(
        ["simulate", "--database", "rat", "--queries", "6",
         "--gpus", "1", "--sse", "2",
         "--events-out", str(events), "--trace-out", str(report)]
    )
    assert code == 0
    return str(events), str(report)


class TestTraceCommand:
    def test_analyze_text(self, event_log_path, capsys):
        events, _ = event_log_path
        assert main(["trace", "analyze", events]) == 0
        out = capsys.readouterr().out
        assert "repro.trace_report.v1" in out
        assert "balancing factor" in out
        assert "gpu0" in out

    def test_analyze_json_matches_trace_out(self, event_log_path, capsys):
        import json

        events, report = event_log_path
        assert main(["trace", "analyze", events, "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        with open(report, "r", encoding="utf-8") as handle:
            written = json.load(handle)
        # `--trace-out` at run time and `trace analyze` after the fact
        # agree on everything.
        assert document == written

    def test_analyze_writes_report(self, event_log_path, tmp_path, capsys):
        import json

        events, _ = event_log_path
        out = tmp_path / "report.json"
        assert main(["trace", "analyze", events, "--out", str(out)]) == 0
        with open(out, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["schema"] == "repro.trace_report.v1"
        assert "makespan_seconds" in document["metrics"]

    def test_gantt_ascii(self, event_log_path, capsys):
        events, _ = event_log_path
        assert main(["trace", "gantt", events, "--width", "48"]) == 0
        out = capsys.readouterr().out
        assert "gpu0" in out
        assert "|" in out

    def test_gantt_svg(self, event_log_path, tmp_path, capsys):
        import xml.etree.ElementTree as ET

        events, _ = event_log_path
        svg = tmp_path / "schedule.svg"
        assert main(
            ["trace", "gantt", events, "--svg", str(svg), "--title", "run"]
        ) == 0
        root = ET.parse(svg).getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"

    def test_diff_event_log_against_report(self, event_log_path, capsys):
        events, report = event_log_path
        # One side raw JSONL, the other an analyzed report: both load.
        assert main(["trace", "diff", events, report]) == 0
        out = capsys.readouterr().out
        assert "makespan_seconds" in out
        # Same run on both sides: all deltas are zero.
        assert "+0.000" in out or "0.000" in out

    def test_diff_json(self, event_log_path, capsys):
        import json

        events, _ = event_log_path
        assert main(
            ["trace", "diff", events, events, "--format", "json"]
        ) == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["metrics"]["makespan_seconds"]["delta"] == 0.0

    def test_diff_rejects_foreign_json(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"schema": "something.else.v9"}\n')
        with pytest.raises(ValueError):
            main(["trace", "diff", str(bogus), str(bogus)])


class TestDbCommands:
    """The `repro db build|inspect|verify` store tooling."""

    @pytest.fixture()
    def built_store(self, fasta_files, tmp_path, capsys):
        q, db = fasta_files
        store = str(tmp_path / "store")
        assert main(
            ["db", "build", db, "--store", store, "--queries", q,
             "--lanes", "32,16"]
        ) == 0
        capsys.readouterr()
        return store

    def test_build_prints_summary(self, fasta_files, tmp_path, capsys):
        q, db = fasta_files
        store = str(tmp_path / "s")
        assert main(["db", "build", db, "--store", store,
                     "--queries", q]) == 0
        out = capsys.readouterr().out
        assert "pack entries" in out and "profile entries" in out

    def test_inspect_lists_entries(self, built_store, capsys):
        assert main(["db", "inspect", built_store]) == 0
        out = capsys.readouterr().out
        assert "packs" in out and "profile" in out
        assert "lanes=32" in out and "lanes=16" in out

    def test_inspect_json(self, built_store, capsys):
        import json

        assert main(["db", "inspect", built_store, "--format",
                     "json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert {e["kind"] for e in entries} == {"packs", "profile"}

    def test_verify_ok(self, built_store, capsys):
        assert main(["db", "verify", built_store]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_fails_loudly_on_corruption(self, built_store, capsys):
        from pathlib import Path

        target = sorted(Path(built_store, "objects").glob("*.npy"))[0]
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0x01
        target.write_bytes(bytes(data))
        assert main(["db", "verify", built_store]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_verify_rejects_non_store(self, tmp_path, capsys):
        assert main(["db", "verify", str(tmp_path / "nowhere")]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_search_with_store_matches_cold(self, fasta_files, built_store,
                                            capsys):
        q, db = fasta_files
        base = ["search", q, db, "--gpus", "1", "--sse", "1", "--top", "3"]
        assert main(base) == 0
        cold = [line for line in capsys.readouterr().out.splitlines()
                if not line.startswith("# makespan")]
        assert main(base + ["--store", built_store]) == 0
        warm = [line for line in capsys.readouterr().out.splitlines()
                if not line.startswith("# makespan")]
        assert warm == cold

    def test_search_refuses_corrupt_store(self, fasta_files, built_store,
                                          capsys):
        from pathlib import Path

        q, db = fasta_files
        target = sorted(Path(built_store, "objects").glob("*.npy"))[0]
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0x01
        target.write_bytes(bytes(data))
        assert main(
            ["search", q, db, "--gpus", "1", "--sse", "1",
             "--store", built_store]
        ) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_cluster_with_store_flag(self, fasta_files, tmp_path, capsys):
        q, db = fasta_files
        store = str(tmp_path / "cluster-store")
        code = main(
            ["cluster", q, db, "--workers", "gpu,sse",
             "--threads", "--top", "3", "--store", store]
        )
        assert code == 0
        assert "# query" in capsys.readouterr().out
        from repro.store import PackStore

        assert PackStore(store).verify()["packs"] >= 1
