#!/usr/bin/env bash
# One-stop local gate: tier-1 test suite, then a short observability
# smoke benchmark that writes a metrics snapshot and validates it,
# then a trace round-trip (event log -> `repro trace analyze` ->
# repro.trace_report.v1 schema check), then a chaos stage: one short
# seeded fault-plan run per environment (DES, threaded runtime, TCP
# cluster) that must finish every task with fault-free-identical
# results, with the DES run's fault events surfaced by trace analyze,
# plus a messages-only plan with adjustment off in the threaded runtime
# and the TCP cluster (drops and duplicates must fire),
# plus a DES service run (one crash, one straggler) that must drain
# with every admitted request done and replay identically,
# and finally a durability stage: a seeded master-kill/resume
# round-trip per environment over a --checkpoint directory, plus
# `repro journal verify` on the produced journal (and a negative
# check that a flipped byte is detected).  A store stage exercises the
# persistent pack store: `repro db build|verify`, a warm `--store`
# search diffed byte-identical against the cold run, and a negative
# check that a flipped byte fails both `db verify` and the warm
# search; a skewed store stage builds a store with the perfbench
# fixture's command line on a short-mass/long-tail database and diffs a
# warm `--batch 4 --store` search against the cold one.  The telemetry
# stage scrapes a live master's /metrics
# mid-run through the strict OpenMetrics parser, checks the worker
# stats piggyback, and byte-compares a DES telemetry stream's final
# record against the run's metrics snapshot.
#
# Usage: scripts/check.sh
# Runs from any cwd; needs only the in-repo package (no installs).
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"
export PYTHONPATH="$REPO_ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 test suite =="
python -m pytest -x -q

echo
echo "== conformance stage: batched CLI vs per-query CLI =="
# The pytest-level conformance suite (tests/test_conformance.py) runs
# as part of tier-1 above; this stage proves the same bit-exactness
# end-to-end through the CLI: the identical workload searched with and
# without --batch/--cache must print identical hits.
CONF_DIR="$(mktemp -d -t repro-conf-XXXXXX)"
python - "$CONF_DIR" <<'PY'
import sys

import numpy as np

from repro.sequences import query_set, random_database, write_fasta

rng = np.random.default_rng(5)
root = sys.argv[1]
write_fasta(query_set(6, rng, min_length=30, max_length=90),
            f"{root}/queries.fasta")
write_fasta(random_database(30, 60.0, rng, name="conformance"),
            f"{root}/database.fasta")
PY
python -m repro search "$CONF_DIR/queries.fasta" \
    "$CONF_DIR/database.fasta" --top 5 \
    | grep -v '^# makespan' > "$CONF_DIR/plain.txt"
python -m repro search "$CONF_DIR/queries.fasta" \
    "$CONF_DIR/database.fasta" --top 5 --batch 4 --cache \
    | grep -v '^# makespan' > "$CONF_DIR/batched.txt"
diff "$CONF_DIR/plain.txt" "$CONF_DIR/batched.txt"
python -m repro simulate --database rat --queries 6 --gpus 1 --sse 2 \
    --batch 3 --cache > /dev/null
rm -rf "$CONF_DIR"
echo "conformance OK: batched hits identical, batched simulate runs"

echo
echo "== store stage: repro db build/verify + warm-start search =="
STORE_DIR="$(mktemp -d -t repro-store-XXXXXX)"
python - "$STORE_DIR" <<'PY'
import sys

import numpy as np

from repro.sequences import query_set, random_database, write_fasta

rng = np.random.default_rng(11)
root = sys.argv[1]
write_fasta(query_set(4, rng, min_length=30, max_length=80),
            f"{root}/queries.fasta")
write_fasta(random_database(40, 60.0, rng, name="storecheck"),
            f"{root}/database.fasta")
PY
python -m repro db build "$STORE_DIR/database.fasta" \
    --store "$STORE_DIR/packs" --queries "$STORE_DIR/queries.fasta"
python -m repro db verify "$STORE_DIR/packs"
# The warm-start search must emit hits byte-identical to the cold run.
python -m repro search "$STORE_DIR/queries.fasta" \
    "$STORE_DIR/database.fasta" --top 5 \
    | grep -v '^# makespan' > "$STORE_DIR/cold.txt"
python -m repro search "$STORE_DIR/queries.fasta" \
    "$STORE_DIR/database.fasta" --top 5 --store "$STORE_DIR/packs" \
    | grep -v '^# makespan' > "$STORE_DIR/warm.txt"
diff "$STORE_DIR/cold.txt" "$STORE_DIR/warm.txt"
# Negative check: a flipped byte must fail verify AND the warm search.
python - "$STORE_DIR/packs" <<'PY'
import pathlib
import sys

arrays = sorted(pathlib.Path(sys.argv[1], "objects").glob("*.npy"))
if not arrays:
    sys.exit("store has no array files to corrupt")
target = max(arrays, key=lambda p: p.stat().st_size)
data = bytearray(target.read_bytes())
data[len(data) // 2] ^= 0x01
target.write_bytes(bytes(data))
print(f"flipped one byte in {target.name}")
PY
if python -m repro db verify "$STORE_DIR/packs" 2>/dev/null; then
    echo "db verify missed a corrupted array" >&2
    exit 1
fi
if python -m repro search "$STORE_DIR/queries.fasta" \
    "$STORE_DIR/database.fasta" --top 5 --store "$STORE_DIR/packs" \
    > /dev/null 2>&1; then
    echo "warm-start search accepted a corrupted store" >&2
    exit 1
fi
rm -rf "$STORE_DIR"
echo "store OK: warm hits identical, corruption rejected loudly"

echo
echo "== skewed store stage: fixture-built store, batched warm search =="
# A dense mass of short subjects plus a sparse long tail.  The store is
# built with the perfbench fixture's own command line (`--screen-lanes`
# is accepted and writes nothing), verified, and a warm
# `--batch 4 --store` search must print hits byte-identical to a cold
# exact search.
SKEW_DIR="$(mktemp -d -t repro-skew-XXXXXX)"
python - "$SKEW_DIR" <<'PY'
import sys

import numpy as np

from repro.sequences import (
    PROTEIN,
    Sequence,
    query_set,
    write_fasta,
)

rng = np.random.default_rng(17)
letters = np.array(list("ARNDCQEGHILKMFPSTWYV"))


def seq(i, n):
    residues = "".join(rng.choice(letters, size=int(n)))
    return Sequence(id=f"s{i}", residues=residues, alphabet=PROTEIN)


records = [
    seq(i, n) for i, n in enumerate(rng.integers(30, 60, size=120))
] + [
    seq(120 + i, n) for i, n in enumerate(rng.integers(200, 220, size=6))
]
root = sys.argv[1]
write_fasta(query_set(3, rng, min_length=80, max_length=120),
            f"{root}/queries.fasta")
write_fasta(records, f"{root}/database.fasta")
PY
python -m repro db build "$SKEW_DIR/database.fasta" \
    --store "$SKEW_DIR/packs" --queries "$SKEW_DIR/queries.fasta" \
    --screen-lanes 256
python -m repro db verify "$SKEW_DIR/packs"
python -m repro search "$SKEW_DIR/queries.fasta" \
    "$SKEW_DIR/database.fasta" --top 5 --gpus 1 --sse 0 \
    | grep -v '^# makespan' > "$SKEW_DIR/cold.txt"
python -m repro search "$SKEW_DIR/queries.fasta" \
    "$SKEW_DIR/database.fasta" --top 5 --gpus 1 --sse 0 \
    --batch 4 --store "$SKEW_DIR/packs" \
    | grep -v '^# makespan' > "$SKEW_DIR/warm.txt"
diff "$SKEW_DIR/cold.txt" "$SKEW_DIR/warm.txt"
rm -rf "$SKEW_DIR"
echo "skewed store OK: warm batched hits identical to the cold search"

echo
echo "== observability smoke benchmark =="
METRICS_OUT="$(mktemp -t repro-metrics-XXXXXX.json)"
EVENTS_OUT="$(mktemp -t repro-events-XXXXXX.jsonl)"
TRACE_OUT="$(mktemp -t repro-trace-XXXXXX.json)"
PLAN_OUT="$(mktemp -t repro-plan-XXXXXX.json)"
FAULT_EVENTS="$(mktemp -t repro-fault-events-XXXXXX.jsonl)"
FAULT_TRACE="$(mktemp -t repro-fault-trace-XXXXXX.json)"
trap 'rm -f "$METRICS_OUT" "$EVENTS_OUT" "$TRACE_OUT" \
    "$PLAN_OUT" "$FAULT_EVENTS" "$FAULT_TRACE"' EXIT
python -m pytest benchmarks/bench_metrics_smoke.py --benchmark-only \
    --benchmark-min-rounds=1 -q --metrics-out "$METRICS_OUT"

echo
echo "== validating metrics snapshot =="
python - "$METRICS_OUT" <<'PY'
import json
import sys

from repro.observability import MetricsRegistry

with open(sys.argv[1], encoding="utf-8") as handle:
    snapshots = json.load(handle)
if not snapshots:
    sys.exit("no snapshots were written")
for name, snapshot in sorted(snapshots.items()):
    registry = MetricsRegistry.from_snapshot(snapshot)
    text = registry.prometheus_text()
    print(f"{name}: {len(registry.names())} metric families, "
          f"{len(text.splitlines())} exposition lines")
print("snapshot validation OK")
PY

echo
echo "== trace analyze round-trip =="
python -m repro simulate --database rat --queries 6 --gpus 1 --sse 2 \
    --events-out "$EVENTS_OUT" > /dev/null
python -m repro trace analyze "$EVENTS_OUT" --format json \
    --out "$TRACE_OUT" > /dev/null
python - "$EVENTS_OUT" "$TRACE_OUT" <<'PY'
import json
import sys

from repro.observability import (
    TRACE_REPORT_METRICS,
    TRACE_REPORT_SCHEMA,
    EventLog,
    analyze_events,
)

events_path, report_path = sys.argv[1:3]
with open(report_path, encoding="utf-8") as handle:
    document = json.load(handle)
if document["schema"] != TRACE_REPORT_SCHEMA:
    sys.exit(f"unexpected schema tag: {document['schema']!r}")
missing = sorted(set(TRACE_REPORT_METRICS) - set(document["metrics"]))
if missing:
    sys.exit(f"trace report is missing metrics: {missing}")
# Re-analyzing the same event log must reproduce the document exactly.
replayed = analyze_events(EventLog.from_jsonl(events_path)).to_document()
if replayed != document:
    sys.exit("trace analyze is not deterministic over the event log")
print(f"trace report OK: {len(document['pes'])} PEs, "
      f"makespan {document['metrics']['makespan_seconds']:.2f}s")
PY

echo
echo "== chaos stage: DES simulator =="
python - "$PLAN_OUT" <<'PY'
import sys

from repro.faults import FaultPlan

plan = FaultPlan.random(["gpu0", "sse0", "sse1"], seed=7, horizon=4.0)
plan.save(sys.argv[1])
print(f"seeded fault plan: {len(plan.crashes)} crash(es), "
      f"{len(plan.stragglers)} straggler(s), "
      f"{len(plan.partitions)} partition(s), "
      f"message rate {plan.messages.total_rate:.2f}")
PY
python -m repro simulate --database rat --queries 6 --gpus 1 --sse 2 \
    --faults "$PLAN_OUT" --events-out "$FAULT_EVENTS" > /dev/null
python -m repro trace analyze "$FAULT_EVENTS" --format json \
    --out "$FAULT_TRACE" > /dev/null
python - "$FAULT_TRACE" <<'PY'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    document = json.load(handle)
faults = document.get("faults")
if not faults:
    sys.exit("trace report has no faults section")
if faults["total_injected"] == 0:
    sys.exit("seeded plan injected no faults")
if faults["released_tasks"] != faults["recovered_tasks"]:
    sys.exit(f"released {faults['released_tasks']} task(s) but only "
             f"{faults['recovered_tasks']} recovered")
print(f"DES chaos OK: {faults['total_injected']} fault(s) injected "
      f"({', '.join(faults['injected'])}), "
      f"{faults['reaps']} reap(s), "
      f"{faults['recovered_tasks']} task(s) recovered")
PY
# The service model runs the same DES run path as `repro simulate`:
# one crash plus one straggler under an open-loop request stream must
# drain with every admitted request done, identically across two runs.
python - <<'PY'
import sys

import numpy as np

from repro.faults import CrashFault, FaultPlan, StragglerFault
from repro.service import ServiceConfig
from repro.simulate import PESpec, ServiceSimulator, UniformModel, service_arrivals

plan = FaultPlan(
    seed=7,
    crashes=(CrashFault("pe1", at_time=5.0),),
    stragglers=(StragglerFault("pe0", factor=0.25, start=2.0, end=10.0),),
)


def run():
    sim = ServiceSimulator(
        [PESpec(f"pe{i}", UniformModel(rate=1e6)) for i in range(3)],
        database_residues=10_000, faults=plan,
    )
    arrivals = service_arrivals(2.0, 20.0, np.random.default_rng(7))
    return sim.run_service(arrivals, ServiceConfig(max_queue_depth=64))


first, second = run(), run()
states = {request.state for request in first.requests.values()}
if first.admitted == 0 or states != {"done"}:
    sys.exit(f"DES service chaos: admitted {first.admitted}, "
             f"terminal states {sorted(states)} (want all done)")
kinds = {event["kind"] for event in first.events}
if not {"fault_crash", "fault_straggle"} <= kinds:
    sys.exit(f"DES service chaos: faults did not fire ({sorted(kinds)})")
if (first.to_dict() != second.to_dict() or first.metrics != second.metrics
        or list(first.events) != list(second.events)):
    sys.exit("DES service chaos: two seeded runs differ")
print(f"DES service chaos OK: {first.admitted} request(s) admitted and "
      f"done, drained at {first.drained_at:.2f}s, replay identical")
PY

echo
echo "== chaos stage: threaded runtime + TCP cluster =="
python - <<'PY'
import numpy as np

from repro.align import BLOSUM62, DEFAULT_GAPS
from repro.cluster import run_cluster
from repro.core import HybridRuntime, ScanEngine
from repro.faults import CrashFault, FaultPlan, MessageFaults, StragglerFault
from repro.sequences import query_set, random_database


def hits(results):
    return {
        q: [(h.subject_index, h.score) for h in ranked]
        for q, ranked in results.items()
    }


rng = np.random.default_rng(7)
queries = query_set(4, rng, min_length=20, max_length=40)
database = random_database(16, 50.0, rng, name="chaosdb")
# A crash on w1 plus a straggling w0, with batch=2 in both environments:
# the one slave loop's batched sweep, straggle dilation and cancel path
# run under the same plan over an in-process link and over TCP.
plan = FaultPlan(
    seed=7,
    crashes=(CrashFault(pe_id="w1", after_tasks=1),),
    stragglers=(StragglerFault(pe_id="w0", factor=0.5),),
)


def engines():
    return {
        pe: ScanEngine(BLOSUM62, DEFAULT_GAPS, chunk_size=8)
        for pe in ("w0", "w1")
    }


baseline = HybridRuntime(engines(), batch=2).run(queries, database)
faulted = HybridRuntime(
    engines(), faults=plan, heartbeat_timeout=0.5, batch=2
).run(queries, database)
assert hits(faulted.results) == hits(baseline.results)
assert any(e["kind"] == "fault_crash" for e in faulted.events)
assert any(e["kind"] == "fault_straggle" for e in faulted.events)
print("threaded chaos OK: crash + straggle recovered, results identical")

workers = {"w0": "scan", "w1": "scan"}
baseline = run_cluster(
    queries, database, dict(workers), use_processes=False, timeout=60,
    batch=2,
)
faulted = run_cluster(
    queries, database, dict(workers), use_processes=False, timeout=60,
    heartbeat_timeout=0.5, faults=plan, batch=2,
)
assert hits(faulted.results) == hits(baseline.results)
assert any(e["kind"] == "fault_crash" for e in faulted.events)
assert any(e["kind"] == "fault_straggle" for e in faulted.events)
print("cluster chaos OK: crash + straggle recovered, results identical")

# Message faults only, with no replicas to mask a lost task: the one
# fault gate of the slave loop must lose, hold, repeat and delay
# messages in both environments without losing work.
messages = FaultPlan(
    seed=4,
    messages=MessageFaults(
        drop_rate=0.15, duplicate_rate=0.15, delay_rate=0.1,
        delay_seconds=0.005, corrupt_rate=0.05,
    ),
)
runs = {
    "threaded": lambda faults: HybridRuntime(
        engines(), adjustment=False, faults=faults
    ).run(queries, database),
    "cluster": lambda faults: run_cluster(
        queries, database, dict(workers), use_processes=False,
        adjustment=False, timeout=60, faults=faults,
    ),
}
for name, run in runs.items():
    faulted = run(messages)
    assert hits(faulted.results) == hits(run(None).results), name
    kinds = {e["kind"] for e in faulted.events}
    assert {"fault_drop", "fault_duplicate"} <= kinds, (name, kinds)
    print(f"{name} message chaos OK (no adjustment): results identical")
PY

echo
echo "== durability stage: master kill + resume, all environments =="
CKPT_DIR="$(mktemp -d -t repro-ckpt-XXXXXX)"
trap 'rm -f "$METRICS_OUT" "$EVENTS_OUT" "$TRACE_OUT" \
    "$PLAN_OUT" "$FAULT_EVENTS" "$FAULT_TRACE"; rm -rf "$CKPT_DIR"' EXIT
python - "$CKPT_DIR" <<'PY'
import os
import shutil
import sys

import numpy as np

from repro.align import BLOSUM62, DEFAULT_GAPS
from repro.cluster import run_cluster
from repro.core import HybridRuntime, ScanEngine, Task
from repro.faults import FaultPlan, MasterCrashed, MasterCrashFault
from repro.simulate import HybridSimulator, PESpec, UniformModel

root = sys.argv[1]


def hits(results):
    return {
        q: [(h.subject_index, h.score) for h in ranked]
        for q, ranked in results.items()
    }


# -- DES: modeled master crash + recovery ------------------------------
tasks = [
    Task(task_id=i, query_id=f"q{i}", query_length=300,
         cells=2_000_000_000, query_index=i)
    for i in range(12)
]
platform = [
    PESpec("gpu0", UniformModel(rate=30e9)),
    PESpec("sse0", UniformModel(rate=10e9)),
]
baseline = HybridSimulator(platform).run(list(tasks))
plan = FaultPlan(master_crash=MasterCrashFault(
    at_time=baseline.makespan / 2, recovery_after=0.2,
))
des_dir = os.path.join(root, "des")
report = HybridSimulator(
    platform, faults=plan, checkpoint_dir=des_dir,
).run(list(tasks))
assert sorted(report.results) == sorted(baseline.results)
kinds = [e["kind"] for e in report.events]
assert kinds.count("fault_master_crash") == 1
assert kinds.count("recovery_resume") == 1
restored = {e["task"] for e in report.events
            if e["kind"] == "recovery_task"}
assert restored, "mid-run crash must have recovered finished work"
print(f"DES durability OK: crash at {plan.master_crash.at_time:.2f}s, "
      f"{len(restored)} task(s) restored, all {len(tasks)} finished")

# -- threaded runtime: kill mid-run, resume from the journal -----------
from repro.sequences import query_set, random_database

rng = np.random.default_rng(7)
queries = query_set(6, rng, min_length=20, max_length=40)
database = random_database(25, 50.0, rng, name="durdb")


def engines():
    return {
        pe: ScanEngine(BLOSUM62, DEFAULT_GAPS, chunk_size=8)
        for pe in ("w0", "w1")
    }


thr_dir = os.path.join(root, "threaded")
baseline = HybridRuntime(engines()).run(queries, database)
# The crash is armed on the wall clock, so a fast machine may finish
# the workload before it fires; retry with an earlier kill if so.
for at_time in (0.05, 0.02, 0.005, 0.0):
    shutil.rmtree(thr_dir, ignore_errors=True)
    crash_plan = FaultPlan(master_crash=MasterCrashFault(at_time=at_time))
    try:
        HybridRuntime(
            engines(), faults=crash_plan, checkpoint_dir=thr_dir,
        ).run(queries, database)
    except MasterCrashed:
        break
else:
    sys.exit("master crash never fired, even at at_time=0.0")
resumed = HybridRuntime(
    engines(), checkpoint_dir=thr_dir,
).run(queries, database)
assert hits(resumed.results) == hits(baseline.results)
kinds = [e["kind"] for e in resumed.events]
assert kinds.count("recovery_resume") == 1
restored = {e["task"] for e in resumed.events
            if e["kind"] == "recovery_task"}
assigned = {e["task"] for e in resumed.events
            if e["kind"] in ("assign", "replica")}
assert restored.isdisjoint(assigned), "a restored task was re-executed"
print(f"threaded durability OK: resumed with {len(restored)} restored, "
      f"{len(assigned)} recomputed, results identical")

# -- cluster: run, then a second incarnation adopts the journal --------
cl_dir = os.path.join(root, "cluster")
workers = {"w0": "scan", "w1": "scan"}
first = run_cluster(
    queries, database, dict(workers), use_processes=False, timeout=60,
    checkpoint_dir=cl_dir,
)
assert hits(first.results) == hits(baseline.results)
resumed = run_cluster(
    queries, database, dict(workers), use_processes=False, timeout=60,
    checkpoint_dir=cl_dir,
)
assert hits(resumed.results) == hits(baseline.results)
kinds = [e["kind"] for e in resumed.events]
assert kinds.count("recovery_resume") == 1
assert "assign" not in kinds, "restarted master re-executed work"
print("cluster durability OK: restarted master adopted the journal, "
      "zero tasks re-executed")
PY

echo
echo "== journal verify =="
python -m repro journal verify "$CKPT_DIR/threaded"
python -m repro journal inspect "$CKPT_DIR/cluster" > /dev/null
# Negative check: a flipped byte must be detected.
python - "$CKPT_DIR/threaded/journal.jsonl" <<'PY'
import sys

path = sys.argv[1]
with open(path, "rb") as handle:
    lines = handle.read().split(b"\n")
lines[0] = lines[0][:-4] + b"beef"
with open(path, "wb") as handle:
    handle.write(b"\n".join(lines))
PY
if python -m repro journal verify "$CKPT_DIR/threaded" 2>/dev/null; then
    echo "journal verify missed a corrupted record" >&2
    exit 1
fi
echo "corruption detection OK: flipped byte rejected"

echo
echo "== telemetry stage: live scrape + stream validation =="
TELE_DIR="$(mktemp -d -t repro-tele-XXXXXX)"
trap 'rm -f "$METRICS_OUT" "$EVENTS_OUT" "$TRACE_OUT" \
    "$PLAN_OUT" "$FAULT_EVENTS" "$FAULT_TRACE"; \
    rm -rf "$CKPT_DIR" "$TELE_DIR"' EXIT
# Live scrape: a real TCP master serving /metrics while a worker runs.
# The strict OpenMetrics parser is the gate — any exposition drift
# (bad escaping, non-cumulative buckets, missing EOF) fails loudly.
python - "$TELE_DIR" <<'PY'
import json
import sys
import threading
import urllib.request

import numpy as np

from repro.cluster import MasterServer, WorkerConfig, run_worker
from repro.core.runtime import build_tasks
from repro.observability import parse_openmetrics
from repro.sequences import query_set, random_database, write_indexed

root = sys.argv[1]
rng = np.random.default_rng(13)
queries = query_set(4, rng, min_length=30, max_length=60)
database = random_database(25, 50.0, rng, name="teledb")
q_path, d_path = f"{root}/q.seqx", f"{root}/d.seqx"
write_indexed(queries, q_path)
write_indexed(list(database), d_path)
server = MasterServer(build_tasks(queries, database), http_port=0)
server.start()
try:
    host, port = server.address
    config = WorkerConfig(host=host, port=port, pe_id="w0", engine="scan",
                          query_path=q_path, database_path=d_path)
    thread = threading.Thread(target=run_worker, args=(config,),
                              daemon=True)
    thread.start()
    # Scrape mid-run: must parse strictly even while counters move.
    with urllib.request.urlopen(server.httpd.url("/metrics"),
                                timeout=10) as response:
        midrun = response.read().decode("utf-8")
    parse_openmetrics(midrun)
    server.wait_finished(timeout=120)
    thread.join(timeout=30)
    with urllib.request.urlopen(server.httpd.url("/metrics"),
                                timeout=10) as response:
        families = parse_openmetrics(response.read().decode("utf-8"))
    samples = families["cluster_worker_connects"]["samples"]
    pes = {dict(key[1]).get("pe") for key in samples}
    if "w0" not in pes:
        sys.exit("worker-side per-PE series missing from /metrics")
    with urllib.request.urlopen(server.httpd.url("/healthz"),
                                timeout=10) as response:
        assert response.read() == b"ok\n"
    with urllib.request.urlopen(server.httpd.url("/statusz"),
                                timeout=10) as response:
        status = json.load(response)
    assert status["schema"] == "repro.status.v1"
finally:
    server.stop()
print(f"live scrape OK: {len(families)} families parsed strictly, "
      "worker series piggybacked, /healthz + /statusz served")
PY
# Stream check: the DES virtual-clock stream's final record must match
# the end-of-run snapshot byte for byte.
python -m repro simulate --database rat --queries 6 --gpus 1 --sse 2 \
    --telemetry-out "$TELE_DIR/sim.jsonl" \
    --metrics-out "$TELE_DIR/sim-metrics.json" > /dev/null
python - "$TELE_DIR/sim.jsonl" "$TELE_DIR/sim-metrics.json" <<'PY'
import json
import sys

from repro.observability import (
    MetricsRegistry,
    read_telemetry,
    replay_telemetry,
)

stream_path, snapshot_path = sys.argv[1:3]
records = read_telemetry(stream_path)  # validates schema + record kinds
kinds = [r["record"] for r in records]
if kinds[0] != "header" or kinds[-1] != "final":
    sys.exit(f"malformed stream: {kinds[:3]}...{kinds[-1:]}")
with open(snapshot_path, encoding="utf-8") as handle:
    snapshot = json.load(handle)
if json.dumps(records[-1]["snapshot"], sort_keys=True) != json.dumps(
    snapshot, sort_keys=True
):
    sys.exit("final telemetry record differs from the run snapshot")
MetricsRegistry.from_snapshot(replay_telemetry(records))  # folds cleanly
print(f"telemetry stream OK: {kinds.count('sample')} virtual-clock "
      "sample(s), final record byte-identical to the run snapshot")
PY

echo
echo "== service stage: latency sweep + live drain under load =="
# Virtual-clock gate: p99 latency stays bounded below saturation and
# the admission layer sheds loudly above it (see
# benchmarks/bench_service_latency.py for the asserted curve).
env PYTHONPATH="$REPO_ROOT/src:$REPO_ROOT/benchmarks" \
    python -m pytest benchmarks/bench_service_latency.py \
    --benchmark-only --benchmark-min-rounds=1 -q
# Live drain-under-load: a service master takes open-loop Poisson
# traffic from `repro loadgen`, then SIGTERM must stop admission,
# finish the in-flight requests, print a final service record and
# exit 0.
SVC_DIR="$(mktemp -d -t repro-svc-XXXXXX)"
trap 'rm -f "$METRICS_OUT" "$EVENTS_OUT" "$TRACE_OUT" \
    "$PLAN_OUT" "$FAULT_EVENTS" "$FAULT_TRACE"; \
    rm -rf "$CKPT_DIR" "$TELE_DIR" "$SVC_DIR"' EXIT
python - "$SVC_DIR" <<'PY'
import sys

import numpy as np

from repro.sequences import query_set, random_database, write_fasta

rng = np.random.default_rng(29)
root = sys.argv[1]
write_fasta(query_set(3, rng, min_length=30, max_length=60),
            f"{root}/queries.fasta")
write_fasta(random_database(25, 50.0, rng, name="servicedb"),
            f"{root}/database.fasta")
PY
python -m repro serve "$SVC_DIR/queries.fasta" "$SVC_DIR/database.fasta" \
    --service --port 0 --export "$SVC_DIR/export" \
    > "$SVC_DIR/serve.log" 2>&1 &
SERVE_PID=$!
PORT=""
for _ in $(seq 1 100); do
    PORT="$(sed -n 's/^master listening on .*:\([0-9][0-9]*\)$/\1/p' \
        "$SVC_DIR/serve.log" | head -n 1)"
    [ -n "$PORT" ] && break
    sleep 0.1
done
if [ -z "$PORT" ]; then
    echo "service master did not come up" >&2
    cat "$SVC_DIR/serve.log" >&2
    exit 1
fi
python -m repro worker --host 127.0.0.1 --port "$PORT" --pe-id w0 \
    --engine scan --queries "$SVC_DIR/export/queries.seqx" \
    --database "$SVC_DIR/export/database.seqx" \
    > "$SVC_DIR/worker.log" 2>&1 &
WORKER_PID=$!
python -m repro loadgen --port "$PORT" --rate 10 --horizon 1.5 \
    --json > "$SVC_DIR/loadgen.json"
kill -TERM "$SERVE_PID"
SERVE_RC=0
wait "$SERVE_PID" || SERVE_RC=$?
if [ "$SERVE_RC" -ne 0 ]; then
    echo "service master exited $SERVE_RC after SIGTERM drain" >&2
    cat "$SVC_DIR/serve.log" >&2
    exit 1
fi
wait "$WORKER_PID" || true
python - "$SVC_DIR/loadgen.json" "$SVC_DIR/serve.log" <<'PY'
import json
import sys

loadgen_path, serve_log = sys.argv[1:3]
with open(loadgen_path, encoding="utf-8") as handle:
    report = json.load(handle)
if report["offered"] != report["admitted"] + report["shed_total"]:
    sys.exit(f"loadgen conservation violated: {report}")
if report["completed"] != report["admitted"]:
    sys.exit(f"admitted requests did not all complete: {report}")
with open(serve_log, encoding="utf-8") as handle:
    final = json.loads(handle.read().splitlines()[-1])
if final.get("kind") != "service_final" or not final.get("drained"):
    sys.exit(f"bad final service record: {final}")
if final["requests"]["done"] != report["completed"]:
    sys.exit(f"final record disagrees with loadgen: {final} vs {report}")
print(f"service OK: {report['offered']} offered, "
      f"{report['completed']} completed "
      f"(p99 {report['latency_p99'] * 1000:.0f} ms), "
      f"{report['shed_total']} shed, drain exited 0")
PY

echo
echo "== service recovery stage: kill -9 mid-stream, cold restart =="
# Journal overhead gate: admitting through the service journal (one
# fsync per accepted request) must cost <=5% submit-to-drained wall
# time, and a crashed service must cold-restart byte-identical (see
# benchmarks/bench_service_recovery.py for the asserted run).
env PYTHONPATH="$REPO_ROOT/src:$REPO_ROOT/benchmarks" \
    python -m pytest benchmarks/bench_service_recovery.py \
    --benchmark-only --benchmark-min-rounds=1 -q
# Live crash/restart: a `--service --checkpoint` master takes seeded
# open-loop traffic, dies by kill -9 once admissions are journaled,
# and a fresh process on the same checkpoint directory must finish
# every admitted request with hits byte-identical to the one-shot
# reference search while the loadgen rides over the outage on
# idempotent retries under stable request ids.
RECOV_DIR="$(mktemp -d -t repro-recov-XXXXXX)"
trap 'rm -f "$METRICS_OUT" "$EVENTS_OUT" "$TRACE_OUT" \
    "$PLAN_OUT" "$FAULT_EVENTS" "$FAULT_TRACE"; \
    rm -rf "$CKPT_DIR" "$TELE_DIR" "$SVC_DIR" "$RECOV_DIR"' EXIT
python - "$RECOV_DIR" <<'PY'
import sys

import numpy as np

from repro.sequences import query_set, random_database, write_fasta

rng = np.random.default_rng(31)
root = sys.argv[1]
write_fasta(query_set(3, rng, min_length=30, max_length=60),
            f"{root}/queries.fasta")
write_fasta(random_database(25, 50.0, rng, name="recovdb"),
            f"{root}/database.fasta")
PY
python -m repro serve "$RECOV_DIR/queries.fasta" \
    "$RECOV_DIR/database.fasta" \
    --service --checkpoint "$RECOV_DIR/ckpt" --port 0 \
    --export "$RECOV_DIR/export" \
    > "$RECOV_DIR/serve1.log" 2>&1 &
SERVE1_PID=$!
PORT=""
for _ in $(seq 1 100); do
    PORT="$(sed -n 's/^master listening on .*:\([0-9][0-9]*\)$/\1/p' \
        "$RECOV_DIR/serve1.log" | head -n 1)"
    [ -n "$PORT" ] && break
    sleep 0.1
done
if [ -z "$PORT" ]; then
    echo "service master did not come up" >&2
    cat "$RECOV_DIR/serve1.log" >&2
    exit 1
fi
python -m repro worker --host 127.0.0.1 --port "$PORT" --pe-id w0 \
    --engine scan --queries "$RECOV_DIR/export/queries.seqx" \
    --database "$RECOV_DIR/export/database.seqx" \
    > "$RECOV_DIR/worker1.log" 2>&1 &
WORKER1_PID=$!
python -m repro loadgen --port "$PORT" --rate 12 --horizon 2.5 \
    --seed 37 --retries 8 --request-id-prefix recov \
    --json > "$RECOV_DIR/loadgen.json" &
LOADGEN_PID=$!
# Kill only after the journal holds real admissions, so the restart
# has something to recover; every record line carries its type.
COUNT=0
for _ in $(seq 1 200); do
    COUNT="$(grep -c admit "$RECOV_DIR/ckpt/service.jsonl" \
        2>/dev/null || true)"
    if [ "${COUNT:-0}" -ge 3 ]; then break; fi
    sleep 0.1
done
if [ "${COUNT:-0}" -lt 3 ]; then
    echo "loadgen admissions never reached the service journal" >&2
    exit 1
fi
kill -9 "$SERVE1_PID" 2>/dev/null || true
wait "$SERVE1_PID" 2>/dev/null || true
python - "$RECOV_DIR/ckpt" <<'PY'
import sys

from repro.durability import CheckpointStore

state = CheckpointStore(sys.argv[1]).recover_service()
if not state.requests:
    sys.exit("no admissions survived in the service journal")
print(f"killed -9 with {len(state.requests)} journaled admission(s)")
PY
python -m repro serve "$RECOV_DIR/queries.fasta" \
    "$RECOV_DIR/database.fasta" \
    --service --checkpoint "$RECOV_DIR/ckpt" --port "$PORT" \
    --export "$RECOV_DIR/export2" \
    > "$RECOV_DIR/serve2.log" 2>&1 &
SERVE2_PID=$!
REBOUND=""
for _ in $(seq 1 100); do
    REBOUND="$(sed -n 's/^master listening on .*:\([0-9][0-9]*\)$/\1/p' \
        "$RECOV_DIR/serve2.log" | head -n 1)"
    [ -n "$REBOUND" ] && break
    sleep 0.1
done
if [ "$REBOUND" != "$PORT" ]; then
    echo "restarted master did not rebind port $PORT" >&2
    cat "$RECOV_DIR/serve2.log" >&2
    exit 1
fi
python -m repro worker --host 127.0.0.1 --port "$PORT" --pe-id w1 \
    --engine scan --queries "$RECOV_DIR/export2/queries.seqx" \
    --database "$RECOV_DIR/export2/database.seqx" \
    > "$RECOV_DIR/worker2.log" 2>&1 &
WORKER2_PID=$!
LOADGEN_RC=0
wait "$LOADGEN_PID" || LOADGEN_RC=$?
if [ "$LOADGEN_RC" -ne 0 ]; then
    echo "loadgen exited $LOADGEN_RC across the restart" >&2
    cat "$RECOV_DIR/serve2.log" >&2
    exit 1
fi
python - "$RECOV_DIR" "$PORT" <<'PY'
import json
import sys

import numpy as np

from repro.align import BLOSUM62, DEFAULT_GAPS, database_search
from repro.sequences import SequenceDatabase, query_set
from repro.service import ServiceClient
from repro.simulate.loadgen import poisson_arrivals

root, port = sys.argv[1], int(sys.argv[2])
with open(f"{root}/loadgen.json", encoding="utf-8") as handle:
    report = json.load(handle)
conserved = (report["admitted"] + report["shed_total"]
             + report["unreachable"])
if report["offered"] != conserved:
    sys.exit(f"loadgen conservation violated: {report}")
if report["unreachable"]:
    sys.exit(f"retries exhausted across the restart: {report}")
if report["completed"] != report["admitted"] or not report["admitted"]:
    sys.exit(f"admitted requests did not all complete: {report}")
# Replay the loadgen's seeded synthesis (arrivals first, then the
# query set — exactly run_loadgen's rng order) to learn what each
# stable request id asked for, then diff the restarted master's hits
# against the one-shot reference search.
rng = np.random.default_rng(37)
arrivals = poisson_arrivals(12.0, 2.5, rng)
queries = query_set(max(len(arrivals), 1), rng,
                    min_length=40, max_length=120)
database = SequenceDatabase.from_fasta(
    f"{root}/database.fasta", alphabet=BLOSUM62.alphabet
)
client = ServiceClient("127.0.0.1", port)
done = 0
for index in range(report["offered"]):
    request_id = f"recov-{index:05d}"
    reply = client.poll(request_id)
    if reply.get("type") == "error":
        continue  # shed at admission; never entered the system
    if reply.get("state") != "done":
        sys.exit(f"{request_id} still {reply.get('state')!r} "
                 "after loadgen finished")
    expected = database_search(
        queries[index], database, BLOSUM62, DEFAULT_GAPS, top=5
    ).hits
    if tuple(reply["hits"]) != tuple(expected):
        sys.exit(f"{request_id} hits differ from the one-shot "
                 "reference after the restart")
    done += 1
client.close()
if done != report["completed"]:
    sys.exit(f"polled {done} done requests, loadgen saw "
             f"{report['completed']}")
print(f"recovery OK: {report['offered']} offered, {done} requests "
      f"byte-identical across kill -9, {report['shed_total']} shed")
PY
kill -TERM "$SERVE2_PID"
SERVE2_RC=0
wait "$SERVE2_PID" || SERVE2_RC=$?
if [ "$SERVE2_RC" -ne 0 ]; then
    echo "restarted master exited $SERVE2_RC after SIGTERM drain" >&2
    cat "$RECOV_DIR/serve2.log" >&2
    exit 1
fi
wait "$WORKER1_PID" 2>/dev/null || true
wait "$WORKER2_PID" 2>/dev/null || true
python - "$RECOV_DIR/ckpt" <<'PY'
import sys

from repro.durability import CheckpointStore

state = CheckpointStore(sys.argv[1]).recover_service()
if not state.drained:
    sys.exit("drained restart left the service journal undrained")
print("service journal records the drain; cold state is terminal")
PY

echo
echo "all checks passed"
