"""One measuring process of a workload.

    python3 perfbench/rep.py WORKLOAD INPUT_DIR TRACE BUDGET OUT_JSON

``WORKLOAD`` is ``search_exact``, ``search_batched``, ``paper_sim`` or
``kernel`` (the served workload's queries timed standalone).  The
process imports the program and sets up — the parent measures set-up
from process start to the ``ready`` timestamp written here — then runs
units of work (one search, or one sweep of simulations) until about
``BUDGET`` seconds have passed, at least one; a negative ``BUDGET``
runs none, so the process only contributes a set-up sample.  Each unit starts from a
fresh engine, runtime or simulator, so every unit does the same work as
the first; only the interpreter is warm.  Timings, outputs and the
process's own peak RSS go to ``OUT_JSON``.  With ``TRACE`` = 1 the
program's public calls are wrapped in spans first (see :mod:`tracing`),
exactly one unit runs, and per-layer numbers are added.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from fixtures import SEARCH_TOP, SERVED_TOP  # noqa: E402

#: Query-length classes of the kernel-rate curve (residues).
LENGTH_CLASSES = (("q_short", 0, 300), ("q_mid", 300, 700),
                  ("q_long", 700, 1 << 30))


def observe(tracer, name, args, seconds):
    """Count cells and padding of sweep calls and multi-query profiles."""
    if name == "align.sweep":
        first, pack = args[0], args[1]
        rows, lanes = pack.residues.shape
        useful_per_residue = int(pack.lengths.sum())
        if hasattr(first, "lengths"):  # multi-query profile
            useful = int(first.lengths.sum()) * useful_per_residue
            computed = first.max_length * first.queries * rows * lanes
        else:
            m = len(first)
            useful = m * useful_per_residue
            computed = m * rows * lanes
            for label, low, high in LENGTH_CLASSES:
                if low <= m < high:
                    tracer.count(f"sweep.cells.{label}", useful)
                    tracer.count(f"sweep.seconds.{label}", seconds)
        tracer.count("sweep.useful", useful)
        tracer.count("sweep.computed", computed)
    elif name == "align.profile" and isinstance(args[0], (list, tuple)):
        lengths = [len(codes) for codes in args[0]]
        tracer.count("batch.pad", sum(max(lengths) - m for m in lengths))
        tracer.count("batch.span", len(lengths) * max(lengths))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def search_layers(tracer, engine, run_window, wall_s) -> dict:
    spans = tracer.spans
    counts = tracer.counters
    layers = tracing.layer_seconds(spans)
    del layers["simulate.run_s"]
    layers["align.pad_frac"] = _ratio(
        counts.get("sweep.computed", 0) - counts.get("sweep.useful", 0),
        counts.get("sweep.computed", 0))
    layers["align.batch_pad_frac"] = _ratio(counts.get("batch.pad", 0),
                                            counts.get("batch.span", 0))
    for label, _low, _high in LENGTH_CLASSES:
        layers[f"align.sweep_gcups.{label}"] = _ratio(
            counts.get(f"sweep.cells.{label}", 0),
            counts.get(f"sweep.seconds.{label}", 0)) / 1e9
    layers["core.sched_s"] = wall_s - layers["core.engine_s"]
    stats = engine.screen_stats
    layers["align.rescore_frac"] = _ratio(stats.rescored,
                                          stats.passed + stats.rescored)
    hits = misses = 0
    for cache in (engine.pack_cache, engine.profile_cache):
        if cache is not None:
            hits += cache.lru.hits
            misses += cache.lru.misses
    layers["core.cache_hit_frac"] = _ratio(hits, hits + misses)
    # Span coverage: top-level spans other than the run itself that
    # start inside the run window, as a share of the run's wall time.
    start, end = run_window
    covered = sum(
        e - s for _sid, name, s, e, parent, _tid in spans
        if not parent and name != "core.run" and start <= s <= end
    )
    layers["trace.coverage_frac"] = _ratio(covered, wall_s)
    return layers


def repeat(unit, budget: float) -> list[dict]:
    """Run *unit* until *budget* seconds pass, ending at most half a unit late.

    A negative budget runs no unit: the process only sets up.
    """
    units = []
    if budget < 0:
        return units
    start = time.perf_counter()
    while True:
        units.append(unit())
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 0.5 / len(units)) > budget:
            return units


def run_search(workload: str, inputs: Path, tracer, budget: float) -> dict:
    from repro.align.gaps import DEFAULT_GAPS
    from repro.align.scoring import get_matrix
    from repro.core.engines import InterSequenceEngine
    from repro.core.runtime import HybridRuntime
    from repro.sequences.database import SequenceDatabase
    from repro.sequences.fasta import read_fasta

    matrix = get_matrix("blosum62")
    queries = read_fasta(inputs / "queries.fasta", alphabet=matrix.alphabet)
    database = SequenceDatabase.from_fasta(
        inputs / "database.fasta", alphabet=matrix.alphabet
    )
    store = None
    if workload == "search_batched":
        from repro.store import PackStore

        batch = json.loads((inputs / "fixture.json").read_text())["batch"]
        store = PackStore(inputs / "store")
        store.verify()

    def build(store=None):
        if workload == "search_exact":
            engine = InterSequenceEngine(matrix, DEFAULT_GAPS, top=SEARCH_TOP)
            return engine, HybridRuntime({"gpu0": engine})
        # Later units open the store again (without the set-up's verify)
        # so that their engines, too, start with empty caches.
        if store is None:
            store = PackStore(inputs / "store")
        engine = InterSequenceEngine(matrix, DEFAULT_GAPS, top=SEARCH_TOP,
                                     store=store, screen=True)
        return engine, HybridRuntime({"gpu0": engine}, batch=batch)

    built = [build(store)]
    ready = time.monotonic()

    def unit() -> dict:
        engine, runtime = built.pop() if built else build()
        start = time.perf_counter()
        report = runtime.run(queries, database, top=SEARCH_TOP)
        end = time.perf_counter()
        done = {
            "wall_s": end - start,
            "outputs": {
                q.id: [[h.subject_id, int(h.score)]
                       for h in report.results[q.id]]
                for q in queries
            },
        }
        if tracer is not None:
            done["layers"] = search_layers(tracer, engine, (start, end),
                                           end - start)
        return done

    residues = sum(len(record) for record in database)
    return {
        "ready": ready,
        "cells": sum(len(q) for q in queries) * residues,
        "units": repeat(unit, budget),
    }


def run_paper_sim(inputs: Path, tracer, budget: float) -> dict:
    from repro.core.task import Task
    from repro.simulate import hybrid_platform

    spec = json.loads((inputs / "tasks.json").read_text())
    lengths = spec["query_lengths"]
    platform = hybrid_platform(spec["gpus"], spec["sse"])
    workloads = [
        (db["name"], [
            Task(task_id=i, query_id=f"q{i:03d}", query_length=n,
                 cells=n * db["residues"], query_index=i)
            for i, n in enumerate(lengths)
        ])
        for db in spec["databases"]
    ]
    plan = [
        (name, tasks, policy, adjustment)
        for name, tasks in workloads
        for policy in spec["policies"]
        for adjustment in spec["adjustment"]
    ]
    ready = time.monotonic()
    return {"ready": ready,
            "units": repeat(lambda: _sweep(plan, platform, tracer), budget)}


def _sweep(plan, platform, tracer) -> dict:
    """One unit: every simulation of the plan, then its checks."""
    from repro.core.policies import make_policy
    from repro.simulate import HybridSimulator

    start = time.perf_counter()
    reports = [
        HybridSimulator(platform, policy=make_policy(policy),
                        adjustment=adjustment).run(tasks)
        for _name, tasks, policy, adjustment in plan
    ]
    wall_s = time.perf_counter() - start
    outputs = {}
    for (name, tasks, policy, adjustment), report in zip(plan, reports):
        winners: dict[int, list[str]] = {}
        for interval in report.intervals:
            if interval.outcome == "won":
                winners.setdefault(interval.task_id, []).append(
                    interval.pe_id)
        # What the program reports back: one merged result per task,
        # from the PE whose interval won it, carrying the task's cells.
        results = report.results
        outputs[f"{name}|{policy}|adj={int(adjustment)}"] = {
            "tasks": len(tasks),
            "won_once": sum(1 for t in tasks
                            if len(winners.get(t.task_id, ())) == 1),
            "results": len(results),
            "result_from_winner": sum(
                1 for t, r in results.items()
                if winners.get(t) == [r.pe_id]),
            "result_cells": sum(r.cells for r in results.values()),
            "total_cells": sum(t.cells for t in tasks),
            "makespan": report.makespan,
        }
    result = {"wall_s": wall_s, "outputs": outputs}
    if tracer is not None:
        seconds = tracing.layer_seconds(tracer.spans)
        des_s = seconds["simulate.run_s"]
        master_s = seconds["core.master_s"]
        busy = waste = 0.0
        for report in reports:
            for interval in report.intervals:
                length = interval.end - interval.start
                busy += length
                if interval.outcome != "won":
                    waste += length
        result["layers"] = {
            "core.master_s": master_s,
            "simulate.loop_s": des_s - master_s,
            "simulate.events_per_s": _ratio(
                tracer.counters.get("simulate.events", 0), des_s),
            "simulate.virt_makespan_s": sum(r.makespan for r in reports),
            "core.replica_waste_frac": _ratio(waste, busy),
        }
    return result


def run_kernel(inputs: Path) -> dict:
    """Served queries through the worker's engine, without the service."""
    from repro.align.gaps import DEFAULT_GAPS
    from repro.align.scoring import get_matrix
    from repro.core.engines import InterSequenceEngine
    from repro.sequences.database import SequenceDatabase
    from repro.sequences.records import Sequence

    matrix = get_matrix("blosum62")
    database = SequenceDatabase.from_fasta(
        inputs / "database.fasta", alphabet=matrix.alphabet
    )
    schedule = json.loads((inputs / "schedule.json").read_text())
    engine = InterSequenceEngine(matrix, DEFAULT_GAPS, top=SERVED_TOP)
    ready = time.monotonic()
    durations = []
    for request in schedule:
        query = Sequence(id=request["id"], residues=request["residues"],
                         alphabet=matrix.alphabet)
        start = time.perf_counter()
        engine.search(query, database)
        durations.append(time.perf_counter() - start)
    return {"ready": ready, "durations": durations}


def main(argv: list[str]) -> int:
    workload, inputs, trace, budget, out = argv
    inputs = Path(inputs)
    budget = 0.0 if trace == "1" else float(budget)
    tracer = None
    if trace == "1" and workload != "kernel":
        tracer = tracing.Tracer(observe=observe)
        if workload == "paper_sim":
            tracing.instrument(tracer, tracing.SIMULATE_TARGETS
                               + tracing.MASTER_TARGETS)
            tracing.count_events(tracer)
        else:
            tracing.instrument(tracer, tracing.SEARCH_TARGETS
                               + tracing.MASTER_TARGETS)
    if workload in ("search_exact", "search_batched"):
        result = run_search(workload, inputs, tracer, budget)
    elif workload == "paper_sim":
        result = run_paper_sim(inputs, tracer, budget)
    elif workload == "kernel":
        result = run_kernel(inputs)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["spans"] = len(tracer.spans)
        spans_path = Path(out).with_suffix(".spans.jsonl")
        with open(spans_path, "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
    Path(out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
