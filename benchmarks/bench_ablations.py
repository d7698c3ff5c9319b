"""Ablations over the design choices DESIGN.md calls out.

* **Omega window** — PSS's notification-history length trades reaction
  speed against noise (Section IV-A-2's "small Omega ... very recent
  histories").
* **Task granularity** — the paper's very coarse decomposition (query x
  whole DB) versus chunked databases.
* **Submission order** — shuffled vs shortest-first vs longest-first;
  the tail of the coarse decomposition is order-sensitive.
* **8-bit first pass** — fraction of real protein comparisons that
  overflow the 255 cap and pay the 16-bit re-run (Section IV-C).
* **Lane packing** — padding waste of the streamed-lane conversion
  versus packing in submission order.
"""

import numpy as np
import pytest

from repro.align import BLOSUM62, DEFAULT_GAPS, pack_database, sw_score_striped
from repro.bench import format_grid, run_configuration, tasks_for_profile
from repro.core import Task
from repro.sequences import ENSEMBL_DOG, SWISSPROT, random_database, random_sequence
from repro.simulate import HybridSimulator, PESpec, UniformModel, competing_process
from repro.simulate.platform import sse_cores

from conftest import emit


def test_ablation_omega_window(benchmark):
    """Non-dedicated run under different Omega values.

    Larger windows smooth the estimate but slow the reaction to the
    t=60s load step; all values must still beat a 20% augmentation.
    """
    tasks = tasks_for_profile(ENSEMBL_DOG)
    load = {0: competing_process(60.0, 0.45)}

    def sweep():
        rows = []
        for omega in (1, 2, 8, 32):
            sim = HybridSimulator(
                sse_cores(4, load_profiles=load), omega=omega
            )
            report = sim.run(list(tasks))
            rows.append((omega, round(report.makespan, 1)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Ablation - PSS Omega window (non-dedicated Dog run)",
        format_grid(["Omega", "Makespan (s)"], rows),
    )
    baseline = HybridSimulator(sse_cores(4)).run(list(tasks)).makespan
    for _, makespan in rows:
        assert makespan / baseline < 1.20


def test_ablation_task_granularity(benchmark):
    """Query x whole-DB (the paper's choice) vs query x DB-chunk.

    Two opposing forces: finer tasks shrink the end-of-run tail (less
    need for the adjustment mechanism), but every task pays the
    encapsulated-CUDASW++ launch/load overhead again.  On the paper's
    platform the overhead dominates — which is exactly why the paper
    picks the very coarse decomposition and fixes the tail with
    replication instead.  On an overhead-free platform the ranking
    flips.
    """
    profile = ENSEMBL_DOG

    def chunked(base, chunks):
        return [
            Task(
                task_id=t.task_id * chunks + c,
                query_id=f"{t.query_id}.{c}",
                query_length=t.query_length,
                cells=t.cells // chunks,
            )
            for t in base
            for c in range(chunks)
        ]

    def sweep():
        rows = []
        for chunks in (1, 2, 8):
            tasks = chunked(tasks_for_profile(profile), chunks)
            with_overhead = run_configuration(tasks, 2, 4).makespan
            free_pes = [
                PESpec(f"pe{i}", UniformModel(rate=r * 1e9))
                for i, r in enumerate((50.0, 50.0, 2.8, 2.8, 2.8, 2.8))
            ]
            no_overhead = HybridSimulator(free_pes).run(
                chunked(tasks_for_profile(profile), chunks)
            ).makespan
            rows.append(
                (f"1/{chunks} database", len(tasks),
                 round(with_overhead, 1), round(no_overhead, 1))
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Ablation - task granularity (2 GPUs + 4 SSEs, Dog)",
        format_grid(
            ["Task size", "#Tasks", "Makespan (s)", "Overhead-free (s)"],
            rows,
        ),
    )
    with_oh = [row[2] for row in rows]
    without_oh = [row[3] for row in rows]
    # Launch overhead dominates: finest is clearly worse than coarse.
    assert with_oh[-1] > with_oh[0] * 1.3
    # Without overhead, finer granularity never hurts (tail shrinks).
    assert without_oh[-1] <= without_oh[0] * 1.02


def test_ablation_submission_order(benchmark):
    """Shuffled vs sorted vs longest-first on 8 SSE cores."""

    def sweep():
        rows = []
        for order in ("shuffled", "sorted", "longest"):
            tasks = tasks_for_profile(ENSEMBL_DOG, order=order)
            report = run_configuration(tasks, 0, 8)
            rows.append((order, round(report.makespan, 1)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Ablation - submission order (8 SSE cores, Dog)",
        format_grid(["Order", "Makespan (s)"], rows),
    )
    by_order = dict(rows)
    assert by_order["longest"] <= by_order["shuffled"]
    assert by_order["longest"] <= by_order["sorted"]


def test_ablation_8bit_overflow_fraction(benchmark):
    """How often does the 255-cap first pass overflow on real data?"""
    rng = np.random.default_rng(99)
    query = random_sequence(300, rng, seq_id="q")
    database = random_database(80, 150.0, rng, name="ab")

    def run():
        precisions = [
            sw_score_striped(query, subject, BLOSUM62, DEFAULT_GAPS).precision
            for subject in database
        ]
        return precisions

    precisions = benchmark.pedantic(run, rounds=1, iterations=1)
    overflow_fraction = sum(1 for p in precisions if p > 8) / len(precisions)
    emit(
        "Ablation - adapted-Farrar 8-bit first pass",
        f"comparisons: {len(precisions)}\n"
        f"8-bit sufficient: {1 - overflow_fraction:.1%}\n"
        f"16-bit re-runs:   {overflow_fraction:.1%}",
    )
    # Random (non-homologous) protein scores rarely exceed 255.
    assert overflow_fraction < 0.20


def test_ablation_lane_packing_waste(benchmark):
    """Padding waste of streamed lanes vs submission-order packing."""
    rng = np.random.default_rng(7)
    database = random_database(256, 150.0, rng, name="pack")

    def measure():
        sorted_cells = sum(
            pack.residues.shape[0] * pack.lanes
            for pack in pack_database(database, BLOSUM62, lanes=32)
        )
        # Unsorted packing: group records in submission order.
        unsorted_cells = 0
        records = list(database)
        for start in range(0, len(records), 32):
            chunk = records[start : start + 32]
            unsorted_cells += max(len(r) for r in chunk) * len(chunk)
        return sorted_cells, unsorted_cells

    sorted_cells, unsorted_cells = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    useful = database.total_residues
    emit(
        "Ablation - lane packing (32 lanes, 256 sequences)",
        format_grid(
            ["Packing", "Padded cells", "Waste vs useful"],
            [
                ("streamed lanes", sorted_cells,
                 f"{sorted_cells / useful - 1:+.1%}"),
                ("submission order", unsorted_cells,
                 f"{unsorted_cells / useful - 1:+.1%}"),
            ],
        ),
    )
    assert sorted_cells < unsorted_cells
    # Gamma-distributed lengths: streaming longest first keeps padding
    # ~5% (one subject per length-sorted lane kept it ~25%), versus
    # ~75%+ for submission-order packing.
    assert sorted_cells / useful < 1.35
    assert unsorted_cells / useful > sorted_cells / useful + 0.2


def test_ablation_notify_interval(benchmark):
    """How stale may progress notifications be before PSS degrades?

    PSS weights come exclusively from the notification stream; very
    sparse notifications delay both the first rate estimate (keeping
    batch sizes at 1) and the reaction to the Fig. 8 load step.
    """
    tasks = tasks_for_profile(SWISSPROT)

    def sweep():
        rows = []
        for interval in (0.1, 0.5, 2.0, 10.0):
            from repro.simulate.platform import hybrid_platform

            sim = HybridSimulator(
                hybrid_platform(2, 4), notify_interval=interval
            )
            report = sim.run(list(tasks))
            rows.append((interval, round(report.makespan, 1)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Ablation - notification interval (SwissProt, 2 GPUs + 4 SSEs)",
        format_grid(["Interval (s)", "Makespan (s)"], rows),
    )
    makespans = [m for _, m in rows]
    # The schedule is robust to 20x coarser notifications: per-task
    # times (seconds to minutes) dwarf the notification period.
    assert max(makespans) / min(makespans) < 1.25


def test_ablation_policy_communication(benchmark):
    """Quantify "the SS policy incurs in considerable communication".

    Section IV-A-1 notes that SS costs at least one master interaction
    per task.  PSS batches grants by the observed-rate weight, cutting
    round-trips; this ablation counts master interactions (requests +
    progress notifications) per policy on the SwissProt workload.
    """
    from repro.core import PackageWeightedSelfScheduling, SelfScheduling

    # 240 uniform tasks on the Fig. 5 platform (6x GPU + 3 SSEs): the
    # many-small-tasks regime where per-task round-trips dominate.
    tasks = [
        Task(task_id=i, query_id=f"t{i}", query_length=1, cells=6)
        for i in range(240)
    ]
    pes = [
        PESpec("gpu", UniformModel(rate=6.0, pe_class_name="gpu")),
        *[PESpec(f"sse{i}", UniformModel(rate=1.0)) for i in range(3)],
    ]

    def sweep():
        rows = []
        for name, policy in (
            ("SS", SelfScheduling()),
            ("PSS", PackageWeightedSelfScheduling()),
        ):
            sim = HybridSimulator(
                pes, policy=policy, adjustment=False, comm_latency=0.0
            )
            report = sim.run(list(tasks))
            requests = sum(1 for e in report.trace if e.kind == "request")
            grants = sum(1 for e in report.trace if e.kind == "assign")
            rows.append(
                (name, requests, grants,
                 round(grants / max(1, requests), 2),
                 round(report.makespan, 1))
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Ablation - policy communication (240 uniform tasks, Fig. 5 "
        "platform)",
        format_grid(
            ["Policy", "Requests", "Tasks granted", "Tasks/request",
             "Makespan (s)"],
            rows,
        ),
    )
    by_policy = {row[0]: row for row in rows}
    # PSS packs several tasks per master round-trip; SS cannot exceed 1.
    assert by_policy["SS"][3] <= 1.0
    assert by_policy["PSS"][3] > 1.5 * by_policy["SS"][3]
    assert by_policy["PSS"][1] < by_policy["SS"][1]


def test_ablation_checkpoint_replicas(benchmark):
    """Restart-from-scratch replication vs idealized task migration.

    The paper's replicas recompute from zero.  An idealized alternative
    hands the replica the most-advanced executor's checkpoint.  On the
    SwissProt hybrid, migration buys only a few percent: a 15x-faster
    GPU redoing an SSE task from scratch still beats the SSE finishing
    it, so almost all of the mechanism's gain needs no checkpointing —
    evidence the paper's simple stateless design leaves little on the
    table.
    """
    tasks = tasks_for_profile(SWISSPROT)

    def sweep():
        from repro.simulate.platform import hybrid_platform

        rows = []
        for label, checkpoint in (
            ("restart (paper)", False),
            ("checkpoint migration", True),
        ):
            report = HybridSimulator(
                hybrid_platform(4, 4), checkpoint_replicas=checkpoint
            ).run(list(tasks))
            rows.append((label, round(report.makespan, 1),
                         round(report.gcups, 1)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Ablation - replica restart vs idealized migration "
        "(SwissProt, 4 GPUs + 4 SSEs)",
        format_grid(["Replication", "Makespan (s)", "GCUPS"], rows),
    )
    restart = rows[0][1]
    migration = rows[1][1]
    assert migration <= restart
    assert migration > restart * 0.85  # the gap is small, not dramatic


def test_ablation_master_bottleneck(benchmark):
    """Master scalability: serial allocation CPU vs policy choice.

    Charging 50 ms of master CPU per allocation on a 64-PE platform
    exposes three regimes: SS becomes master-bound (one round-trip per
    task); *uncapped* PSS is pathological — one noisy early rate
    estimate produces a few-hundred-task batch that wrecks the balance;
    capped PSS (max_batch) rides through unharmed.  This is the
    quantified version of Section IV-A-1's "the SS policy incurs in
    considerable communication" and the reason
    PackageWeightedSelfScheduling grows a max_batch guard.
    """
    from repro.core import PackageWeightedSelfScheduling, SelfScheduling

    tasks = [
        Task(task_id=i, query_id=f"t{i}", query_length=1, cells=6)
        for i in range(960)
    ]
    pes = [
        *[
            PESpec(f"gpu{i}", UniformModel(rate=6.0, pe_class_name="gpu"))
            for i in range(32)
        ],
        *[PESpec(f"sse{i}", UniformModel(rate=1.0)) for i in range(32)],
    ]

    def sweep():
        rows = []
        for name, policy, adjust in (
            ("SS", SelfScheduling(), False),
            ("PSS uncapped", PackageWeightedSelfScheduling(), False),
            ("PSS cap=8", PackageWeightedSelfScheduling(max_batch=8), False),
            ("PSS cap=8 +adjust",
             PackageWeightedSelfScheduling(max_batch=8), True),
        ):
            entry = [name]
            for service in (0.0, 0.05):
                sim = HybridSimulator(
                    pes, policy=policy, adjustment=adjust,
                    comm_latency=0.0, master_service_time=service,
                )
                entry.append(round(sim.run(list(tasks)).makespan, 1))
            rows.append(tuple(entry))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Ablation - master allocation CPU (960 tasks, 32 GPUs + 32 SSEs)",
        format_grid(
            ["Policy", "free master (s)", "50ms/alloc master (s)"], rows
        ),
    )
    by_name = {row[0]: row for row in rows}
    # SS pays heavily for per-task round-trips under a loaded master.
    assert by_name["SS"][2] > by_name["SS"][1] * 1.5
    # Uncapped PSS is the worst: a single inflated Phi ruins the split.
    assert by_name["PSS uncapped"][2] > by_name["SS"][2]
    # Capped PSS absorbs the master cost almost entirely.
    assert by_name["PSS cap=8"][2] < by_name["PSS cap=8"][1] * 1.10
    assert by_name["PSS cap=8 +adjust"][2] <= by_name["PSS cap=8"][2] + 1.0


def test_ablation_replica_policy(benchmark):
    """Replicating the most-at-risk task vs never replicating, as the
    GPU:SSE speed ratio grows."""

    def sweep():
        rows = []
        for ratio in (2.0, 6.0, 12.0):
            tasks = [
                Task(task_id=i, query_id=f"t{i}", query_length=1, cells=6)
                for i in range(20)
            ]
            pes = [
                PESpec("gpu", UniformModel(rate=ratio, pe_class_name="gpu")),
                *[
                    PESpec(f"sse{i}", UniformModel(rate=1.0))
                    for i in range(3)
                ],
            ]
            with_adj = HybridSimulator(
                pes, comm_latency=0.0
            ).run(list(tasks)).makespan
            without = HybridSimulator(
                pes, adjustment=False, comm_latency=0.0
            ).run(list(tasks)).makespan
            rows.append(
                (f"{ratio:.0f}x", round(with_adj, 2), round(without, 2))
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Ablation - adjustment benefit vs heterogeneity ratio",
        format_grid(["GPU speed", "With (s)", "Without (s)"], rows),
    )
    for _, with_adj, without in rows:
        assert with_adj <= without
