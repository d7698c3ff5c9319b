"""Benchmarks for the future-work extensions (Section VI).

The paper's conclusion lists three extensions; this suite exercises the
two that fit the execution environment (FPGA integration and platform
churn) and quantifies their effect on the published workloads.
"""

import pytest

from repro.bench import format_grid, tasks_for_profile
from repro.observability import analyze_events
from repro.sequences import ENSEMBL_DOG, SWISSPROT
from repro.simulate import (
    FPGAModel,
    HybridSimulator,
    PESpec,
    hybrid_platform,
)
from repro.simulate.platform import gpus, sse_cores

from conftest import emit


def test_fpga_integration(benchmark):
    """GPU+SSE+FPGA hybrid vs GPU+SSE on Dog and SwissProt.

    The FPGA adds useful throughput on short-to-medium queries but
    degrades on >1024-aa queries (overlapped segmentation), so its
    marginal value is bigger on workloads dominated by short queries.
    """

    def sweep():
        rows = []
        for profile in (ENSEMBL_DOG, SWISSPROT):
            tasks = tasks_for_profile(profile)
            base = HybridSimulator(hybrid_platform(2, 4)).run(list(tasks))
            with_fpga = HybridSimulator(
                hybrid_platform(2, 4, num_fpgas=1)
            ).run(list(tasks))
            rows.append(
                (
                    profile.name,
                    round(base.makespan, 1),
                    round(with_fpga.makespan, 1),
                    f"{base.makespan / with_fpga.makespan:.2f}x",
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Extension - FPGA integration (2 GPUs + 4 SSEs [+1 FPGA])",
        format_grid(
            ["Database", "GPU+SSE (s)", "+FPGA (s)", "speedup"], rows
        ),
    )
    for _, base, with_fpga, _ in rows:
        assert with_fpga <= base  # an extra PE never hurts


def test_platform_churn(benchmark):
    """GPU crash at t=20s + hot-plug replacement at t=40s (Dog).

    No work may be lost, and the replacement must recover most of the
    crash's makespan damage.
    """
    tasks = tasks_for_profile(ENSEMBL_DOG)

    def sweep():
        stable = HybridSimulator(hybrid_platform(2, 4)).run(list(tasks))
        crash_specs = gpus(2) + sse_cores(4)
        crash_specs[1] = PESpec(
            "gpu1", crash_specs[1].model, leave_time=20.0
        )
        crash = HybridSimulator(crash_specs).run(list(tasks))
        replace_specs = gpus(3) + sse_cores(4)
        replace_specs[1] = PESpec(
            "gpu1", replace_specs[1].model, leave_time=20.0
        )
        replace_specs[2] = PESpec(
            "gpu2", replace_specs[2].model, join_time=40.0
        )
        replaced = HybridSimulator(replace_specs).run(list(tasks))
        return stable, crash, replaced

    stable, crash, replaced = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    emit(
        "Extension - platform churn (Dog, 2 GPUs + 4 SSEs)",
        format_grid(
            ["Scenario", "Makespan (s)", "Tasks done"],
            [
                ("stable", round(stable.makespan, 1),
                 sum(stable.tasks_won.values())),
                ("gpu1 crashes at 20s", round(crash.makespan, 1),
                 sum(crash.tasks_won.values())),
                ("crash + hot-plug at 40s", round(replaced.makespan, 1),
                 sum(replaced.tasks_won.values())),
            ],
        ),
    )
    for report in (stable, crash, replaced):
        assert sum(report.tasks_won.values()) == 40
    assert crash.makespan > stable.makespan
    assert replaced.makespan <= crash.makespan


def test_replica_waste_accounting(benchmark):
    """The price of the adjustment mechanism on SwissProt hybrids."""
    tasks = tasks_for_profile(SWISSPROT)

    def run():
        report = HybridSimulator(hybrid_platform(4, 4)).run(list(tasks))
        return report, analyze_events(report.events)

    report, analysis = benchmark.pedantic(run, rounds=1, iterations=1)
    timelines = analysis.timelines.values()
    utilization = sum(t.utilization for t in timelines) / len(timelines)
    finishes = [max(iv.end for iv in t.intervals) for t in timelines]
    emit(
        "Extension - replica waste (SwissProt, 4 GPUs + 4 SSEs)",
        "\n".join(
            [
                f"makespan:            {report.makespan:8.1f} s",
                f"replicas issued:     {report.replicas_assigned:8d}",
                f"replica waste:       {analysis.replica_waste_ratio:8.1%}"
                " of platform busy time",
                f"mean utilization:    {utilization:8.1%}",
                f"finish-time spread:  {max(finishes) - min(finishes):8.1f} s",
            ]
        ),
    )
    # Waste is the deliberate price of the mechanism: on this platform
    # the SSEs' work is almost entirely speculative (GPU replicas win
    # nearly every race — the paper's own observation that "most of the
    # work assigned for the SSEs is actually done by the GPUs").  The
    # waste must stay bounded and is dwarfed by the Fig. 6 makespan
    # gains, which is the trade the mechanism makes.
    assert 0.0 < analysis.replica_waste_ratio < 0.7
