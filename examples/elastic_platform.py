"""Elastic hybrid platform: churn, failures and FPGA integration.

Exercises the features the paper lists as future work, all built on the
same master and adjustment mechanism:

* an FPGA accelerator joins the GPU+SSE mix (segmented long queries);
* a GPU *fails* mid-run — its tasks are released back to the ready
  queue and nothing is lost;
* a second host's GPU *joins* late and immediately starts pulling work.

Run with::

    python examples/elastic_platform.py
"""

from repro.bench import tasks_for_profile
from repro.observability import analyze_events
from repro.sequences import ENSEMBL_RAT
from repro.simulate import (
    FPGAModel,
    GPUModel,
    HybridSimulator,
    PESpec,
    SSECoreModel,
    gantt,
)


def main() -> None:
    tasks = tasks_for_profile(ENSEMBL_RAT, num_queries=40)

    pes = [
        PESpec("gpu0", GPUModel()),
        # This GPU crashes 20 s into the run.
        PESpec("gpu1", GPUModel(), leave_time=20.0),
        # A replacement GPU is hot-plugged at t = 35 s.
        PESpec("gpu2", GPUModel(), join_time=35.0),
        PESpec("fpga0", FPGAModel()),
        *[PESpec(f"sse{i}", SSECoreModel()) for i in range(2)],
    ]
    report = HybridSimulator(pes).run(tasks)
    analysis = analyze_events(report.events)
    timelines = analysis.timelines.values()
    utilization = sum(t.utilization for t in timelines) / len(timelines)

    print(f"workload: 40 queries x {ENSEMBL_RAT.name}")
    print(f"makespan: {report.makespan:.1f}s  ({report.gcups:.1f} GCUPS)")
    print(f"tasks won per PE: {report.tasks_won}")
    print(f"replicas issued: {report.replicas_assigned}, "
          f"replica waste: {analysis.replica_waste_ratio:.1%} of busy time")
    print(f"mean utilization: {utilization:.1%}\n")

    print(gantt(report))
    print("\ngpu1's row stops at its crash (t=20s, its task re-queued);")
    print("gpu2's row starts at its hot-plug (t=35s);")
    print("fpga0 handles tasks at reduced rate for >1024-aa queries.")

    # Sanity: every task finished exactly once despite the churn.
    assert sum(report.tasks_won.values()) == len(tasks)
    assert any(event.kind == "deregister" for event in report.trace)


if __name__ == "__main__":
    main()
