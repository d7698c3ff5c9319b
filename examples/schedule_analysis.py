"""Schedule analysis: Gantt charts, SVG export, JSON traces, metrics.

Runs the paper's SwissProt workload on the 4 GPU + 4 SSE platform with
and without the workload-adjustment mechanism and produces every
analysis artifact the simulator offers: ASCII and SVG Gantt charts, a
JSON trace for external tooling, and the schedule-quality metrics
(utilization, replica waste, finishing-time spread).

Run with::

    python examples/schedule_analysis.py [output-directory]
"""

import json
import sys
import tempfile
from pathlib import Path

from repro.bench import tasks_for_profile
from repro.observability import analyze_events
from repro.sequences import SWISSPROT
from repro.simulate import (
    HybridSimulator,
    gantt,
    paper_platform,
    write_gantt_svg,
)


def main() -> None:
    out_dir = Path(
        sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(
            prefix="repro-analysis-"
        )
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = tasks_for_profile(SWISSPROT)

    reports = {}
    for adjustment in (True, False):
        simulator = HybridSimulator(paper_platform(), adjustment=adjustment)
        reports[adjustment] = simulator.run(list(tasks))

    for adjustment, report in reports.items():
        label = "with" if adjustment else "without"
        analysis = analyze_events(report.events)
        timelines = analysis.timelines.values()
        utilization = sum(t.utilization for t in timelines) / len(timelines)
        finishes = [max(iv.end for iv in t.intervals) for t in timelines]
        print(f"=== {label} workload adjustment ===")
        print(f"makespan {report.makespan:.1f}s  {report.gcups:.1f} GCUPS  "
              f"replicas {report.replicas_assigned}")
        print(f"utilization {utilization:.1%}  "
              f"replica waste {analysis.replica_waste_ratio:.1%}  "
              f"finish spread {max(finishes) - min(finishes):.1f}s")
        print(gantt(report, width=68))
        print()

        svg_path = out_dir / f"swissprot_{label}_adjustment.svg"
        write_gantt_svg(report, str(svg_path),
                        title=f"SwissProt, 4 GPUs + 4 SSEs ({label} "
                        "adjustment)")
        json_path = out_dir / f"swissprot_{label}_adjustment.json"
        json_path.write_text(report.to_json())
        print(f"wrote {svg_path}")
        print(f"wrote {json_path}\n")

    saving = 100 * (1 - reports[True].makespan / reports[False].makespan)
    print(f"adjustment saves {saving:.1f}% of the makespan "
          "(paper: 57.2%)")
    # Sanity for scripted use.
    trace = json.loads((out_dir / "swissprot_with_adjustment.json"
                        ).read_text())
    assert trace["tasks_won"]


if __name__ == "__main__":
    main()
