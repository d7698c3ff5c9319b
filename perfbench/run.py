"""Benchmark entry point: one seeded workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads and metrics are the
ones ``BENCHMARK.json`` declares.  Inputs are generated from the seed
under ``.perfbench_work/`` (with the reference results, once per seed),
then the workload is measured for about ``S`` seconds in fresh
processes, every output is checked against the reference, and the last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports every end-to-end metric; ``--trace 1`` reports
every per-layer metric (see ``layers.py``) from runs whose public calls
are wrapped in spans.  A traced run also runs the workload's companion
scenario (:data:`COMPANION`) for the layers the search does not reach.
Without ``--workload`` every workload runs in turn, each printing its
own lines.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Scenario run beside each workload in a traced run, for the layers the
#: search itself does not use: the live service (service, cluster, and
#: the master under real traffic) and the simulator (the master under a
#: virtual clock).  Their speeds are per-layer metrics only: on a shared
#: 2-vCPU VM the served latencies and the pure-Python simulator time
#: drift by 20-50 % between sets of runs of the same code.
COMPANION = {"search_exact": "served", "search_batched": "paper_sim"}
#: Per-layer metrics a companion scenario supplies (they replace the
#: search's own values of the same name).
COMPANION_PREFIXES = ("served.", "service.", "cluster.", "loadgen.",
                      "simulate.", "core.master_s", "core.replica_waste_frac")

#: Measuring processes per run; each gives one set-up sample and runs
#: units of work for an equal share of the run.
PROCESSES = 3
#: Extra set-up-only starts after each measuring process of an untraced
#: run, so ``setup_s`` is the median of PROCESSES * (1 + SETUP_ONLY).
SETUP_ONLY = 2
#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10
#: Smallest share of a traced search's wall time its layer spans cover.
MIN_COVERAGE = 0.9

#: Environment of every process a run starts: a pinned hash seed,
#: single-threaded numeric libraries, unbuffered output (the served
#: scenario waits for the master's start-up lines in its log file), and
#: the bytecode cache inside the work directory so the checkout stays
#: clean.
_PINNED = {
    "PYTHONHASHSEED": "0",
    "PYTHONUNBUFFERED": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONPYCACHEPREFIX": str(WORK / "pycache"),
}


def _spec() -> dict:
    """Workloads, metrics and units, as ``BENCHMARK.json`` declares them."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _warm_bytecode(env: dict) -> None:
    """Compile the program once per checkout, so no set-up pays for it."""
    marker = WORK / "pycache.done"
    if not marker.exists():
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                       check=True, env=env, stdout=subprocess.DEVNULL,
                       timeout=170)
        marker.write_text("ok\n")


def _pin_environment() -> None:
    """Re-execute once with the pinned environment (hash seed included)."""
    if all(os.environ.get(k) == v for k, v in _PINNED.items()):
        return
    os.execve(sys.executable, [sys.executable, *sys.argv],
              dict(os.environ, **_PINNED))


def _median(values) -> float:
    return float(statistics.median(values))


def _oracle(scenario: str, inputs: Path, env: dict) -> dict:
    path = inputs / "oracle.json"
    if not path.exists():
        subprocess.run(
            [sys.executable, str(HERE / "oracle.py"), scenario, str(inputs),
             str(path)],
            check=True, env=env, timeout=150,
        )
    return json.loads(path.read_text())


def _corrupt(outputs: dict) -> dict:
    """A copy of *outputs* with the first hit list's top score changed."""
    key = next(iter(outputs))
    wrong = dict(outputs)
    hits = [list(h) for h in outputs[key]]
    hits[0][1] += 1
    wrong[key] = hits
    return wrong


def _spawn_rep(scenario: str, inputs: Path, traced: bool, budget: float,
               out: Path, env: dict) -> dict:
    started = time.monotonic()
    subprocess.run(
        [sys.executable, str(HERE / "rep.py"), scenario, str(inputs),
         "1" if traced else "0", str(budget), str(out)],
        check=True, env=env, timeout=150,
    )
    data = json.loads(out.read_text())
    data["setup_s"] = data["ready"] - started
    return data


def _sim_ok(record: dict) -> bool:
    """Each task won once, one result per task from its winner, all cells."""
    return (record["won_once"] == record["tasks"]
            and record["results"] == record["tasks"]
            and record["result_from_winner"] == record["tasks"]
            and record["result_cells"] == record["total_cells"])


def measure_reps(scenario: str, inputs: Path, seconds: float, trace: bool,
                 scratch: Path, env: dict) -> dict:
    """:data:`PROCESSES` fresh processes, each with a share of *seconds*.

    In a traced run the first and last processes are traced and run one
    unit each; the middle one is not, so the tracing overhead is
    measured in the same run.  An untraced run adds set-up-only starts.
    """
    import oracle

    expected = None
    if scenario != "paper_sim":
        expected = _oracle(scenario, inputs, env)
    procs = []
    setups = []
    for index in range(PROCESSES):
        traced = trace and index % 2 == 0
        procs.append(_spawn_rep(scenario, inputs, traced,
                                seconds / PROCESSES,
                                scratch / f"rep{index}.json", env))
        setups.append(procs[-1]["setup_s"])
        for extra in range(0 if trace else SETUP_ONLY):
            setups.append(_spawn_rep(
                scenario, inputs, False, -1.0,
                scratch / f"setup{index}-{extra}.json", env)["setup_s"])
    units = [u for p in procs for u in p["units"]]
    attempted = failed = 0
    for unit in units:
        if expected is None:
            # The simulator is deterministic: every unit must reproduce
            # the first unit's virtual makespans exactly.
            first = units[0]["outputs"]
            for key, record in unit["outputs"].items():
                attempted += 1
                failed += not (_sim_ok(record) and
                               record["makespan"] == first[key]["makespan"])
        else:
            a, f = oracle.check(expected, unit["outputs"])
            attempted += a
            failed += f
    # The check must notice a wrong answer in this run's real outputs.
    outputs = units[0]["outputs"]
    if expected is None:
        record = dict(next(iter(outputs.values())))
        record["result_cells"] -= 1
        detects = not _sim_ok(record)
    else:
        clean = oracle.check(expected, outputs)[1]
        detects = oracle.check(expected, _corrupt(outputs))[1] == clean + 1
    plain = [u["wall_s"] for u in units if "layers" not in u]
    result = {
        "unit_walls": plain,
        "setup_samples": setups,
        "attempted": attempted,
        "failed": failed,
        "problems": [] if detects else ["the check missed a wrong result"],
        "samples": len(plain),
        "setup_s": _median(setups),
        "wall_s": _median(plain),
        "peak_rss_mb": max(p["rss_mb"] for p in procs),
    }
    if "cells" in procs[0]:
        result["gcups"] = procs[0]["cells"] / result["wall_s"] / 1e9
    if trace:
        traced = [u for u in units if "layers" in u]
        result["layers"] = {
            name: _median(u["layers"][name] for u in traced)
            for name in traced[0]["layers"]
        }
        result["layers"]["trace.overhead_s"] = (
            _median(u["wall_s"] for u in traced) - result["wall_s"]
        )
        if scenario == "paper_sim":
            result["layers"]["simulate.wall_s"] = result["wall_s"]
    return result


def measure_served(inputs: Path, scratch: Path, env: dict) -> dict:
    import oracle
    import served

    expected = _oracle("served", inputs, env)

    def kernel_ms() -> float:
        data = _spawn_rep("kernel", inputs, False, 0.0,
                          scratch / "kernel.json", env)
        return served.percentile([d * 1e3 for d in data["durations"]], 50)

    run = served.run(inputs, scratch, env, kernel_ms)
    attempted, failed = oracle.check(expected, run["outputs"])
    problems = []
    if oracle.check(expected, _corrupt(run["outputs"]))[1] != failed + 1:
        problems.append("the served check missed a wrong result")
    if run["beyond_p95"] < MIN_TAIL:
        problems.append(f"only {run['beyond_p95']} served latencies beyond "
                        f"p95 (at least {MIN_TAIL} needed)")
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "completed": run["completed"],
        "beyond_p95": run["beyond_p95"],
        "layers": run["layers"],
    }


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    import fixtures

    env = dict(os.environ, PYTHONPATH=str(SRC))  # pinned in main()
    _warm_bytecode(env)
    scratch = WORK / "runs" / f"{workload}-s{seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    inputs = fixtures.ensure(workload, seed, WORK / "inputs", env)
    result = measure_reps(workload, inputs, seconds, trace, scratch, env)
    if trace:
        coverage = result["layers"]["trace.coverage_frac"]
        if coverage < MIN_COVERAGE:
            result["problems"].append(
                f"layer spans cover {coverage:.3f} of wall_s "
                f"(at least {MIN_COVERAGE} needed)")
        companion = COMPANION[workload]
        inputs = fixtures.ensure(companion, seed, WORK / "inputs", env)
        (scratch / companion).mkdir()
        if companion == "served":
            extra = measure_served(inputs, scratch / companion, env)
            result["served"] = extra
        else:
            extra = measure_reps(companion, inputs, seconds, True,
                                 scratch / companion, env)
        result["companion"] = companion
        result["attempted"] += extra["attempted"]
        result["failed"] += extra["failed"]
        result["problems"] += extra["problems"]
        result["layers"].update(
            (name, value) for name, value in extra["layers"].items()
            if name.startswith(COMPANION_PREFIXES))
    result["ok_frac"] = (
        (result["attempted"] - result["failed"]) / result["attempted"]
    )
    if not trace:
        shutil.rmtree(scratch)  # traced runs keep their span files
    return result


def report(workload: str, result: dict, trace: bool, spec: dict) -> dict:
    """Human-readable lines, then the one-line JSON result."""
    why = {w["name"]: w["why"] for w in spec["workloads"]}[workload]
    print(f"# workload {workload}: {why}")
    print(f"# samples: {result['samples']} untraced units of work, "
          "wall_s " + " ".join(f"{w:.3f}" for w in result["unit_walls"]))
    print("# set-up samples (one per fresh start): " + " ".join(
        f"{s:.3f}" for s in result["setup_samples"]))
    if trace:
        import layers

        print(f"# companion scenario: {result['companion']}")
        if "served" in result:
            served = result["served"]
            print(f"# served samples: {served['completed']} completed "
                  f"requests, {served['beyond_p95']} beyond p95")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        mapped = {entry[0]: entry for entry in layers.PER_LAYER}
        if set(mapped) != set(units):
            raise RuntimeError("layers.py and BENCHMARK.json list different "
                               f"per-layer metrics: {set(mapped) ^ set(units)}")
        values = result["layers"]
        metrics = {}
        for name, unit in units.items():
            _name, moves, where, _what = mapped[name]
            metrics[name] = {"value": float(values.get(name, 0.0)),
                             "unit": unit}
            print(f"#   {name:28} {metrics[name]['value']:14.6g} {unit:6}"
                  f" -> {moves} on {where}")
    else:
        metrics = {m["name"]: {"value": float(result[m["name"]]),
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        for name, metric in metrics.items():
            print(f"#   {name:12} {metric['value']:14.6g} {metric['unit']}")
    for problem in result["problems"]:
        print(f"# NOT CORRECT: {problem}")
    correct = result["failed"] == 0 and not result["problems"]
    return {"correct": correct, "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from the root of a "
              "full checkout", file=sys.stderr)
        return 2
    _pin_environment()
    # A terminated run still stops the processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import oracle

    oracle.self_check()
    if args.workload is None:
        for workload in names:
            subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                check=True,
            )
        return 0
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(report(args.workload, result, bool(args.trace), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
