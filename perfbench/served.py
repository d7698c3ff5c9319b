"""The served scenario: a live service, one worker, open-loop traffic.

It runs in traced runs of ``search_exact`` and gives the per-layer
service, wire and latency metrics.  The master (``repro serve
--service``, traced through ``proc.py``) and one worker (``repro worker
--engine gpu``) run as their own processes.  One client process — this
one — offers a seeded Poisson schedule on two connections: a submitter
thread sends each request at its due time, and a poller thread watches
every outstanding request and records when it first sees it done.

Latency runs from a request's *due* time to that first observation, so
a stalled submitter or a slow service delays every later request in the
figures, as it would for real users.  ``repro.service.client.
run_loadgen`` is deliberately not used: it starts waiting only after
the last arrival, so an early request's latency there includes the rest
of the horizon, and it times from the submit reply, not the due time.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

from fixtures import SERVED_TOP

#: Seconds between sweeps of the poller over outstanding requests.
POLL_INTERVAL = 0.01
#: Seconds to wait, after the last due time, for stragglers to finish.
DRAIN_GRACE = 20.0
_PROC = Path(__file__).resolve().parent / "proc.py"


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _command(args: list[str], trace_out: Path | None = None) -> list[str]:
    if trace_out is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(_PROC), str(trace_out), *args]


class Service:
    """One master + one worker, started and stopped as a unit."""

    def __init__(self, inputs: Path, scratch: Path, env: dict):
        self.inputs = inputs
        self.scratch = scratch
        self.env = env
        self.master: subprocess.Popen | None = None
        self.worker: subprocess.Popen | None = None
        self.port = 0
        self.http = ""

    def start(self, timeout: float = 60.0) -> None:
        """Start both processes and wait until they are ready for traffic.

        Ready means the worker has registered and finished the one
        preloaded query, so the next task goes straight to a warm
        worker.
        """
        self.scratch.mkdir(parents=True, exist_ok=True)
        log = self.scratch / "master.log"
        deadline = time.monotonic() + timeout
        with open(log, "wb") as out:
            self.master = subprocess.Popen(
                _command([
                    "serve", str(self.inputs / "initial.fasta"),
                    str(self.inputs / "database.fasta"), "--service",
                    "--port", "0", "--http-port", "0", "--top", str(SERVED_TOP),
                    "--export", str(self.scratch / "export"),
                ], self.scratch / "master.trace.json"),
                stdout=out, stderr=subprocess.STDOUT, env=self.env,
            )
        while not self.http:
            self._check_alive(self.master, log)
            for line in log.read_text(errors="replace").splitlines():
                if line.startswith("master listening on "):
                    self.port = int(line.rsplit(":", 1)[1])
                elif line.startswith("live endpoints at "):
                    self.http = line.split()[3].rsplit("/", 1)[0]
            self._wait(deadline, "master start")
        self.worker = subprocess.Popen(
            _command([
                "worker", "--host", "127.0.0.1", "--port", str(self.port),
                "--pe-id", "gpu0", "--engine", "gpu", "--top", str(SERVED_TOP),
                "--queries", str(self.scratch / "export" / "queries.seqx"),
                "--database", str(self.scratch / "export" / "database.seqx"),
            ]),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=self.env,
        )
        while True:
            self._check_alive(self.worker, None)
            with urllib.request.urlopen(self.http + "/statusz",
                                        timeout=5) as reply:
                status = json.load(reply)
            if "gpu0" in status.get("workers", {}) and \
                    status["pes"].get("gpu0", {}).get("tasks_completed"):
                return
            self._wait(deadline, "worker registration")

    @staticmethod
    def _wait(deadline: float, what: str) -> None:
        if time.monotonic() > deadline:
            raise TimeoutError(f"service {what} timed out")
        time.sleep(0.005)

    @staticmethod
    def _check_alive(proc, log: Path | None) -> None:
        if proc.poll() is not None:
            detail = log.read_text(errors="replace")[-2000:] if log else ""
            raise RuntimeError(
                f"service process exited early ({proc.returncode}) {detail}"
            )

    def stop(self) -> None:
        """Drain the master (SIGTERM), then stop the worker; wait for both."""
        for proc in (self.master, self.worker):
            if proc is None or proc.poll() is not None:
                continue
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def offer(port: int, schedule: list[dict]) -> dict:
    """Run the open-loop schedule; returns per-request observations."""
    from repro.sequences.alphabet import PROTEIN
    from repro.sequences.records import Sequence
    from repro.service.client import ServiceClient

    records: dict[str, dict] = {r["id"]: {"due": r["due"]} for r in schedule}
    pending: dict[str, str] = {}  # request id -> service request id
    lock = threading.Lock()
    submitted = threading.Event()
    rtts: list[float] = []
    errors: list[BaseException] = []
    base = time.perf_counter() + 0.1

    def submitter() -> None:
        try:
            with ServiceClient("127.0.0.1", port) as client:
                for request in schedule:
                    due = base + request["due"]
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    sent = time.perf_counter()
                    query = Sequence(id=request["id"],
                                     residues=request["residues"],
                                     alphabet=PROTEIN)
                    reply = client.submit(query, tenant=request["tenant"],
                                          request_id=request["id"])
                    record = records[request["id"]]
                    record["late"] = sent - due
                    record["submit"] = [sent, time.perf_counter()]
                    if reply.get("type") == "accepted":
                        with lock:
                            pending[request["id"]] = str(reply["request_id"])
                    else:
                        record["state"] = "shed"
        except BaseException as exc:  # reported by the caller
            errors.append(exc)
        finally:
            submitted.set()

    def poller() -> None:
        try:
            with ServiceClient("127.0.0.1", port) as client:
                limit = base + schedule[-1]["due"] + DRAIN_GRACE
                while True:
                    with lock:
                        batch = list(pending.items())
                    if not batch and submitted.is_set():
                        return
                    if time.perf_counter() > limit:
                        return
                    for key, service_id in batch:
                        start = time.perf_counter()
                        reply = client.poll(service_id)
                        seen = time.perf_counter()
                        rtts.append(seen - start)
                        state = reply.get("state")
                        if state not in ("done", "expired", "cancelled"):
                            continue
                        record = records[key]
                        record["state"] = state
                        record["latency"] = seen - (base + record["due"])
                        record["request"] = [base + record["due"], seen]
                        record["server"] = [reply.get("submitted_at"),
                                            reply.get("dispatched_at"),
                                            reply.get("finished_at")]
                        record["hits"] = [[h.subject_id, int(h.score)]
                                          for h in reply.get("hits") or ()]
                        with lock:
                            del pending[key]
                    time.sleep(POLL_INTERVAL)
        except BaseException as exc:  # reported by the caller
            errors.append(exc)

    threads = [threading.Thread(target=submitter, name="submit"),
               threading.Thread(target=poller, name="poll")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return {"records": records, "rtts": rtts}


def layers(records: dict[str, dict], rtts: list[float], kernel_ms: float,
           master_trace: Path) -> dict:
    """Per-layer numbers of one served run."""
    done = [r for r in records.values() if r.get("state") == "done"]
    latencies = [r["latency"] * 1e3 for r in done]
    queue = [(d - s) * 1e3 for s, d, _f in (r["server"] for r in done)]
    execute = [(f - d) * 1e3 for _s, d, f in (r["server"] for r in done)]
    server = [(f - s) * 1e3 for s, _d, f in (r["server"] for r in done)]
    observe = [r["latency"] * 1e3 - (f - s) * 1e3
               for r, (s, _d, f) in ((r, r["server"]) for r in done)]
    late = [r.get("late", 0.0) for r in records.values()]
    return {
        "served.p50_ms": percentile(latencies, 50),
        "served.p95_ms": percentile(latencies, 95),
        "service.queue_wait_ms": percentile(queue, 50),
        "service.exec_ms": percentile(execute, 50),
        "service.kernel_ms": kernel_ms,
        "service.tax_ms": percentile(server, 50) - kernel_ms,
        "cluster.rtt_ms": percentile([t * 1e3 for t in rtts], 50),
        "cluster.observe_ms": percentile(observe, 50),
        "loadgen.late_ms": max(late) * 1e3 if late else 0.0,
        "service.shed_frac": sum(
            1 for r in records.values() if r.get("state") == "shed"
        ) / max(len(records), 1),
        "core.master_s": json.loads(master_trace.read_text())[
            "core.master_s"],
    }


def _write_client_spans(records: dict[str, dict], path: Path) -> None:
    """Client-side spans, one line each, keyed by request id."""
    with open(path, "w", encoding="utf-8") as handle:
        for request_id, record in records.items():
            for name in ("submit", "request"):
                if name in record:
                    start, end = record[name]
                    handle.write(json.dumps({
                        "request": request_id, "name": f"client.{name}",
                        "start": start, "end": end,
                    }) + "\n")


def run(inputs: Path, scratch: Path, env: dict, kernel_ms) -> dict:
    """Start the service, serve the schedule, stop it; then time the kernel.

    *kernel_ms* returns the standalone kernel p50 in milliseconds; it is
    called once the service has stopped.
    """
    schedule = json.loads((inputs / "schedule.json").read_text())
    service = Service(inputs, scratch / "service", env)
    try:
        service.start()
        observed = offer(service.port, schedule)
    finally:
        service.stop()
    records = observed["records"]
    _write_client_spans(records, scratch / "client.spans.jsonl")
    done = [r["latency"] for r in records.values() if r.get("state") == "done"]
    p95 = percentile(done, 95)
    return {
        "outputs": {k: r["hits"] for k, r in records.items()
                    if r.get("state") == "done"},
        "completed": len(done),
        "beyond_p95": sum(1 for v in done if v > p95),
        "layers": layers(records, observed["rtts"], kernel_ms(),
                         scratch / "service" / "master.trace.json"),
    }


if __name__ == "__main__":  # pragma: no cover - run through run.py
    raise SystemExit("run through perfbench/run.py --workload search_exact "
                     "--trace 1")
