"""Virtual-clock service experiments: overload, deadlines, drain, chaos.

The DES environment drives the *same* :class:`ServiceCore` as the
threaded front-end and the cluster master, so these tests pin the
service's load-dependent behaviour — bounded latency below saturation,
loud shedding above it, deadline-expiry cancels, graceful drain — on a
clock where an hour of service costs milliseconds.
"""

import json

import numpy as np
import pytest

from repro.faults import CrashFault, FaultPlan, StragglerFault
from repro.observability import read_telemetry
from repro.service import ServiceConfig
from repro.simulate import (
    PESpec,
    ServiceArrival,
    ServiceSimulator,
    UniformModel,
    service_arrivals,
)

#: Four PEs at 1e6 cells/s each; requests average ~80 * 10k = 8e5
#: cells, so the fleet sustains ~5 requests/second.
FLEET_RATE = 4e6


def make_sim(count=4, rate=1e6, **kw):
    pes = [PESpec(f"pe{i}", UniformModel(rate=rate)) for i in range(count)]
    kw.setdefault("database_residues", 10_000)
    return ServiceSimulator(pes, **kw)


class TestServiceArrivals:
    def test_round_robin_tenants_and_determinism(self):
        a = service_arrivals(5.0, 10.0, np.random.default_rng(1),
                             tenants=("x", "y"))
        b = service_arrivals(5.0, 10.0, np.random.default_rng(1),
                             tenants=("x", "y"))
        assert a == b
        assert {arr.tenant for arr in a} == {"x", "y"}
        assert [arr.tenant for arr in a[:2]] == ["x", "y"]

    def test_empty_stream(self):
        assert service_arrivals(0.0, 10.0, np.random.default_rng(0)) == ()

    def test_arrival_validation(self):
        with pytest.raises(ValueError):
            ServiceArrival(time=-1.0)
        with pytest.raises(ValueError):
            ServiceArrival(time=0.0, query_length=0)
        with pytest.raises(ValueError):
            ServiceArrival(time=0.0, deadline=0.0)


class TestLoadSweep:
    def test_below_saturation_no_shed_bounded_latency(self):
        sim = make_sim()
        arrivals = service_arrivals(
            2.0, 60.0, np.random.default_rng(7), tenants=("a", "b")
        )
        report = sim.run_service(
            arrivals, ServiceConfig(max_queue_depth=16)
        )
        assert report.shed_total == 0
        assert report.completed == report.admitted == report.offered
        # Offered load is ~40% of fleet rate: queues stay shallow.
        assert report.latency_quantile(0.99) < 10.0

    def test_above_saturation_sheds_loudly(self):
        sim = make_sim()
        arrivals = service_arrivals(
            40.0, 60.0, np.random.default_rng(7), tenants=("a", "b")
        )
        report = sim.run_service(
            arrivals,
            ServiceConfig(max_queue_depth=8, max_backlog_seconds=10.0),
        )
        assert report.shed_total > 0
        assert set(report.shed) <= {"queue_full", "backlog", "draining"}
        # Every admitted request still reaches a terminal state; the
        # drain finishes; queues never grow without bound.
        assert (report.completed + report.expired + report.cancelled
                == report.admitted)
        assert report.latency_quantile(0.99) < 60.0

    def test_latency_grows_with_load(self):
        sim = make_sim()
        p99 = []
        for rate in (1.0, 4.0):
            arrivals = service_arrivals(
                rate, 120.0, np.random.default_rng(3)
            )
            report = sim.run_service(
                arrivals, ServiceConfig(max_queue_depth=64)
            )
            assert report.shed_total == 0
            p99.append(report.latency_quantile(0.99))
        assert p99[0] < p99[1]

    def test_deterministic_replay(self):
        results = []
        for _ in range(2):
            sim = make_sim()
            arrivals = service_arrivals(
                40.0, 30.0, np.random.default_rng(11), tenants=("a", "b")
            )
            report = sim.run_service(
                arrivals,
                ServiceConfig(max_queue_depth=8, max_backlog_seconds=10.0),
            )
            results.append(report.to_dict())
        assert results[0] == results[1]


class TestDeadlines:
    def test_tight_deadlines_expire(self):
        sim = make_sim()
        arrivals = service_arrivals(
            10.0, 10.0, np.random.default_rng(5), deadline=0.2
        )
        report = sim.run_service(
            arrivals,
            ServiceConfig(max_queue_depth=64, max_backlog_seconds=0.0),
        )
        assert report.expired > 0
        assert report.completed + report.expired == report.admitted
        # An expired request frees its executor: the metrics event log
        # must show the abandons.
        kinds = {e.kind for e in report.trace}
        assert "abandon" in kinds

    def test_expiry_is_exact_not_sweep_quantized(self):
        sim = make_sim(count=1)
        # One slow request with a deadline far from any sweep boundary.
        arrivals = (
            ServiceArrival(time=0.0, query_length=1000, deadline=0.33),
        )
        report = sim.run_service(arrivals, ServiceConfig())
        assert report.expired == 1
        request = next(iter(report.requests.values()))
        assert request.finished_at == pytest.approx(0.33, abs=1e-9)


class TestDrain:
    def test_drain_mid_stream_sheds_remaining(self):
        sim = make_sim()
        arrivals = service_arrivals(5.0, 30.0, np.random.default_rng(2))
        report = sim.run_service(
            arrivals, ServiceConfig(max_queue_depth=32), drain_at=10.0
        )
        assert report.shed.get("draining", 0) > 0
        assert report.completed == report.admitted
        assert report.drained_at >= 10.0

    def test_drain_with_no_arrivals(self):
        sim = make_sim()
        report = sim.run_service((), ServiceConfig())
        assert report.offered == 0
        assert report.drained_at == 0.0

    def test_checkpoint_dir_composes(self, tmp_path):
        # PR 9 removed the service/checkpoint mutual exclusion: a
        # journaling service run writes the sibling service journal.
        sim = make_sim(checkpoint_dir=str(tmp_path / "ckpt"))
        arrivals = service_arrivals(2.0, 5.0, np.random.default_rng(3))
        report = sim.run_service(arrivals, ServiceConfig())
        assert report.completed == report.admitted
        assert (tmp_path / "ckpt" / "service.jsonl").exists()


class TestChaos:
    def test_worker_crash_under_load_recovers(self):
        # One of two PEs dies mid-stream; heartbeat reaping releases
        # its tasks and the survivor finishes every admitted request.
        plan = FaultPlan(crashes=(CrashFault(pe_id="pe0", at_time=5.0),))
        sim = make_sim(count=2, faults=plan, heartbeat_timeout=2.0)
        arrivals = service_arrivals(1.0, 20.0, np.random.default_rng(9))
        report = sim.run_service(
            arrivals, ServiceConfig(max_queue_depth=64)
        )
        assert report.completed == report.admitted == report.offered
        assert report.drained_at > 0.0

    def test_master_crash_requires_checkpoint_dir(self):
        from repro.faults import MasterCrashFault

        plan = FaultPlan(master_crash=MasterCrashFault(at_time=1.0))
        sim = make_sim(faults=plan)
        with pytest.raises(ValueError, match="checkpoint_dir"):
            sim.run_service((), ServiceConfig())

    def test_master_crash_recovers_service_from_journal(self, tmp_path):
        from repro.faults import MasterCrashFault

        plan = FaultPlan(
            master_crash=MasterCrashFault(at_time=6.0, recovery_after=2.0)
        )
        sim = make_sim(
            count=2, faults=plan,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        arrivals = service_arrivals(2.0, 20.0, np.random.default_rng(11))
        report = sim.run_service(
            arrivals, ServiceConfig(max_queue_depth=64), drain_at=25.0
        )
        # Arrivals during the outage bounce; everything admitted before
        # and after the crash still completes from the journal pair.
        assert report.unreachable > 0
        assert report.offered == (
            report.admitted + report.shed_total + report.unreachable
        )
        assert report.completed == report.admitted
        recovery = [
            e for e in report.events
            if e.get("kind") == "service_recovery"
        ]
        assert len(recovery) == 1 and recovery[0]["readmitted"] >= 0


class TestSharedRunFeatures:
    """run_service on the features it shares with HybridSimulator.run.

    A straggler window, a late joiner, a leaver and a load step all in
    one seeded service run, with the telemetry stream on.
    """

    def run_once(self, path):
        pes = [
            PESpec("pe0", UniformModel(rate=1e6)),
            PESpec("pe1", UniformModel(rate=1e6), join_time=3.0),
            PESpec("pe2", UniformModel(rate=1e6), leave_time=6.0),
            PESpec(
                "pe3", UniformModel(rate=1e6),
                load_profile=((2.0, 0.5), (7.0, 1.0)),
            ),
        ]
        plan = FaultPlan(
            stragglers=(
                StragglerFault("pe0", factor=0.25, start=1.0, end=8.0),
            )
        )
        sim = ServiceSimulator(
            pes, database_residues=10_000, faults=plan,
            telemetry_path=str(path), telemetry_interval=0.5,
        )
        arrivals = service_arrivals(
            3.0, 12.0, np.random.default_rng(21), tenants=("a", "b")
        )
        return sim.run_service(arrivals, ServiceConfig(max_queue_depth=64))

    def test_straggler_churn_load_and_telemetry(self, tmp_path):
        report = self.run_once(tmp_path / "first.jsonl")
        assert report.admitted > 0 and report.drained_at > 0.0
        assert all(
            request.state in ("done", "expired", "cancelled")
            for request in report.requests.values()
        )
        assert (report.completed + report.expired + report.cancelled
                == report.admitted)
        events = list(report.events)
        kinds = {e["kind"] for e in events}
        assert {"fault_straggle", "deregister"} <= kinds
        assert any(
            e["kind"] == "register" and e["pe"] == "pe1"
            and e["time"] == 3.0
            for e in events
        )
        final = read_telemetry(str(tmp_path / "first.jsonl"))[-1]
        assert final["record"] == "final"
        assert json.dumps(final["snapshot"], sort_keys=True) == json.dumps(
            report.metrics, sort_keys=True
        )

        again = self.run_once(tmp_path / "second.jsonl")
        assert again.to_dict() == report.to_dict()
        assert again.metrics == report.metrics
        assert list(again.events) == events


class TestFairness:
    def test_weighted_tenant_gets_shorter_queues(self):
        # Saturated service, two tenants, one with 4x the weight: the
        # heavy tenant's completed requests see lower median latency.
        sim = make_sim()
        arrivals = service_arrivals(
            20.0, 60.0, np.random.default_rng(13), tenants=("vip", "std")
        )
        report = sim.run_service(
            arrivals,
            ServiceConfig(
                max_queue_depth=8,
                max_backlog_seconds=0.0,
                weights={"vip": 4.0},
                dispatch_window=1,
            ),
        )
        assert report.latencies.get("vip") and report.latencies.get("std")
        assert (report.latency_quantile(0.5, "vip")
                < report.latency_quantile(0.5, "std"))
