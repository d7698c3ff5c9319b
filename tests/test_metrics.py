"""Schedule quality read off DES event logs, and the metrics registry."""

import json
import math

import pytest

from repro.bench import fig5_schedule, uniform_tasks
from repro.observability import MetricsRegistry, analyze_events, merge_snapshots
from repro.simulate import HybridSimulator, PESpec, UniformModel


def finish_spread(analysis):
    """Latest minus earliest per-PE finishing time — the tail."""
    finishes = [
        max(interval.end for interval in timeline.intervals)
        for timeline in analysis.timelines.values()
        if timeline.intervals
    ]
    return max(finishes) - min(finishes) if len(finishes) > 1 else 0.0


class TestOnRealSchedules:
    def test_fig5_waste_only_with_adjustment(self):
        result = fig5_schedule()
        with_adj = analyze_events(result.with_adjustment.events)
        without = analyze_events(result.without_adjustment.events)
        assert with_adj.replica_waste_ratio > 0.0
        assert without.replica_waste_ratio == 0.0
        # The mechanism trades wasted SSE cycles for a shorter tail.
        assert with_adj.makespan < without.makespan
        assert finish_spread(with_adj) <= finish_spread(without)

    def test_single_pe_fully_utilized(self):
        report = HybridSimulator(
            [PESpec("solo", UniformModel(rate=1.0))], comm_latency=0.0
        ).run(uniform_tasks(5, cells=2))
        analysis = analyze_events(report.events)
        assert analysis.timelines["solo"].utilization == pytest.approx(
            1.0, abs=0.01
        )
        assert analysis.replica_waste_ratio == 0.0


class TestHistogramNaN:
    """Regression: a single NaN observation must not poison the series."""

    def test_nan_is_counted_and_dropped(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "lat", buckets=(1.0, float("inf"))
        ).labels()
        hist.observe(0.5)
        hist.observe(float("nan"))
        hist.observe(0.5)
        assert hist.count == 2
        assert hist.sum == pytest.approx(1.0)
        assert not math.isnan(hist.sum)
        assert hist.nan_count == 1

    def test_nan_key_only_when_nonzero(self):
        registry = MetricsRegistry()
        clean = registry.histogram(
            "clean", buckets=(1.0, float("inf"))
        ).labels()
        clean.observe(0.5)
        entry = registry.snapshot()["metrics"][0]["series"][0]
        assert "nan" not in entry  # byte-compat with older snapshots
        clean.observe(float("nan"))
        entry = registry.snapshot()["metrics"][0]["series"][0]
        assert entry["nan"] == 1

    def test_nan_count_survives_round_trip(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "lat", buckets=(1.0, float("inf"))
        ).labels()
        hist.observe(float("nan"))
        snapshot = registry.snapshot()
        rebuilt = MetricsRegistry.from_snapshot(snapshot)
        assert rebuilt.get("lat").labels().nan_count == 1
        assert rebuilt.snapshot() == snapshot


class TestHistogramQuantile:
    def make(self, values, buckets=(0.1, 1.0, 10.0, float("inf"))):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=buckets).labels()
        for value in values:
            hist.observe(value)
        return hist

    def test_empty_histogram_is_nan(self):
        assert math.isnan(self.make([]).quantile(0.5))

    def test_rejects_out_of_range(self):
        hist = self.make([0.5])
        with pytest.raises(ValueError):
            hist.quantile(-0.1)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_interpolates_within_bucket(self):
        # Two samples in (0.1, 1.0]: p50 lands mid-bucket.
        hist = self.make([0.2, 0.9])
        p50 = hist.quantile(0.5)
        assert 0.1 < p50 <= 1.0

    def test_single_bucket_lower_edge(self):
        # All mass in the first bucket: interpolate from 0.
        hist = self.make([0.05, 0.05])
        assert 0.0 < hist.quantile(0.5) <= 0.1

    def test_inf_bucket_clamps_to_largest_finite_bound(self):
        hist = self.make([100.0, 200.0])
        assert hist.quantile(0.99) == 10.0

    def test_monotone_in_q(self):
        hist = self.make([0.05, 0.5, 5.0, 50.0])
        qs = [hist.quantile(q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert qs == sorted(qs)


class TestSnapshotRoundTrip:
    def build(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total", labelnames=("pe",))
        counter.labels(pe="gpu0").inc(3)
        counter.labels(pe="sse0").inc(5)
        hist = registry.histogram(
            "lat",
            labelnames=("pe",),
            buckets=(0.1, 1.0, float("inf")),
        )
        hist.labels(pe="gpu0").observe(0.05)
        hist.labels(pe="gpu0").observe(0.5)
        hist.labels(pe="sse0").observe(2.0)
        registry.gauge("depth").labels().set(4)
        return registry

    def test_labeled_histogram_round_trip_is_byte_equal(self):
        snapshot = self.build().snapshot()
        rebuilt = MetricsRegistry.from_snapshot(snapshot)
        assert json.dumps(rebuilt.snapshot(), sort_keys=True) == json.dumps(
            snapshot, sort_keys=True
        )

    def test_merge_unions_series_and_adds(self):
        first = self.build().snapshot()
        other = MetricsRegistry()
        counter = other.counter("jobs_total", labelnames=("pe",))
        counter.labels(pe="gpu0").inc(2)  # overlaps -> adds
        counter.labels(pe="cpu0").inc(1)  # new series -> union
        hist = other.histogram(
            "lat", labelnames=("pe",), buckets=(0.1, 1.0, float("inf"))
        )
        hist.labels(pe="gpu0").observe(0.07)
        other.gauge("depth").labels().set(9)  # gauges keep last
        merged = MetricsRegistry.from_snapshot(
            merge_snapshots(first, other.snapshot())
        )
        jobs = merged.get("jobs_total")
        assert jobs.labels(pe="gpu0").value == pytest.approx(5.0)
        assert jobs.labels(pe="sse0").value == pytest.approx(5.0)
        assert jobs.labels(pe="cpu0").value == pytest.approx(1.0)
        lat = merged.get("lat").labels(pe="gpu0")
        assert lat.count == 3  # bucket-wise addition
        assert lat.cumulative()[0][1] == 2  # both <=0.1 samples
        assert merged.get("depth").labels().value == pytest.approx(9.0)

    def test_merge_rejects_mismatched_bucket_bounds(self):
        first = MetricsRegistry()
        first.histogram("lat", buckets=(0.1, float("inf"))).labels().observe(
            0.05
        )
        second = MetricsRegistry()
        second.histogram("lat", buckets=(0.5, float("inf"))).labels().observe(
            0.05
        )
        with pytest.raises(ValueError, match="bucket bounds disagree"):
            merge_snapshots(first.snapshot(), second.snapshot())
