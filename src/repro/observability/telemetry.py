"""Periodic telemetry sampling to a ``repro.telemetry.v1`` JSONL stream.

Post-mortem snapshots (``repro.metrics.v1``) tell you where a run
*ended*; the paper's evaluation (and any capacity question) needs the
trajectory — GCUPS over time, per-PE balance as the fleet churns.  This
module samples a :class:`~repro.observability.registry.MetricsRegistry`
on a fixed cadence and appends **interval deltas** to a JSONL stream.

Clock-agnosticism is the point.  :class:`TelemetryWriter` is pure — it
never reads a clock or starts a thread; callers hand it a ``clock``
callable and invoke :meth:`~TelemetryWriter.sample` themselves.  The
DES drives it from virtual-time events, so a simulated hour of
telemetry costs milliseconds; the threaded runtime and the cluster
launcher call it from a :class:`~repro.core.shared.Periodic` thread.

Stream layout (one JSON object per line, all tagged
``"schema": "repro.telemetry.v1"``):

* ``header`` — interval, environment, start time;
* ``sample`` — ``time`` plus a ``delta``: a ``repro.metrics.v1``-shaped
  dict whose counters and histogram buckets hold *increments* since the
  previous sample (gauges hold the current value), so
  :func:`~repro.observability.registry.merge_snapshots` folds samples
  back into cumulative totals;
* ``final`` — the full cumulative snapshot at close, byte-identical to
  the run's ``repro.metrics.v1`` snapshot.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Callable, IO, Mapping

from .registry import merge_snapshots

__all__ = [
    "TELEMETRY_SCHEMA",
    "TelemetryWriter",
    "read_telemetry",
    "replay_telemetry",
    "snapshot_delta",
]

TELEMETRY_SCHEMA = "repro.telemetry.v1"

#: Default sampling cadence (seconds; virtual seconds in the DES).
DEFAULT_INTERVAL = 1.0


def snapshot_delta(previous: Mapping | None, current: Mapping) -> dict:
    """Increment between two ``repro.metrics.v1`` snapshots.

    Returns a snapshot-shaped dict (same schema tag, so
    :func:`merge_snapshots` accepts it) where counter values, histogram
    bucket counts, sums and counts are ``current - previous`` and
    gauges carry the current value.  Every family and series in
    ``current`` appears in the delta — zero increments included — so a
    fold over all samples reconstructs every metric *name*, not just
    the active ones.  ``previous=None`` means "delta since nothing",
    i.e. the full current snapshot.
    """
    if current.get("schema") != "repro.metrics.v1":
        raise ValueError(
            f"unrecognised metrics schema {current.get('schema')!r}"
        )
    prev_series: dict[tuple, Mapping] = {}
    if previous is not None:
        for family in previous.get("metrics", ()):
            for entry in family.get("series", ()):
                key = (
                    family["name"],
                    tuple(sorted(entry.get("labels", {}).items())),
                )
                prev_series[key] = entry
    families = []
    for family in current["metrics"]:
        series = []
        for entry in family.get("series", ()):
            key = (
                family["name"],
                tuple(sorted(entry.get("labels", {}).items())),
            )
            before = prev_series.get(key)
            out: dict = {"labels": dict(entry.get("labels", {}))}
            if family["type"] == "histogram":
                buckets = [list(pair) for pair in entry["buckets"]]
                total = float(entry["sum"])
                count = int(entry["count"])
                nan = int(entry.get("nan", 0))
                if before is not None and len(before["buckets"]) == len(buckets):
                    for pair, (_, prev_count) in zip(
                        buckets, before["buckets"]
                    ):
                        pair[1] -= int(prev_count)
                    total -= float(before["sum"])
                    count -= int(before["count"])
                    nan -= int(before.get("nan", 0))
                out["sum"] = total
                out["count"] = count
                out["buckets"] = buckets
                if nan:
                    out["nan"] = nan
            else:
                value = float(entry["value"])
                if family["type"] == "counter" and before is not None:
                    value -= float(before["value"])
                out["value"] = value
            series.append(out)
        families.append(
            {
                "name": family["name"],
                "type": family["type"],
                "help": family.get("help", ""),
                "labelnames": list(family.get("labelnames", ())),
                "series": series,
            }
        )
    return {"schema": "repro.metrics.v1", "metrics": families}


class TelemetryWriter:
    """Append telemetry records for one run to a JSONL stream.

    Pure and clock-free: ``snapshot_fn`` yields the cumulative
    ``repro.metrics.v1`` dict, ``clock`` the current time in whatever
    timebase the caller lives in.  The caller decides *when* to
    :meth:`sample`; :meth:`close` takes one last sample and writes the
    ``final`` record, and is idempotent.
    """

    def __init__(
        self,
        path: str | Path,
        snapshot_fn: Callable[[], Mapping],
        clock: Callable[[], float],
        interval: float = DEFAULT_INTERVAL,
        environment: str = "",
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        self.path = Path(path)
        self.interval = float(interval)
        self._snapshot_fn = snapshot_fn
        self._clock = clock
        self._previous: Mapping | None = None
        self._lock = threading.Lock()
        self._stream: IO[str] | None = self.path.open("w", encoding="utf-8")
        self._write(
            {
                "schema": TELEMETRY_SCHEMA,
                "record": "header",
                "environment": environment,
                "interval": self.interval,
                "time": float(clock()),
            }
        )

    def _write(self, record: dict) -> None:
        assert self._stream is not None
        self._stream.write(
            json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"
        )
        self._stream.flush()

    @property
    def closed(self) -> bool:
        return self._stream is None

    def sample(self) -> None:
        """Append one interval-delta sample (no-op after close)."""
        with self._lock:
            if self._stream is None:
                return
            current = self._snapshot_fn()
            self._write(
                {
                    "schema": TELEMETRY_SCHEMA,
                    "record": "sample",
                    "time": float(self._clock()),
                    "delta": snapshot_delta(self._previous, current),
                }
            )
            self._previous = current

    def close(self) -> None:
        """Take a last sample, write the ``final`` record, close the file.

        Call *after* end-of-run gauges are stamped (e.g.
        ``finalize_run_metrics``) so the final snapshot matches the
        run's ``repro.metrics.v1`` output byte for byte.
        """
        with self._lock:
            if self._stream is None:
                return
            current = self._snapshot_fn()
            self._write(
                {
                    "schema": TELEMETRY_SCHEMA,
                    "record": "sample",
                    "time": float(self._clock()),
                    "delta": snapshot_delta(self._previous, current),
                }
            )
            self._write(
                {
                    "schema": TELEMETRY_SCHEMA,
                    "record": "final",
                    "time": float(self._clock()),
                    "snapshot": current,
                }
            )
            self._stream.close()
            self._stream = None


def read_telemetry(path: str | Path) -> list[dict]:
    """Load and validate a telemetry stream (schema-tag checked)."""
    records = []
    with open(path, "r", encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("schema") != TELEMETRY_SCHEMA:
                raise ValueError(
                    f"{path}:{lineno}: unrecognised telemetry schema "
                    f"{record.get('schema')!r}"
                )
            if record.get("record") not in ("header", "sample", "final"):
                raise ValueError(
                    f"{path}:{lineno}: unknown record kind "
                    f"{record.get('record')!r}"
                )
            records.append(record)
    return records


def replay_telemetry(records: list[dict]) -> dict:
    """Fold sample deltas back into a cumulative snapshot.

    Counters and histogram bucket counts reconstruct exactly (integer
    arithmetic); float ``sum`` fields may differ from the ``final``
    record in the last ulp, which is why byte-match guarantees attach
    to ``final``, not to this fold.
    """
    deltas = [r["delta"] for r in records if r.get("record") == "sample"]
    return merge_snapshots(*deltas)
