"""Seed-deterministic fault plans.

A :class:`FaultPlan` is an immutable, JSON-serialisable description of
every fault a run should suffer: worker crashes (at a point in time or
after a number of completed tasks), stragglers (rate slow-down windows),
message-level transport faults (drop / duplicate / delay / corrupt) and
network partitions.  The plan itself contains no randomness at
injection time — all probabilistic decisions are drawn by
:class:`repro.faults.injector.FaultInjector` from per-PE streams seeded
from ``FaultPlan.seed``, so the same plan produces the same fault
schedule in every environment that honours virtual/wall time the same
way.

Plans round-trip through JSON under the ``repro.fault_plan.v1`` schema
tag so they can be passed to the CLI (``repro simulate --faults`` /
``repro cluster --faults``) and shipped to worker processes.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

__all__ = [
    "FAULT_PLAN_SCHEMA",
    "FaultPlanError",
    "CrashFault",
    "MasterCrashFault",
    "StragglerFault",
    "MessageFaults",
    "PartitionFault",
    "FaultPlan",
]

FAULT_PLAN_SCHEMA = "repro.fault_plan.v1"


class FaultPlanError(ValueError):
    """A fault plan violated one of its invariants."""


@dataclass(frozen=True)
class CrashFault:
    """Kill one PE — silently, the way real workers die.

    Exactly like pulling the plug: the PE stops sending messages and
    the master only learns about it through heartbeat reaping.  Either
    ``at_time`` (seconds since run start) or ``after_tasks`` (crash
    after locally completing N tasks) must be set; if both are set the
    first to trigger wins.  ``restart_after`` optionally rejoins the PE
    that many seconds after the crash (honoured by the DES simulator;
    wall-clock environments treat crashed workers as permanently gone).
    """

    pe_id: str
    at_time: float | None = None
    after_tasks: int | None = None
    restart_after: float | None = None

    def __post_init__(self) -> None:
        if self.at_time is None and self.after_tasks is None:
            raise FaultPlanError(
                f"crash for {self.pe_id!r} needs at_time or after_tasks"
            )
        if self.at_time is not None and self.at_time < 0:
            raise FaultPlanError("crash at_time must be >= 0")
        if self.after_tasks is not None and self.after_tasks < 1:
            raise FaultPlanError("crash after_tasks must be >= 1")
        if self.restart_after is not None and self.restart_after <= 0:
            raise FaultPlanError("restart_after must be > 0")

    @property
    def permanent(self) -> bool:
        return self.restart_after is None


@dataclass(frozen=True)
class MasterCrashFault:
    """Kill the *master* at ``at_time`` seconds into the run.

    The inverse of :class:`CrashFault`: the scheduling brain dies with
    every in-memory result, and only the write-ahead journal
    (:mod:`repro.durability`) survives.  ``recovery_after`` is how long
    the master stays down before a replacement recovers from the
    checkpoint; the DES models the window explicitly (slave traffic
    stalls and is retried), while wall-clock environments surface the
    crash as :class:`~repro.faults.injector.MasterCrashed` and leave
    the restart to the caller.
    """

    at_time: float
    recovery_after: float = 0.5

    def __post_init__(self) -> None:
        if self.at_time < 0:
            raise FaultPlanError("master crash at_time must be >= 0")
        if self.recovery_after < 0:
            raise FaultPlanError("recovery_after must be >= 0")


@dataclass(frozen=True)
class StragglerFault:
    """Slow one PE down by ``factor`` during ``[start, end)``.

    ``factor`` multiplies the PE's effective rate, so ``0.25`` means
    the PE runs at a quarter of its modelled speed.  ``end=None``
    straggles until the end of the run.
    """

    pe_id: str
    factor: float
    start: float = 0.0
    end: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.factor <= 1.0:
            raise FaultPlanError("straggler factor must be in (0, 1]")
        if self.start < 0:
            raise FaultPlanError("straggler start must be >= 0")
        if self.end is not None and self.end <= self.start:
            raise FaultPlanError("straggler end must be > start")

    def active(self, now: float) -> bool:
        return now >= self.start and (self.end is None or now < self.end)


@dataclass(frozen=True)
class MessageFaults:
    """Per-message transport fault probabilities.

    Each message draws one uniform variate; the cumulative thresholds
    ``drop → duplicate → delay → corrupt`` decide its fate, so the
    rates must sum to at most 1.  ``delay_seconds`` is how long a
    delayed message is held.  What each action means for each message
    kind, and which kinds it applies to at all (a ``request`` is never
    duplicated), is :data:`repro.faults.MESSAGE_RULES`, the same in
    every environment; an inapplicable draw delivers normally, keeping
    the decision stream aligned across environments.
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    delay_seconds: float = 0.02
    corrupt_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "delay_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultPlanError(f"{name} must be in [0, 1]")
        if self.total_rate > 1.0:
            raise FaultPlanError("message fault rates must sum to <= 1")
        if self.delay_seconds < 0:
            raise FaultPlanError("delay_seconds must be >= 0")

    @property
    def total_rate(self) -> float:
        return (
            self.drop_rate
            + self.duplicate_rate
            + self.delay_rate
            + self.corrupt_rate
        )


@dataclass(frozen=True)
class PartitionFault:
    """Cut a set of PEs off from the master during ``[start, end)``.

    Partitioned PEs keep computing but none of their messages reach the
    master (nor the master's replies them) until the window closes, at
    which point deferred traffic is delivered and reaped PEs
    re-register.
    """

    pe_ids: tuple[str, ...]
    start: float
    end: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "pe_ids", tuple(self.pe_ids))
        if not self.pe_ids:
            raise FaultPlanError("partition needs at least one PE")
        if self.start < 0 or self.end <= self.start:
            raise FaultPlanError("partition window must satisfy 0 <= start < end")

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class FaultPlan:
    """Everything that will go wrong in one run, deterministically."""

    seed: int = 0
    crashes: tuple[CrashFault, ...] = ()
    stragglers: tuple[StragglerFault, ...] = ()
    messages: MessageFaults = field(default_factory=MessageFaults)
    partitions: tuple[PartitionFault, ...] = ()
    master_crash: MasterCrashFault | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "stragglers", tuple(self.stragglers))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        seen: set[str] = set()
        for crash in self.crashes:
            if crash.pe_id in seen:
                raise FaultPlanError(
                    f"multiple crashes for PE {crash.pe_id!r}"
                )
            seen.add(crash.pe_id)

    @property
    def empty(self) -> bool:
        return (
            not self.crashes
            and not self.stragglers
            and not self.partitions
            and self.master_crash is None
            and self.messages.total_rate == 0.0
        )

    def crash_for(self, pe_id: str) -> CrashFault | None:
        for crash in self.crashes:
            if crash.pe_id == pe_id:
                return crash
        return None

    def survivors(self, pe_ids: Iterable[str]) -> tuple[str, ...]:
        """PEs that are never permanently crashed by this plan."""
        doomed = {c.pe_id for c in self.crashes if c.permanent}
        return tuple(pe for pe in pe_ids if pe not in doomed)

    def without_master_crash(self) -> "FaultPlan":
        """The same plan minus the master crash.

        Resume runs use this: the crash already fired in the run being
        resumed, and the fault's ``at_time`` is relative to run start,
        so carrying it into the restarted run would kill the master
        again at the same offset.
        """
        if self.master_crash is None:
            return self
        return FaultPlan(
            seed=self.seed,
            crashes=self.crashes,
            stragglers=self.stragglers,
            messages=self.messages,
            partitions=self.partitions,
        )

    # -- JSON round-trip ------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": FAULT_PLAN_SCHEMA,
            "seed": self.seed,
            "crashes": [asdict(c) for c in self.crashes],
            "stragglers": [asdict(s) for s in self.stragglers],
            "messages": asdict(self.messages),
            "partitions": [
                {"pe_ids": list(p.pe_ids), "start": p.start, "end": p.end}
                for p in self.partitions
            ],
            "master_crash": (
                asdict(self.master_crash)
                if self.master_crash is not None
                else None
            ),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FaultPlan":
        schema = payload.get("schema", FAULT_PLAN_SCHEMA)
        if schema != FAULT_PLAN_SCHEMA:
            raise FaultPlanError(f"unsupported fault-plan schema {schema!r}")
        return cls(
            seed=int(payload.get("seed", 0)),
            crashes=tuple(
                CrashFault(**c) for c in payload.get("crashes", ())
            ),
            stragglers=tuple(
                StragglerFault(**s) for s in payload.get("stragglers", ())
            ),
            messages=MessageFaults(**payload.get("messages", {})),
            partitions=tuple(
                PartitionFault(
                    pe_ids=tuple(p["pe_ids"]),
                    start=p["start"],
                    end=p["end"],
                )
                for p in payload.get("partitions", ())
            ),
            master_crash=(
                MasterCrashFault(**payload["master_crash"])
                if payload.get("master_crash")
                else None
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    # -- random plan generator ------------------------------------------

    @classmethod
    def random(
        cls,
        pe_ids: Sequence[str],
        seed: int,
        *,
        horizon: float = 4.0,
        crash_probability: float = 0.6,
        straggler_probability: float = 0.5,
        partition_probability: float = 0.3,
        max_drop_rate: float = 0.15,
        max_duplicate_rate: float = 0.15,
        max_delay_rate: float = 0.15,
        max_delay_seconds: float = 0.02,
        max_corrupt_rate: float = 0.05,
        allow_restarts: bool = False,
        master_crash_probability: float = 0.0,
    ) -> "FaultPlan":
        """A bounded random plan that always leaves >= 1 surviving PE.

        ``horizon`` scales every time in the plan (crash instants,
        straggler and partition windows) and should roughly match the
        expected fault-free makespan of the workload.  Rates are drawn
        uniformly in ``[0, max_*]`` and then rescaled if the sum would
        exceed 1.  The plan is a pure function of ``(pe_ids, seed)``
        and the keyword bounds.
        """
        if not pe_ids:
            raise FaultPlanError("need at least one PE")
        rng = random.Random(f"repro.fault_plan:{seed}")
        pes = list(pe_ids)

        crashes: list[CrashFault] = []
        # Leave at least one PE permanently alive.
        max_victims = len(pes) - 1
        victims = [pe for pe in pes if rng.random() < crash_probability]
        victims = victims[:max_victims]
        for pe in victims:
            restart = (
                rng.uniform(0.2, 0.6) * horizon
                if allow_restarts and rng.random() < 0.5
                else None
            )
            if rng.random() < 0.5:
                crashes.append(
                    CrashFault(
                        pe_id=pe,
                        at_time=rng.uniform(0.1, 0.7) * horizon,
                        restart_after=restart,
                    )
                )
            else:
                crashes.append(
                    CrashFault(
                        pe_id=pe,
                        after_tasks=rng.randint(1, 3),
                        restart_after=restart,
                    )
                )

        stragglers = tuple(
            StragglerFault(
                pe_id=pe,
                factor=rng.uniform(0.25, 0.9),
                start=rng.uniform(0.0, 0.4) * horizon,
                end=rng.uniform(0.6, 1.0) * horizon,
            )
            for pe in pes
            if rng.random() < straggler_probability
        )

        rates = [
            rng.uniform(0.0, max_drop_rate),
            rng.uniform(0.0, max_duplicate_rate),
            rng.uniform(0.0, max_delay_rate),
            rng.uniform(0.0, max_corrupt_rate),
        ]
        total = sum(rates)
        if total > 1.0:
            rates = [r / total for r in rates]
        messages = MessageFaults(
            drop_rate=rates[0],
            duplicate_rate=rates[1],
            delay_rate=rates[2],
            delay_seconds=rng.uniform(0.0, max_delay_seconds),
            corrupt_rate=rates[3],
        )

        partitions: list[PartitionFault] = []
        if len(pes) > 1 and rng.random() < partition_probability:
            cut = rng.sample(pes, rng.randint(1, len(pes) - 1))
            start = rng.uniform(0.1, 0.5) * horizon
            partitions.append(
                PartitionFault(
                    pe_ids=tuple(sorted(cut)),
                    start=start,
                    end=start + rng.uniform(0.1, 0.25) * horizon,
                )
            )

        # Drawn last so plans generated before master crashes existed
        # stay byte-identical for the same seed when the probability
        # keeps its default of 0.
        master_crash = None
        if master_crash_probability > 0 and (
            rng.random() < master_crash_probability
        ):
            master_crash = MasterCrashFault(
                at_time=rng.uniform(0.2, 0.6) * horizon,
                recovery_after=rng.uniform(0.05, 0.25) * horizon,
            )

        return cls(
            seed=seed,
            crashes=tuple(crashes),
            stragglers=stragglers,
            messages=messages,
            partitions=tuple(partitions),
            master_crash=master_crash,
        )
