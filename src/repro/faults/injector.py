"""Runtime side of fault injection.

A :class:`FaultInjector` turns an immutable :class:`FaultPlan` into
per-run decisions.  Every probabilistic draw comes from a per-PE
``random.Random`` stream seeded from ``(plan.seed, pe_id)``, so the
decision sequence each PE sees is independent of thread interleaving
and identical across runs of the same environment.  Every fault that
actually fires is recorded in the shared :class:`EventLog` under a
``fault_*`` kind so ``repro trace analyze`` can report injected faults
alongside the recoveries they triggered.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Callable, Iterable

from ..observability import EventLog
from .plan import CrashFault, FaultPlan, PartitionFault

__all__ = [
    "FaultInjector",
    "InjectedCrash",
    "MasterCrashed",
    "MESSAGE_ACTIONS",
    "MESSAGE_RULES",
    "MessageRule",
]

#: Cumulative-threshold order for message fault decisions.
MESSAGE_ACTIONS = ("drop", "duplicate", "delay", "corrupt")


@dataclass(frozen=True)
class MessageRule:
    """What the message faults mean for one slave->master message kind.

    A drawn action outside ``allow`` delivers normally.  ``hold``: a
    partition holds the message until the window heals (otherwise the
    message is lost in it).  ``retransmit``: a dropped message is sent
    again after a short pause (otherwise it is lost; a lost ``request``
    is an empty grant).  ``duplicate`` sends the same message twice and
    ``delay`` holds it for ``MessageFaults.delay_seconds``.  ``corrupt``
    poisons a link that has a byte stream, so the message goes out over
    a fresh connection; on any other link it acts as a drop.
    """

    allow: tuple[str, ...]
    hold: bool
    retransmit: bool


#: The one rule table every environment's transport gate reads: the
#: DES's virtual-time gates and the slave loop's wall-clock gate.
MESSAGE_RULES = {
    "request": MessageRule(
        ("drop", "delay", "corrupt"), hold=True, retransmit=False
    ),
    "progress": MessageRule(MESSAGE_ACTIONS, hold=False, retransmit=False),
    "complete": MessageRule(MESSAGE_ACTIONS, hold=True, retransmit=True),
    "cancelled": MessageRule(MESSAGE_ACTIONS, hold=True, retransmit=True),
}


class InjectedCrash(RuntimeError):
    """Raised inside a worker to make it die as the plan demands."""

    def __init__(self, pe_id: str, reason: str = "crash") -> None:
        super().__init__(f"injected crash of {pe_id} ({reason})")
        self.pe_id = pe_id
        self.reason = reason


class MasterCrashed(RuntimeError):
    """The plan's master crash fired: the scheduling brain is gone.

    Wall-clock environments raise this out of the run so the caller can
    restart with the same ``--checkpoint`` directory; recovery then
    replays the journal instead of recomputing finished tasks.
    """

    def __init__(self, at_time: float) -> None:
        super().__init__(
            f"injected master crash at t={at_time:.3f}s "
            "(resume from the checkpoint directory)"
        )
        self.at_time = at_time


class FaultInjector:
    """Deterministic decision engine over a :class:`FaultPlan`.

    The injector is shared between all PEs of one run; its methods are
    thread-safe.  ``events`` is optional — worker processes in the TCP
    cluster inject without recording (decisions are still drawn from
    the same streams), while the DES and threaded runtimes record every
    fired fault into the run's event log.
    """

    def __init__(
        self,
        plan: FaultPlan,
        events: EventLog | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.plan = plan
        self.events = events
        self._clock = clock or (lambda: 0.0)
        self._lock = threading.Lock()
        self._streams: dict[str, random.Random] = {}
        self._crash_fired: set[str] = set()  # a crash fires once per plan
        self._down: set[str] = set()  # crashed and not (yet) restarted
        self._straggling: set[str] = set()
        self._partitioned: set[tuple[str, float]] = set()

    # -- bookkeeping ----------------------------------------------------

    def _stream(self, pe_id: str) -> random.Random:
        stream = self._streams.get(pe_id)
        if stream is None:
            stream = random.Random(f"repro.faults:{self.plan.seed}:{pe_id}")
            self._streams[pe_id] = stream
        return stream

    def record(
        self, kind: str, pe_id: str = "", time: float | None = None, **fields
    ) -> None:
        """Emit a ``fault_<kind>`` event into the run's event log."""
        if self.events is None:
            return
        when = self._clock() if time is None else time
        self.events.emit(f"fault_{kind}", time=when, pe=pe_id, **fields)

    # -- crashes --------------------------------------------------------

    def crash_spec(self, pe_id: str) -> CrashFault | None:
        return self.plan.crash_for(pe_id)

    def crashed(self, pe_id: str) -> bool:
        """True while the PE is down (crash fired, no restart yet)."""
        with self._lock:
            return pe_id in self._down

    def crash_due(
        self, pe_id: str, now: float | None = None, tasks_completed: int = 0
    ) -> bool:
        """True when this PE's crash should fire (and has not yet)."""
        spec = self.plan.crash_for(pe_id)
        if spec is None:
            return False
        with self._lock:
            if pe_id in self._crash_fired:
                return False
        when = self._clock() if now is None else now
        if spec.at_time is not None and when >= spec.at_time:
            return True
        if (
            spec.after_tasks is not None
            and tasks_completed >= spec.after_tasks
        ):
            return True
        return False

    def mark_crashed(
        self, pe_id: str, now: float | None = None, reason: str = "crash"
    ) -> bool:
        """Record the crash; returns False if it already fired."""
        with self._lock:
            if pe_id in self._crash_fired:
                return False
            self._crash_fired.add(pe_id)
            self._down.add(pe_id)
        spec = self.plan.crash_for(pe_id)
        self.record(
            "crash",
            pe_id,
            time=now,
            reason=reason,
            restart_after=spec.restart_after if spec else None,
        )
        return True

    def mark_restarted(self, pe_id: str, now: float | None = None) -> None:
        # ``_crash_fired`` keeps the pe_id: a crash fires at most once
        # per plan, so the restarted incarnation does not immediately
        # re-trip its own (already elapsed) trigger.
        with self._lock:
            self._down.discard(pe_id)
        self.record("restart", pe_id, time=now)

    # -- stragglers -----------------------------------------------------

    def rate_factor(self, pe_id: str, now: float) -> float:
        """Product of all straggler windows active for this PE now."""
        factor = 1.0
        for straggler in self.plan.stragglers:
            if straggler.pe_id == pe_id and straggler.active(now):
                factor *= straggler.factor
        if factor < 1.0:
            with self._lock:
                fresh = pe_id not in self._straggling
                self._straggling.add(pe_id)
            if fresh:
                self.record("straggle", pe_id, time=now, factor=factor)
        else:
            with self._lock:
                self._straggling.discard(pe_id)
        return factor

    def straggle_sleep(self, pe_id: str, now: float, elapsed: float) -> float:
        """Extra wall-clock sleep that dilates ``elapsed`` by the factor."""
        factor = self.rate_factor(pe_id, now)
        if factor >= 1.0 or elapsed <= 0:
            return 0.0
        return elapsed * (1.0 / factor - 1.0)

    # -- message faults -------------------------------------------------

    @property
    def delay_seconds(self) -> float:
        return self.plan.messages.delay_seconds

    def message_action(
        self,
        pe_id: str,
        message_type: str,
        now: float | None = None,
        allow: Iterable[str] = MESSAGE_ACTIONS,
    ) -> str:
        """Decide one message's fate: deliver/drop/duplicate/delay/corrupt.

        One variate is always drawn (keeping per-PE streams aligned no
        matter which environment asks); if the chosen action is not in
        ``allow`` the message is delivered normally.  Non-deliver
        outcomes are recorded as ``fault_<action>`` events.
        """
        messages = self.plan.messages
        if messages.total_rate == 0.0:
            return "deliver"
        with self._lock:
            draw = self._stream(pe_id).random()
        action = "deliver"
        threshold = 0.0
        for name, rate in (
            ("drop", messages.drop_rate),
            ("duplicate", messages.duplicate_rate),
            ("delay", messages.delay_rate),
            ("corrupt", messages.corrupt_rate),
        ):
            threshold += rate
            if draw < threshold:
                action = name
                break
        if action == "deliver" or action not in tuple(allow):
            return "deliver"
        self.record(action, pe_id, time=now, message=message_type)
        return action

    # -- partitions -----------------------------------------------------

    def partition_window(
        self, pe_id: str, now: float
    ) -> PartitionFault | None:
        """The partition window covering this PE now, if any."""
        for partition in self.plan.partitions:
            if pe_id in partition.pe_ids and partition.active(now):
                return partition
        return None

    def partitioned(self, pe_id: str, now: float) -> bool:
        return self.partition_window(pe_id, now) is not None

    def partition_remaining(self, pe_id: str, now: float) -> float:
        """Seconds until this PE's active partition heals (0 if none)."""
        window = self.partition_window(pe_id, now)
        if window is None:
            return 0.0
        with self._lock:
            key = (pe_id, window.start)
            fresh = key not in self._partitioned
            self._partitioned.add(key)
        if fresh:
            self.record(
                "partition", pe_id, time=now,
                start=window.start, end=window.end,
            )
        return max(0.0, window.end - now)
