"""Task allocation policies (Section IV-A).

The paper's environment is explicitly *multi-policy*: "we claim that the
user must be able to select the allocation policy which is more
appropriate for his/her platform and sequence files".  Implemented here:

* :class:`SelfScheduling` (SS) — one task per request.  Used by most
  related work (Table I rows [12], [14], [15], [17], [16]).
* :class:`PackageWeightedSelfScheduling` (PSS) — the paper's adaptive
  policy: ``PSS(p_i, N, P) = Allocate(N, p_i) * Phi(p_i, P)`` (Eq. 2)
  with ``Allocate`` being SS (1 task) and ``Phi`` a weight derived from
  the Ω-window weighted-mean rates.
* :class:`FixedSplit` — even static split (Singh & Aruni [10], who
  "assumed that the performance of the CPU and the GPU are the same").
* :class:`WeightedFixed` (WFixed) — static proportional split from a
  configuration file (Meng & Chaudhary [13]).

A policy answers one question: *how many ready tasks should this
requesting PE receive right now?*  Everything else (states, replicas,
merging) lives in the master.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from .history import HistoryBook

__all__ = [
    "PolicyContext",
    "AllocationPolicy",
    "SelfScheduling",
    "PackageWeightedSelfScheduling",
    "FixedSplit",
    "WeightedFixed",
    "make_policy",
]


@dataclass(frozen=True)
class PolicyContext:
    """Everything a policy may consult when sizing an allocation."""

    pe_id: str
    num_pes: int
    total_tasks: int
    ready_tasks: int
    tasks_already_assigned: dict[str, int]
    history: HistoryBook


class AllocationPolicy(abc.ABC):
    """Strategy interface: size the batch for one task request."""

    name: str = "abstract"

    @abc.abstractmethod
    def batch_size(self, ctx: PolicyContext) -> int:
        """Number of ready tasks to grant (>= 0; master clamps to ready)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SelfScheduling(AllocationPolicy):
    """SS: every request gets exactly one task.

    Bounds any PE's final idle wait by one task's duration on the
    slowest PE, at the cost of one master round-trip per task.
    """

    name = "ss"

    def batch_size(self, ctx: PolicyContext) -> int:
        return 1 if ctx.ready_tasks > 0 else 0


class PackageWeightedSelfScheduling(AllocationPolicy):
    """PSS: SS scaled by the observed-throughput weight Phi (Eq. 2).

    ``Phi(p_i, P)`` is the ratio of p_i's Ω-window weighted-mean rate to
    the slowest known rate in the platform, so the slowest PE always
    receives SS-sized batches while a 6x-faster GPU receives 6 tasks at
    a time (the Fig. 5 walk-through).  PEs with no history yet are
    treated as slowest (Phi = 1) — exactly the paper's bootstrap, where
    "in the first allocation, the master assigns one work unit for each
    slave".
    """

    name = "pss"

    def __init__(self, max_batch: int | None = None):
        #: Optional ceiling on one grant, guarding against a wildly
        #: optimistic rate estimate starving the other PEs.
        self.max_batch = max_batch

    def phi(self, ctx: PolicyContext) -> float:
        rates = ctx.history.known_rates()
        mine = rates.get(ctx.pe_id)
        if mine is None or not rates:
            return 1.0
        slowest = min(rates.values())
        if slowest <= 0:
            return 1.0
        return mine / slowest

    def batch_size(self, ctx: PolicyContext) -> int:
        if ctx.ready_tasks <= 0:
            return 0
        base = 1  # Allocate(N, p_i) = SS
        size = max(1, round(base * self.phi(ctx)))
        if self.max_batch is not None:
            size = min(size, self.max_batch)
        return min(size, ctx.ready_tasks)


class FixedSplit(AllocationPolicy):
    """Fixed: the whole pool split evenly across PEs, once.

    Models [10]'s assumption of equal CPU/GPU power: the first request
    from each PE receives ``ceil(total / num_pes)`` tasks and later
    requests receive nothing (the PE is done with its share).

    ``num_pes`` optionally pins the fleet size used for the split.  PEs
    register with the master one by one, so a PE that requests work
    before the fleet is complete would otherwise see a partial
    ``ctx.num_pes`` and take far more than its share; a launcher that
    knows the fleet size should pass it here.
    """

    name = "fixed"

    def __init__(self, num_pes: int | None = None):
        if num_pes is not None and num_pes <= 0:
            raise ValueError("num_pes must be positive when given")
        self.num_pes = num_pes

    def batch_size(self, ctx: PolicyContext) -> int:
        fleet = self.num_pes if self.num_pes is not None else ctx.num_pes
        share = -(-ctx.total_tasks // max(1, fleet))
        already = ctx.tasks_already_assigned.get(ctx.pe_id, 0)
        return max(0, min(share - already, ctx.ready_tasks))


class WeightedFixed(AllocationPolicy):
    """WFixed: static proportional split from configured weights ([13]).

    ``weights`` maps PE ids to their *theoretical* relative computing
    power (e.g. ``{"gpu0": 6, "sse0": 1}``).  Unknown PEs get weight 1.
    The gap between this and PSS — theoretical versus *observed*
    performance — is precisely the paper's motivation.

    Shares are sized against the *configured* weight map, not against
    whichever PEs happen to be registered when a request arrives:
    registration is staggered (workers connect one by one), so sizing
    against the registered set would let an early requester compute its
    share over a partial fleet and drain nearly the whole pool.  PEs
    that appear at runtime without a configured weight join the
    denominator at weight 1; with no weights configured at all, the
    registered set is all we know and the split degrades to even.
    """

    name = "wfixed"

    def __init__(self, weights: dict[str, float] | None = None):
        self.weights = dict(weights or {})

    def batch_size(self, ctx: PolicyContext) -> int:
        weight = self.weights.get(ctx.pe_id, 1.0)
        fleet = set(self.weights) | set(ctx.tasks_already_assigned)
        total_weight = sum(self.weights.get(pe, 1.0) for pe in sorted(fleet))
        if total_weight <= 0:
            return min(1, ctx.ready_tasks)
        share = int(-(-(ctx.total_tasks * weight) // total_weight))  # ceil
        already = ctx.tasks_already_assigned.get(ctx.pe_id, 0)
        return max(0, min(share - already, ctx.ready_tasks))


def make_policy(name: str, **kwargs: object) -> AllocationPolicy:
    """Policy factory used by the CLI and the benchmarks."""
    registry = {
        "ss": SelfScheduling,
        "pss": PackageWeightedSelfScheduling,
        "fixed": FixedSplit,
        "wfixed": WeightedFixed,
    }
    try:
        cls = registry[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown policy {name!r}; known: {sorted(registry)}"
        ) from None
    return cls(**kwargs)  # type: ignore[arg-type]
