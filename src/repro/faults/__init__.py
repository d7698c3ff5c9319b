"""Deterministic fault injection for all three execution environments.

``FaultPlan`` describes what goes wrong (crashes, stragglers, message
faults, partitions) as immutable JSON-serialisable data;
``FaultInjector`` turns a plan into seed-deterministic runtime
decisions and records every fired fault into the run's ``EventLog``.
The DES simulator schedules plan faults as events, the threaded runtime
and TCP cluster apply them in the slave loop; all three read what a
message fault means from the one :data:`MESSAGE_RULES` table.  See
``docs/robustness.md`` for the failure model and recovery guarantees.
"""

from .injector import (
    MESSAGE_ACTIONS,
    MESSAGE_RULES,
    FaultInjector,
    InjectedCrash,
    MasterCrashed,
    MessageRule,
)
from .plan import (
    FAULT_PLAN_SCHEMA,
    CrashFault,
    FaultPlan,
    FaultPlanError,
    MasterCrashFault,
    MessageFaults,
    PartitionFault,
    StragglerFault,
)

__all__ = [
    "FAULT_PLAN_SCHEMA",
    "MESSAGE_ACTIONS",
    "MESSAGE_RULES",
    "CrashFault",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "InjectedCrash",
    "MasterCrashed",
    "MasterCrashFault",
    "MessageFaults",
    "MessageRule",
    "PartitionFault",
    "StragglerFault",
]
