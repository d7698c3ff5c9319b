"""Core contribution: tasks, policies, adjustment, master/slave runtime."""

from .caching import (
    KeyedLRU,
    PackCache,
    ProfileCache,
    default_pack_cache,
    default_profile_cache,
)
from .engines import (
    Engine,
    InterSequenceEngine,
    ScanEngine,
    StripedSSEEngine,
    ThrottledEngine,
)
from .history import DEFAULT_OMEGA, HistoryBook, RateEstimator, RateSample
from .master import Assignment, Master, TraceEvent
from .policies import (
    AllocationPolicy,
    FixedSplit,
    PackageWeightedSelfScheduling,
    PolicyContext,
    SelfScheduling,
    WeightedFixed,
    make_policy,
)
from .results import merge_hits, offset_hits
from .runtime import HybridRuntime, RunReport, build_tasks
from .task import (
    Task,
    TaskBatch,
    TaskPool,
    TaskResult,
    TaskState,
    group_into_batches,
)

__all__ = [
    "Engine",
    "StripedSSEEngine",
    "InterSequenceEngine",
    "ScanEngine",
    "ThrottledEngine",
    "KeyedLRU",
    "PackCache",
    "ProfileCache",
    "default_pack_cache",
    "default_profile_cache",
    "HistoryBook",
    "RateEstimator",
    "RateSample",
    "DEFAULT_OMEGA",
    "Assignment",
    "Master",
    "TraceEvent",
    "AllocationPolicy",
    "PolicyContext",
    "SelfScheduling",
    "PackageWeightedSelfScheduling",
    "FixedSplit",
    "WeightedFixed",
    "make_policy",
    "HybridRuntime",
    "RunReport",
    "build_tasks",
    "merge_hits",
    "offset_hits",
    "Task",
    "TaskBatch",
    "TaskPool",
    "TaskResult",
    "TaskState",
    "group_into_batches",
]
