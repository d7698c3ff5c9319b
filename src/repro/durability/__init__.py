"""Durable master state: write-ahead journal, snapshots, recovery.

See :mod:`repro.durability.journal` for the on-disk record format and
:mod:`repro.durability.checkpoint` for the checkpoint store that the
master journals into and recovers from.
"""

from .checkpoint import (
    CheckpointStore,
    RecoveredState,
    ServiceRecoveredState,
    open_master,
    restore_into,
    workload_fingerprint,
)
from .journal import (
    JOURNAL_SCHEMA,
    SERVICE_JOURNAL_SCHEMA,
    SNAPSHOT_SCHEMA,
    Journal,
    JournalError,
    JournalScan,
    decode_record,
    encode_record,
    read_journal,
    scan_journal,
)

__all__ = [
    "JOURNAL_SCHEMA",
    "SNAPSHOT_SCHEMA",
    "SERVICE_JOURNAL_SCHEMA",
    "Journal",
    "JournalError",
    "JournalScan",
    "encode_record",
    "decode_record",
    "scan_journal",
    "read_journal",
    "CheckpointStore",
    "RecoveredState",
    "ServiceRecoveredState",
    "workload_fingerprint",
    "restore_into",
    "open_master",
]
