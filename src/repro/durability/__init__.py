"""Durability: write-ahead journals, snapshots, crash recovery.

The last unguarded failure domain in the reproduction was the server
process itself dying between operations.  This package closes it with
three cooperating pieces, all below the public API (the ViPIOS
discipline — clients see the same calls, now crash-consistent):

* :mod:`~repro.durability.journal` — append-only, CRC-chained record
  framing shared by the data, commit and metadata logs, plus the
  tail-tolerant scanner and the one documented exception,
  :class:`RecoveryError`;
* :mod:`~repro.durability.snapshot` — the portable checkpoint format
  whose bytes are *serial-equivalent*: a pure function of the file's
  logical contents, identical regardless of node count, partition, or
  executor mode (the scda property);
* :mod:`~repro.durability.manager` — :class:`DurabilityManager`, the
  group-commit and recovery protocol threaded through
  :class:`~repro.service.FileService` (journal stamp = ticket seq);
* :mod:`~repro.durability.nslog` — :class:`NamespaceJournal`, the same
  discipline for the inode tree (journaled metadata ops, fold-to-JSON
  snapshots, id-preserving replay);

:mod:`repro.conformance` SIGKILLs a subprocess-hosted service at a
random point, recovers it with this package, and compares its bytes
with a serial replay of the acknowledged-ticket prefix.

Everything is measured under ``durability.*`` in the process-wide
metrics registry: journal record/byte/commit counters, snapshot sizes,
and recovery histograms (time, records replayed, tail bytes
discarded).
"""

from .journal import (
    JournalRecord,
    JournalScan,
    JournalWriter,
    RecoveryError,
    scan_journal,
)
from .manager import DurabilityManager
from .nslog import NamespaceJournal
from .snapshot import (
    parse_snapshot,
    read_snapshot_file,
    snapshot_bytes,
    write_snapshot_file,
)

__all__ = [
    "DurabilityManager",
    "NamespaceJournal",
    "JournalRecord",
    "JournalScan",
    "JournalWriter",
    "RecoveryError",
    "scan_journal",
    "snapshot_bytes",
    "parse_snapshot",
    "write_snapshot_file",
    "read_snapshot_file",
]
