"""Fault injection, retry/recovery, and replica failover.

The unified I/O engine (:mod:`repro.clusterfile.engine`) is the single
seam every data path crosses — parallel write/read, two-phase
collective I/O, physical re-layout, checkpoint resharding — so
cross-cutting failure handling lives there, parameterised by this
package:

* :class:`FaultPlan` / :class:`FaultRule` — a declarative, seed-driven
  schedule of message drops, delays, payload corruption, I/O-node
  crashes, and slow disks (JSON round-trippable, so CI can save a
  failing plan and a developer can replay it);
* :class:`FaultInjector` — evaluates a plan deterministically per
  message attempt (BLAKE2b of seed + message identity; no RNG state);
* :func:`checksum` — CRC32 payload checksums, verified *before* any
  scatter (stamped lazily: the injector is the simulation's only
  corruption source, so never-corrupted messages skip the hash);
* :class:`RetryPolicy` — timeout + capped exponential backoff with
  deterministic jitter and a per-message retry budget;
* :class:`ReplicatedPartition` / :func:`replica_nodes` — k-way subfile
  replication so reads fail over and writes degrade gracefully when a
  node is down.

Everything is off by default: a ``Clusterfile`` without an injector and
with replication 1 is the engine's one round loop at its simplest — one
round, one replica per message, every fate ok, no checksum computed.
"""

from .errors import (
    ChecksumError,
    FaultError,
    NoLiveReplica,
    RetryBudgetExceeded,
)
from .injector import FaultInjector, checksum
from .plan import FaultPlan, FaultRule
from .replica import ReplicatedPartition, replica_nodes
from .retry import RetryPolicy

__all__ = [
    "ChecksumError",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "NoLiveReplica",
    "ReplicatedPartition",
    "RetryBudgetExceeded",
    "RetryPolicy",
    "checksum",
    "replica_nodes",
]
