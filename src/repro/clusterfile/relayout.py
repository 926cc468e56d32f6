"""On-the-fly physical re-layout of a Clusterfile file (paper §3).

"Using the redistribution algorithm it is possible to implement disk
redistribution on the fly, like in Panda, in order to better suit the
layout to a certain access pattern."  This module implements that: it
rewrites a file from its current physical partition to a new one by
running the redistribution schedule *between the I/O nodes* — each old
subfile's owner gathers the segments destined for each new subfile,
ships them, and the receiver scatters them into the new subfile store.

The per-transfer gather→wire→scatter loop runs on the unified I/O
engine (:meth:`repro.clusterfile.engine.IOEngine.relayout_transfers`):
the data movement is real (byte-verified); the time is simulated on
the same device models as the write path, with disk reads at the
sources, network transfers between distinct I/O nodes (same-node moves
skip the wire), and disk writes at the destinations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.partition import Partition
from ..redistribution.plan_cache import get_plan
from ..simulation.cluster import Cluster
from .engine import IOEngine
from .file_model import ClusterFile
from .fs import Clusterfile

__all__ = ["RelayoutResult", "relayout"]


@dataclass
class RelayoutResult:
    """Outcome of one physical re-layout."""

    bytes_moved: int
    transfers: int
    cross_node_messages: int
    #: Simulated makespan of the whole re-layout, seconds.
    makespan_s: float
    #: Simulated busy time of this re-layout's writes per I/O-node
    #: disk, seconds (every node present, idle ones at 0.0).
    disk_busy_s: Dict[int, float]
    #: True when old and new layouts matched element-for-element (the
    #: re-layout degenerated to local copies).
    was_identity: bool
    #: Span tree of the re-layout (see :mod:`repro.obs`).
    trace: object = None
    #: Transfer retransmissions forced by injected faults.
    retries: int = 0
    #: Source reads served by a non-primary replica.
    failed_over: int = 0


def relayout(
    fs: Clusterfile, name: str, new_physical: Partition
) -> RelayoutResult:
    """Redistribute a file's subfiles to a new physical partition.

    The file's logical length is preserved; views set on the file must
    be re-set afterwards (their projections referred to the old
    subfiles), exactly as a real system would invalidate them.
    """
    cfile: ClusterFile = fs.open(name)
    old = cfile.physical
    length = cfile.file_length()
    plan = get_plan(old, new_physical)

    # New stores come from the deployment's storage backend, under a
    # scratch name first (on-disk backends must not clobber the old
    # subfiles while they are still being read).  A replicated file gets
    # a full set of new mirror stores too.
    new_stores = [
        fs.storage.make_store(f"{name}.relayout", s)
        for s in range(new_physical.num_elements)
    ]
    new_mirrors = [
        [
            fs.storage.make_store(f"{name}.relayout.r{r}", s)
            for r in range(1, cfile.replication)
        ]
        for s in range(new_physical.num_elements)
    ]

    cluster: Cluster = fs.cluster
    bytes_moved, cross, makespan_s, trace = IOEngine(
        cluster, fs.fault_injector, fs.retry_policy, backend=fs.backend
    ).relayout_transfers(
        plan,
        old,
        new_physical,
        length,
        [cfile.replica_stores(s) for s in range(old.num_elements)],
        [[st, *mirrors] for st, mirrors in zip(new_stores, new_mirrors)],
    )

    # Swap in the new layout; file-backed old subfiles (and their
    # mirrors) are deleted from disk — their bytes now live in the new
    # stores.
    import os

    for store in list(cfile.stores) + [
        st for group in cfile.mirrors for st in group
    ]:
        store.close()
        path = getattr(store, "path", None)
        if path is not None and os.path.exists(path):
            os.unlink(path)
    cfile.physical = new_physical
    cfile.stores = new_stores
    cfile.mirrors = new_mirrors
    # Invalidate every view on this file.
    fs._drop_views(name)

    return RelayoutResult(
        bytes_moved=bytes_moved,
        transfers=plan.message_count,
        cross_node_messages=cross,
        makespan_s=makespan_s,
        disk_busy_s={
            n.index: sum((sp.sim_s for sp in trace.find_all(n.disk_queue)), 0.0)
            for n in cluster.io
        },
        was_identity=plan.is_identity,
        trace=trace,
        retries=sum(
            int(sp.attrs.get("messages", 0))
            for sp in trace.find_all("retry")
        ),
        failed_over=len(trace.find_all("failover")),
    )
