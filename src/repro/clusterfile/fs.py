"""The Clusterfile facade: create files, set views, read and write.

Ties the pieces together the way an application would use the paper's
system:

1. create a file with a physical partitioning pattern (subfiles land on
   the simulated I/O nodes round-robin);
2. each compute node sets a view with a logical pattern — paying ``t_i``
   once;
3. compute nodes write/read view intervals; the file system maps, moves
   and times the data.

The facade also exposes whole-array helpers used by the benchmarks and
examples (write a matrix through views, read it back linearly).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..core.partition import Partition
from ..redistribution.gather_scatter import as_flat_bytes
from ..simulation.cluster import Cluster, ClusterConfig
from .client import OperationResult, WriteRequest, parallel_read, parallel_write
from .file_model import ClusterFile
from .view import View, set_view

__all__ = ["Clusterfile"]


@dataclass
class Clusterfile:
    """A simulated Clusterfile deployment.

    ``storage`` selects where subfile *contents* live — in memory (the
    default) or in real files via
    :class:`repro.clusterfile.storage.FileStorage`; timings always come
    from the era device models either way.

    ``fault_injector`` / ``retry_policy`` subject every data operation
    to the engine's fault handling (checksums, retry rounds, failover).
    The engine has one pipeline either way; both ``None`` — the default
    — is its one-round, every-fate-ok case.

    ``workers_mode="process"`` escapes the GIL: subfile stores default
    to shared memory and the server side of every write/read round —
    faulty or not — executes on a
    :class:`~repro.mp.pool.ProcessPoolExecutorBackend` of ``workers``
    processes (call :meth:`close` — or use the instance as a context
    manager — to tear the pool and its segments down).  The default
    ``"thread"`` keeps everything in-process.
    """

    config: ClusterConfig = field(default_factory=ClusterConfig)
    storage: object = None
    #: A :class:`repro.faults.FaultInjector`, or ``None`` (no faults).
    fault_injector: object = None
    #: A :class:`repro.faults.RetryPolicy`, or ``None`` (defaults).
    retry_policy: object = None
    #: ``"thread"`` (in-process, default) or ``"process"``.
    workers_mode: str = "thread"
    #: Worker-process count for ``workers_mode="process"``.
    workers: int = 4

    def __post_init__(self) -> None:
        self.cluster = Cluster(self.config)
        self.files: Dict[str, ClusterFile] = {}
        self.views: Dict[tuple, View] = {}
        self.backend = None
        if self.workers_mode not in ("thread", "process"):
            raise ValueError(
                f"workers_mode must be 'thread' or 'process', "
                f"got {self.workers_mode!r}"
            )
        if self.storage is None:
            if self.workers_mode == "process":
                from .storage import SharedMemoryStorage

                self.storage = SharedMemoryStorage()
            else:
                from .storage import MemoryStorage

                self.storage = MemoryStorage()
        if self.workers_mode == "process":
            from ..mp import ProcessPoolExecutorBackend

            self.backend = ProcessPoolExecutorBackend(
                processes=self.workers, config=self.config
            )

    def close(self) -> None:
        """Release every file's stores and (in process mode) shut the
        worker pool down, unlinking all shared-memory segments."""
        for name in list(self.files):
            try:
                self.unlink(name)
            except Exception:
                pass
        if self.backend is not None:
            self.backend.close()
            self.backend = None

    def __enter__(self) -> "Clusterfile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- namespace -----------------------------------------------------------

    def create(
        self, name: str, physical: Partition, replication: int = 1
    ) -> ClusterFile:
        """Create a file physically partitioned by ``physical``.

        ``replication`` keeps that many copies of every subfile on
        distinct I/O nodes (see :mod:`repro.faults.replica`): reads
        fail over when the primary's node is down, writes degrade
        gracefully.
        """
        if name in self.files:
            raise FileExistsError(name)
        if physical.num_elements > self.config.io_nodes * 64:
            raise ValueError("too many subfiles for this cluster")
        if not 1 <= replication <= self.config.io_nodes:
            raise ValueError(
                f"replication {replication} needs 1 <= k <= io_nodes "
                f"({self.config.io_nodes})"
            )
        stores = [
            self.storage.make_store(name, s)
            for s in range(physical.num_elements)
        ]
        mirrors = [
            [
                self.storage.make_store(f"{name}.r{r}", s)
                for r in range(1, replication)
            ]
            for s in range(physical.num_elements)
        ]
        f = ClusterFile(
            name=name,
            physical=physical,
            stores=stores,
            replication=replication,
            mirrors=mirrors,
        )
        self.files[name] = f
        return f

    def open(self, name: str) -> ClusterFile:
        """Look up an existing file (KeyError when absent)."""
        return self.files[name]

    def unlink(self, name: str) -> None:
        """Remove a file and its subfile stores.

        File-backed stores are durably flushed, closed, and their
        backing files deleted; the in-memory backend's flush/close are
        no-ops.
        """
        f = self.files.pop(name)
        for store in [
            st for st in f.stores
        ] + [st for group in f.mirrors for st in group]:
            store.flush(sync=True)
            store.close()
            path = getattr(store, "path", None)
            if path is not None and os.path.exists(path):
                os.remove(path)

    # -- views ---------------------------------------------------------------

    def set_view(
        self,
        name: str,
        compute_node: int,
        logical: Partition,
        element: int | None = None,
    ) -> View:
        """Set a view for a compute node (element defaults to the node's
        index, the common SPMD idiom)."""
        f = self.open(name)
        if not 0 <= compute_node < self.config.compute_nodes:
            raise ValueError(f"no compute node {compute_node}")
        e = compute_node if element is None else element
        view = set_view(compute_node, logical, e, f.physical)
        self.views[(name, compute_node)] = view
        return view

    def view_of(self, name: str, compute_node: int) -> View:
        """The view a compute node currently has set on a file."""
        return self.views[(name, compute_node)]

    # -- data operations -------------------------------------------------

    def write(
        self,
        name: str,
        accesses: Sequence[tuple],
        to_disk: bool = False,
    ) -> OperationResult:
        """Concurrent view writes: ``accesses`` is a list of
        ``(compute_node, view_offset, data)`` triples."""
        f = self.open(name)
        buffers = [as_flat_bytes(data, "data") for _, _, data in accesses]
        requests = [
            WriteRequest(
                view=self.view_of(name, node),
                lo=off,
                hi=off + buf.size - 1,
                buf=buf,
            )
            for (node, off, _), buf in zip(accesses, buffers)
        ]
        return parallel_write(
            self.cluster,
            f,
            requests,
            to_disk=to_disk,
            injector=self.fault_injector,
            retry_policy=self.retry_policy,
            backend=self.backend,
        )

    def read(
        self,
        name: str,
        accesses: Sequence[tuple],
        from_disk: bool = False,
    ) -> List[np.ndarray]:
        """Concurrent view reads: ``accesses`` is a list of
        ``(compute_node, view_offset, length)``; returns the buffers."""
        f = self.open(name)
        buffers = [np.zeros(length, dtype=np.uint8) for _, _, length in accesses]
        requests = [
            WriteRequest(
                view=self.view_of(name, node),
                lo=off,
                hi=off + length - 1,
                buf=buf,
            )
            for (node, off, length), buf in zip(accesses, buffers)
        ]
        parallel_read(
            self.cluster,
            f,
            requests,
            from_disk=from_disk,
            injector=self.fault_injector,
            retry_policy=self.retry_policy,
            backend=self.backend,
        )
        return buffers

    def read_with_result(
        self,
        name: str,
        accesses: Sequence[tuple],
        from_disk: bool = False,
    ) -> tuple:
        """Like :meth:`read` but also returns the
        :class:`OperationResult` timings."""
        f = self.open(name)
        buffers = [np.zeros(length, dtype=np.uint8) for _, _, length in accesses]
        requests = [
            WriteRequest(
                view=self.view_of(name, node),
                lo=off,
                hi=off + length - 1,
                buf=buf,
            )
            for (node, off, length), buf in zip(accesses, buffers)
        ]
        result = parallel_read(
            self.cluster,
            f,
            requests,
            from_disk=from_disk,
            injector=self.fault_injector,
            retry_policy=self.retry_policy,
            backend=self.backend,
        )
        return buffers, result

    # -- verification helpers --------------------------------------------

    def linear_contents(self, name: str, length: int | None = None) -> np.ndarray:
        """Assemble the file's linear byte contents (verification aid)."""
        return self.open(name).linear_contents(length)
