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
from .engine import IOEngine, OperationResult, WriteRequest
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
        #: One access-layout table per (logical, element, physical)
        #: structure, shared by every view set with that triple.
        self._layout_tables: Dict[tuple, dict] = {}
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
        """Remove a file, its views and its subfile stores.

        File-backed stores are durably flushed, closed, and their
        backing files deleted; the in-memory backend's flush/close are
        no-ops.
        """
        f = self.files.pop(name)
        self._drop_views(name)
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
        if not 0 <= e < logical.num_elements:
            raise ValueError(
                f"no element {e} in a {logical.num_elements}-element partition"
            )
        key = (logical.structure_key(), e, f.physical.structure_key())
        layouts = self._layout_tables.setdefault(key, {})
        view = set_view(compute_node, logical, e, f.physical, layouts)
        old = self.views.get((name, compute_node))
        self.views[(name, compute_node)] = view
        if old is not None and old._layouts is not layouts:
            self._prune_layout_tables()
        return view

    def view_of(self, name: str, compute_node: int) -> View:
        """The view a compute node currently has set on a file."""
        return self.views[(name, compute_node)]

    def _drop_views(self, name: str) -> None:
        """Forget every view on a file (its links refer to subfiles
        that are gone or re-laid out)."""
        for key in [k for k in self.views if k[0] == name]:
            del self.views[key]
        self._prune_layout_tables()

    def _prune_layout_tables(self) -> None:
        """Drop the layout tables no current view holds, so their count
        stays bounded by the pattern triples in use.  O(views); runs on
        unlink, re-layout and view re-set only.  A view set concurrently
        may lose its table from the index: that costs sharing, never
        bytes."""
        held = {id(v._layouts) for v in list(self.views.values())}
        for key, table in list(self._layout_tables.items()):
            if id(table) not in held:
                del self._layout_tables[key]

    # -- data operations -------------------------------------------------

    def _engine(self) -> IOEngine:
        """An engine over the current settings.  Built per operation:
        a :class:`~repro.service.FileService` reassigns ``backend``
        after construction."""
        return IOEngine(
            self.cluster,
            self.fault_injector,
            self.retry_policy,
            backend=self.backend,
        )

    def _requests(self, name: str, accesses, buffers) -> List[WriteRequest]:
        """One request per ``(compute_node, view_offset, _)`` access,
        covering its buffer; an empty access is a no-op and sends no
        message."""
        return [
            WriteRequest(
                view=self.view_of(name, node),
                lo=off,
                hi=off + buf.size - 1,
                buf=buf,
            )
            for (node, off, _), buf in zip(accesses, buffers)
            if buf.size
        ]

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
        return self._engine().write(
            f, self._requests(name, accesses, buffers), to_disk=to_disk
        )

    def read(
        self,
        name: str,
        accesses: Sequence[tuple],
        from_disk: bool = False,
    ) -> List[np.ndarray]:
        """Concurrent view reads: ``accesses`` is a list of
        ``(compute_node, view_offset, length)``; returns the buffers."""
        return self.read_with_result(name, accesses, from_disk)[0]

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
        result = self._engine().read(
            f, self._requests(name, accesses, buffers), from_disk=from_disk
        )
        return buffers, result

    # -- verification helpers --------------------------------------------

    def linear_contents(self, name: str, length: int | None = None) -> np.ndarray:
        """Assemble the file's linear byte contents (verification aid)."""
        return self.open(name).linear_contents(length)
