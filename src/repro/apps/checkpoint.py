"""Checkpoint / restart with resharding.

The classic consumer of general mapping functions: a simulation
checkpoints its distributed array and later restarts on a *different*
process count or decomposition.  With the paper's machinery this is
nothing special — the checkpoint is a file partitioned by the writers'
layout, the restart sets views with the readers' layout, and the
mapping functions do the rest.

Two APIs:

* :func:`reshard` — pure memory-memory: convert per-rank pieces between
  decompositions (one call on top of the redistribution executor);
* :class:`CheckpointStore` — file-based: save through writer views into
  a Clusterfile, load through reader views, with dtype/shape metadata
  carried alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..core.partition import Partition
from ..clusterfile.engine import run_shuffle
from ..clusterfile.fs import Clusterfile
from ..redistribution.gather_scatter import as_flat_bytes
from ..redistribution.plan_cache import get_plan
from ..simulation.cluster import ClusterConfig

__all__ = ["CheckpointStore", "reshard"]


def reshard(
    pieces: Sequence[np.ndarray],
    old_partition: Partition,
    new_partition: Partition,
    total_bytes: int | None = None,
    injector=None,
    retry_policy=None,
) -> List[np.ndarray]:
    """Convert per-rank byte pieces from one decomposition to another.

    ``pieces[i]`` holds element ``i``'s bytes under ``old_partition``;
    the result holds the same data under ``new_partition``.  The two
    partitions may have different element counts — that is the point.

    An ``injector`` (a :class:`repro.faults.FaultInjector`) subjects the
    per-transfer moves to the engine's checksum-verify-retry loop.
    """
    buffers = [as_flat_bytes(p, "pieces") for p in pieces]
    if total_bytes is None:
        total_bytes = old_partition.displacement + sum(b.size for b in buffers)
    plan = get_plan(old_partition, new_partition)
    # Through the unified engine (no network model: ranks convert their
    # own pieces in memory; traffic is still counted in the metrics).
    return run_shuffle(
        plan,
        buffers,
        total_bytes,
        injector=injector,
        retry_policy=retry_policy,
    ).buffers


@dataclass
class _Meta:
    """Checkpoint metadata, stored in its JSON wire form so a restart
    process (or a different tool) can parse it without this library's
    objects — see :mod:`repro.core.serialize`."""

    shape: tuple
    dtype: str
    writer_layout_json: str

    def writer_partition(self) -> Partition:
        from ..core.serialize import partition_from_json

        return partition_from_json(self.writer_layout_json)


class CheckpointStore:
    """A checkpoint directory backed by a (simulated) Clusterfile.

    The physical layout of each checkpoint file is chosen to match the
    writers' decomposition — the paper's "optimal physical distribution
    for a given logical distribution" (§6.2) — so saves are pure
    contiguous streaming.  Restores with any other decomposition go
    through views and pay exactly the redistribution the mismatch
    requires.
    """

    def __init__(
        self,
        config: ClusterConfig | None = None,
        fault_injector=None,
        retry_policy=None,
        workers_mode: str = "thread",
        workers: int = 4,
    ):
        self.fs = Clusterfile(
            config or ClusterConfig(),
            fault_injector=fault_injector,
            retry_policy=retry_policy,
            workers_mode=workers_mode,
            workers=workers,
        )
        self._meta: Dict[str, _Meta] = {}

    def close(self) -> None:
        """Tear down the underlying deployment (worker pool and
        shared-memory segments included, in process mode)."""
        self.fs.close()

    def save(
        self,
        name: str,
        pieces: Sequence[np.ndarray],
        partition: Partition,
        shape: Sequence[int],
        dtype: np.dtype | str = np.uint8,
    ) -> None:
        """Write one checkpoint: ``pieces[i]`` is rank ``i``'s bytes
        under ``partition`` (byte-level, matching the partition sizes)."""
        dtype = np.dtype(dtype)
        total = int(np.prod(shape)) * dtype.itemsize
        if partition.displacement != 0:
            raise ValueError("checkpoints use displacement 0")
        if total % partition.size:
            raise ValueError(
                f"array of {total} bytes does not tile the partition "
                f"pattern of {partition.size}"
            )
        if name in self.fs.files:
            self.fs.unlink(name)
        self.fs.create(name, partition)
        nodes = self.fs.config.compute_nodes
        for e, piece in enumerate(pieces):
            node = e % nodes
            self.fs.set_view(name, node, partition, element=e)
            self.fs.write(name, [(node, 0, piece)])
        from ..core.serialize import partition_to_json

        self._meta[name] = _Meta(
            tuple(shape), dtype.str, partition_to_json(partition)
        )

    def load(
        self, name: str, partition: Partition | None = None
    ) -> List[np.ndarray]:
        """Read a checkpoint back under ``partition`` (defaults to the
        writers' partition).  Returns per-element byte buffers."""
        meta = self._meta[name]
        dtype = np.dtype(meta.dtype)
        total = int(np.prod(meta.shape)) * dtype.itemsize
        partition = partition or meta.writer_partition()
        nodes = self.fs.config.compute_nodes
        out: List[np.ndarray] = []
        for e in range(partition.num_elements):
            node = e % nodes
            self.fs.set_view(name, node, partition, element=e)
            length = partition.element_length(e, total)
            out.append(self.fs.read(name, [(node, 0, length)])[0])
        return out

    def load_array(self, name: str) -> np.ndarray:
        """The whole checkpointed array, assembled and typed."""
        meta = self._meta[name]
        dtype = np.dtype(meta.dtype)
        total = int(np.prod(meta.shape)) * dtype.itemsize
        raw = self.fs.linear_contents(name, total)
        return raw.view(dtype).reshape(meta.shape)

    def checkpoints(self) -> List[str]:
        return sorted(self._meta)

    # -- portable snapshots ---------------------------------------------------

    def export_snapshot(self, name: str, path: str) -> int:
        """Write a checkpoint as a portable snapshot file.

        The format (:mod:`repro.durability.snapshot`) is
        *serial-equivalent*: the bytes depend only on the array's
        logical contents, shape and dtype — never on the writers'
        decomposition, node count, or executor mode that produced the
        checkpoint.  Saving the same array under any partition and
        exporting yields byte-identical files.  Returns the snapshot
        size in bytes.
        """
        from ..durability.snapshot import write_snapshot_file

        meta = self._meta[name]
        dtype = np.dtype(meta.dtype)
        total = int(np.prod(meta.shape)) * dtype.itemsize
        payload = self.fs.linear_contents(name, total)
        return write_snapshot_file(
            path,
            payload,
            {"shape": list(meta.shape), "dtype": meta.dtype},
        )

    def import_snapshot(
        self,
        path: str,
        name: str,
        partition: Partition | None = None,
    ) -> np.ndarray:
        """Load a portable snapshot file as a new checkpoint.

        ``partition`` chooses the imported checkpoint's physical layout
        (defaults to one element spanning the array — restores under
        any other decomposition go through views as usual).  Raises
        :class:`~repro.durability.RecoveryError` on a damaged file.
        Returns the imported array.
        """
        from ..durability.snapshot import read_snapshot_file
        from ..core.algebra import partition_from_elements
        from ..core.falls import Falls
        from ..redistribution.executor import distribute

        payload, meta = read_snapshot_file(path)
        shape = tuple(int(x) for x in meta.get("shape", [payload.size]))
        dtype = np.dtype(str(meta.get("dtype", "|u1")))
        total = int(np.prod(shape)) * dtype.itemsize
        if total != payload.size:
            from ..durability.journal import RecoveryError

            raise RecoveryError(
                f"snapshot payload is {payload.size} bytes but metadata "
                f"implies {total}"
            )
        if partition is None:
            n = max(1, total)
            partition = partition_from_elements(
                [[Falls(0, n - 1, n, 1)]], displacement=0
            )
        pieces = distribute(payload, partition)
        self.save(name, pieces, partition, shape, dtype)
        return payload.view(dtype).reshape(shape)
