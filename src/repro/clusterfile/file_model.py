"""Clusterfile's file model: physically partitioned files.

A Clusterfile file is a linear byte sequence physically partitioned into
subfiles by a partitioning pattern (paper §5, §8).  Each subfile is a
linear-addressable byte store living on one I/O node's disk; this module
keeps the subfile *contents* (NumPy buffers that grow on demand) while
the devices that make access cost time live in
:mod:`repro.simulation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..core.mapping import unmap_offset
from ..core.partition import Partition
from ..redistribution.gather_scatter import scatter_segments

__all__ = ["SubfileStore", "ClusterFile"]


class SubfileStore:
    """One subfile's byte contents, growable, zero-filled like a sparse
    POSIX file."""

    def __init__(self, subfile: int):
        self.subfile = subfile
        self._data = np.zeros(0, dtype=np.uint8)
        self.length = 0

    def _ensure(self, length: int) -> None:
        if length > self._data.size:
            grown = np.zeros(max(length, 2 * self._data.size), dtype=np.uint8)
            grown[: self._data.size] = self._data
            self._data = grown
        self.length = max(self.length, length)

    def view(self, lo: int, hi: int) -> np.ndarray:
        """A writable window ``[lo, hi]`` of the subfile (grows it)."""
        if lo < 0 or hi < lo:
            raise ValueError(f"bad subfile window [{lo}, {hi}]")
        self._ensure(hi + 1)
        return self._data[lo : hi + 1]

    def read(self, lo: int, hi: int) -> np.ndarray:
        """A copy of ``[lo, hi]``; bytes beyond EOF read as zero."""
        if lo < 0 or hi < lo:
            raise ValueError(f"bad subfile window [{lo}, {hi}]")
        out = np.zeros(hi - lo + 1, dtype=np.uint8)
        avail = min(self.length, hi + 1)
        if avail > lo:
            out[: avail - lo] = self._data[lo:avail]
        return out

    def read_bytes(self, lo: int, hi: int) -> np.ndarray:
        """The bytes of ``[lo, hi]`` (zero-filled past EOF) as a buffer
        to be written out, not kept.

        The journal's redo-payload read: when the range is entirely
        within the written length — the overwhelmingly common case on
        the commit path — this is a window *over the store*, no copy;
        it is only valid until the store is next written or grown, so
        the caller holds the file's lock and is done with it before
        releasing.  Works unchanged for every store subclass via the
        :attr:`data` prefix view."""
        if hi < self.length:
            return self.data[lo : hi + 1]
        return self.read(lo, hi)

    @property
    def data(self) -> np.ndarray:
        return self._data[: self.length]

    def flush(self, sync: bool = False) -> None:
        """Persist buffered contents (no-op for the in-memory store)."""

    def close(self) -> None:
        """Release backing resources (no-op for the in-memory store)."""


@dataclass
class ClusterFile:
    """An open Clusterfile file: displacement + physical partition +
    per-subfile stores.

    With ``replication > 1`` each subfile additionally keeps
    ``replication - 1`` mirror stores (``mirrors[s]``), placed on
    distinct I/O nodes by :func:`repro.faults.replica.replica_nodes`;
    ``stores[s]`` remains the primary replica, so every consumer of the
    unreplicated model keeps working unchanged.
    """

    name: str
    physical: Partition
    stores: List[SubfileStore] = field(default_factory=list)
    replication: int = 1
    #: ``mirrors[s]`` holds subfile ``s``'s non-primary replica stores.
    mirrors: List[List[SubfileStore]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.stores:
            self.stores = [
                SubfileStore(s) for s in range(self.physical.num_elements)
            ]
        if self.replication < 1:
            raise ValueError(
                f"replication must be >= 1, got {self.replication}"
            )
        if self.replication > 1 and not self.mirrors:
            self.mirrors = [
                [SubfileStore(s) for _ in range(self.replication - 1)]
                for s in range(self.physical.num_elements)
            ]

    def replica_stores(self, subfile: int) -> List[SubfileStore]:
        """All stores holding a subfile, primary first."""
        if self.replication == 1:
            return [self.stores[subfile]]
        return [self.stores[subfile], *self.mirrors[subfile]]

    @property
    def displacement(self) -> int:
        return self.physical.displacement

    @property
    def num_subfiles(self) -> int:
        return self.physical.num_elements

    def file_length(self) -> int:
        """Logical file length implied by the subfile lengths."""
        best = self.displacement
        for s, store in enumerate(self.stores):
            if store.length == 0:
                continue
            best = max(best, unmap_offset(self.physical, s, store.length - 1) + 1)
        return best

    def linear_contents(self, length: int | None = None) -> np.ndarray:
        """Assemble the file's linear bytes, each subfile scattering into
        its own file-space segments (verification, snapshots, tools).

        Bytes before the displacement read as zero, as do holes.
        """
        if length is None:
            length = self.file_length()
        out = np.zeros(length, dtype=np.uint8)
        for s, store in enumerate(self.stores):
            if store.length == 0:
                continue
            # Behind a store's last byte its element is a hole.
            last = unmap_offset(self.physical, s, store.length - 1)
            segs = self.physical.element_segments(s, 0, min(last, length - 1))
            scatter_segments(out, segs, store.data)
        return out
