"""Subfile storage backends: in-memory and real files on disk.

The simulator keeps subfiles in memory by default (fast, hermetic), but
a parallel file system ultimately puts bytes on storage.  This module
adds a second backend that keeps each subfile in a real file on the
local filesystem via ``numpy.memmap`` — same interface, real
persistence — and a factory so :class:`~repro.clusterfile.fs.Clusterfile`
deployments can choose per instance.

Note the division of labour: the *timing* of disk access always comes
from the era cost models (we are reproducing 2002 hardware), while the
*contents* can live wherever the backend puts them.  The file backend
exists for persistence and for realism of the data path, not for
timing.
"""

from __future__ import annotations

import os
from typing import Protocol

import numpy as np

from .file_model import SubfileStore

__all__ = [
    "Storage",
    "MemoryStorage",
    "FileStorage",
    "FileBackedStore",
    "SharedMemoryStore",
    "SharedMemoryStorage",
]


class Storage(Protocol):
    """Factory for per-subfile stores."""

    def make_store(self, file_name: str, subfile: int) -> SubfileStore: ...


class MemoryStorage:
    """The default: growable NumPy arrays (see SubfileStore)."""

    def make_store(self, file_name: str, subfile: int) -> SubfileStore:
        return SubfileStore(subfile)


class FileBackedStore(SubfileStore):
    """A subfile stored in a real file, grown and memory-mapped on
    demand.  Data written through :meth:`view` persists on close."""

    #: Growth quantum; real file systems allocate in extents too.
    CHUNK = 64 * 1024

    def __init__(self, subfile: int, path: str):
        self.subfile = subfile
        self.path = path
        self.length = 0
        self._map: np.memmap | None = None
        if os.path.exists(path):
            size = os.path.getsize(path)
            if size:
                self._map = np.memmap(path, dtype=np.uint8, mode="r+")
                self.length = size

    def _capacity(self) -> int:
        return 0 if self._map is None else int(self._map.size)

    def _reopen(self) -> None:
        """Re-map the backing file after :meth:`close`.

        Without this, a closed store reports capacity 0 and the next
        growth would truncate an existing larger file — silently losing
        whatever was persisted.  Re-mapping first makes close/reopen
        (and reopen-after-crash) round-trip losslessly.
        """
        if self._map is None and os.path.exists(self.path):
            size = os.path.getsize(self.path)
            if size:
                self._map = np.memmap(self.path, dtype=np.uint8, mode="r+")
                self.length = max(self.length, size)

    def _ensure(self, length: int) -> None:
        self._reopen()
        if length > self._capacity():
            new_cap = max(
                length,
                2 * self._capacity(),
                self.CHUNK,
            )
            # Round to the growth quantum.
            new_cap = -(-new_cap // self.CHUNK) * self.CHUNK
            if self._map is not None:
                self._map.flush()
                del self._map
            with open(self.path, "ab") as fh:
                fh.truncate(new_cap)
            self._map = np.memmap(self.path, dtype=np.uint8, mode="r+")
        self.length = max(self.length, length)

    def view(self, lo: int, hi: int) -> np.ndarray:
        if lo < 0 or hi < lo:
            raise ValueError(f"bad subfile window [{lo}, {hi}]")
        self._ensure(hi + 1)
        assert self._map is not None
        return self._map[lo : hi + 1]

    def read(self, lo: int, hi: int) -> np.ndarray:
        if lo < 0 or hi < lo:
            raise ValueError(f"bad subfile window [{lo}, {hi}]")
        self._reopen()
        out = np.zeros(hi - lo + 1, dtype=np.uint8)
        avail = min(self.length, hi + 1)
        if self._map is not None and avail > lo:
            out[: avail - lo] = self._map[lo:avail]
        return out

    @property
    def data(self) -> np.ndarray:
        self._reopen()
        if self._map is None:
            return np.zeros(0, dtype=np.uint8)
        return np.asarray(self._map[: self.length])

    def flush(self, sync: bool = False) -> None:
        """Write dirty pages back; with ``sync=True`` also ``fsync`` the
        backing file so the bytes survive a machine crash, not just a
        process crash."""
        if self._map is not None:
            self._map.flush()
        if sync and os.path.exists(self.path):
            fd = os.open(self.path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    def close(self) -> None:
        """Flush and release the memmap.

        The store stays usable: the next access re-maps the backing
        file (see :meth:`_reopen`), which is exactly the
        reopen-after-crash path a recovering I/O node takes.
        """
        if self._map is not None:
            self._map.flush()
            self._map = None


class SharedMemoryStore(SubfileStore):
    """A subfile in a POSIX shared-memory segment, visible to the
    worker processes of :class:`~repro.mp.pool.ProcessPoolExecutorBackend`.

    Layout: an 8-byte little-endian length header followed by
    ``capacity`` data bytes.  The segment is sized up front — shared
    mappings cannot grow in place — but Linux commits pages lazily, so
    an almost-empty 64 MiB subfile costs almost nothing resident.
    Exceeding the capacity raises a clean error naming the knob
    (``SharedMemoryStorage(capacity=...)``) instead of corrupting
    anything.

    Concurrency contract: exactly one process writes a given subfile at
    a time (the owning pool worker during a write, the parent during a
    relayout — the engine never mixes the two in one operation), so the
    length header needs no lock.
    """

    HEADER = 8
    DEFAULT_CAPACITY = 64 << 20

    def __init__(self, subfile: int, capacity: int = DEFAULT_CAPACITY,
                 name: str | None = None):
        from ..mp import shm as _shm

        self.subfile = subfile
        self.capacity = int(capacity)
        if name is None:
            self._shm = _shm.create_segment(
                self.HEADER + self.capacity, f"sf{subfile}"
            )
            self.owner = True
        else:
            self._shm = _shm.attach_segment(name)
            self.owner = False
        self._len = np.ndarray((1,), dtype=np.uint64, buffer=self._shm.buf)
        self._buf = np.ndarray(
            (self.capacity,), dtype=np.uint8,
            buffer=self._shm.buf, offset=self.HEADER,
        )
        if self.owner:
            self._len[0] = 0

    @classmethod
    def attach(cls, name: str, subfile: int, capacity: int) -> "SharedMemoryStore":
        """Map an existing store segment (worker side, non-owning)."""
        return cls(subfile, capacity, name=name)

    @property
    def shm_name(self) -> str:
        return self._shm.name

    @property
    def length(self) -> int:
        return int(self._len[0])

    @length.setter
    def length(self, value: int) -> None:
        self._len[0] = value

    def _ensure(self, length: int) -> None:
        if length > self.capacity:
            raise ValueError(
                f"subfile {self.subfile} needs {length} bytes but its "
                f"shared-memory capacity is {self.capacity}; raise "
                f"SharedMemoryStorage(capacity=...)"
            )
        if length > self.length:
            self._len[0] = length

    def view(self, lo: int, hi: int) -> np.ndarray:
        if lo < 0 or hi < lo:
            raise ValueError(f"bad subfile window [{lo}, {hi}]")
        self._ensure(hi + 1)
        return self._buf[lo : hi + 1]

    def read(self, lo: int, hi: int) -> np.ndarray:
        if lo < 0 or hi < lo:
            raise ValueError(f"bad subfile window [{lo}, {hi}]")
        out = np.zeros(hi - lo + 1, dtype=np.uint8)
        avail = min(self.length, hi + 1)
        if avail > lo:
            out[: avail - lo] = self._buf[lo:avail]
        return out

    @property
    def data(self) -> np.ndarray:
        return self._buf[: self.length]

    def flush(self, sync: bool = False) -> None:
        """Shared memory is always coherent; nothing to do."""

    def close(self) -> None:
        """Release the mapping; the creator also unlinks the segment."""
        from ..mp import shm as _shm

        if self._shm is None:
            return
        self._len = None  # type: ignore[assignment]
        self._buf = None  # type: ignore[assignment]
        _shm.release_segment(self._shm)
        self._shm = None  # type: ignore[assignment]


class SharedMemoryStorage:
    """Keeps every subfile in shared memory — required by (and the
    default for) the multiprocess engine backend, usable standalone."""

    def __init__(self, capacity: int = SharedMemoryStore.DEFAULT_CAPACITY):
        self.capacity = int(capacity)

    def make_store(self, file_name: str, subfile: int) -> SubfileStore:
        return SharedMemoryStore(subfile, self.capacity)


class FileStorage:
    """Keeps every subfile as ``<root>/<file>.subfile<k>`` on disk."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def path_for(self, file_name: str, subfile: int) -> str:
        safe = file_name.replace(os.sep, "_")
        return os.path.join(self.root, f"{safe}.subfile{subfile}")

    def make_store(self, file_name: str, subfile: int) -> SubfileStore:
        return FileBackedStore(subfile, self.path_for(file_name, subfile))
