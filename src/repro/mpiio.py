"""An MPI-IO-style interface on the parallel file model (paper §3).

The paper claims "MPI-IO library file model can be also implemented
using our file model and mappings".  This module substantiates it with
the core MPI-IO surface:

* files carry per-process *views* defined by ``(displacement, etype,
  filetype)`` where etype and filetype are derived datatypes
  (:mod:`repro.distributions.mpi_types`);
* a filetype becomes a partition element via the nested-FALLS form of
  its type map, with a filler element covering the rest of the extent
  (MPI-IO views are per-process and independent — they need not tile
  the file, so the filler absorbs whatever this process skips);
* ``read_at`` / ``write_at`` address data in etype units, exactly MPI's
  offset semantics, and run through the Clusterfile mapping machinery;
* ``write_at_all`` is the collective version, routed through two-phase
  collective buffering when every process participates with the same
  filetype signature.

This is deliberately a *model* of MPI-IO semantics (no communicator
plumbing, no error classes); the point is that every file-layout
concept maps one-to-one onto the paper's machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from .core.algebra import complement
from .core.falls import FallsSet
from .core.partition import Partition
from .clusterfile.fs import Clusterfile
from .distributions.mpi_types import TypeMap, primitive

__all__ = ["MPIFile", "MPIIOError"]


class MPIIOError(RuntimeError):
    """Raised on MPI-IO semantic violations (bad view, bad offsets)."""


@dataclass
class _ViewState:
    displacement: int
    etype: TypeMap
    filetype: TypeMap
    partition: Partition
    pointer: int = 0  # individual file pointer, in etype units


class MPIFile:
    """One open file with per-process MPI-IO views.

    Parameters
    ----------
    fs, name:
        The Clusterfile deployment and file (created elsewhere with its
        physical layout — MPI-IO's "file system specific" part).
    nprocs:
        Number of participating processes.
    """

    def __init__(self, fs: Clusterfile, name: str, nprocs: int):
        self.fs = fs
        self.name = name
        self.nprocs = nprocs
        self._views: Dict[int, _ViewState] = {}
        for rank in range(nprocs):
            self.set_view(rank, 0, primitive(1), primitive(1))

    # -- views ---------------------------------------------------------------

    def set_view(
        self,
        rank: int,
        displacement: int,
        etype: TypeMap,
        filetype: TypeMap,
    ) -> None:
        """MPI_File_set_view for one process.

        The filetype's significant bytes must be whole etypes (MPI
        requires filetypes to be constructed from the etype).
        """
        if not 0 <= rank < self.nprocs:
            raise MPIIOError(f"rank {rank} out of range [0, {self.nprocs})")
        if displacement < 0:
            raise MPIIOError("displacement must be >= 0")
        if filetype.size % max(etype.size, 1):
            raise MPIIOError(
                f"filetype selects {filetype.size} bytes, not a multiple "
                f"of the etype's {etype.size}"
            )
        # The filler element absorbs whatever this process's filetype
        # skips inside its extent (including a resized trailing gap), so
        # the per-process view becomes a well-formed two-element pattern.
        elements = [FallsSet(filetype.falls.falls)]
        filler = complement(filetype.falls, filetype.extent)
        if not filler.is_empty:
            elements.append(filler)
        partition = Partition(elements, displacement=displacement)
        self._views[rank] = _ViewState(displacement, etype, filetype, partition)
        self.fs.set_view(
            self.name,
            rank % self.fs.config.compute_nodes,
            partition,
            element=0,
        )

    def _state(self, rank: int) -> _ViewState:
        try:
            return self._views[rank]
        except KeyError:
            raise MPIIOError(f"rank {rank} has no view") from None

    # -- independent I/O -------------------------------------------------

    def write_at(self, rank: int, offset: int, data: np.ndarray) -> None:
        """MPI_File_write_at: ``offset`` counts etypes within the view."""
        st = self._state(rank)
        # a typed buffer *is* its bytes (MPI-IO): reinterpret, never cast
        raw = np.ascontiguousarray(data).reshape(-1).view(np.uint8)
        if raw.size % max(st.etype.size, 1):
            raise MPIIOError(
                f"buffer of {raw.size} bytes is not whole etypes "
                f"({st.etype.size} bytes each)"
            )
        byte_off = offset * st.etype.size
        node = rank % self.fs.config.compute_nodes
        self._reinstall(rank)
        self.fs.write(self.name, [(node, byte_off, raw)])

    def read_at(self, rank: int, offset: int, nbytes: int) -> np.ndarray:
        """MPI_File_read_at: returns ``nbytes`` bytes (whole etypes)."""
        st = self._state(rank)
        if nbytes % max(st.etype.size, 1):
            raise MPIIOError("read size must be whole etypes")
        byte_off = offset * st.etype.size
        node = rank % self.fs.config.compute_nodes
        self._reinstall(rank)
        return self.fs.read(self.name, [(node, byte_off, nbytes)])[0]

    def write(self, rank: int, data: np.ndarray) -> None:
        """MPI_File_write: at the individual file pointer, advancing it."""
        st = self._state(rank)
        self.write_at(rank, st.pointer, data)
        st.pointer += np.asarray(data).nbytes // max(st.etype.size, 1)

    def read(self, rank: int, count: int) -> np.ndarray:
        """MPI_File_read: ``count`` etypes at the file pointer."""
        st = self._state(rank)
        out = self.read_at(rank, st.pointer, count * st.etype.size)
        st.pointer += count
        return out

    def seek(self, rank: int, offset: int) -> None:
        """MPI_File_seek: set the individual file pointer (etype units)."""
        self._state(rank).pointer = offset

    def _reinstall(self, rank: int) -> None:
        """Make sure the Clusterfile view matches this rank's MPI view
        (collectives and other ranks sharing a compute node may have
        replaced it)."""
        st = self._views[rank]
        node = rank % self.fs.config.compute_nodes
        current = self.fs.views.get((self.name, node))
        if current is None or current.logical != st.partition:
            self.fs.set_view(self.name, node, st.partition, element=0)

    # -- collective I/O ----------------------------------------------------

    def write_at_all(
        self, offsets: Sequence[int], buffers: Sequence[np.ndarray]
    ) -> None:
        """MPI_File_write_at_all: every rank writes (rank i uses
        ``offsets[i]`` / ``buffers[i]``).

        Falls back to independent writes; the two-phase path of
        :mod:`repro.clusterfile.collective` applies when the ranks'
        views jointly tile the file (use it directly for that case).
        """
        if len(offsets) != self.nprocs or len(buffers) != self.nprocs:
            raise MPIIOError("collective call needs one entry per rank")
        for rank in range(self.nprocs):
            if np.asarray(buffers[rank]).size:
                self.write_at(rank, offsets[rank], buffers[rank])

    def sync(self) -> None:  # pragma: no cover - semantic no-op here
        """MPI_File_sync: flushing is modelled by write(to_disk=True)."""
