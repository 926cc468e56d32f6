"""Ghost-cell (halo) exchange schedules from FALLS intersections.

Stencil codes keep, besides the block a rank owns, read-only copies of
the neighbouring cells — the *halo*.  Which bytes must travel from whom
to whom is exactly a FALLS intersection problem: rank ``p``'s ghost
region intersected with rank ``q``'s owned region is the message
``q -> p``.  This module builds that schedule once (amortised, like a
view set) and executes it on local buffers with gather/scatter.

Each rank's local buffer holds its *needed* bytes — owned plus halo —
in ascending array order, the layout a stencil kernel would use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..core.algebra import difference
from ..core.falls import Falls, FallsSet
from ..core.segments import (
    SegmentArrays,
    intersect_segment_arrays,
    leaf_segment_arrays_set,
    merge_segment_arrays,
)
from ..redistribution.gather_scatter import as_flat_bytes, copy_segments

__all__ = ["HaloExchange"]


class _LocalIndex:
    """Maps absolute array offsets to positions in a rank's local buffer
    (the compressed layout of its needed bytes)."""

    def __init__(self, needed: FallsSet):
        starts, lengths = merge_segment_arrays(
            leaf_segment_arrays_set(needed.falls)
        )
        self.starts = starts
        self.lengths = lengths
        self.rank0 = np.concatenate(([0], np.cumsum(lengths)))

    @property
    def local_size(self) -> int:
        return int(self.rank0[-1])

    def localize(self, segs: SegmentArrays) -> SegmentArrays:
        """Translate absolute segments (subsets of the needed bytes) to
        local-buffer segments."""
        a_starts, a_lengths = segs
        if a_starts.size == 0:
            return a_starts, a_lengths
        j = np.searchsorted(self.starts, a_starts, side="right") - 1
        within = a_starts - self.starts[j]
        if np.any(within + a_lengths > self.lengths[j]):
            raise ValueError("segment escapes the rank's needed region")
        return self.rank0[j] + within, a_lengths


@dataclass(frozen=True)
class _Message:
    src: int
    dst: int
    src_local: SegmentArrays  # where to gather in src's buffer
    dst_local: SegmentArrays  # where to scatter in dst's buffer
    nbytes: int


class HaloExchange:
    """A reusable ghost-exchange schedule.

    Parameters
    ----------
    owned:
        Per-rank disjoint FALLS sets covering the array (byte space).
    needed:
        Per-rank FALLS sets, each a superset of the rank's owned set
        (owned plus ghosts).
    """

    def __init__(self, owned: Sequence[FallsSet], needed: Sequence[FallsSet]):
        if len(owned) != len(needed):
            raise ValueError("owned and needed must align")
        self.owned = list(owned)
        self.needed = list(needed)
        self.index = [_LocalIndex(n) for n in self.needed]
        self.messages: List[_Message] = []
        owner_index = [_LocalIndex(o) for o in self.owned]
        for p, need in enumerate(self.needed):
            ghosts = difference(need, self.owned[p])
            if ghosts.is_empty:
                continue
            ghost_segs = merge_segment_arrays(
                leaf_segment_arrays_set(ghosts.falls)
            )
            for q, owner in enumerate(owner_index):
                if q == p:
                    continue
                # Both lists are merged, so their intersection is too.
                segs = intersect_segment_arrays(
                    ghost_segs, (owner.starts, owner.lengths)
                )
                nbytes = int(segs[1].sum())
                if nbytes == 0:
                    continue
                # q gathers from where it keeps those bytes locally; p
                # scatters into its ghost slots.
                src_local = self.index[q].localize(segs)
                dst_local = self.index[p].localize(segs)
                self.messages.append(
                    _Message(q, p, src_local, dst_local, nbytes)
                )

    # -- convenience constructors -----------------------------------------

    @classmethod
    def block_1d(
        cls, n_elements: int, itemsize: int, nprocs: int, halo: int
    ) -> "HaloExchange":
        """The standard 1-D block decomposition with a ``halo``-element
        ghost ring on each side (non-periodic boundaries)."""
        if n_elements % nprocs:
            raise ValueError("nprocs must divide n_elements")
        per = n_elements // nprocs
        if halo >= per:
            raise ValueError("halo wider than a block")
        owned, needed = [], []
        for p in range(nprocs):
            lo_e = p * per
            hi_e = (p + 1) * per - 1
            owned.append(
                FallsSet([_span(lo_e * itemsize, (hi_e + 1) * itemsize - 1)])
            )
            g_lo = max(0, lo_e - halo)
            g_hi = min(n_elements - 1, hi_e + halo)
            needed.append(
                FallsSet([_span(g_lo * itemsize, (g_hi + 1) * itemsize - 1)])
            )
        return cls(owned, needed)

    @classmethod
    def block_2d(
        cls,
        rows: int,
        cols: int,
        grid: Tuple[int, int],
        halo: int,
        itemsize: int = 1,
    ) -> "HaloExchange":
        """A 2-D block decomposition over a ``grid = (pr, pc)`` processor
        grid with a ``halo``-element ring (non-periodic borders).

        Owned and needed regions are rectangular subarrays, expressed as
        nested FALLS through the MPI subarray constructor — corner
        ghosts included, so 9-point stencils work.
        """
        pr, pc = grid
        if rows % pr or cols % pc:
            raise ValueError("grid must divide the array")
        br, bc = rows // pr, cols // pc
        if halo >= br or halo >= bc:
            raise ValueError("halo wider than a block")
        from ..distributions.mpi_types import primitive, subarray

        base = primitive(itemsize)
        owned, needed = [], []
        for r in range(pr):
            for c in range(pc):
                owned.append(
                    FallsSet(
                        subarray(
                            (rows, cols), (br, bc), (r * br, c * bc), base
                        ).falls.falls
                    )
                )
                g_r0 = max(0, r * br - halo)
                g_r1 = min(rows, (r + 1) * br + halo)
                g_c0 = max(0, c * bc - halo)
                g_c1 = min(cols, (c + 1) * bc + halo)
                needed.append(
                    FallsSet(
                        subarray(
                            (rows, cols),
                            (g_r1 - g_r0, g_c1 - g_c0),
                            (g_r0, g_c0),
                            base,
                        ).falls.falls
                    )
                )
        return cls(owned, needed)

    # -- execution -----------------------------------------------------------

    def local_sizes(self) -> List[int]:
        return [ix.local_size for ix in self.index]

    def scatter_owned(self, p: int, data: np.ndarray) -> np.ndarray:
        """Build rank ``p``'s initial local buffer from the global array
        (owned bytes filled, ghosts zero)."""
        buf = np.zeros(self.index[p].local_size, dtype=np.uint8)
        segs = merge_segment_arrays(
            leaf_segment_arrays_set(self.owned[p].falls)
        )
        copy_segments(
            buf,
            self.index[p].localize(segs),
            as_flat_bytes(data, "data"),
            segs,
        )
        return buf

    def exchange(self, buffers: Sequence[np.ndarray]) -> Tuple[int, int]:
        """Fill every rank's ghost bytes from the owners' buffers.

        Returns ``(messages, bytes)`` moved.
        """
        if len(buffers) != len(self.owned):
            raise ValueError("one buffer per rank required")
        nbytes = 0
        for m in self.messages:
            copy_segments(
                buffers[m.dst], m.dst_local, buffers[m.src], m.src_local
            )
            nbytes += m.nbytes
        return len(self.messages), nbytes


def _span(lo: int, hi: int) -> Falls:
    return Falls(lo, hi, hi - lo + 1, 1)
