"""Mapping functions MAP and MAP^{-1} (paper §6).

``MAP_S(x)`` maps a file offset ``x`` onto the linear space of the
partition element defined by the FALLS set ``S``; ``MAP_S^{-1}(y)`` is
its inverse.  Following the paper:

* ``MAP_S(x) = ((x - disp) div SIZE_P) * SIZE_S
  + MAP-AUX_S((x - disp) mod SIZE_P)``
* ``MAP-AUX_S`` locates the FALLS of ``S`` containing the offset (binary
  search on left indices), adds the sizes of the preceding FALLS, and
  recurses block-relative into the located FALLS.

``MAP`` is defined only for offsets the element actually selects; the
paper notes MAP-AUX can be "slightly modified" to map to the *next* or
*previous* byte that does map — those variants are the ``mode="next"``
and ``mode="prev"`` arguments here, used by the Clusterfile write path to
map access-interval extremities.

Composition between two partitions of the same file,
``MAP_S(MAP_V^{-1}(y))``, is :func:`map_between`.

Scalar functions implement the paper's recursive algorithms verbatim; the
:class:`ElementMapper` class provides NumPy-vectorised batch variants
built on per-period leaf-segment tables, used by the redistribution
executor and Clusterfile where thousands of offsets are mapped at once.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Literal, Optional, Sequence

import numpy as np

from .falls import Falls, FallsSet
from .partition import Partition
from .segments import leaf_segment_arrays_set

__all__ = [
    "MappingError",
    "Mode",
    "map_offset",
    "unmap_offset",
    "map_between",
    "count_below",
    "ElementMapper",
]

Mode = Literal["exact", "next", "prev"]


class MappingError(KeyError):
    """Raised when an offset does not map under the requested mode."""


# ---------------------------------------------------------------------------
# Scalar MAP-AUX over a FALLS sequence (paper's recursive formulation).
# ---------------------------------------------------------------------------


def _prefix_sizes(falls_seq: Sequence[Falls]) -> List[int]:
    return [0, *accumulate(f.size() for f in falls_seq)]


def _index(node, falls_seq: Sequence[Falls]):
    """``(lefts, prefix sizes)`` of the FALLS sequence ``node`` holds (a
    FALLS' inner sequence, or an element's): the MAP recursion's binary
    search table, computed once per node like its SIZE."""
    index = node.__dict__.get("_map_index")
    if index is None:
        index = ([f.l for f in falls_seq], _prefix_sizes(falls_seq))
        node.__dict__["_map_index"] = index
    return index


def _map_aux_seq(
    falls_seq: Sequence[Falls],
    lefts: Sequence[int],
    cum: Sequence[int],
    y: int,
    mode: Mode,
) -> Optional[int]:
    """Rank of offset ``y`` among the bytes selected by ``falls_seq``.

    Sentinel convention that makes the recursion uniform across levels:
    ``mode="next"`` returns ``total_size`` when no selected byte is >= y
    (i.e. "first byte of whatever comes after this subtree");
    ``mode="prev"`` returns ``-1`` when no selected byte is <= y.
    ``mode="exact"`` returns ``None`` on a miss.
    """
    j = bisect_right(lefts, y) - 1
    if j < 0:
        if mode == "exact":
            return None
        return 0 if mode == "next" else -1
    f = falls_seq[j]
    rel = y - f.l
    per_block = f.size() // f.n
    if rel >= f.span:
        # Past this FALLS' footprint, before the next one (or past the end).
        if mode == "exact":
            return None
        return cum[j + 1] if mode == "next" else cum[j + 1] - 1
    k, o = divmod(rel, f.s)
    base = cum[j] + k * per_block
    if o >= f.block_length:
        # Inside the stride gap between block k and block k + 1.
        if mode == "exact":
            return None
        return base + per_block if mode == "next" else base + per_block - 1
    if f.is_leaf:
        return base + o
    r = _map_aux_seq(f.inner, *_index(f, f.inner), o, mode)
    if r is None:
        return None
    # next/prev sentinels (per_block and -1) shift into "first byte of the
    # following block" and "last byte of the preceding block" automatically.
    return base + r


def map_aux(element: FallsSet, y: int, mode: Mode = "exact") -> Optional[int]:
    """The paper's MAP-AUX_S: rank of pattern-relative offset ``y`` within
    element ``S`` (with next/prev sentinels as documented above)."""
    return _map_aux_seq(element.falls, *_index(element, element.falls), y, mode)


def count_below(element: FallsSet, limit: int) -> int:
    """Number of bytes of ``element`` with pattern-relative offset < limit."""
    if limit <= 0:
        return 0
    r = map_aux(element, limit - 1, mode="prev")
    assert r is not None
    return r + 1


def map_offset(
    partition: Partition, element: int, x: int, mode: Mode = "exact"
) -> int:
    """MAP: file offset ``x`` -> linear offset within ``element``.

    ``mode="exact"`` requires ``x`` to belong to the element and raises
    :class:`MappingError` otherwise; ``mode="next"``/``"prev"`` return
    the mapping of the nearest following/preceding byte that does belong
    to the element (raising only when no such byte exists).
    """
    S = partition.elements[element]
    ssize = S.size()
    if x < partition.displacement:
        if mode == "next":
            return 0
        raise MappingError(
            f"offset {x} precedes displacement {partition.displacement}"
        )
    q, rem = divmod(x - partition.displacement, partition.size)
    r = map_aux(S, rem, mode)
    if r is None:
        raise MappingError(f"offset {x} does not map on element {element}")
    result = q * ssize + r
    if result < 0:
        raise MappingError(
            f"no byte of element {element} precedes offset {x}"
        )
    return result


def _unmap_aux_seq(
    falls_seq: Sequence[Falls], cum: Sequence[int], r: int
) -> int:
    j = bisect_right(cum, r) - 1
    if j >= len(falls_seq):  # pragma: no cover - guarded by callers
        raise MappingError(f"rank {r} out of range")
    f = falls_seq[j]
    per_block = f.size() // f.n
    k, o = divmod(r - cum[j], per_block)
    if f.is_leaf:
        return f.l + k * f.s + o
    return f.l + k * f.s + _unmap_aux_seq(f.inner, _index(f, f.inner)[1], o)


def unmap_offset(partition: Partition, element: int, y: int) -> int:
    """MAP^{-1}: linear offset ``y`` within ``element`` -> file offset."""
    if y < 0:
        raise MappingError(f"element offset must be >= 0, got {y}")
    S = partition.elements[element]
    ssize = S.size()
    q, rem = divmod(y, ssize)
    within = _unmap_aux_seq(S.falls, _index(S, S.falls)[1], rem)
    return partition.displacement + q * partition.size + within


def map_between(
    src: Partition,
    src_element: int,
    dst: Partition,
    dst_element: int,
    y: int,
    mode: Mode = "exact",
) -> int:
    """Map an offset of one partition element onto an element of another
    partition of the same file: ``MAP_S(MAP_V^{-1}(y))`` (paper §6.2)."""
    return map_offset(dst, dst_element, unmap_offset(src, src_element, y), mode)


# ---------------------------------------------------------------------------
# Vectorised mapping via per-period leaf-segment tables.
# ---------------------------------------------------------------------------


@dataclass
class ElementMapper:
    """Batch MAP / MAP^{-1} for one partition element.

    Precomputes the element's leaf segments over one pattern period
    (sorted starts, lengths, and the running count of selected bytes) so
    that whole offset arrays can be mapped with two ``searchsorted``
    calls.  This is the representation a view-set caches: the cost of
    building it is the paper's ``t_i``-adjacent precomputation, amortised
    over every subsequent access.
    """

    partition: Partition
    element: int

    def __post_init__(self) -> None:
        starts, lengths = leaf_segment_arrays_set(
            self.partition.elements[self.element].falls
        )
        self.seg_starts = starts
        self.seg_lengths = lengths
        self.seg_stops = starts + lengths - 1
        self.seg_rank = np.concatenate(
            ([0], np.cumsum(lengths))
        )  # rank of each segment's first byte; last entry = element size
        self.element_size = int(self.seg_rank[-1])

    # -- file offset -> element offset --------------------------------------

    def map_many(self, offsets: np.ndarray, mode: Mode = "exact") -> np.ndarray:
        """Vectorised :func:`map_offset` over an int64 offset array."""
        offsets = np.asarray(offsets, dtype=np.int64)
        disp = self.partition.displacement
        psize = self.partition.size
        if mode == "exact" and np.any(offsets < disp):
            raise MappingError("offset precedes displacement")
        rel = offsets - disp
        q, rem = np.divmod(rel, psize)
        j = np.searchsorted(self.seg_starts, rem, side="right") - 1
        inside = (j >= 0) & (rem <= self.seg_stops[np.maximum(j, 0)])
        if mode == "exact":
            if not np.all(inside):
                bad = offsets[~inside][0]
                raise MappingError(
                    f"offset {int(bad)} does not map on element {self.element}"
                )
            r = self.seg_rank[j] + (rem - self.seg_starts[j])
        elif mode == "next":
            r = np.where(
                inside,
                self.seg_rank[np.maximum(j, 0)]
                + (rem - self.seg_starts[np.maximum(j, 0)]),
                self.seg_rank[j + 1],  # first byte of the next segment
            )
            r = np.where(offsets < disp, -q * self.element_size, r)
        else:  # prev
            r = np.where(
                inside,
                self.seg_rank[np.maximum(j, 0)]
                + (rem - self.seg_starts[np.maximum(j, 0)]),
                self.seg_rank[np.maximum(j, 0) + 1] - 1,
            )
            r = np.where(j < 0, -1, r)
        result = q * self.element_size + r
        if mode == "prev" and np.any(result < 0):
            raise MappingError("no preceding byte for some offsets")
        return result

    def map_one(self, offset: int, mode: Mode = "exact") -> int:
        return int(self.map_many(np.array([offset], dtype=np.int64), mode)[0])

    # -- element offset -> file offset --------------------------------------

    def unmap_many(self, ranks: np.ndarray) -> np.ndarray:
        """Vectorised :func:`unmap_offset` over an int64 rank array."""
        ranks = np.asarray(ranks, dtype=np.int64)
        if np.any(ranks < 0):
            raise MappingError("element offsets must be >= 0")
        q, rem = np.divmod(ranks, self.element_size)
        j = np.searchsorted(self.seg_rank, rem, side="right") - 1
        within = self.seg_starts[j] + (rem - self.seg_rank[j])
        return self.partition.displacement + q * self.partition.size + within

    def unmap_one(self, rank: int) -> int:
        return int(self.unmap_many(np.array([rank], dtype=np.int64))[0])
