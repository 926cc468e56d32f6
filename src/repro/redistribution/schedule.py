"""Redistribution schedules (paper §7).

Given two partitions of the same file — source and destination — the
redistribution algorithm intersects every source element with every
destination element and projects each non-empty intersection on both
sides.  The result is a :class:`RedistributionPlan`: one
:class:`Transfer` per communicating element pair, carrying

* the intersection (file space) — what the pair has in common,
* the source projection — *where to gather* those bytes from the source
  element's linear space, and
* the destination projection — *where to scatter* them in the
  destination element's linear space.

The plan is data-independent: it depends only on the two partitioning
patterns, is periodic (everything repeats with the lcm of the two
pattern sizes), and can be computed once and reused for any file length
and any number of accesses — this is exactly the cost the paper's
``t_i`` column measures and amortises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Tuple

from ..core.mapping import ElementMapper
from ..core.normalize import falls_set_from_segments
from ..core.partition import Partition
from ..core.periodic import PeriodicFallsSet
from ..core.projection import project
from ..core.segments import intersect_segment_arrays
from ..obs import metrics as _metrics

__all__ = ["Transfer", "RedistributionPlan", "build_plan"]


@dataclass(frozen=True)
class Transfer:
    """One source-element -> destination-element data movement."""

    src_element: int
    dst_element: int
    intersection: PeriodicFallsSet
    src_projection: PeriodicFallsSet
    dst_projection: PeriodicFallsSet

    @property
    def bytes_per_period(self) -> int:
        return self.intersection.size_per_period

    @property
    def src_fragments_per_period(self) -> int:
        """Fragments to gather at the source per intersection period."""
        return self.src_projection.fragment_count_per_period

    @property
    def dst_fragments_per_period(self) -> int:
        return self.dst_projection.fragment_count_per_period

    def bytes_in_file(self, file_length: int) -> int:
        """Bytes this transfer moves for a file of ``file_length``."""
        return self.intersection.count_in(0, file_length - 1)


@dataclass
class RedistributionPlan:
    """The full pairwise schedule between two partitions."""

    src: Partition
    dst: Partition
    transfers: List[Transfer]
    #: Element pairs the schedule construction considered (``p * q``).
    candidate_pairs: int = 0
    #: Pairs with no common byte, which carry no transfer (see
    #: :func:`build_plan`).
    pruned_pairs: int = 0

    @cached_property
    def by_pair(self) -> Dict[Tuple[int, int], Transfer]:
        return {(t.src_element, t.dst_element): t for t in self.transfers}

    @cached_property
    def _by_src(self) -> Dict[int, List[Transfer]]:
        out: Dict[int, List[Transfer]] = {}
        for t in self.transfers:
            out.setdefault(t.src_element, []).append(t)
        return out

    @cached_property
    def _by_dst(self) -> Dict[int, List[Transfer]]:
        out: Dict[int, List[Transfer]] = {}
        for t in self.transfers:
            out.setdefault(t.dst_element, []).append(t)
        return out

    @property
    def message_count(self) -> int:
        """Element pairs that exchange data (network messages per write
        of one pattern period, in the paper's setting)."""
        return len(self.transfers)

    def transfers_from(self, src_element: int) -> List[Transfer]:
        """Transfers leaving one source element (cached index — plans are
        queried per element on every operation, so this must not rescan
        the whole transfer list)."""
        return self._by_src.get(src_element, [])

    def transfers_to(self, dst_element: int) -> List[Transfer]:
        """Transfers arriving at one destination element (cached index)."""
        return self._by_dst.get(dst_element, [])

    def total_bytes(self, file_length: int) -> int:
        return sum(t.bytes_in_file(file_length) for t in self.transfers)

    @property
    def is_identity(self) -> bool:
        """True when the two partitions match element for element — the
        optimal layout case where every view maps exactly on a subfile
        (paper §6.2)."""
        if self.src.num_elements != self.dst.num_elements:
            return False
        if len(self.transfers) != self.src.num_elements:
            return False
        for t in self.transfers:
            if t.src_element != t.dst_element:
                return False
            if t.src_projection.fragment_count_per_period != 1:
                return False
            if t.bytes_per_period * self.src.num_elements != (
                t.intersection.period
            ):
                return False
        return True

    def fragment_statistics(self) -> Dict[str, float]:
        """Aggregate fragmentation measures — the quantities that drive
        gather/scatter cost in the evaluation."""
        if not self.transfers:
            return {
                "transfers": 0,
                "bytes_per_period": 0,
                "src_fragments": 0,
                "dst_fragments": 0,
                "mean_fragment_bytes": 0.0,
            }
        src_frags = sum(t.src_fragments_per_period for t in self.transfers)
        dst_frags = sum(t.dst_fragments_per_period for t in self.transfers)
        total = sum(t.bytes_per_period for t in self.transfers)
        return {
            "transfers": len(self.transfers),
            "bytes_per_period": total,
            "src_fragments": src_frags,
            "dst_fragments": dst_frags,
            "mean_fragment_bytes": total / max(src_frags, 1),
        }


def build_plan(src: Partition, dst: Partition) -> RedistributionPlan:
    """Compute the redistribution schedule between two partitions.

    Everything is periodic with the lcm of the two pattern sizes,
    starting at the larger displacement (the paper's PREPROCESS), so one
    such window says everything.  Both partitions' elements are
    enumerated over it once as merged segment lists, and every
    (source element, destination element) pair is intersected as flat
    arrays (:func:`repro.core.segments.intersect_segment_arrays`): the
    result is the pair's byte-exact intersection over one period, and
    its emptiness is the one test for "this pair does not communicate".
    A non-empty one is re-nested by period detection
    (:func:`repro.core.normalize.falls_set_from_segments`) — one
    periodic nested-FALLS structure per lcm period, as §7 describes —
    and projected onto both sides.  Mappers are built once per element
    and shared across the pairs, as a view-set implementation would
    cache them.

    The paper's structural INTERSECT-AUX
    (:func:`repro.core.intersect_nested.intersect_elements`) selects the
    same bytes; it is the reference the test suite compares plans
    against.
    """
    transfers: List[Transfer] = []
    candidates = src.num_elements * dst.num_elements
    pruned = 0

    window_lo = max(src.displacement, dst.displacement)
    period = math.lcm(src.size, dst.size)
    window_hi = window_lo + period - 1
    src_window, dst_window = (
        [
            p.element_segments(e, window_lo, window_hi)
            for e in range(p.num_elements)
        ]
        for p in (src, dst)
    )

    src_mappers: Dict[int, ElementMapper] = {}
    dst_mappers: Dict[int, ElementMapper] = {}
    for i in range(src.num_elements):
        for j in range(dst.num_elements):
            starts, lengths = intersect_segment_arrays(
                src_window[i], dst_window[j]
            )
            if starts.size == 0:
                pruned += 1
                continue
            inter = PeriodicFallsSet(
                falls_set_from_segments((starts - window_lo, lengths)),
                window_lo,
                period,
            )
            if i not in src_mappers:
                src_mappers[i] = ElementMapper(src, i)
            if j not in dst_mappers:
                dst_mappers[j] = ElementMapper(dst, j)
            transfers.append(
                Transfer(
                    src_element=i,
                    dst_element=j,
                    intersection=inter,
                    src_projection=project(inter, src, i, src_mappers[i]),
                    dst_projection=project(inter, dst, j, dst_mappers[j]),
                )
            )
    _metrics.inc("build_plan.calls")
    _metrics.inc("build_plan.candidate_pairs", candidates)
    _metrics.inc("build_plan.pruned_pairs", pruned)
    return RedistributionPlan(
        src=src,
        dst=dst,
        transfers=transfers,
        candidate_pairs=candidates,
        pruned_pairs=pruned,
    )
