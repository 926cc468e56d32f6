"""Redistribution schedules (paper §7).

Given two partitions of the same file — source and destination — the
redistribution algorithm intersects every source element with every
destination element and projects each non-empty intersection on both
sides; :func:`build_plan` gets all of them from one labelled sweep over
a period.  The result is a :class:`RedistributionPlan`: one
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
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from ..core.partition import Partition
from ..core.periodic import PeriodicFallsSet
from ..core.segments import run_heads
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
        """True when both partitions send every byte to the same element
        index at the same element offset — the optimal layout case where
        every view maps exactly on a subfile (paper §6.2).  A transfer's
        projections list its pieces in file order with shared lengths, so
        they are equal exactly when every piece lands at the same offset
        on both sides."""
        return all(
            t.src_element == t.dst_element
            and t.src_projection == t.dst_projection
            for t in self.transfers
        )

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


def _window_runs(
    p: Partition, lo: int, period: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``p``'s same-owner runs over ``[lo, lo + period)``: window-relative
    starts, owners, and per run the shift from a window position to its
    offset among the owner's bytes counted from the window start."""
    starts, owners = p.runs
    phase = (lo - p.displacement) % p.size
    copies = period // p.size + (phase > 0)
    if copies > 1:
        starts = (p.size * np.arange(copies)[:, None] + starts).reshape(-1)
        owners = np.tile(owners, copies)
        if owners[0] == owners[-1]:  # runs continue across pattern copies
            heads = run_heads(owners)
            starts, owners = starts[heads], owners[heads]
    if phase:
        first = int(np.searchsorted(starts, phase, "right")) - 1
        last = int(np.searchsorted(starts, phase + period))
        starts, owners = starts[first:last] - phase, owners[first:last]
        starts[0] = 0
    # Grouped exclusive cumsum: each run's offset among its owner's bytes.
    lengths = np.diff(starts, append=period)
    order = np.argsort(owners, kind="stable")
    before = np.cumsum(lengths[order]) - lengths[order]
    heads = np.flatnonzero(run_heads(owners[order]))
    before -= np.repeat(before[heads], np.diff(heads, append=order.size))
    shift = np.empty_like(before)
    shift[order] = before
    return starts, owners, shift - starts


def build_plan(src: Partition, dst: Partition) -> RedistributionPlan:
    """Compute the redistribution schedule between two partitions.

    Everything is periodic with the lcm of the two pattern sizes from
    the larger displacement (the paper's PREPROCESS), and both
    partitions tile that window.  The union of both sides' same-owner
    run starts (:attr:`Partition.runs`) cuts it into pieces, each
    labelled (source element, destination element) by ``searchsorted``;
    one stable argsort groups them by pair.  A group is the pair's
    intersection (no group: no transfer) and, shifted by each side's
    run offsets, both its projections: three segment lists sharing one
    ``lengths`` array, each re-nested once by period detection
    (:func:`repro.core.normalize.falls_set_from_segments`).  No pair is
    intersected and no offset is MAPped; INTERSECT-AUX
    (:func:`repro.core.intersect_nested.intersect_elements`) + PROJ
    (:func:`repro.core.projection.project`) is the reference.
    """
    q = dst.num_elements
    candidates = src.num_elements * q
    window_lo = max(src.displacement, dst.displacement)
    period = math.lcm(src.size, dst.size)
    src_starts, src_owners, src_shift = _window_runs(src, window_lo, period)
    dst_starts, dst_owners, dst_shift = _window_runs(dst, window_lo, period)
    # Piece k is [cuts[k], cuts[k + 1]); the last cut is the window end.
    cuts = np.concatenate((src_starts, dst_starts, [period]))
    cuts.sort(kind="stable")  # sorted runs: a linear merge
    cuts = cuts[run_heads(cuts)]
    src_run = np.searchsorted(src_starts, cuts[:-1], "right") - 1
    dst_run = np.searchsorted(dst_starts, cuts[:-1], "right") - 1
    pair = src_owners[src_run].astype(np.int64) * q + dst_owners[dst_run]
    order = np.argsort(pair, kind="stable")
    counts = np.bincount(pair, minlength=candidates)
    del pair  # a k = 1 layout cuts one piece per byte: free what we can

    transfers: List[Transfer] = []
    stop = 0
    for key in np.flatnonzero(counts).tolist():
        idx = order[stop : stop + counts[key]]
        stop += counts[key]
        at = cuts[idx]
        size = cuts[idx + 1] - at

        def projection(p, e, run, shift):
            return PeriodicFallsSet.from_segments(
                (at + shift[run[idx]], size),
                p.element_length(e, window_lo),
                period // p.size * p.element_size(e),
            )

        i, j = divmod(key, q)
        transfers.append(
            Transfer(
                i,
                j,
                PeriodicFallsSet.from_segments((at, size), window_lo, period),
                projection(src, i, src_run, src_shift),
                projection(dst, j, dst_run, dst_shift),
            )
        )
    pruned = candidates - len(transfers)
    _metrics.inc("build_plan.calls")
    _metrics.inc("build_plan.candidate_pairs", candidates)
    _metrics.inc("build_plan.pruned_pairs", pruned)
    return RedistributionPlan(src, dst, transfers, candidates, pruned)
