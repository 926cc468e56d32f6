"""Periodic FALLS families.

Partitioning patterns repeat throughout the linear space of a file
(paper §5), so intersections of two partitions and their projections are
themselves periodic: one finite nested-FALLS structure describes a
period, plus a displacement where the periodicity starts and a period
length.  :class:`PeriodicFallsSet` packages that triple and answers the
queries the redistribution and Clusterfile layers need — "which byte
segments fall in this interval?", "how many bytes per period?", "is the
selection contiguous over this interval?" — without ever materialising
per-byte indices.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from .falls import FallsSet
from .segments import (
    SegmentArrays,
    clip_segments,
    leaf_segment_arrays_set,
    merge_segment_arrays,
    tile_segment_arrays,
)

__all__ = ["PeriodicFallsSet"]

#: Distinct query windows memoised per instance by :meth:`segments_in`.
#: Real workloads hit a handful of extremity pairs per projection (the
#: access pattern of one view repeated over many operations), so a small
#: LRU suffices.
_WINDOW_MEMO_CAPACITY = 8


@dataclass(frozen=True)
class PeriodicFallsSet:
    """A nested-FALLS family tiled with a fixed period.

    ``falls`` describes one period in period-relative coordinates
    ``[0, period)``; the family selects
    ``{displacement + k * period + b}`` for every ``k >= 0`` and every
    byte ``b`` selected by ``falls``.
    """

    falls: FallsSet
    displacement: int
    period: int

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if self.displacement < 0:
            raise ValueError(
                f"displacement must be >= 0, got {self.displacement}"
            )
        if self.falls and self.falls.extent_stop >= self.period:
            raise ValueError(
                f"period structure extends to {self.falls.extent_stop}, "
                f"beyond period {self.period}"
            )

    @property
    def is_empty(self) -> bool:
        return self.falls.is_empty

    @cached_property
    def size_per_period(self) -> int:
        """Bytes selected in each period."""
        return self.falls.size()

    @cached_property
    def _period_segments(self) -> SegmentArrays:
        """Merged, sorted segments of one period (period-relative)."""
        return merge_segment_arrays(leaf_segment_arrays_set(self.falls.falls))

    @cached_property
    def _period_prefix(self) -> np.ndarray:
        """Running byte count at each period segment: ``prefix[i]`` is the
        number of selected bytes in segments ``[0, i)`` of one period."""
        lengths = self._period_segments[1]
        out = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=out[1:])
        return out

    @cached_property
    def _window_memo(self) -> "OrderedDict[Tuple[int, int], SegmentArrays]":
        """Per-instance LRU of :meth:`segments_in` results, keyed by the
        query window.  Repeated same-extremity accesses (the amortisation
        workload) skip the tile/clip/merge entirely."""
        return OrderedDict()

    @property
    def fragment_count_per_period(self) -> int:
        """Number of maximal contiguous runs per period."""
        return int(self._period_segments[0].size)

    def segments_in(self, lo: int, hi: int) -> SegmentArrays:
        """Absolute byte segments selected within ``[lo, hi]`` (inclusive),
        sorted and merged.

        Results for recent windows are memoised per instance and returned
        as **read-only** arrays (callers derive new arrays via arithmetic,
        never write in place).
        """
        lo = max(lo, self.displacement)
        if hi < lo or self.is_empty:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        memo = self._window_memo
        cached = memo.get((lo, hi))
        if cached is not None:
            memo.move_to_end((lo, hi))
            return cached
        k_first = (lo - self.displacement) // self.period
        k_last = (hi - self.displacement) // self.period
        base = self._period_segments
        tiled = tile_segment_arrays(
            base,
            self.period,
            k_last - k_first + 1,
            self.displacement + k_first * self.period,
        )
        result = clip_segments(tiled[0], tiled[1], lo, hi)
        # Runs continue across a period boundary only when the period
        # both starts and ends selected; only then is there a merge.
        if base[0][0] == 0 and base[0][-1] + base[1][-1] == self.period:
            result = merge_segment_arrays(result)
        result[0].setflags(write=False)
        result[1].setflags(write=False)
        memo[(lo, hi)] = result
        if len(memo) > _WINDOW_MEMO_CAPACITY:
            memo.popitem(last=False)
        return result

    def _count_below(self, x: int) -> int:
        """Selected bytes at absolute offsets in ``[displacement, x)``.

        Closed form: whole periods contribute ``size_per_period`` each;
        the partial edge period is resolved with one ``searchsorted``
        against the cached period segments and their prefix sums — no
        segment arrays are materialised, so the cost is O(log fragments)
        regardless of ``x``.
        """
        if x <= self.displacement:
            return 0
        full, rem = divmod(x - self.displacement, self.period)
        total = full * self.size_per_period
        if rem:
            starts, lengths = self._period_segments
            # Segments [0, i) start strictly before rem; only segment
            # i - 1 can straddle the boundary (segments are merged and
            # disjoint), so clip its overshoot.
            i = int(np.searchsorted(starts, rem, side="left"))
            if i:
                total += int(self._period_prefix[i])
                overshoot = int(starts[i - 1] + lengths[i - 1]) - rem
                if overshoot > 0:
                    total -= overshoot
        return int(total)

    def count_in(self, lo: int, hi: int) -> int:
        """Number of selected bytes within ``[lo, hi]``.

        Computed in closed form from the periodic structure — the cost
        depends only on the fragment count of one period, not on the
        width of the window (so ``Transfer.bytes_in_file`` and
        ``RedistributionPlan.total_bytes`` are O(period), never
        O(file length / period)).
        """
        lo = max(lo, self.displacement)
        if hi < lo or self.is_empty:
            return 0
        return self._count_below(hi + 1) - self._count_below(lo)

    def contiguous_run_in(self, lo: int, hi: int) -> Tuple[int, int] | None:
        """If the bytes selected within ``[lo, hi]`` form exactly one
        contiguous run, return it as ``(start, stop)``; else ``None``.

        Unlike :meth:`is_contiguous_in`, the run need not cover the whole
        window — this is the zero-copy send test: a single run can be
        sent straight out of the user's buffer without gathering.
        """
        starts, lengths = self.segments_in(lo, hi)
        if starts.size != 1:
            return None
        return int(starts[0]), int(starts[0] + lengths[0] - 1)

    def is_contiguous_in(self, lo: int, hi: int) -> bool:
        """True when the selected bytes within ``[lo, hi]`` form a single
        contiguous run covering ``[lo, hi]`` entirely.

        This is the test the Clusterfile write path uses to skip the
        gather/scatter copies (paper §8.1: "if PROJ is contiguous between
        the extremities, send the buffer directly").
        """
        starts, lengths = self.segments_in(lo, hi)
        if starts.size != 1:
            return False
        return int(starts[0]) == lo and int(starts[0] + lengths[0] - 1) == hi

    def shifted(self, delta: int) -> "PeriodicFallsSet":
        return PeriodicFallsSet(self.falls, self.displacement + delta, self.period)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PeriodicFallsSet(disp={self.displacement}, period={self.period}, "
            f"{self.falls})"
        )
