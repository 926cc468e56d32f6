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

The pattern repeats throughout the linear space, so a product of rows
and columns (every multidimensional array layout) is its two 1-D
factors: a set built from them (:meth:`PeriodicFallsSet.from_product`)
answers every query from the two lists, and so does a set built from
one period's segments (:meth:`PeriodicFallsSet.from_segments`).  Either
builds its nested-FALLS tree (the paper's PROJ answer) only when
``falls`` is read.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import cached_property, partial
from typing import Callable, Tuple

import numpy as np

from .falls import FallsSet
from .normalize import falls_set_from_segments
from .segments import (
    ProductSegments,
    SegmentArrays,
    clip_segments,
    flat_falls,
    leaf_segment_arrays_set,
    merge_segment_arrays,
    product_segment_arrays,
    tile_segment_arrays,
)

__all__ = ["PeriodicFallsSet"]

#: Distinct query windows memoised per instance by :meth:`segments_in`.
#: Real workloads hit a handful of extremity pairs per projection (the
#: access pattern of one view repeated over many operations), so a small
#: LRU suffices.
_WINDOW_MEMO_CAPACITY = 8
#: Guards every window memo: the plan cache hands one projection to every
#: thread, so one thread's eviction can race another's lookup.
_MEMO_LOCK = threading.Lock()


class PeriodicFallsSet:
    """A nested-FALLS family tiled with a fixed period.

    ``falls`` describes one period in period-relative coordinates
    ``[0, period)``; the family selects
    ``{displacement + k * period + b}`` for every ``k >= 0`` and every
    byte ``b`` selected by ``falls``.  A set built from one period's
    segments (:meth:`from_segments`) or from its row and column factors
    (:meth:`from_product`) builds ``falls`` when it is first read: its
    queries, size and emptiness read the segments or factors.  Sets are
    immutable; two are equal when their trees, displacements and periods
    are.
    """

    def __init__(
        self,
        falls: FallsSet | Callable[[], FallsSet],
        displacement: int,
        period: int,
        **state,
    ) -> None:
        """``falls`` is the tree, or a callable that builds it when it is
        first read; ``state`` is what :meth:`from_segments` or
        :meth:`from_product` keeps to answer without it."""
        tree = {"_build": falls} if callable(falls) else {"falls": falls}
        self.__dict__.update(state, **tree, displacement=displacement, period=period)
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if self.displacement < 0:
            raise ValueError(
                f"displacement must be >= 0, got {self.displacement}"
            )
        if self._extent_stop() >= self.period:
            raise ValueError(
                f"period structure extends to {self._extent_stop()}, "
                f"beyond period {self.period}"
            )

    @classmethod
    def from_segments(
        cls, segs: SegmentArrays, displacement: int, period: int
    ) -> "PeriodicFallsSet":
        """One period's sorted, disjoint ``segs``: their merged form
        (``segs`` itself if already merged: do not write to it later) is
        kept for the queries, and ``segs`` compressed into the tree when
        ``falls`` is first read."""
        starts, lengths = merged = segs
        if np.any(starts[1:] == starts[:-1] + lengths[:-1]):
            merged = merge_segment_arrays(segs)
        return cls(
            partial(falls_set_from_segments, segs),
            displacement,
            period,
            _period_segments=merged,
        )

    @classmethod
    def from_product(
        cls,
        falls: FallsSet | Callable[[], FallsSet],
        rows: SegmentArrays,
        width: int,
        cols: SegmentArrays,
        displacement: int,
        period: int,
        flat: tuple,
    ) -> "PeriodicFallsSet":
        """``falls`` (or its builder) selecting the bytes ``row * width +
        col`` of one period for every row in ``rows`` and every column in
        ``cols`` (merged segment lists): the period's segments are
        broadcast from the two lists when a query first needs them.
        ``flat`` is each list's :func:`~repro.core.segments.flat_falls`,
        which :meth:`product_in` hands on with the lists."""
        return cls(
            falls, displacement, period, _factors=(rows, width, cols), _flat=flat
        )

    @cached_property
    def falls(self) -> FallsSet:
        """One period's nested-FALLS tree (paper §5), for a set built from
        segments or factors built here, on first read."""
        return self._build()

    def _extent_stop(self) -> int:
        """Last byte of one period's structure (-1 when empty), read from
        the tree when the set was given one, else without building it."""
        state = self.__dict__
        if "falls" in state:
            return self.falls.extent_stop
        if "_factors" in state:
            (row_starts, row_lengths), width, (col_starts, col_lengths) = (
                state["_factors"]
            )
            last_row = row_starts.item(-1) + row_lengths.item(-1) - 1
            return last_row * width + col_starts.item(-1) + col_lengths.item(-1) - 1
        starts, lengths = self._period_segments
        return starts.item(-1) + lengths.item(-1) - 1 if starts.size else -1

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def _key(self) -> tuple:
        return self.falls, self.displacement, self.period

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"PeriodicFallsSet(disp={self.displacement}, period={self.period}, "
            f"{self.falls})"
        )

    @property
    def is_empty(self) -> bool:
        return not self.size_per_period

    @cached_property
    def size_per_period(self) -> int:
        """Bytes selected in each period."""
        state = self.__dict__
        if "_factors" in state:
            rows, _, cols = state["_factors"]
            return int(rows[1].sum()) * int(cols[1].sum())
        if "falls" in state:
            return self.falls.size()
        return int(self._period_segments[1].sum())

    @cached_property
    def _period_segments(self) -> SegmentArrays:
        """Merged, sorted segments of one period (period-relative)."""
        factors = self.__dict__.get("_factors")
        if factors is not None:
            return product_segment_arrays(*factors)
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
        with _MEMO_LOCK:
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
        with _MEMO_LOCK:
            memo[(lo, hi)] = result
            if len(memo) > _WINDOW_MEMO_CAPACITY:
                memo.popitem(last=False)
        return result

    def product_in(self, lo: int, hi: int) -> ProductSegments | None:
        """:meth:`segments_in` as rows x columns, read from the factors of
        a set built by :meth:`from_product` without expanding them:
        the rows of the window that hold selected bytes, the set's column
        list and the row width, with each list's flatness (recorded by
        :meth:`from_product`, re-tested only for a row list the window
        tiles or clips).  ``None`` when the set keeps no factors or the
        window cuts a selected row short (those windows take
        :meth:`segments_in`)."""
        factors = self.__dict__.get("_factors")
        if factors is None or self.is_empty:
            return None
        rows, width, cols = factors
        lo = max(lo, self.displacement)
        row_lo, col_lo = divmod(lo - self.displacement, width)
        row_hi, col_hi = divmod(hi - self.displacement, width)
        per_period = self.period // width
        k_first, k_last = row_lo // per_period, row_hi // per_period
        # Rows count from the first period the window touches.
        base = k_first * per_period
        row_lo, row_hi = row_lo - base, row_hi - base
        first = rows[0].item(0)
        last = rows[0].item(-1) + rows[1].item(-1) - 1
        if k_last > k_first or row_lo > first or row_hi < last:
            # The window holds less, or more, than one period's rows.
            if k_last > k_first:
                rows = tile_segment_arrays(rows, per_period, k_last - k_first + 1)
                if first == 0 and last == per_period - 1:
                    rows = merge_segment_arrays(rows)
            rows = clip_segments(*rows, row_lo, row_hi)
            if not rows[0].size:
                return ProductSegments(0, rows, width, cols)
            first = rows[0].item(0)
            last = rows[0].item(-1) + rows[1].item(-1) - 1
        if (first == row_lo and col_lo > cols[0].item(0)) or (
            last == row_hi and col_hi < cols[0].item(-1) + cols[1].item(-1) - 1
        ):
            return None
        flat = self._flat
        if rows is not factors[0]:
            flat = (flat_falls(*rows), flat[1])
        return ProductSegments(
            self.displacement + base * width, rows, width, cols, flat
        )

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
