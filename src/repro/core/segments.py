"""Vectorised leaf-segment enumeration for (nested) FALLS.

The structural algorithms (intersection, projection, gather/scatter) all
operate on the *leaf segments* of a nested FALLS — the maximal contiguous
byte ranges it selects.  Enumerating them one ``LineSegment`` at a time is
fine for small patterns but far too slow for the benchmark workloads, so
this module produces them as NumPy ``(starts, lengths)`` array pairs using
broadcasting: the starts of a nested FALLS are the outer block starts
crossed with the inner starts (outer[:, None] + inner[None, :]).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .falls import Falls, LineSegment

__all__ = [
    "SegmentArrays",
    "clip_segments",
    "leaf_segment_arrays",
    "leaf_segment_arrays_set",
    "merge_segment_arrays",
    "segments_to_linesegments",
    "intersect_segment_arrays",
    "tile_segment_arrays",
]

#: ``(starts, lengths)`` pair of equal-length int64 arrays, sorted by start.
SegmentArrays = Tuple[np.ndarray, np.ndarray]

_EMPTY = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def _empty() -> SegmentArrays:
    return (_EMPTY[0].copy(), _EMPTY[1].copy())


def leaf_segment_arrays(falls: Falls) -> SegmentArrays:
    """All leaf segments of ``falls`` as ``(starts, lengths)`` arrays.

    Starts are absolute in the coordinate space of ``falls``; the arrays
    are sorted by start.
    """
    block_starts = falls.l + falls.s * np.arange(falls.n, dtype=np.int64)
    if falls.is_leaf:
        lengths = np.full(falls.n, falls.block_length, dtype=np.int64)
        return block_starts, lengths
    inner_starts, inner_lengths = leaf_segment_arrays_set(falls.inner)
    starts = (block_starts[:, None] + inner_starts[None, :]).reshape(-1)
    lengths = np.broadcast_to(
        inner_lengths[None, :], (falls.n, inner_lengths.shape[0])
    ).reshape(-1)
    return _sorted_by_start((starts, np.ascontiguousarray(lengths)))


def _sorted_by_start(segs: SegmentArrays) -> SegmentArrays:
    starts, lengths = segs
    if starts.size > 1 and np.any(starts[1:] < starts[:-1]):
        order = np.argsort(starts, kind="stable")
        return starts[order], lengths[order]
    return starts, lengths


def leaf_segment_arrays_set(falls_set: Iterable[Falls]) -> SegmentArrays:
    """Leaf segments of a set of FALLS, sorted by start.

    For ordered (non-interleaved) sets the concatenation is already
    sorted; interleaved families — typical of intersection results — are
    sorted explicitly.
    """
    parts = [leaf_segment_arrays(f) for f in falls_set]
    if not parts:
        return _empty()
    starts = np.concatenate([p[0] for p in parts])
    lengths = np.concatenate([p[1] for p in parts])
    return _sorted_by_start((starts, lengths))


def clip_segments(
    starts: np.ndarray, lengths: np.ndarray, lo: int, hi: int
) -> SegmentArrays:
    """Clip sorted, disjoint segments to the inclusive window ``[lo, hi]``.

    Segments entirely outside the window are dropped, the two boundary
    segments shortened; the rest is one slice.  Starts remain absolute.
    """
    ends = starts + lengths
    first = int(np.searchsorted(ends, lo, side="right"))
    last = int(np.searchsorted(starts, hi, side="right"))
    s = np.maximum(starts[first:last], lo)
    e = np.minimum(ends[first:last], hi + 1)
    return s, e - s


def segments_to_linesegments(segs: SegmentArrays) -> List[LineSegment]:
    starts, lengths = segs
    return [
        LineSegment(int(a), int(a + ln - 1)) for a, ln in zip(starts, lengths)
    ]


def merge_segment_arrays(segs: SegmentArrays) -> SegmentArrays:
    """Coalesce adjacent/overlapping segments of a start-sorted list.

    Segments may overlap or be fully contained in one another (unions of
    arbitrary families produce both), so runs are split against the
    *running maximum* of the stops, not just the previous segment's stop.
    """
    starts, lengths = segs
    if starts.size == 0:
        return _empty()
    stops = starts + lengths - 1
    # A new run begins wherever a segment starts beyond everything seen
    # so far (running max handles contained segments).
    seen_stop = np.maximum.accumulate(stops)
    breaks = np.empty(starts.size, dtype=bool)
    breaks[0] = True
    np.greater(starts[1:], seen_stop[:-1] + 1, out=breaks[1:])
    run_starts = starts[breaks]
    run_stops = np.maximum.reduceat(stops, np.flatnonzero(breaks))
    return run_starts, run_stops - run_starts + 1


def intersect_segment_arrays(a: SegmentArrays, b: SegmentArrays) -> SegmentArrays:
    """Intersection of two sorted, disjoint segment lists.

    Vectorised sweep: for each segment of ``a``, locate the range of
    segments of ``b`` it can overlap with ``searchsorted``, then emit the
    pairwise overlaps.  Output is sorted by start.
    """
    a_starts, a_lengths = a
    b_starts, b_lengths = b
    if a_starts.size == 0 or b_starts.size == 0:
        return _empty()
    a_stops = a_starts + a_lengths - 1
    b_stops = b_starts + b_lengths - 1
    # First b segment whose stop >= a.start, last b segment whose start <= a.stop.
    first = np.searchsorted(b_stops, a_starts, side="left")
    last = np.searchsorted(b_starts, a_stops, side="right")
    counts = last - first
    total = int(counts.sum())
    if total == 0:
        return _empty()
    a_idx = np.repeat(np.arange(a_starts.size, dtype=np.int64), counts)
    # Offsets of each pair inside its a-run.
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    b_idx = np.repeat(first, counts) + offsets
    lo = np.maximum(a_starts[a_idx], b_starts[b_idx])
    hi = np.minimum(a_stops[a_idx], b_stops[b_idx])
    keep = lo <= hi
    lo = lo[keep]
    hi = hi[keep]
    return lo, hi - lo + 1


def tile_segment_arrays(
    segs: SegmentArrays, period: int, copies: int, offset: int = 0
) -> SegmentArrays:
    """Repeat a one-period segment list ``copies`` times with ``period``
    spacing, translating the whole result by ``offset``."""
    starts, lengths = segs
    if copies < 0:
        raise ValueError(f"copies must be >= 0, got {copies}")
    if copies == 0 or starts.size == 0:
        return _empty()
    shifts = period * np.arange(copies, dtype=np.int64)
    tiled_starts = (shifts[:, None] + starts[None, :]).reshape(-1) + offset
    tiled_lengths = np.broadcast_to(
        lengths[None, :], (copies, lengths.shape[0])
    ).reshape(-1)
    return tiled_starts, np.ascontiguousarray(tiled_lengths)


def total_bytes(segs: SegmentArrays) -> int:
    """Sum of segment lengths."""
    return int(segs[1].sum()) if segs[1].size else 0


def segments_from_pairs(pairs: Sequence[Tuple[int, int]]) -> SegmentArrays:
    """Build segment arrays from ``(start, stop_inclusive)`` pairs."""
    if not pairs:
        return _empty()
    starts = np.array([p[0] for p in pairs], dtype=np.int64)
    stops = np.array([p[1] for p in pairs], dtype=np.int64)
    if np.any(stops < starts):
        raise ValueError("segment stop must be >= start")
    if np.any(starts[1:] <= stops[:-1]):
        raise ValueError("segments must be sorted and disjoint")
    return starts, stops - starts + 1
