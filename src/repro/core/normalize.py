"""Normalisation helpers: segment-run compression and tree shaping.

Two families of utilities live here:

* **Run compression** — turning a sorted list of disjoint byte segments
  back into compact nested FALLS by detecting the period at which the
  list repeats, level by level, with maximal arithmetic runs of equally
  sized segments as the flat fallback.  Plan construction produces its
  intersections and projections as segment lists per period; this is
  how those lists become FALLS again.  For a product of rows and
  columns, ``product_falls`` assembles the tree from the two compressed
  1-D lists instead, and ``node_floor`` bounds what compressing the
  flattened list would give.

* **Tree shaping** — the paper's nested intersection algorithm "assumes,
  without loss of generality, that the nested FALLS trees have the same
  height.  If they don't, the height of the shorter tree can be
  transformed by adding outer FALLS" (§7).  ``pad_to_height`` and
  ``equalize_heights`` implement that transformation with semantically
  neutral wrappers (a trivial inner FALLS covering a whole block selects
  exactly the same bytes).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .falls import Falls, FallsSet
from .segments import SegmentArrays, merge_segment_arrays

__all__ = [
    "compress_segments",
    "falls_set_from_segments",
    "coalesced_falls_set",
    "node_floor",
    "product_falls",
    "pad_to_height",
    "equalize_set_heights",
    "trivial_inner",
]


def compress_segments(segs: SegmentArrays) -> List[Falls]:
    """Compress sorted disjoint segments into flat FALLS greedily.

    Maximal runs of equally long segments with a constant stride become a
    single FALLS; everything else becomes singleton FALLS.  The greedy
    left-to-right grouping is not guaranteed minimal, but it is exact for
    the regular patterns produced by array distributions and it preserves
    byte-for-byte semantics for arbitrary input.
    """
    starts_arr, lengths_arr = segs
    n = int(starts_arr.size)
    if n == 0:
        return []
    starts = starts_arr.tolist()
    lengths = lengths_arr.tolist()
    out: List[Falls] = []
    i = 0
    while i < n:
        length = lengths[i]
        j = i + 1
        if j < n and lengths[j] == length:
            stride = starts[j] - starts[i]
            while (
                j + 1 < n
                and lengths[j + 1] == length
                and starts[j + 1] - starts[j] == stride
            ):
                j += 1
            out.append(Falls(starts[i], starts[i] + length - 1, stride, j - i + 1))
            i = j + 1
        else:
            out.append(Falls(starts[i], starts[i] + length - 1, length, 1))
            i += 1
    return out


def _smallest_period(starts: np.ndarray, lengths: np.ndarray) -> int | None:
    """The smallest ``p`` dividing ``N = starts.size`` (``p < N``) for which
    the segment list is ``N / p`` translated copies of its first ``p``
    segments, or ``None``.

    The list repeats with ``p`` exactly when the lengths and the steps
    between consecutive starts are ``p``-periodic sequences; the repeat
    distance is then ``starts[p] - starts[0]``, never less than the
    extent of the first ``p`` segments because the input is sorted and
    disjoint.  Candidates are bounded cheaply before the full check: a
    period cannot be shorter than the first position whose ``(length,
    step)`` pair differs from the first segment's, and must carry the
    first segment's pair itself.
    """
    n = starts.size
    steps = np.diff(starts)
    like_first = lengths == lengths[0]
    like_first[:-1] &= steps == steps[0]
    breaks = np.flatnonzero(~like_first)
    if not breaks.size:
        return 1  # one length, one step
    lower = int(breaks[0]) + 1
    candidates = np.arange(lower, n // 2 + 1)
    candidates = candidates[n % candidates == 0]
    for p in candidates[like_first[candidates]].tolist():
        if np.array_equal(lengths[p:], lengths[:-p]) and np.array_equal(
            steps[p:], steps[:-p]
        ):
            return p
    return None


def falls_set_from_segments(segs: SegmentArrays) -> FallsSet:
    """Build a :class:`FallsSet` from sorted disjoint segments: the one
    canonical nested compressor.

    When the ``N`` segments are ``N / p`` equally spaced copies of their
    first ``p`` (smallest such ``p``), they become one outer FALLS of
    ``N / p`` blocks whose inner FALLS are the first ``p`` segments,
    compressed by the same rule.  A block-cyclic lattice is such a list
    at every level, so the result's size depends on the pattern, not on
    the number of rows: ``d``-dimensional lattices come back as one tree
    of height at most ``d``.  Only a list without a period (an irregular
    tail, a partial last block) falls back to :func:`compress_segments`'
    flat greedy runs.
    """
    starts, lengths = segs
    n = int(starts.size)
    if n < 2:
        return FallsSet(compress_segments(segs))
    p = _smallest_period(starts, lengths)
    if p is None:
        return FallsSet(compress_segments(segs))
    first = int(starts[0])
    shift = int(starts[p]) - first
    if p == 1:
        return FallsSet((Falls(first, first + int(lengths[0]) - 1, shift, n),))
    stop = int(starts[p - 1] + lengths[p - 1]) - 1
    inner = falls_set_from_segments((starts[:p] - first, lengths[:p]))
    return FallsSet((Falls(first, stop, shift, n // p, inner.falls),))


def node_floor(segs: SegmentArrays) -> int:
    """A lower bound on the FALLS nodes :func:`falls_set_from_segments`
    builds from ``segs``, without building them: a node per level of
    period, then a node per run of equally long segments (a flat FALLS
    has one block length)."""
    starts, lengths = segs
    p = _smallest_period(starts, lengths) if starts.size > 1 else None
    if p is None:
        return int(np.count_nonzero(lengths[1:] != lengths[:-1])) + 1
    return 1 if p == 1 else 1 + node_floor((starts[:p], lengths[:p]))


def coalesced_falls_set(segs: SegmentArrays) -> FallsSet:
    """Like :func:`falls_set_from_segments`, but first merges adjacent
    segments so the result uses maximal contiguous runs."""
    return falls_set_from_segments(merge_segment_arrays(segs))


def _repeat(
    block: Tuple[Falls, ...], l: int, r: int, stride: int, n: int
) -> Tuple[Falls, ...]:
    """``block`` (relative to ``l``, inside ``[l, r]``) repeated ``n`` times
    ``stride`` apart.  A block of one FALLS folds into it when that FALLS
    has one block or its progression runs on across the repeats, as
    period detection would have found."""
    if n == 1:
        return tuple(f.shifted(l) for f in block) if l else block
    if len(block) == 1:
        g = block[0]
        if g.n == 1:
            return (Falls(l + g.l, l + g.r, stride, n, g.inner),)
        if g.s * g.n == stride:
            return (Falls(l + g.l, l + g.r, g.s, g.n * n, g.inner),)
    return (Falls(l, r, stride, n, block),)


def product_falls(
    rows: Sequence[Falls], width: int, cols: Sequence[Falls]
) -> Tuple[Falls, ...]:
    """The bytes ``row * width + col`` for every ``row`` that ``rows``
    selects (in units of rows) and every ``col`` that ``cols`` selects
    (inside ``[0, width)``): ``rows``' tree scaled to bytes, each leaf
    block of rows repeating ``cols`` once per row."""
    cols = tuple(cols)
    full = len(cols) == 1 and cols[0].is_leaf and cols[0].is_contiguous and (
        cols[0].l == 0 and cols[0].span == width
    )
    out: List[Falls] = []
    for f in rows:
        l, r, s = f.l * width, (f.r + 1) * width - 1, f.s * width
        if f.inner:
            out.append(Falls(l, r, s, f.n, product_falls(f.inner, width, cols)))
        elif full:
            out.append(Falls(l, r, s, f.n))
        else:
            row = _repeat(cols, 0, width - 1, width, f.block_length)
            out.extend(_repeat(row, l, r, s, f.n))
    return tuple(out)


def trivial_inner(block_length: int, height: int) -> Falls:
    """A semantically neutral FALLS selecting all of ``[0, block_length)``
    as a degenerate tree of the requested height."""
    if height < 1:
        raise ValueError(f"height must be >= 1, got {height}")
    if height == 1:
        return Falls(0, block_length - 1, block_length, 1)
    return Falls(
        0,
        block_length - 1,
        block_length,
        1,
        (trivial_inner(block_length, height - 1),),
    )


def pad_to_height(falls: Falls, height: int) -> Falls:
    """Return an equivalent FALLS whose tree has exactly ``height`` levels
    on every root-to-leaf path.

    Leaves shallower than ``height`` gain trivial inner FALLS covering the
    whole block; the selected byte set is unchanged.
    """
    if height < falls.height():
        raise ValueError(
            f"cannot pad FALLS of height {falls.height()} down to {height}"
        )
    if height == 1:
        return falls
    if falls.is_leaf:
        return falls.with_inner((trivial_inner(falls.block_length, height - 1),))
    return falls.with_inner(tuple(pad_to_height(f, height - 1) for f in falls.inner))


def equalize_set_heights(
    a: Sequence[Falls], b: Sequence[Falls]
) -> Tuple[Tuple[Falls, ...], Tuple[Falls, ...], int]:
    """Pad every tree in both sets to the common maximum height.

    Returns the two padded sets and the common height.  Empty sets are
    passed through unchanged (their height is irrelevant — intersection
    with an empty set is empty).
    """
    heights = [f.height() for f in a] + [f.height() for f in b]
    if not heights:
        return tuple(a), tuple(b), 0
    h = max(heights)
    pa = tuple(pad_to_height(f, h) for f in a)
    pb = tuple(pad_to_height(f, h) for f in b)
    return pa, pb, h
