"""Core data representation: line segments, FALLS and nested FALLS.

The representation follows Isaila & Tichy (IPPS 2002), section 4, which in
turn extends the PITFALLS representation of Ramaswamy & Banerjee:

* A **line segment** ``(l, r)`` describes the contiguous byte range
  ``[l, r]`` (both ends inclusive) of a linear space.
* A **FALLS** ``(l, r, s, n)`` describes ``n`` equally sized, equally
  spaced line segments: segment ``k`` occupies
  ``[l + k*s, r + k*s]`` for ``k in range(n)``.
* A **nested FALLS** additionally carries a set of *inner* FALLS, located
  inside each block ``[l + k*s, r + k*s]`` and expressed **relative to the
  block's left index**.  Only the bytes selected by the inner FALLS belong
  to the nested FALLS; a FALLS without inner FALLS selects every byte of
  each block.

All coordinates are non-negative integers (byte offsets).  Instances are
immutable and hashable so they can be shared freely between partitions,
cached in projection tables, and used as dictionary keys in redistribution
schedules.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence, Tuple

__all__ = [
    "Falls",
    "FallsSet",
    "LineSegment",
    "falls_from_segment",
    "is_ordered_layout",
    "validate_inner_layout",
]


@dataclass(frozen=True)
class LineSegment:
    """A contiguous, inclusive byte range ``[start, stop]``."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"segment start must be >= 0, got {self.start}")
        if self.stop < self.start:
            raise ValueError(
                f"segment stop ({self.stop}) must be >= start ({self.start})"
            )

    @property
    def length(self) -> int:
        return self.stop - self.start + 1

    def shifted(self, delta: int) -> "LineSegment":
        return LineSegment(self.start + delta, self.stop + delta)

    def overlaps(self, other: "LineSegment") -> bool:
        return self.start <= other.stop and other.start <= self.stop

    def intersection(self, other: "LineSegment") -> "LineSegment | None":
        lo = max(self.start, other.start)
        hi = min(self.stop, other.stop)
        if lo > hi:
            return None
        return LineSegment(lo, hi)


def _as_falls_tuple(inner: Iterable["Falls"]) -> Tuple["Falls", ...]:
    out = tuple(inner)
    for f in out:
        if not isinstance(f, Falls):
            raise TypeError(f"inner entries must be Falls, got {type(f)!r}")
    return out


@dataclass(frozen=True)
class Falls:
    """A (possibly nested) FAmily of Line Segments.

    Parameters
    ----------
    l:
        Left index of the first block (inclusive).
    r:
        Right index of the first block (inclusive); ``r >= l``.
    s:
        Stride between consecutive block left indices.  Must satisfy
        ``s >= r - l + 1`` whenever ``n > 1`` so that blocks do not
        overlap.  For ``n == 1`` the stride is irrelevant; it is
        normalised to the block length.
    n:
        Number of blocks; ``n >= 1``.
    inner:
        Inner FALLS, relative to each block's left index, each contained
        in ``[0, r - l]``.  Empty for a *leaf* FALLS, which selects every
        byte of each block.
    """

    l: int
    r: int
    s: int
    n: int
    inner: Tuple["Falls", ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "inner", _as_falls_tuple(self.inner))
        if self.l < 0:
            raise ValueError(f"l must be >= 0, got {self.l}")
        if self.r < self.l:
            raise ValueError(f"r ({self.r}) must be >= l ({self.l})")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        block_len = self.r - self.l + 1
        if self.n == 1:
            # Stride of a single block is meaningless; canonicalise it so
            # that structurally equal FALLS compare equal.
            object.__setattr__(self, "s", block_len)
        else:
            if self.s < block_len:
                raise ValueError(
                    f"stride {self.s} smaller than block length {block_len} "
                    f"with n={self.n} would overlap blocks"
                )
        validate_inner_layout(self.inner, block_len)
        # SIZE, once: the MAP recursion asks every level for it.  Not a
        # field, so equality and hashing stay structural.
        per_block = sum(f._size for f in self.inner) if self.inner else block_len
        object.__setattr__(self, "_size", self.n * per_block)

    # -- basic geometry ----------------------------------------------------

    @property
    def block_length(self) -> int:
        """Number of bytes spanned by one block, ``r - l + 1``."""
        return self.r - self.l + 1

    @property
    def extent_stop(self) -> int:
        """Last index covered by the FALLS footprint (inclusive)."""
        return self.l + (self.n - 1) * self.s + self.block_length - 1

    @property
    def span(self) -> int:
        """Total footprint length from ``l`` to the end of the last block."""
        return self.extent_stop - self.l + 1

    @property
    def is_leaf(self) -> bool:
        return not self.inner

    @property
    def is_contiguous(self) -> bool:
        """True when the FALLS selects one contiguous run of bytes."""
        if self.inner:
            if len(self.inner) != 1:
                return False
            child = self.inner[0]
            if not child.is_contiguous:
                return False
            if not (child.l == 0 and child.extent_stop == self.block_length - 1):
                return False
            # Inner covers the whole block contiguously; fall through to the
            # outer-level contiguity check.
        if self.n == 1:
            return True
        return self.s == self.block_length

    # -- derived quantities --------------------------------------------------

    def size(self) -> int:
        """Number of bytes selected (SIZE in the paper)."""
        return self._size

    def height(self) -> int:
        """Tree height: 1 for a leaf FALLS."""
        if self.is_leaf:
            return 1
        return 1 + max(f.height() for f in self.inner)

    def has_uniform_depth(self) -> bool:
        """True when every leaf of the tree sits at the same depth."""
        if self.is_leaf:
            return True
        heights = {f.height() for f in self.inner}
        return len(heights) == 1 and all(f.has_uniform_depth() for f in self.inner)

    def block_starts(self) -> Iterator[int]:
        """Left index of each block, in increasing order."""
        for k in range(self.n):
            yield self.l + k * self.s

    def leaf_segments(self) -> Iterator[LineSegment]:
        """All selected byte ranges, in increasing order.

        For large FALLS prefer :func:`repro.core.segments.leaf_segment_arrays`,
        which produces the same ranges as NumPy arrays without a Python-level
        loop per segment.
        """
        if self.is_leaf:
            for start in self.block_starts():
                yield LineSegment(start, start + self.block_length - 1)
            return
        for start in self.block_starts():
            for f in self.inner:
                for seg in f.leaf_segments():
                    yield seg.shifted(start)

    def leaf_segment_count(self) -> int:
        """Number of leaf segments (fragments) selected by this FALLS."""
        if self.is_leaf:
            return self.n
        return self.n * sum(f.leaf_segment_count() for f in self.inner)

    def shifted(self, delta: int) -> "Falls":
        """The same FALLS translated by ``delta`` bytes (inner unchanged)."""
        return Falls(self.l + delta, self.r + delta, self.s, self.n, self.inner)

    def with_inner(self, inner: Sequence["Falls"]) -> "Falls":
        return Falls(self.l, self.r, self.s, self.n, tuple(inner))

    def flat(self) -> "Falls":
        """The outer FALLS alone, selecting every byte of each block."""
        return Falls(self.l, self.r, self.s, self.n)

    # -- display -------------------------------------------------------------

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_leaf:
            return f"({self.l},{self.r},{self.s},{self.n})"
        inner = ",".join(str(f) for f in self.inner)
        return f"({self.l},{self.r},{self.s},{self.n},{{{inner}}})"


def validate_inner_layout(inner: Sequence[Falls], block_length: int) -> None:
    """Check that ``inner`` is a legal inner-FALLS layout for a block.

    Inner FALLS must lie inside ``[0, block_length - 1]`` and be sorted by
    non-decreasing left index.  Footprints are allowed to interleave —
    intersection results are naturally interleaved families with a common
    lcm stride — but the byte sets they select must be disjoint, which is
    guaranteed by construction and checked against the index-set oracle in
    the test suite rather than here (an exact check would require
    materialising the byte sets).
    """
    prev_l = -1
    for f in inner:
        if f.l < prev_l:
            raise ValueError(
                f"inner FALLS must be sorted by non-decreasing l; "
                f"got l={f.l} after l={prev_l}"
            )
        if f.extent_stop > block_length - 1:
            raise ValueError(
                f"inner FALLS {f} exceeds block length {block_length}"
            )
        prev_l = f.l


def is_ordered_layout(falls: Sequence[Falls]) -> bool:
    """True when footprints are non-interleaved (each FALLS' footprint ends
    before the next begins) at this level and recursively inside.

    This is the structural property the paper's MAP-AUX relies on to find
    the FALLS containing an offset by binary search on left indices;
    partition elements must satisfy it, intersection results need not.
    """
    prev_stop = -1
    for f in falls:
        if f.l <= prev_stop:
            return False
        if not is_ordered_layout(f.inner):
            return False
        prev_stop = f.extent_stop
    return True


def falls_from_segment(segment: LineSegment) -> Falls:
    """Represent a single line segment as a FALLS, as in the paper:
    ``(l, r)`` becomes ``(l, r, r - l + 1, 1)``."""
    return Falls(segment.start, segment.stop, segment.length, 1)


@dataclass(frozen=True)
class FallsSet:
    """An ordered set of nested FALLS describing one partition element.

    A subfile or a view is described by a set of nested FALLS (paper §5).
    The FALLS are kept sorted by non-decreasing left index.  Footprints may
    interleave (intersection results usually do); elements used as
    partition elements with the MAP functions must additionally satisfy
    :meth:`is_ordered`, which :class:`repro.core.partition.Partition`
    enforces.
    """

    falls: Tuple[Falls, ...]

    def __init__(self, falls: Iterable[Falls]):
        object.__setattr__(self, "falls", tuple(falls))
        prev_l = -1
        for f in self.falls:
            if not isinstance(f, Falls):
                raise TypeError(f"FallsSet entries must be Falls, got {type(f)!r}")
            if f.l < prev_l:
                raise ValueError(
                    "FALLS in a set must be sorted by non-decreasing l"
                )
            prev_l = f.l
        object.__setattr__(self, "_size", sum(f._size for f in self.falls))

    def __iter__(self) -> Iterator[Falls]:
        return iter(self.falls)

    def __len__(self) -> int:
        return len(self.falls)

    def __getitem__(self, idx: int) -> Falls:
        return self.falls[idx]

    def __bool__(self) -> bool:
        return bool(self.falls)

    @property
    def is_empty(self) -> bool:
        return not self.falls

    def size(self) -> int:
        """Total number of bytes selected by all FALLS of the set."""
        return self._size

    def height(self) -> int:
        if not self.falls:
            return 0
        return max(f.height() for f in self.falls)

    @property
    def extent_stop(self) -> int:
        if not self.falls:
            return -1
        return max(f.extent_stop for f in self.falls)

    @property
    def extent_start(self) -> int:
        if not self.falls:
            return 0
        return self.falls[0].l

    def is_ordered(self) -> bool:
        """True when footprints never interleave, at any nesting level.

        Required of partition elements so MAP-AUX can locate the FALLS
        containing an offset by binary search on left indices.
        """
        return is_ordered_layout(self.falls)

    def leaf_segments(self) -> Iterator[LineSegment]:
        """Selected byte ranges; globally sorted only for ordered sets."""
        if self.is_ordered():
            yield from itertools.chain.from_iterable(
                f.leaf_segments() for f in self.falls
            )
            return
        yield from sorted(
            itertools.chain.from_iterable(f.leaf_segments() for f in self.falls),
            key=lambda seg: seg.start,
        )

    def leaf_segment_count(self) -> int:
        return sum(f.leaf_segment_count() for f in self.falls)

    def is_contiguous(self) -> bool:
        """True when the whole set selects one contiguous byte run."""
        segs = list(self.leaf_segments())
        if not segs:
            return True
        for prev, cur in zip(segs, segs[1:]):
            if cur.start != prev.stop + 1:
                return False
        return True

    def shifted(self, delta: int) -> "FallsSet":
        return FallsSet(f.shifted(delta) for f in self.falls)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "{" + ",".join(str(f) for f in self.falls) + "}"


EMPTY_SET = FallsSet(())
