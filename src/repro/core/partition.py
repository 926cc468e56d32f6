"""The parallel file model: partitioning patterns (paper §5).

A file is a linear sequence of bytes described by a *displacement* (an
absolute byte position where the partitioning starts) and a
*partitioning pattern*: a union of sets of nested FALLS, each set
defining one partition element (a subfile when the partition is
physical, a view when it is logical).  The pattern maps every byte to a
``(element, offset-within-element)`` pair and is applied repeatedly
throughout the linear space of the file, starting at the displacement.

The pattern must tile a contiguous region without gaps or overlaps; the
size of the pattern is the sum of the sizes of its elements.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .falls import Falls, FallsSet
from .periodic import PeriodicFallsSet
from .segments import (
    SegmentArrays,
    flat_falls,
    leaf_segment_arrays_set,
    merge_segment_arrays,
    run_heads,
)

__all__ = ["Partition", "PartitionError"]


class PartitionError(ValueError):
    """Raised when a partitioning pattern is structurally invalid."""


def _rows_by_columns(f: Falls) -> Tuple[int, Tuple[Falls, ...]]:
    """An outer FALLS read as whole rows x a column set: the row width it
    pins (0 for a leaf) and its columns (empty: all).  A lone inner FALLS
    tiling the block with rows (the wrapper
    :func:`repro.distributions.multidim.scale_falls` emits) pins its
    stride; any other inner layout pins the block length."""
    if not f.inner:
        return 0, ()
    g = f.inner[0]
    if len(f.inner) == 1 and g.l == 0 and g.s == g.block_length and (
        g.n * g.s == f.block_length
    ):
        return g.s, g.inner
    return f.block_length, f.inner


@dataclass(frozen=True)
class Partition:
    """A partitioning pattern: displacement + one FALLS set per element.

    Parameters
    ----------
    elements:
        One :class:`FallsSet` per partition element (subfile or view).
        Every element must be *ordered* (non-interleaved footprints at
        every nesting level) so the MAP functions can locate offsets by
        binary search, exactly as the paper's MAP-AUX assumes.
    displacement:
        Absolute byte position of the start of the first pattern
        instance.
    validate:
        When true (the default), check that the elements exactly tile
        ``[0, size)`` with no gaps and no overlaps.
    """

    elements: Tuple[FallsSet, ...]
    displacement: int = 0
    size: int = field(init=False)

    def __init__(
        self,
        elements: Iterable[FallsSet | Sequence[Falls] | Falls],
        displacement: int = 0,
        validate: bool = True,
    ):
        normalised: List[FallsSet] = []
        for e in elements:
            if isinstance(e, FallsSet):
                normalised.append(e)
            elif isinstance(e, Falls):
                normalised.append(FallsSet((e,)))
            else:
                normalised.append(FallsSet(e))
        object.__setattr__(self, "elements", tuple(normalised))
        object.__setattr__(self, "displacement", int(displacement))
        if self.displacement < 0:
            raise PartitionError(f"displacement must be >= 0, got {displacement}")
        if not self.elements:
            raise PartitionError("a partition needs at least one element")
        sizes = tuple(e.size() for e in self.elements)
        object.__setattr__(self, "_element_sizes", sizes)
        size = sum(sizes)
        object.__setattr__(self, "size", size)
        if size <= 0:
            raise PartitionError("partition elements select no bytes")
        if validate:
            self._validate()

    # -- validation ----------------------------------------------------------

    def _validate(self) -> None:
        for idx, e in enumerate(self.elements):
            if not e.is_ordered():
                raise PartitionError(
                    f"element {idx} has interleaved FALLS footprints; "
                    "partition elements must be ordered for MAP to work"
                )
        starts, lengths, _ = self._segments()
        stops = starts + lengths - 1
        if starts.size == 0:
            raise PartitionError("partition selects no bytes")
        if starts[0] != 0:
            raise PartitionError(
                f"pattern must start at offset 0, first byte is {int(starts[0])}"
            )
        if np.any(starts[1:] <= stops[:-1]):
            bad = int(np.flatnonzero(starts[1:] <= stops[:-1])[0])
            raise PartitionError(
                f"partition elements overlap near offset {int(starts[bad + 1])}"
            )
        if np.any(starts[1:] != stops[:-1] + 1):
            bad = int(np.flatnonzero(starts[1:] != stops[:-1] + 1)[0])
            raise PartitionError(
                f"partition pattern has a gap after offset {int(stops[bad])}"
            )
        if int(stops[-1]) != self.size - 1:
            raise PartitionError(
                f"pattern covers [0, {int(stops[-1])}] but element sizes sum "
                f"to {self.size}"
            )

    def _segments(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every element's leaf segments as ``(starts, lengths, owners)``,
        sorted by start."""
        parts = [leaf_segment_arrays_set(e.falls) for e in self.elements]
        starts, lengths = (np.concatenate([p[k] for p in parts]) for k in (0, 1))
        owners = np.repeat(
            np.arange(len(parts), dtype=np.int32), [p[0].size for p in parts]
        )
        order = np.argsort(starts, kind="stable")
        return starts[order], lengths[order], owners[order]

    # -- accessors -----------------------------------------------------------

    @property
    def num_elements(self) -> int:
        return len(self.elements)

    def element_size(self, idx: int) -> int:
        return self._element_sizes[idx]

    def element_length(self, idx: int, file_length: int) -> int:
        """Bytes of a file of ``file_length`` owned by element ``idx``.

        Accounts for the displacement (bytes before it belong to no
        element) and for a final partial pattern instance.
        """
        if file_length <= self.displacement:
            return 0
        span = file_length - self.displacement
        full, rem = divmod(span, self.size)
        total = full * self.element_size(idx)
        if rem:
            from .mapping import count_below  # local import avoids a cycle

            total += count_below(self.elements[idx], rem)
        return total

    @cached_property
    def runs(self) -> Tuple[np.ndarray, np.ndarray]:
        """The pattern's maximal same-owner runs as ``(starts, owners)``:
        a run ends where the next begins (the last at ``size``), so one
        ``searchsorted`` on ``starts`` finds the owner of any offset."""
        if self.contiguous:
            lefts = np.array([e.falls[0].l for e in self.elements])
            owners = np.argsort(lefts).astype(np.int32)
            return lefts[owners], owners
        starts, _, owners = self._segments()
        heads = run_heads(owners)
        return starts[heads], owners[heads]

    @cached_property
    def contiguous(self) -> bool:
        """True when every element is one contiguous block of the pattern
        (one leaf FALLS with one block)."""
        return all(
            len(e.falls) == 1 and e.falls[0].n == 1 and e.falls[0].is_leaf
            for e in self.elements
        )

    @cached_property
    def row_width(self) -> int:
        """The widest row width :meth:`factors` may succeed at: the gcd of
        the pattern size and, per outer FALLS, the width it pins or its
        leaf bounds and stride.  O(FALLS nodes), read from the trees."""
        return math.gcd(self.size, *(
            _rows_by_columns(f)[0] or math.gcd(f.l, f.r + 1, f.s)
            for e in self.elements for f in e.falls
        ))

    def factors(self, width: int) -> tuple | None:
        """This partition as rows x columns at ``width`` bytes per row:
        ``(rows, cols, cells)``, where ``rows`` partitions the pattern's
        rows, ``cols`` partitions ``[0, width)`` and element ``e`` owns
        exactly the bytes ``row * width + col`` of row set ``cells[e][0]``
        and column set ``cells[e][1]``; ``None`` unless the trees prove
        it.  Memoised per width beside :attr:`runs`."""
        memo = self.__dict__.setdefault("_factors", {})
        if width not in memo:
            memo[width] = self._factor(width)
        return memo[width]

    def _factor(self, width: int) -> tuple | None:
        row_sets: dict = {}
        col_sets: dict = {}
        cells = []
        for e in self.elements:
            read = [_rows_by_columns(f) for f in e.falls]
            if len({cols for _, cols in read}) != 1 or any(
                w not in (0, width) or f.l % width or (f.r + 1) % width or f.s % width
                for f, (w, _) in zip(e.falls, read)
            ):
                return None
            rows = tuple(
                Falls(f.l // width, (f.r + 1) // width - 1, f.s // width, f.n)
                for f in e.falls
            )
            cols = read[0][1] or (Falls(0, width - 1, width, 1),)
            cells.append((row_sets.setdefault(rows, len(row_sets)),
                          col_sets.setdefault(cols, len(col_sets))))
        # Every (row set, column set) combination is one element of a
        # valid partition, so the row sets tile the rows and the column
        # sets the columns.
        if self.size % width or not (
            len(set(cells)) == len(cells) == len(row_sets) * len(col_sets)
        ):
            return None
        return (Partition(row_sets, validate=False),
                Partition(col_sets, validate=False), cells)

    def element_segments(self, idx: int, lo: int, hi: int) -> SegmentArrays:
        """File-space byte segments element ``idx`` owns within
        ``[lo, hi]`` (inclusive), sorted and merged: MAP⁻¹ of a whole
        window, per segment.  The periodic set is built per call so its
        window memo never pins file-sized arrays."""
        return PeriodicFallsSet(
            self.elements[idx], self.displacement, self.size
        ).segments_in(lo, hi)

    def element_set(self, idx: int) -> PeriodicFallsSet:
        """Element ``idx`` tiled from the displacement, built as rows x
        columns (:meth:`PeriodicFallsSet.from_product`) when
        :meth:`factors` reads the pattern as a product, so that
        :meth:`PeriodicFallsSet.product_in` answers its windows without
        expanding them.  The width is one :meth:`factors` already read
        the pattern at (a plan's, say: the bytes are the same at any),
        else :attr:`row_width`."""
        return self._element_sets[idx]

    @cached_property
    def _element_sets(self) -> Tuple[PeriodicFallsSet, ...]:
        known = [w for w, f in self.__dict__.get("_factors", {}).items() if f]
        width = max(known, default=self.row_width)
        factors = self.factors(width) if width > 1 else None
        if factors is None:
            return tuple(
                PeriodicFallsSet(e, self.displacement, self.size)
                for e in self.elements
            )
        rows, cols, cells = factors
        lists = [
            [merge_segment_arrays(leaf_segment_arrays_set(e.falls)) for e in p.elements]
            for p in (rows, cols)
        ]
        flat = [[flat_falls(*segs) for segs in side] for side in lists]
        return tuple(
            PeriodicFallsSet.from_product(
                e, lists[0][r], width, lists[1][c], self.displacement, self.size,
                (flat[0][r], flat[1][c]),
            )
            for e, (r, c) in zip(self.elements, cells)
        )

    def structure_key(self) -> str:
        """A stable content hash identifying this partition structurally.

        Two partitions get the same key exactly when their displacement
        and FALLS trees are identical (the canonical form mirrors the
        JSON serialization, so keys survive a
        :func:`repro.core.serialize.partition_to_json` round-trip and are
        comparable across processes).  This is the cache key the
        process-wide redistribution plan cache
        (:mod:`repro.redistribution.plan_cache`) uses to amortise the
        paper's ``t_i`` across every consumer of the same pattern pair.
        """
        cached = self.__dict__.get("_structure_key")
        if cached is None:
            from .serialize import falls_to_obj  # local import avoids a cycle

            payload = json.dumps(
                [
                    self.displacement,
                    [
                        [falls_to_obj(f) for f in e.falls]
                        for e in self.elements
                    ],
                ],
                separators=(",", ":"),
            )
            cached = hashlib.sha256(payload.encode("ascii")).hexdigest()
            # Frozen dataclass: memoise through __dict__ like
            # functools.cached_property does.
            self.__dict__["_structure_key"] = cached
        return cached

    def element_owning(self, x: int) -> Tuple[int, int]:
        """The ``(element index, element offset)`` pair owning file offset
        ``x`` (paper §5: the pattern maps each byte of the file on a pair
        subfile/position-within-subfile)."""
        if x < self.displacement:
            raise PartitionError(
                f"offset {x} precedes the displacement {self.displacement}"
            )
        from .mapping import map_offset

        starts, owners = self.runs
        rem = (x - self.displacement) % self.size
        idx = int(owners[np.searchsorted(starts, rem, "right") - 1])
        return idx, map_offset(self, idx, x)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        inner = "; ".join(str(e) for e in self.elements)
        return f"Partition(disp={self.displacement}, size={self.size}, [{inner}])"
