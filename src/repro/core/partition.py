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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .falls import Falls, FallsSet
from .periodic import PeriodicFallsSet
from .segments import SegmentArrays, leaf_segment_arrays_set, run_heads

__all__ = ["Partition", "PartitionError"]


class PartitionError(ValueError):
    """Raised when a partitioning pattern is structurally invalid."""


def _falls_canonical(f: Falls) -> list:
    """The compact array form ``[l, r, s, n, [inner...]]`` — identical to
    :func:`repro.core.serialize.falls_to_obj` (kept local to avoid an
    import cycle), so the structural key is stable across the JSON
    round-trip."""
    base: list = [f.l, f.r, f.s, f.n]
    if f.inner:
        base.append([_falls_canonical(g) for g in f.inner])
    return base


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
        size = sum(e.size() for e in self.elements)
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
        return self.elements[idx].size()

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
        starts, _, owners = self._segments()
        heads = run_heads(owners)
        return starts[heads], owners[heads]

    def element_segments(self, idx: int, lo: int, hi: int) -> SegmentArrays:
        """File-space byte segments element ``idx`` owns within
        ``[lo, hi]`` (inclusive), sorted and merged: MAP⁻¹ of a whole
        window, per segment.  The periodic set is built per call so its
        window memo never pins file-sized arrays."""
        return PeriodicFallsSet(
            self.elements[idx], self.displacement, self.size
        ).segments_in(lo, hi)

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
            payload = json.dumps(
                [
                    self.displacement,
                    [
                        [_falls_canonical(f) for f in e.falls]
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
