"""Intersection projection (paper §7).

The intersection of two partition elements is expressed in *file* linear
space.  To actually move data, each side needs the common bytes expressed
in its **own** linear space: the compute node keeps ``PROJ_V(V ∩ S)`` (to
gather from the view buffer) and the I/O node keeps ``PROJ_S(V ∩ S)`` (to
scatter into the subfile).  A projection is computed by pushing every
leaf segment of the intersection through the MAP function of the target
element; because every intersection segment lies inside a single leaf
segment of the element, MAP is affine on it and the image is again a
segment, so the projection of a FALLS family is a FALLS family.

Projections of periodic intersections are periodic too: over one
intersection period (lcm of the pattern sizes) the element owns a fixed
number of bytes, so in element space the projection repeats with period
``(lcm / pattern size) * element size``.
"""

from __future__ import annotations

import numpy as np

from .falls import FallsSet
from .mapping import ElementMapper
from .partition import Partition
from .periodic import PeriodicFallsSet

__all__ = ["project"]


def project(
    intersection: PeriodicFallsSet,
    partition: Partition,
    element: int,
    mapper: ElementMapper | None = None,
) -> PeriodicFallsSet:
    """PROJ: re-express an intersection in one element's linear space.

    Parameters
    ----------
    intersection:
        Result of :func:`repro.core.intersect_nested.intersect_elements`
        for a pair that includes ``(partition, element)``.  Its byte set
        must be a subset of the element's byte set.
    partition, element:
        The side to project onto.
    mapper:
        Optional pre-built :class:`ElementMapper` for the element (a view
        set builds each mapper once and reuses it across projections).
    """
    if intersection.is_empty:
        return PeriodicFallsSet(FallsSet(()), 0, 1)
    if mapper is None:
        mapper = ElementMapper(partition, element)

    lo = intersection.displacement
    hi = lo + intersection.period - 1
    starts, lengths = intersection.segments_in(lo, hi)
    ranks = mapper.map_many(starts)

    # The projected period in element space: the element owns
    # size_S bytes per pattern period, and the intersection period spans
    # lcm / size_P pattern periods.
    if intersection.period % partition.size != 0:
        raise ValueError(
            "intersection period is not a multiple of the partition size; "
            "was the intersection computed against this partition?"
        )
    out_period = (intersection.period // partition.size) * partition.element_size(
        element
    )

    # Re-base so the projection's own displacement marks where its
    # periodicity starts in element space.
    out_disp = int(mapper.map_many(np.array([lo], dtype=np.int64), mode="next")[0])
    rel = ranks - out_disp
    if rel.size and (int(rel[0]) < 0 or int(rel[-1] + lengths[-1] - 1) >= out_period):
        raise ValueError(
            "projected segments escape the projected period; the "
            "intersection is not a subset of the element"
        )
    return PeriodicFallsSet.from_segments((rel, lengths), out_disp, out_period)
