"""View setting (paper §8.1).

"When a compute node sets a view, described by V, on an open file ...
the intersection between V and each of the subfiles is computed.  The
projection of the intersection on V is computed and stored at [the]
compute node.  The projection of the intersection on S is computed and
sent to [the] I/O node of the corresponding subfile."

A :class:`View` therefore caches, per intersecting subfile:

* ``proj_view``  — PROJ_V(V ∩ S), used by GATHER/SCATTER at the compute
  node,
* ``proj_subfile`` — PROJ_S(V ∩ S), shipped to the I/O server and used
  there,
* the element mappers needed to map access extremities (``t_m``).

The wall-clock cost of building all of this is the paper's ``t_i``; it
is paid once per view set and amortised over every subsequent access.
Since the intersections and projections depend only on the two
partitioning patterns, the view set draws them from the process-wide
redistribution plan cache (:mod:`repro.redistribution.plan_cache`):
the first view against a (logical, physical) pair pays the full
``t_i``, every structurally identical later view — other elements of
the same logical partition, re-opened files, checkpoint restarts —
reuses the cached schedule and pays only the per-element slicing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..core.mapping import ElementMapper
from ..core.partition import Partition
from ..core.periodic import PeriodicFallsSet
from ..obs.span import Span, open_span
from ..redistribution.plan_cache import get_mapper, get_plan

__all__ = ["SubfileLink", "View", "set_view"]


@dataclass(frozen=True)
class SubfileLink:
    """Cached mapping state between one view and one subfile."""

    subfile: int
    intersection: PeriodicFallsSet
    proj_view: PeriodicFallsSet
    proj_subfile: PeriodicFallsSet
    subfile_mapper: ElementMapper
    #: True when the view and the subfile select exactly the same bytes,
    #: in which case MAP_S(MAP_V^{-1}(y)) == y and the access extremities
    #: need no mapping at all — the paper's "t_m is 0 when a view and a
    #: subfile perfectly overlap".
    is_identity: bool = False


@dataclass
class View:
    """A logical window on a file, owned by one compute node."""

    compute_node: int
    logical: Partition
    element: int
    links: Dict[int, SubfileLink]
    view_mapper: ElementMapper
    set_time_s: float  # the paper's t_i for this view set
    #: Reusable per-subfile gather buffers for the client-side GATHER of
    #: repeated accesses.  Grown on demand and held per *thread*: views
    #: are long-lived shared objects, and the service layer lets several
    #: concurrent readers use one view at once — each thread sees its
    #: own scratch, so repeated accesses on one thread still amortise.
    _gather_tls: threading.local = field(default_factory=threading.local)
    #: The ``view.set`` span this view's ``set_time_s`` was read from.
    trace: Optional[Span] = None

    @property
    def size_per_period(self) -> int:
        return self.logical.element_size(self.element)

    def length_for_file(self, file_length: int) -> int:
        return self.logical.element_length(self.element, file_length)

    def gather_buffer(self, subfile: int, nbytes: int) -> np.ndarray:
        """A scratch buffer of at least ``nbytes`` for gathering this
        view's payload toward one subfile, reused across accesses on
        the calling thread."""
        buffers: Dict[int, np.ndarray] | None = getattr(
            self._gather_tls, "buffers", None
        )
        if buffers is None:
            buffers = self._gather_tls.buffers = {}
        buf = buffers.get(subfile)
        if buf is None or buf.size < nbytes:
            buf = np.empty(nbytes, dtype=np.uint8)
            buffers[subfile] = buf
        return buf


def set_view(
    compute_node: int,
    logical: Partition,
    element: int,
    physical: Partition,
) -> View:
    """Compute and cache all view <-> subfile mapping state.

    Mirrors the paper's view-set step; the elapsed wall time is recorded
    as the view's ``t_i``.  The intersections and projections come from
    the process-wide plan cache: the first view set against a pattern
    pair builds it (INTERSECT + PROJ of every view and subfile in one
    sweep), later ones reuse the schedule
    (their recorded ``t_i`` is correspondingly the residual lookup cost
    — call :func:`repro.redistribution.plan_cache.clear_plan_cache`
    first to measure a cold set).
    """
    with open_span("view.set", compute=compute_node, element=element) as sp:
        plan = get_plan(logical, physical)
        view_mapper = get_mapper(logical, element)
        links: Dict[int, SubfileLink] = {}
        for t in plan.transfers_from(element):
            proj_view = t.src_projection
            proj_subfile = t.dst_projection
            identity = (
                proj_view.size_per_period == proj_view.period
                and proj_subfile.size_per_period == proj_subfile.period
                and proj_view.displacement == 0
                and proj_subfile.displacement == 0
            )
            links[t.dst_element] = SubfileLink(
                subfile=t.dst_element,
                intersection=t.intersection,
                proj_view=proj_view,
                proj_subfile=proj_subfile,
                subfile_mapper=get_mapper(physical, t.dst_element),
                is_identity=identity,
            )
    sp.annotate(links=len(links))
    return View(
        compute_node=compute_node,
        logical=logical,
        element=element,
        links=links,
        view_mapper=view_mapper,
        set_time_s=sp.wall_s,
        trace=sp,
    )
