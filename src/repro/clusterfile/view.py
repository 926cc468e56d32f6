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
  there.

The wall-clock cost of building all of this is the paper's ``t_i``; it
is paid once per view set and amortised over every subsequent access.
Since the intersections and projections depend only on the two
partitioning patterns, the view set draws them from the process-wide
redistribution plan cache (:mod:`repro.redistribution.plan_cache`):
the first view against a (logical, physical) pair pays the full
``t_i``, every structurally identical later view — other elements of
the same logical partition, re-opened files, checkpoint restarts —
reuses the cached schedule and pays only the per-element slicing.

Each access is then resolved once per (direction, interval)
(:meth:`View.layout`), so only its first use pays ``t_m``.  A layout
depends only on the pattern pair and the element, so a
:class:`~repro.clusterfile.fs.Clusterfile` hands every view of one
(logical, element, physical) triple the same layout table: the first
view of any file with that pair to make an access pays its ``t_m``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..core.mapping import map_offset, unmap_offset
from ..core.partition import Partition
from ..core.periodic import PeriodicFallsSet
from ..core.segments import (
    LazySegments,
    ProductSegments,
    SegmentArrays,
    relative_to,
)
from ..obs.span import Span, open_span
from ..redistribution.gather_scatter import (
    ResolvedCopy,
    resolve_packed,
    resolve_product,
)
from ..redistribution.plan_cache import get_plan

__all__ = ["SubfileLink", "LinkAccess", "View", "set_view"]

#: Access layouts one layout table keeps (:meth:`View.layout`); a table
#: whose accesses outgrow it starts over.
_LAYOUT_CACHE_CAPACITY = 64


@dataclass(frozen=True)
class SubfileLink:
    """Cached mapping state between one view and one subfile."""

    subfile: int
    proj_view: PeriodicFallsSet
    proj_subfile: PeriodicFallsSet
    #: True when the view and the subfile select exactly the same bytes,
    #: in which case MAP_S(MAP_V^{-1}(y)) == y and the access extremities
    #: need no mapping at all — the paper's "t_m is 0 when a view and a
    #: subfile perfectly overlap".
    is_identity: bool = False


class LinkAccess(NamedTuple):
    """One subfile's share of a view access, resolved once."""

    subfile: int
    #: The access extremities mapped onto the subfile (§8.1, lines 3-4).
    l_s: int
    r_s: int
    #: View-side fragments (1: the payload is one slice of the buffer).
    runs: int
    #: The payload's offset in the user buffer when ``runs == 1``, else
    #: the client's gather (write) or scatter (read).
    client: Union[int, ResolvedCopy]
    #: PROJ_S(V ∩ S) in ``[l_s, r_s]`` (absolute subfile offsets), which
    #: disk pricing, the journal and process-mode jobs read: for a
    #: product window a :class:`~repro.core.segments.LazySegments`
    #: expanded on first read, its run count known without it.
    segments: Union[SegmentArrays, LazySegments]
    #: The server's scatter (write) or gather (read) between payload
    #: and window.
    server: ResolvedCopy

    @property
    def nbytes(self) -> int:
        return self.server.nbytes


def _map_extremities(view: "View", link: SubfileLink, x0: int, x1: int):
    """Lines 3-4 of the first §8.1 fragment: l_S and r_S by MAP_S with
    next/prev rounding of the extremities' file offsets
    ``x0 = MAP_V^{-1}(lo)`` and ``x1 = MAP_V^{-1}(hi)``, which the
    view's access unmapped once for all its links.

    The scalar recursive MAP function is used — a few binary searches,
    matching the paper's observation that t_m "is very small"."""
    l_s = map_offset(view.physical, link.subfile, x0, mode="next")
    r_s = map_offset(view.physical, link.subfile, x1, mode="prev")
    return l_s, r_s


@dataclass
class View:
    """A logical window on a file, owned by one compute node."""

    compute_node: int
    logical: Partition
    element: int
    links: Dict[int, SubfileLink]
    #: The file's physical partition, whose subfiles the links name.
    physical: Partition
    set_time_s: float  # the paper's t_i for this view set
    #: Reusable per-subfile gather buffers for the client-side GATHER of
    #: repeated accesses.  Grown on demand and held per *thread*: views
    #: are long-lived shared objects, and the service layer lets several
    #: concurrent readers use one view at once — each thread sees its
    #: own scratch, so repeated accesses on one thread still amortise.
    _gather_tls: threading.local = field(default_factory=threading.local)
    #: The ``view.set`` span this view's ``set_time_s`` was read from.
    trace: Optional[Span] = None
    #: ``(write, lo, hi)`` -> the access's links (:meth:`layout`); shared
    #: by every view a deployment sets with this view's pattern pair and
    #: element.
    _layouts: Dict[tuple, Tuple[LinkAccess, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

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

    def layout(self, write: bool, lo: int, hi: int) -> Tuple[LinkAccess, ...]:
        """The links the access ``[lo, hi]`` touches, built on first use
        and kept per (direction, interval) in the view's layout table.
        Entries are immutable and equal however often, and by whichever
        view of the table, they are built, so concurrent accesses need
        no lock: a race builds one twice and keeps either."""
        key = (write, lo, hi)
        layout = self._layouts.get(key)
        if layout is None:
            layout = tuple(self._link_accesses(write, lo, hi))
            if len(self._layouts) >= _LAYOUT_CACHE_CAPACITY:
                self._layouts.clear()
            self._layouts[key] = layout
        return layout

    def _link_accesses(self, write: bool, lo: int, hi: int):
        unmapped = None
        for link in self.links.values():
            # Which view-space bytes of this link fall in the window
            # (line 2's emptiness test, and the client copy's segments).
            view_side, runs, start = _window(link.proj_view, lo, hi)
            if not runs:
                continue
            if link.is_identity:
                # MAP_S(MAP_V^{-1}(y)) == y: the paper's t_m = 0 case.
                l_s, r_s = lo, hi
            else:
                with open_span("map", subfile=link.subfile):
                    if unmapped is None:
                        unmapped = (
                            unmap_offset(self.logical, self.element, lo),
                            unmap_offset(self.logical, self.element, hi),
                        )
                    l_s, r_s = _map_extremities(self, link, *unmapped)
            client = (
                start - lo
                if runs == 1
                else resolve_packed(hi - lo + 1, relative_to(view_side, lo), write)
            )
            segments, _, _ = _window(link.proj_subfile, l_s, r_s)
            server = None
            if isinstance(segments, ProductSegments):
                server = resolve_product(
                    r_s - l_s + 1, relative_to(segments, l_s), not write
                )
                # Factors that resolve stay unexpanded until a reader
                # needs the arrays; others are expanded here, once.
                segments = (
                    segments.arrays() if server is None
                    else LazySegments(segments.runs, segments.arrays)
                )
            if server is None:
                server = resolve_packed(
                    r_s - l_s + 1, relative_to(segments, l_s), not write
                )
            yield LinkAccess(
                link.subfile, l_s, r_s, runs, client, segments, server,
            )


def _window(pfs: PeriodicFallsSet, lo: int, hi: int):
    """``(selection, runs, start)``: the bytes ``pfs`` selects in ``[lo,
    hi]`` — as rows x columns when its factors give them
    (:meth:`PeriodicFallsSet.product_in`), else as segments — with their
    merged run count and first offset."""
    product = pfs.product_in(lo, hi)
    if product is not None:
        runs = product.runs
        return product, runs, product.start if runs else 0
    starts, lengths = segs = pfs.segments_in(lo, hi)
    return segs, int(starts.size), int(starts[0]) if starts.size else 0


def set_view(
    compute_node: int,
    logical: Partition,
    element: int,
    physical: Partition,
    layouts: Optional[dict] = None,
) -> View:
    """Compute and cache all view <-> subfile mapping state.

    Mirrors the paper's view-set step; the elapsed wall time is recorded
    as the view's ``t_i``.  The intersections and projections come from
    the process-wide plan cache: the first view set against a pattern
    pair builds it (INTERSECT + PROJ of every view and subfile in one
    sweep), later ones reuse the schedule
    (their recorded ``t_i`` is correspondingly the residual lookup cost
    — call :func:`repro.redistribution.plan_cache.clear_plan_cache`
    first to measure a cold set).  ``layouts`` is the access-layout
    table to share (:meth:`View.layout`); a fresh one by default.
    """
    with open_span("view.set", compute=compute_node, element=element) as sp:
        plan = get_plan(logical, physical)
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
                proj_view=proj_view,
                proj_subfile=proj_subfile,
                is_identity=identity,
            )
    sp.annotate(links=len(links))
    return View(
        compute_node=compute_node,
        logical=logical,
        element=element,
        links=links,
        physical=physical,
        set_time_s=sp.wall_s,
        trace=sp,
        _layouts={} if layouts is None else layouts,
    )
